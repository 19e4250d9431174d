"""Monte Carlo estimators and checkers for the log-Sobolev family.

All functionals are expectations against the heat kernel probability
measure rho_s dm, estimated by (weighted) sample means over one common
batch.  Both sides of every inequality are evaluated on the same samples
(common random numbers), and combined standard errors are computed from
per-sample influence functions, so correlations between the two sides are
accounted for.

Checked statements, for user-supplied constants c, beta >= 0:

- LSI (L1 form):   int f log f <= (c s/2) int |grad f|^2/f
                                   + |f|_1 log |f|_1 + beta |f|_1
- LSI (L2 form):   int f^2 log|f| <= c s int |grad f|^2
                                   + |f|_2^2 log |f|_2 + (beta/2) |f|_2^2
- sLSI:            int f log f <= c int Ef + |f|_1 log |f|_1 + beta |f|_1
                   (asserted for log-subharmonic f only)
- sHC:             |e^{-tE} f|_q <= M(p,q) |f|_p for t >= t_J(p,q),
                   M(p,q) = exp(beta (1/p - 1/q)), t_J = c log(q/p)
- time-space:      int Ef = (s/2) int Delta f  (equality, two-sided test)

The constant c is known to be 1/2 in the Euclidean/Gaussian case; for
other groups it is a user input.  Runs on groups where the classical LSI
is not known to hold are labeled "exploratory", never "verified".
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .algebra import StratifiedAlgebra, classify_h_type
from .calculus import (
    ScalarField,
    dilation_pullback,
    euler_derivative_batch,
    evaluate_batch,
    horizontal_sums,
    sub_gradient_sq_batch,
    sub_laplacian_batch,
)
from .errors import ParameterError
from .heat import HeatSampleBatch
from .lsh import LSH_CONSISTENT, check_lsh
from .reports import (
    ABS_FLOOR,
    CheckReport,
    FunctionalEstimate,
    MODE_EXPLORATORY,
    MODE_VERIFIED,
    SweepReport,
    VERDICT_HOLDS,
    VERDICT_INCONCLUSIVE,
    VERDICT_VIOLATED,
    Z_THRESHOLD,
    heavy_tail_fraction,
    HEAVY_TAIL_FRACTION,
)


def janson_time(p: float, q: float, c: float) -> float:
    return c * math.log(q / p)


def defect_m(p: float, q: float, beta: float) -> float:
    return math.exp(beta * (1.0 / p - 1.0 / q))


@lru_cache(maxsize=None)
def lsi_mode(algebra: StratifiedAlgebra) -> str:
    """Label basis: LSI is known for step-1 (Gaussian) and H-type groups."""
    if algebra.step == 1:
        return MODE_VERIFIED
    if algebra.step == 2 and classify_h_type(algebra).is_h_type:
        return MODE_VERIFIED
    return MODE_EXPLORATORY


# -- per-sample building blocks -------------------------------------------------


def _se(infl: np.ndarray) -> float:
    """Standard error of the mean of per-sample influences."""
    return float(infl.std(ddof=1) / math.sqrt(infl.size))


def _mean_se(arr: np.ndarray):
    return float(arr.mean()), _se(arr) if arr.size > 1 else 0.0


def _values(f, batch: HeatSampleBatch) -> np.ndarray:
    return evaluate_batch(f, batch.algebra, batch.samples)


def _positive_values(f, batch: HeatSampleBatch, what: str) -> np.ndarray:
    """f on the batch; ``what`` is the requirement a non-positive value breaks."""
    v = _values(f, batch)
    if np.any(v <= 0):
        raise ParameterError(f"{what}; violated at sample {int(np.argmax(v <= 0))}")
    return v


def _batch_params(batch: HeatSampleBatch) -> dict:
    return {"s": batch.s, "n": batch.n_samples, "steps": batch.n_steps, "seed": batch.seed}


def _heavy(*contribs) -> bool:
    return any(heavy_tail_fraction(c) > HEAVY_TAIL_FRACTION for c in contribs)


def estimate(functional: str, f: ScalarField, batch: HeatSampleBatch,
             p: float | None = None) -> FunctionalEstimate:
    """Estimate one functional of f against rho_s dm.

    ids: l1, lp (needs p), entropy (int f log f), dirichlet (int |grad f|^2/f),
    grad_sq, euler (int Ef), laplacian (int Delta f).
    """
    w = batch.weights
    params = _batch_params(batch)
    if functional == "l1":
        val, se = _mean_se(w * _values(f, batch))
    elif functional == "lp":
        if p is None or p <= 0:
            raise ParameterError("lp functional needs p > 0")
        u = w * _values(f, batch) ** p
        m, se_m = _mean_se(u)
        val = m ** (1.0 / p)
        se = se_m * val / (p * m) if m > 0 else float("nan")
        params["p"] = p
    elif functional == "entropy":
        v = _positive_values(f, batch, "entropy needs f > 0")
        val, se = _mean_se(w * v * np.log(v))
    elif functional == "dirichlet":
        v = _positive_values(f, batch, "dirichlet form needs f > 0")
        g = sub_gradient_sq_batch(f, batch.algebra, batch.samples)
        val, se = _mean_se(w * g / v)
    elif functional == "grad_sq":
        g = sub_gradient_sq_batch(f, batch.algebra, batch.samples)
        val, se = _mean_se(w * g)
    elif functional == "euler":
        val, se = _mean_se(w * euler_derivative_batch(f, batch.algebra, batch.samples))
    elif functional == "laplacian":
        val, se = _mean_se(w * sub_laplacian_batch(f, batch.algebra, batch.samples))
    else:
        raise ParameterError(f"unknown functional id {functional!r}")
    return FunctionalEstimate(functional, val, se, batch.n_samples, params)


def _warn_if_not_lsh(f, batch, lsh_status, notes, check_points: int = 128):
    """sLSI/sHC facts are asserted for LSH functions only; warn otherwise."""
    if lsh_status is not None:
        if lsh_status != "lsh":
            warnings.warn(
                "check asserted only for log-subharmonic functions; "
                f"field has LSH status {lsh_status!r}",
                stacklevel=3,
            )
            notes.append(f"field LSH status: {lsh_status}")
        return
    pts = batch.samples[: min(check_points, batch.n_samples)]
    verdict = check_lsh(f, pts, tol=1e-7, algebra=batch.algebra)
    if verdict.verdict != LSH_CONSISTENT:
        why = (verdict.detail if verdict.min_delta_log is None
               else f"min Delta log f = {verdict.min_delta_log:.3g}")
        warnings.warn(
            "check asserted only for log-subharmonic functions; spot check "
            f"gave {verdict.verdict} ({why})",
            stacklevel=3,
        )
        notes.append(f"LSH spot check: {verdict.verdict}")


# -- inequality checks -----------------------------------------------------------


def _entropy_check(name, batch, ent, x, wf, k, h, beta, params, notes,
                   z_threshold, abs_floor) -> CheckReport:
    """Ent <= k X + h (m log m + beta m), the entropy inequality behind LSI and sLSI.

    Ent, X and m are the means of the weighted per-sample entropy, energy and
    mass terms ent, x and wf; the stderr is that of the margin's influence
    k (x - X) + h (log m + 1 + beta)(wf - m) - (ent - Ent).
    """
    m, L, X = float(np.mean(wf)), float(np.mean(ent)), float(np.mean(x))
    rhs = k * X + h * m * math.log(m) + h * beta * m
    infl = k * (x - X) + h * (math.log(m) + 1.0 + beta) * (wf - m) - (ent - L)
    return CheckReport.from_margin(
        name, L, rhs, _se(infl), mode=lsi_mode(batch.algebra), params=params,
        notes=notes, heavy_tail=_heavy(ent, x, wf),
        z_threshold=z_threshold, abs_floor=abs_floor,
    )


def check_lsi(f: ScalarField, batch: HeatSampleBatch, c: float, beta: float,
              form: str = "L1", z_threshold: float = Z_THRESHOLD,
              abs_floor: float = ABS_FLOOR) -> CheckReport:
    """Classical logarithmic Sobolev inequality in its L1 or L2 form."""
    if beta < 0 or c < 0:
        raise ParameterError("constants c, beta must be >= 0")
    w = batch.weights
    v = _positive_values(f, batch, "LSI check needs f > 0 on samples")
    gsq = sub_gradient_sq_batch(f, batch.algebra, batch.samples)
    logv = np.log(v)
    if form == "L1":
        terms = w * v * logv, w * gsq / v, w * v, c * batch.s / 2.0, 1.0
    elif form == "L2":
        terms = w * v * v * logv, w * gsq, w * v * v, c * batch.s, 0.5
    else:
        raise ParameterError(f"form must be 'L1' or 'L2', got {form!r}")
    return _entropy_check(f"lsi-{form.lower()}", batch, *terms, beta,
                          {"c": c, "beta": beta, "form": form, **_batch_params(batch)},
                          [], z_threshold, abs_floor)


def check_slsi(f: ScalarField, batch: HeatSampleBatch, c: float, beta: float,
               lsh_status: str | None = None,
               z_threshold: float = Z_THRESHOLD,
               abs_floor: float = ABS_FLOOR) -> CheckReport:
    """Strong LSI: entropy <= c int Ef + |f|_1 log |f|_1 + beta |f|_1."""
    if beta < 0 or c < 0:
        raise ParameterError("constants c, beta must be >= 0")
    notes: list = []
    _warn_if_not_lsh(f, batch, lsh_status, notes)
    w = batch.weights
    v = _positive_values(f, batch, "sLSI check needs f > 0 on samples")
    ef = w * euler_derivative_batch(f, batch.algebra, batch.samples)
    return _entropy_check("slsi", batch, w * v * np.log(v), ef, w * v, c, 1.0, beta,
                          {"c": c, "beta": beta, **_batch_params(batch)}, notes,
                          z_threshold, abs_floor)


def check_time_space(f: ScalarField, batch: HeatSampleBatch,
                     z_threshold: float = Z_THRESHOLD,
                     abs_floor: float = ABS_FLOOR) -> CheckReport:
    """Equality int Ef rho_s dm = (s/2) int Delta f rho_s dm (two-sided)."""
    w = batch.weights
    ef = w * euler_derivative_batch(f, batch.algebra, batch.samples)
    lap = w * sub_laplacian_batch(f, batch.algebra, batch.samples)
    return _time_space(batch, ef, lap, z_threshold, abs_floor)


def _time_space(batch, ef, lap, z_threshold, abs_floor) -> CheckReport:
    """The time-space report from the weighted Ef and Delta f per sample."""
    s = batch.s
    E, D = float(np.mean(ef)), float(np.mean(lap))
    infl = (ef - E) - (s / 2.0) * (lap - D)
    return CheckReport.from_margin(
        "time-space", E, (s / 2.0) * D, _se(infl), two_sided=True,
        mode=lsi_mode(batch.algebra), params=_batch_params(batch),
        heavy_tail=_heavy(ef, lap),
        z_threshold=z_threshold, abs_floor=abs_floor,
    )


def check_lsi_implies_slsi_chain(f: ScalarField, batch: HeatSampleBatch,
                                 lsh_status: str | None = None,
                                 z_threshold: float = Z_THRESHOLD,
                                 abs_floor: float = ABS_FLOOR) -> CheckReport:
    """The inequality chain behind LSI => sLSI for subharmonic positive f:

    int |grad f|^2/f <= int Delta f   together with the time-space equality
    int Ef = (s/2) int Delta f, reported as one chained check.
    """
    notes: list = []
    _warn_if_not_lsh(f, batch, lsh_status, notes)
    w = batch.weights
    v = _positive_values(f, batch, "chain check needs f > 0 on samples")
    # one frame and one jet evaluation of f give both sums, for both checks
    gsq, lap = horizontal_sums(f, batch.algebra, batch.samples)
    dir_ = w * gsq / v
    lap = w * lap
    G, D = float(np.mean(dir_)), float(np.mean(lap))
    se1 = _se((lap - D) - (dir_ - G))
    ineq = CheckReport.from_margin(
        "chain-dirichlet-vs-laplacian", G, D, se1,
        mode=lsi_mode(batch.algebra), heavy_tail=_heavy(dir_, lap),
        z_threshold=z_threshold, abs_floor=abs_floor,
    )
    ef = w * euler_derivative_batch(f, batch.algebra, batch.samples)
    ts = _time_space(batch, ef, lap, z_threshold, abs_floor)

    if VERDICT_VIOLATED in (ineq.verdict, ts.verdict):
        verdict = VERDICT_VIOLATED
    elif VERDICT_INCONCLUSIVE in (ineq.verdict, ts.verdict):
        verdict = VERDICT_INCONCLUSIVE
    else:
        verdict = VERDICT_HOLDS
    report = CheckReport(
        name="lsi-implies-slsi-chain",
        lhs=G, rhs=D, margin=ineq.margin, stderr=se1, z=ineq.z,
        verdict=verdict, two_sided=False, mode=lsi_mode(batch.algebra),
        params=_batch_params(batch), notes=notes,
        details={"inequality": ineq.as_dict(), "time_space": ts.as_dict()},
    )
    return report


def check_shc(f: ScalarField, batch: HeatSampleBatch, p: float, q: float,
              t: float, c: float, beta: float, exploratory: bool = False,
              lsh_status: str | None = None,
              z_threshold: float = Z_THRESHOLD,
              abs_floor: float = ABS_FLOOR) -> CheckReport:
    """Strong hypercontractivity |e^{-tE} f|_q <= M(p,q) |f|_p at t >= t_J.

    Refuses t < t_J(p,q) unless ``exploratory`` is set (running below
    Janson's time is how sharpness is demonstrated).  Both norms come from
    the one supplied batch.
    """
    if not (0 < p <= q):
        raise ParameterError(f"need 0 < p <= q, got p={p}, q={q}")
    if beta < 0 or c < 0:
        raise ParameterError("constants c, beta must be >= 0")
    t_j = janson_time(p, q, c)
    if t < t_j - 1e-12 and not exploratory:
        raise ParameterError(
            f"t={t} is below Janson's time t_J={t_j}; pass exploratory=True to probe"
        )
    notes: list = []
    _warn_if_not_lsh(f, batch, lsh_status, notes)
    m_pq = defect_m(p, q, beta)
    w = batch.weights
    ft = dilation_pullback(f, t)
    u = w * _values(ft, batch) ** q
    vv = w * _values(f, batch) ** p
    mu, mv = float(np.mean(u)), float(np.mean(vv))
    lhs = mu ** (1.0 / q)
    rhs = m_pq * mv ** (1.0 / p)
    infl = (
        m_pq * (1.0 / p) * mv ** (1.0 / p - 1.0) * (vv - mv)
        - (1.0 / q) * mu ** (1.0 / q - 1.0) * (u - mu)
    )
    return CheckReport.from_margin(
        "shc", lhs, rhs, _se(infl),
        mode=lsi_mode(batch.algebra),
        params={"p": p, "q": q, "t": t, "t_J": t_j, "M": m_pq, "c": c,
                "beta": beta, **_batch_params(batch), "exploratory": exploratory},
        notes=notes, heavy_tail=_heavy(u, vv),
        z_threshold=z_threshold, abs_floor=abs_floor,
    )


# -- sweeps ----------------------------------------------------------------------


def _sweep(name, f, batch, ts, r_of, m_of, params, notes, z_threshold,
           abs_floor) -> SweepReport:
    """alpha(t) = M(t)^{-1} |e^{-tE} f|_{r(t)} over the sorted t grid.

    The verdict is "holds" when alpha is non-increasing within
    z_threshold standard errors of each step plus abs_floor.
    """
    ts = np.asarray(sorted(float(t) for t in ts))
    w = batch.weights
    values, stderrs, infls = [], [], []
    for t in ts:
        r, m_t = r_of(t), m_of(t)
        u = w * _values(dilation_pullback(f, t), batch) ** r
        m = float(np.mean(u))
        values.append(m ** (1.0 / r) / m_t)
        dval = (1.0 / r) * m ** (1.0 / r - 1.0) / m_t
        infls.append(dval * (u - m))
        stderrs.append(_se(infls[-1]))
    diff_ses = [_se(b - a) for a, b in zip(infls, infls[1:])]
    tol = z_threshold * np.asarray(diff_ses) + abs_floor
    diffs = np.diff(np.asarray(values))
    noninc = bool(np.all(diffs <= tol))
    return SweepReport(
        name=name,
        ts=ts.tolist(), values=values, stderrs=stderrs, diff_stderrs=diff_ses,
        monotone_nonincreasing=noninc, monotone_nondecreasing=bool(np.all(diffs >= -tol)),
        verdict=VERDICT_HOLDS if noninc else VERDICT_VIOLATED,
        mode=lsi_mode(batch.algebra), params={**params, **_batch_params(batch)},
        notes=notes,
    )


def sweep_alpha(f: ScalarField, batch: HeatSampleBatch, c: float, beta: float,
                q: float, ts=None, lsh_status: str | None = None,
                z_threshold: float = Z_THRESHOLD,
                abs_floor: float = ABS_FLOOR) -> SweepReport:
    """alpha(t) = M(t)^{-1} |e^{-tE} f|_{r(t)} with r(t) = e^{t/c} on a grid.

    Under sLSI, alpha is non-increasing on [0, t_J(1, q)]; alpha(0) = |f|_1
    and alpha(t_J) = M(1,q)^{-1} |e^{-t_J E} f|_q.
    """
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    notes: list = []
    _warn_if_not_lsh(f, batch, lsh_status, notes)
    t_j = janson_time(1.0, q, c)
    return _sweep(
        "alpha-sweep", f, batch, np.linspace(0.0, t_j, 9) if ts is None else ts,
        lambda t: math.exp(t / c), lambda t: math.exp(beta * (1.0 - math.exp(-t / c))),
        {"c": c, "beta": beta, "q": q, "t_J": t_j}, notes, z_threshold, abs_floor,
    )


def check_l1_contractivity(f: ScalarField, batch: HeatSampleBatch, ts=None,
                           lsh_status: str | None = None,
                           z_threshold: float = Z_THRESHOLD,
                           abs_floor: float = ABS_FLOOR) -> SweepReport:
    """|e^{-tE} f|_1 over a t grid; non-increasing for log-subharmonic f."""
    notes: list = []
    _warn_if_not_lsh(f, batch, lsh_status, notes)
    return _sweep(
        "l1-contractivity", f, batch, np.linspace(0.0, 1.0, 9) if ts is None else ts,
        lambda t: 1.0, lambda t: 1.0, {}, notes, z_threshold, abs_floor,
    )
