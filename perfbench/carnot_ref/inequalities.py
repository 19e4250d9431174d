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


def _mean_se(arr: np.ndarray):
    n = arr.size
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0


def _values(f, batch: HeatSampleBatch) -> np.ndarray:
    return evaluate_batch(f, batch.algebra, batch.samples)


def _heavy(*contribs) -> bool:
    return any(heavy_tail_fraction(c) > HEAVY_TAIL_FRACTION for c in contribs)


def estimate(functional: str, f: ScalarField, batch: HeatSampleBatch,
             p: float | None = None) -> FunctionalEstimate:
    """Estimate one functional of f against rho_s dm.

    ids: l1, lp (needs p), entropy (int f log f), dirichlet (int |grad f|^2/f),
    grad_sq, euler (int Ef), laplacian (int Delta f).
    """
    w = batch.weights
    n = batch.n_samples
    params = {"s": batch.s, "n": n, "steps": batch.n_steps, "seed": batch.seed}
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
        v = _values(f, batch)
        if np.any(v <= 0):
            raise ParameterError(
                f"entropy needs f > 0; violated at sample {int(np.argmax(v <= 0))}"
            )
        val, se = _mean_se(w * v * np.log(v))
    elif functional == "dirichlet":
        v = _values(f, batch)
        if np.any(v <= 0):
            raise ParameterError(
                f"dirichlet form needs f > 0; violated at sample {int(np.argmax(v <= 0))}"
            )
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
    return FunctionalEstimate(functional, val, se, n, params)


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
        warnings.warn(
            "check asserted only for log-subharmonic functions; spot check "
            f"gave {verdict.verdict} (min Delta log f = {verdict.min_delta_log:.3g})",
            stacklevel=3,
        )
        notes.append(f"LSH spot check: {verdict.verdict}")


# -- inequality checks -----------------------------------------------------------


def check_lsi(f: ScalarField, batch: HeatSampleBatch, c: float, beta: float,
              form: str = "L1", z_threshold: float = Z_THRESHOLD,
              abs_floor: float = ABS_FLOOR) -> CheckReport:
    """Classical logarithmic Sobolev inequality in its L1 or L2 form."""
    if beta < 0 or c < 0:
        raise ParameterError("constants c, beta must be >= 0")
    w = batch.weights
    n = batch.n_samples
    s = batch.s
    v = _values(f, batch)
    if np.any(v <= 0):
        raise ParameterError(
            f"LSI check needs f > 0 on samples; violated at sample {int(np.argmax(v <= 0))}"
        )
    gsq = sub_gradient_sq_batch(f, batch.algebra, batch.samples)
    logv = np.log(v)
    if form == "L1":
        ent = w * v * logv
        dir_ = w * gsq / v
        wf = w * v
        m1, L, G = float(np.mean(wf)), float(np.mean(ent)), float(np.mean(dir_))
        lhs = L
        rhs = (c * s / 2.0) * G + m1 * math.log(m1) + beta * m1
        infl = (
            (c * s / 2.0) * (dir_ - G)
            + (math.log(m1) + 1.0 + beta) * (wf - m1)
            - (ent - L)
        )
        heavy = _heavy(ent, dir_, wf)
    elif form == "L2":
        ent2 = w * v * v * logv
        g2 = w * gsq
        wf2 = w * v * v
        m2, L, G = float(np.mean(wf2)), float(np.mean(ent2)), float(np.mean(g2))
        lhs = L
        rhs = c * s * G + 0.5 * m2 * math.log(m2) + 0.5 * beta * m2
        infl = (
            c * s * (g2 - G)
            + 0.5 * (math.log(m2) + 1.0 + beta) * (wf2 - m2)
            - (ent2 - L)
        )
        heavy = _heavy(ent2, g2, wf2)
    else:
        raise ParameterError(f"form must be 'L1' or 'L2', got {form!r}")
    se = float(infl.std(ddof=1) / math.sqrt(n))
    return CheckReport.from_margin(
        f"lsi-{form.lower()}", lhs, rhs, se,
        mode=lsi_mode(batch.algebra),
        params={"c": c, "beta": beta, "s": s, "n": n, "form": form,
                "steps": batch.n_steps, "seed": batch.seed},
        heavy_tail=heavy, z_threshold=z_threshold, abs_floor=abs_floor,
    )


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
    n = batch.n_samples
    v = _values(f, batch)
    if np.any(v <= 0):
        raise ParameterError(
            f"sLSI check needs f > 0 on samples; violated at sample {int(np.argmax(v <= 0))}"
        )
    ent = w * v * np.log(v)
    ef = w * euler_derivative_batch(f, batch.algebra, batch.samples)
    wf = w * v
    m1, L, E = float(np.mean(wf)), float(np.mean(ent)), float(np.mean(ef))
    lhs = L
    rhs = c * E + m1 * math.log(m1) + beta * m1
    infl = c * (ef - E) + (math.log(m1) + 1.0 + beta) * (wf - m1) - (ent - L)
    se = float(infl.std(ddof=1) / math.sqrt(n))
    return CheckReport.from_margin(
        "slsi", lhs, rhs, se,
        mode=lsi_mode(batch.algebra),
        params={"c": c, "beta": beta, "s": batch.s, "n": n,
                "steps": batch.n_steps, "seed": batch.seed},
        notes=notes, heavy_tail=_heavy(ent, ef, wf),
        z_threshold=z_threshold, abs_floor=abs_floor,
    )


def check_time_space(f: ScalarField, batch: HeatSampleBatch,
                     z_threshold: float = Z_THRESHOLD,
                     abs_floor: float = ABS_FLOOR) -> CheckReport:
    """Equality int Ef rho_s dm = (s/2) int Delta f rho_s dm (two-sided)."""
    w = batch.weights
    n = batch.n_samples
    s = batch.s
    ef = w * euler_derivative_batch(f, batch.algebra, batch.samples)
    lap = w * sub_laplacian_batch(f, batch.algebra, batch.samples)
    E, D = float(np.mean(ef)), float(np.mean(lap))
    infl = (ef - E) - (s / 2.0) * (lap - D)
    se = float(infl.std(ddof=1) / math.sqrt(n))
    return CheckReport.from_margin(
        "time-space", E, (s / 2.0) * D, se, two_sided=True,
        mode=lsi_mode(batch.algebra),
        params={"s": s, "n": n, "steps": batch.n_steps, "seed": batch.seed},
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
    n = batch.n_samples
    v = _values(f, batch)
    if np.any(v <= 0):
        raise ParameterError(
            f"chain check needs f > 0 on samples; violated at sample {int(np.argmax(v <= 0))}"
        )
    dir_ = w * sub_gradient_sq_batch(f, batch.algebra, batch.samples) / v
    lap = w * sub_laplacian_batch(f, batch.algebra, batch.samples)
    G, D = float(np.mean(dir_)), float(np.mean(lap))
    infl1 = (lap - D) - (dir_ - G)
    se1 = float(infl1.std(ddof=1) / math.sqrt(n))
    ineq = CheckReport.from_margin(
        "chain-dirichlet-vs-laplacian", G, D, se1,
        mode=lsi_mode(batch.algebra), heavy_tail=_heavy(dir_, lap),
        z_threshold=z_threshold, abs_floor=abs_floor,
    )
    ts = check_time_space(f, batch, z_threshold=z_threshold, abs_floor=abs_floor)

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
        params={"s": batch.s, "n": n, "steps": batch.n_steps, "seed": batch.seed},
        notes=notes,
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
    n = batch.n_samples
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
    se = float(infl.std(ddof=1) / math.sqrt(n))
    return CheckReport.from_margin(
        "shc", lhs, rhs, se,
        mode=lsi_mode(batch.algebra),
        params={"p": p, "q": q, "t": t, "t_J": t_j, "M": m_pq, "c": c,
                "beta": beta, "s": batch.s, "n": n, "steps": batch.n_steps,
                "seed": batch.seed, "exploratory": exploratory},
        notes=notes, heavy_tail=_heavy(u, vv),
        z_threshold=z_threshold, abs_floor=abs_floor,
    )


# -- sweeps ----------------------------------------------------------------------


def _monotone_verdicts(values, diff_ses, z_threshold, abs_floor):
    values = np.asarray(values)
    diffs = np.diff(values)
    tol = z_threshold * np.asarray(diff_ses) + abs_floor
    nonincreasing = bool(np.all(diffs <= tol))
    nondecreasing = bool(np.all(diffs >= -tol))
    return nonincreasing, nondecreasing


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
    if ts is None:
        ts = np.linspace(0.0, t_j, 9)
    ts = np.asarray(sorted(float(t) for t in ts))
    w = batch.weights
    n = batch.n_samples
    values, stderrs, infls = [], [], []
    for t in ts:
        r = math.exp(t / c)
        m_t = math.exp(beta * (1.0 - math.exp(-t / c)))
        ft = dilation_pullback(f, t)
        u = w * _values(ft, batch) ** r
        m = float(np.mean(u))
        val = m ** (1.0 / r) / m_t
        dval = (1.0 / r) * m ** (1.0 / r - 1.0) / m_t
        infl = dval * (u - m)
        values.append(val)
        stderrs.append(float(infl.std(ddof=1) / math.sqrt(n)))
        infls.append(infl)
    diff_ses = [
        float((infls[i + 1] - infls[i]).std(ddof=1) / math.sqrt(n))
        for i in range(len(ts) - 1)
    ]
    noninc, nondec = _monotone_verdicts(values, diff_ses, z_threshold, abs_floor)
    return SweepReport(
        name="alpha-sweep",
        ts=ts.tolist(), values=values, stderrs=stderrs, diff_stderrs=diff_ses,
        monotone_nonincreasing=noninc, monotone_nondecreasing=nondec,
        verdict=VERDICT_HOLDS if noninc else VERDICT_VIOLATED,
        mode=lsi_mode(batch.algebra),
        params={"c": c, "beta": beta, "q": q, "t_J": t_j, "s": batch.s,
                "n": n, "steps": batch.n_steps, "seed": batch.seed},
        notes=notes,
    )


def check_l1_contractivity(f: ScalarField, batch: HeatSampleBatch, ts=None,
                           lsh_status: str | None = None,
                           z_threshold: float = Z_THRESHOLD,
                           abs_floor: float = ABS_FLOOR) -> SweepReport:
    """|e^{-tE} f|_1 over a t grid; non-increasing for log-subharmonic f."""
    notes: list = []
    _warn_if_not_lsh(f, batch, lsh_status, notes)
    if ts is None:
        ts = np.linspace(0.0, 1.0, 9)
    ts = np.asarray(sorted(float(t) for t in ts))
    w = batch.weights
    n = batch.n_samples
    values, stderrs, infls = [], [], []
    for t in ts:
        u = w * _values(dilation_pullback(f, t), batch)
        m = float(np.mean(u))
        values.append(m)
        stderrs.append(float(u.std(ddof=1) / math.sqrt(n)))
        infls.append(u - m)
    diff_ses = [
        float((infls[i + 1] - infls[i]).std(ddof=1) / math.sqrt(n))
        for i in range(len(ts) - 1)
    ]
    noninc, nondec = _monotone_verdicts(values, diff_ses, z_threshold, abs_floor)
    return SweepReport(
        name="l1-contractivity",
        ts=ts.tolist(), values=values, stderrs=stderrs, diff_stderrs=diff_ses,
        monotone_nonincreasing=noninc, monotone_nondecreasing=nondec,
        verdict=VERDICT_HOLDS if noninc else VERDICT_VIOLATED,
        mode=lsi_mode(batch.algebra),
        params={"s": batch.s, "n": n, "steps": batch.n_steps, "seed": batch.seed},
        notes=notes,
    )
