"""Monte Carlo estimators and checkers for the log-Sobolev family.

All functionals are expectations against the heat kernel probability
measure rho_s dm, estimated by (weighted) sample means over one common
batch.  Both sides of every inequality are evaluated on the same samples
(common random numbers), and combined standard errors are computed from
per-sample influence functions, so correlations between the two sides are
accounted for.  One core, ``_delta_method``, gives every margin its influence
and stderr; ``_margin_report`` adds heavy tail and mode.  One rule, ``_norms``,
forms every L^r norm in logs against the batch's log weights.  One table,
``_columns``, writes every other weighted per-sample column of f.  Every
check first refuses, by ``_require_layers``, a field that reads a layer the
batch does not hold, then its constants' rule (``lsi_rules``, ``shc_rules``
or ``sweep_rules``), which the CLI applies too, before it samples.

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
from dataclasses import replace

import numpy as np

from . import calculus
from .algebra import StratifiedAlgebra
from .calculus import (
    ScalarField,
    dilation_pullback,
    euler_derivative_batch,
    evaluate_batch,
    evaluate_pullbacks,
)
from .errors import CarnotError, ParameterError
from .heat import HeatSampleBatch
from .lsh import LSH_CONSISTENT, check_lsh
from .reports import (
    CheckReport,
    FunctionalEstimate,
    MODE_EXPLORATORY,
    MODE_VERIFIED,
    SweepReport,
    heavy_tail_fraction,
    HEAVY_TAIL_FRACTION,
    worst_verdict,
)


def janson_time(p: float, q: float, c: float) -> float:
    return c * math.log(q / p)


def defect_m(p: float, q: float, beta: float) -> float:
    return math.exp(beta * (1.0 / p - 1.0 / q))


def lsi_mode(algebra: StratifiedAlgebra) -> str:
    """Label basis: LSI is known for step-1 (Gaussian) and H-type groups."""
    if algebra.step == 1:
        return MODE_VERIFIED
    if algebra.step == 2 and algebra.is_h_type:
        return MODE_VERIFIED
    return MODE_EXPLORATORY


# -- per-sample building blocks -------------------------------------------------


def _ses(infl: np.ndarray):
    """Standard errors of the means of the influences along the last axis of
    ``infl``, a float for one row; NaN below two samples. Outside [2^-400,
    2^400] the squares of the influences may have left double range, so there
    the rows are scaled by a power of two near their largest entry first,
    which is exact: inside that range it would change no bit of a stderr."""
    n = infl.shape[-1]
    if n < 2:
        return np.full(infl.shape[:-1], math.nan).tolist()
    with np.errstate(over="ignore"):
        ses = infl.std(axis=-1, ddof=1) / math.sqrt(n)
    if not np.all((ses > 2.0 ** -400) & (ses < 2.0 ** 400)):
        k = 1 - np.frexp(np.abs(infl).max(axis=-1))[1]
        ses = np.ldexp(np.ldexp(infl, k[..., None]).std(axis=-1, ddof=1) / math.sqrt(n), -k)
    return ses.tolist()


def _require_layers(f, batch: HeatSampleBatch) -> None:
    """Every public check's first step: f may read only the layers the batch
    holds (an exact first-layer batch holds layer 1 alone), found once from
    f's tree, before any sample is read."""
    batch.require_layers(f.layers, "the field reads")


def _positive_values(f, batch: HeatSampleBatch, what: str) -> np.ndarray:
    """f on the batch; ``what`` is the requirement a non-positive value breaks."""
    v = evaluate_batch(f, batch.algebra, batch.samples)
    if (v <= 0).any():
        raise ParameterError(f"{what}; violated at sample {int(np.argmax(v <= 0))}")
    return v


def _columns(f, batch: HeatSampleBatch, ids, what=None) -> list:
    """The weighted per-sample columns w g of f for the functional ids of ``ids``,
    in order: g is f (l1), f log f (entropy), f |grad log f|^2 (dirichlet: it is
    |grad f|^2 / f at f's own scale), |grad f|^2 (grad_sq), Ef (euler), Delta f
    (laplacian), f^2 (f2) or f^2 log f (f2log). f's values, f's horizontal jets
    and Ef are each formed at most once, and only if an id needs them; each
    horizontal column is a ``frame_sum`` over those jets (or log's derivatives), and
    ``what``, if given, is the requirement f > 0, checked before any jet."""
    alg, pts, w, need = batch.algebra, batch.samples, batch.weights, set(ids)
    if need & {"l1", "entropy", "dirichlet", "f2", "f2log"}:
        v = evaluate_batch(f, alg, pts) if what is None else _positive_values(f, batch, what)
    if need & {"dirichlet", "grad_sq", "laplacian"}:
        jets = calculus.horizontal_jets(f, alg, pts)
    column = {
        "l1": lambda: w * v,
        "entropy": lambda: w * v * np.log(v),
        "dirichlet": lambda: w * v * calculus.frame_sum(
            (r * r for r, _ in calculus.log_derivatives(jets)), len(pts)),
        "grad_sq": lambda: w * calculus.frame_sum((j.d1 * j.d1 for j in jets), len(pts)),
        "euler": lambda: w * euler_derivative_batch(f, alg, pts),
        "laplacian": lambda: w * calculus.frame_sum((j.d2 for j in jets), len(pts)),
        "f2": lambda: w * v * v,
        "f2log": lambda: w * v * v * np.log(v),
    }
    return [column[i]() for i in ids]


def _batch_params(batch: HeatSampleBatch) -> dict:
    return {"s": batch.s, "n": batch.n_samples, "steps": batch.n_steps, "seed": batch.seed}


def _require_finite_mean(col, m: float) -> None:
    """m, the mean (or the max) of ``col``, must be finite: a non-finite m is
    overflow, which no margin can be decided from."""
    if not math.isfinite(m):
        bad = np.flatnonzero(~np.isfinite(col))
        where = f"at sample {bad[0]}" if bad.size else "in a column sum"
        raise ParameterError(f"non-finite value (overflow) {where}")


def _delta_method(cols, sides):
    """(lhs, rhs, influence, stderr) of a margin rhs - lhs, or of lhs if rhs is None.

    ``cols`` are a check's weighted per-sample columns and ``sides(*means)``
    returns (lhs, rhs, grad) from their means, grad being the gradient of
    the margin in the means.  The influence is sum_i grad_i (col_i - mean_i).
    """
    means = [float(c.mean()) for c in cols]
    for c, m in zip(cols, means):
        _require_finite_mean(c, m)
    lhs, rhs, grad = sides(*means)
    terms = [g * (c - m) for g, c, m in zip(grad, cols, means)]
    infl = sum(terms[1:], terms[0])
    return lhs, rhs, infl, _ses(infl)


_LOG_MAX = math.log(np.finfo(float).max)  # a norm with a larger log overflows


def _norms(u, batch: HeatSampleBatch, rs, labels):
    """(means, norms, derivatives in the means) of the rows of positive samples
    u: row i's L^rs[i] norm against the batch's weights. Each row becomes, in
    place, w u^r / max(w u^r) = exp(log w + r log u - top), so no weighted power
    leaves double range; with m its mean, the norm is exp((top + log m) / r)
    and its derivative norm / (r m). A non-finite u is f's overflow; a norm of
    0.0 or beyond double range is the error of its ``labels`` entry."""
    np.log(u, out=u)
    u *= np.asarray(rs, dtype=float)[:, None]
    if batch.log_weights is not None:
        u += batch.log_weights
    tops = u.max(axis=1)
    for row, top in zip(u, tops):
        _require_finite_mean(row, top)
    u -= tops[:, None]
    np.exp(u, out=u)
    means = u.mean(axis=1)
    logs = [(top + math.log(m)) / r for top, m, r in zip(tops.tolist(), means.tolist(), rs)]
    norms = np.array([math.exp(x) if x < _LOG_MAX else 0.0 for x in logs])
    if not norms.all():
        i = int(np.argmin(norms))
        raise ParameterError(f"{labels[i]} = exp({logs[i]:.6g}) is outside double range")
    return means, norms.tolist(), (norms / (np.asarray(rs, dtype=float) * means)).tolist()


def _margin_report(name, batch: HeatSampleBatch, cols, sides, **kw) -> CheckReport:
    """The report of one margin, with the columns' heavy-tail flag and the mode."""
    lhs, rhs, _, stderr = _delta_method(cols, sides)
    heavy = any(heavy_tail_fraction(c) > HEAVY_TAIL_FRACTION for c in cols)
    return CheckReport.from_margin(name, lhs, rhs, stderr, heavy_tail=heavy,
                                   mode=lsi_mode(batch.algebra), **kw)


# estimate's plain means, each with its requirement f > 0, if it has one
_MEANS = {"l1": None, "grad_sq": None, "euler": None, "laplacian": None,
          "entropy": "entropy needs f > 0", "dirichlet": "dirichlet form needs f > 0"}


def estimate(functional: str, f: ScalarField, batch: HeatSampleBatch,
             p: float | None = None) -> FunctionalEstimate:
    """Estimate one functional of f against rho_s dm.

    ids: l1, lp (needs p), entropy (int f log f), dirichlet (int |grad f|^2/f,
    as int f |grad log f|^2), grad_sq, euler (int Ef), laplacian (int Delta f).
    """
    _require_layers(f, batch)
    params = _batch_params(batch)
    if functional == "lp":
        if p is None or p <= 0:
            raise ParameterError("lp functional needs p > 0")
        col = _positive_values(f, batch, "lp norm needs f > 0")[None]
        _, (norm,), (deriv,) = _norms(col, batch, [p], [f"lp norm |f|_{p:g}"])
        col, sides, params["p"] = col[0], lambda m: (norm, None, [deriv]), p
    elif functional in _MEANS:
        (col,) = _columns(f, batch, [functional], _MEANS[functional])
        sides = lambda m: (m, None, [1.0])  # a plain mean
    else:
        raise ParameterError(f"unknown functional id {functional!r}")
    val, _, _, se = _delta_method([col], sides)
    return FunctionalEstimate(functional, val, se, batch.n_samples, params)


# samples the LSH spot check of a field without a library status looks at
_LSH_SPOT_POINTS = 128


def _warn_if_not_lsh(f, batch, lsh_status) -> list:
    """sLSI/sHC facts are asserted for LSH functions only; warn and note otherwise."""
    if lsh_status is not None:
        if lsh_status == "lsh":
            return []
        warnings.warn(
            "check asserted only for log-subharmonic functions; "
            f"field has LSH status {lsh_status!r}",
            stacklevel=3,
        )
        return [f"field LSH status: {lsh_status}"]
    pts = batch.samples[: min(_LSH_SPOT_POINTS, batch.n_samples)]
    verdict = check_lsh(f, pts, tol=1e-7, algebra=batch.algebra)
    if verdict.verdict == LSH_CONSISTENT:
        return []
    why = (verdict.detail if verdict.min_delta_log is None
           else f"min Delta log f = {verdict.min_delta_log:.3g}")
    warnings.warn(
        "check asserted only for log-subharmonic functions; spot check "
        f"gave {verdict.verdict} ({why})",
        stacklevel=3,
    )
    return [f"LSH spot check: {verdict.verdict}"]


# -- inequality checks -----------------------------------------------------------


def lsi_rules(c: float, beta: float, form: str = "L1") -> None:
    """The LSI's rules, which sLSI, sHC and alpha share: c, beta >= 0 and form L1 or L2."""
    for key, value in (("c", c), ("beta", beta)):
        if value < 0:
            raise ParameterError(f"{key!r} must be >= 0, got {value!r}")
    if form not in ("L1", "L2"):
        raise ParameterError(f"'form' must be 'L1' or 'L2', got {form!r}")


def shc_rules(p: float, q: float, t: float | None, c: float, beta: float,
              exploratory: bool = False) -> float:
    """The rules of the sHC check, which returns t_J(p, q): 0 < p <= q,
    c, beta >= 0, and t >= t_J unless ``exploratory``; t None is t_J itself."""
    if not (0 < p <= q):
        raise ParameterError(f"need 0 < p <= q, got p={p}, q={q}")
    lsi_rules(c, beta)
    t_j = janson_time(p, q, c)
    if t is not None and t < t_j - 1e-12 and not exploratory:
        raise ParameterError(f"t={t} is below Janson's time t_J={t_j}; "
                             "pass exploratory=True to probe")
    return t_j


def sweep_rules(ts, c: float = 1.0, beta: float = 0.0, q: float = 1.0) -> None:
    """The sweeps' rules: a given grid ``ts`` has two or more t, whose steps decide
    monotonicity; alpha's r(t) = e^{t/c} and M(t) need c > 0, q >= 1, beta >= 0."""
    if c <= 0:
        raise ParameterError(f"'c' must be > 0, got {c!r}")
    if q < 1:
        raise ParameterError(f"'q' must be >= 1, got {q!r}")
    lsi_rules(c, beta)
    if ts is not None and len(ts) < 2:
        raise ParameterError(f"'grid' needs at least two t values, got {ts!r}")


def _entropy_check(name, batch, cols, k, h, mass, beta, params, notes) -> CheckReport:
    """Ent <= k X + h (m log m + beta m), the entropy inequality behind LSI and sLSI.

    X, m and Ent are the means of ``cols``, the weighted per-sample energy, mass
    and entropy; an m below the smallest normal double, as of an f whose square
    underflows, has lost its digits and is the check's error, naming ``mass``."""
    def sides(X, m, L):
        if m < np.finfo(float).tiny:
            raise ParameterError(f"{name} check: mass {mass} = {m:.6g} is outside double range")
        return L, k * X + h * m * math.log(m) + h * beta * m, (
            k, h * (math.log(m) + 1.0 + beta), -1.0)

    return _margin_report(name, batch, cols, sides, params=params, notes=notes)


def check_lsi(f: ScalarField, batch: HeatSampleBatch, c: float, beta: float,
              form: str = "L1") -> CheckReport:
    """Classical logarithmic Sobolev inequality in its L1 or L2 form."""
    _require_layers(f, batch)
    lsi_rules(c, beta, form)
    if form == "L1":
        ids, k, h, mass = ("dirichlet", "l1", "entropy"), c * batch.s / 2.0, 1.0, "|f|_1"
    else:
        ids, k, h, mass = ("grad_sq", "f2", "f2log"), c * batch.s, 0.5, "|f|_2^2"
    cols = _columns(f, batch, ids, "LSI check needs f > 0 on samples")
    return _entropy_check(f"lsi-{form.lower()}", batch, cols, k, h, mass, beta,
                          {"c": c, "beta": beta, "form": form, **_batch_params(batch)}, [])


def check_slsi(f: ScalarField, batch: HeatSampleBatch, c: float, beta: float,
               lsh_status: str | None = None) -> CheckReport:
    """Strong LSI: entropy <= c int Ef + |f|_1 log |f|_1 + beta |f|_1."""
    _require_layers(f, batch)
    lsi_rules(c, beta)
    notes = _warn_if_not_lsh(f, batch, lsh_status)
    cols = _columns(f, batch, ("euler", "l1", "entropy"), "sLSI check needs f > 0 on samples")
    return _entropy_check("slsi", batch, cols, c, 1.0, "|f|_1", beta,
                          {"c": c, "beta": beta, **_batch_params(batch)}, notes)


def check_time_space(f: ScalarField, batch: HeatSampleBatch) -> CheckReport:
    """Equality int Ef rho_s dm = (s/2) int Delta f rho_s dm (two-sided)."""
    _require_layers(f, batch)
    return _time_space(batch, *_columns(f, batch, ("euler", "laplacian")))


def _time_space(batch, ef, lap) -> CheckReport:
    """The time-space report from the weighted Ef and Delta f per sample."""
    half_s = batch.s / 2.0
    return _margin_report("time-space", batch, (ef, lap),
                          lambda E, D: (E, half_s * D, (1.0, -half_s)), two_sided=True,
                          params=_batch_params(batch))


def check_lsi_implies_slsi_chain(f: ScalarField, batch: HeatSampleBatch,
                                 lsh_status: str | None = None) -> CheckReport:
    """The inequality chain behind LSI => sLSI for subharmonic positive f:

    int |grad f|^2/f <= int Delta f   together with the time-space equality
    int Ef = (s/2) int Delta f, reported as one chained check.
    """
    _require_layers(f, batch)
    notes = _warn_if_not_lsh(f, batch, lsh_status)
    # one pass of f's jets gives Delta f, for both checks, and |grad log f|^2
    lap, dirichlet, ef = _columns(f, batch, ("laplacian", "dirichlet", "euler"),
                                  "chain check needs f > 0 on samples")
    ineq = _margin_report("chain-dirichlet-vs-laplacian", batch, (lap, dirichlet),
                          lambda D, G: (G, D, (1.0, -1.0)))
    ts = _time_space(batch, ef, lap)
    return replace(ineq, name="lsi-implies-slsi-chain",
                   verdict=worst_verdict((ineq.verdict, ts.verdict)),
                   params=_batch_params(batch), notes=notes,
                   details={"inequality": ineq.as_dict(), "time_space": ts.as_dict()})


def check_shc(f: ScalarField, batch: HeatSampleBatch, p: float, q: float,
              t: float, c: float, beta: float, exploratory: bool = False,
              lsh_status: str | None = None) -> CheckReport:
    """Strong hypercontractivity |e^{-tE} f|_q <= M(p,q) |f|_p at t >= t_J.

    Refuses t < t_J(p,q) unless ``exploratory`` is set (running below
    Janson's time is how sharpness is demonstrated).  Both norms come from
    the one supplied batch.
    """
    _require_layers(f, batch)
    t_j = shc_rules(p, q, t, c, beta, exploratory)
    notes = _warn_if_not_lsh(f, batch, lsh_status)
    try:
        m_pq = defect_m(p, q, beta)
    except OverflowError as exc:
        raise ParameterError(f"sHC check: M(p, q) at p = {p:g}, q = {q:g}: {exc}") from exc
    u = np.array([_positive_values(f, batch, "sHC check needs f > 0 on samples"),
                  _positive_values(dilation_pullback(f, t), batch,
                                   "sHC check needs e^(-tE) f > 0 on samples")])
    _, (nv, nu), (dv, du) = _norms(u, batch, [p, q], [f"sHC check: |f|_{p:g}",
                                                       f"sHC check: |e^(-tE) f|_{q:g}"])
    return _margin_report(
        "shc", batch, u, lambda mv, mu: (nu, m_pq * nv, (m_pq * dv, -du)),
        params={"p": p, "q": q, "t": t, "t_J": t_j, "M": m_pq, "c": c,
                "beta": beta, **_batch_params(batch), "exploratory": exploratory},
        notes=notes)


# -- sweeps ----------------------------------------------------------------------


# floats in one block of a sweep's grid: its rows of e^{-tE} f, then of their
# weighted powers, then of their influences, one row per t and a float per sample
_SWEEP_BLOCK_FLOATS = 2 ** 15


def _sweep_block(name, f, batch, ts, r_of, m_of):
    """(alpha values, (len(ts), n) influences) at the t of ``ts``, from one
    evaluation of f: one (len(ts), n) array u holds e^{-tE} f, then what
    ``_norms`` makes of it, then the influences, each made in place.

    A block of one t raises that t's own error, first of these: r(t)'s or
    M(t)'s, f's, e^(-tE) f <= 0, a non-finite e^(-tE) f, a norm out of range."""
    rs, m_ts = [r_of(t) for t in ts], np.array([m_of(t) for t in ts])
    u = evaluate_pullbacks(f, batch.algebra, batch.samples, ts)
    if (u <= 0).any():
        i, k = divmod(int(np.argmax(u <= 0)), u.shape[1])
        raise ParameterError(f"{name} needs e^(-tE) f > 0 on samples at t = {ts[i]:g}; "
                             f"violated at sample {k}")
    means, norms, derivs = _norms(u, batch, rs, [f"{name} at t = {t:g}: |e^(-tE) f|_{r:g}"
                                                 for t, r in zip(ts, rs)])
    u -= means[:, None]
    u *= np.divide(derivs, m_ts)[:, None]
    return np.divide(norms, m_ts).tolist(), u


def _sweep(name, f, batch, ts, r_of, m_of, params, notes) -> SweepReport:
    """alpha(t) = M(t)^{-1} |e^{-tE} f|_{r(t)} over the sorted t grid.

    The grid is evaluated by ``_sweep_block`` in blocks of
    max(1, _SWEEP_BLOCK_FLOATS // n) t values; between blocks only the
    influence row of the block's last t is kept. From a block in which some
    t fails on, the grid runs one t at a time, so the error is the first
    failing t's, in ``_sweep_block``'s order; an ArithmeticError there, such
    as r(t) overflowing, becomes a ParameterError naming the sweep and t.
    The verdict is ``SweepReport.from_curve``'s.
    """
    ts = np.asarray(sorted(float(t) for t in ts))
    rows = max(1, _SWEEP_BLOCK_FLOATS // batch.n_samples)
    values, stderrs, diff_ses, last, lo = [], [], [], None, 0
    while lo < ts.size:
        block = ts[lo:lo + rows]
        try:
            vals, infl = _sweep_block(name, f, batch, block, r_of, m_of)
        except (CarnotError, ArithmeticError) as exc:
            if block.size > 1:
                rows = 1  # from here on one t at a time, so the first failing t raises
                continue
            if isinstance(exc, CarnotError):
                raise
            raise ParameterError(f"{name} at t = {block[0]:g}: {exc}") from exc
        lo += block.size
        values += vals
        stderrs += _ses(infl)
        if last is not None:
            diff_ses.append(_ses(infl[0] - last))
        last = infl[-1].copy()
        # let go of each (t, sample) array before the next one is made
        infl = np.diff(infl, axis=0)
        diff_ses += _ses(infl)
        del infl
    return SweepReport.from_curve(name, ts.tolist(), values, stderrs, diff_ses,
                                  mode=lsi_mode(batch.algebra),
                                  params={**params, **_batch_params(batch)}, notes=notes)


def sweep_alpha(f: ScalarField, batch: HeatSampleBatch, c: float, beta: float,
                q: float, ts=None, lsh_status: str | None = None) -> SweepReport:
    """alpha(t) = M(t)^{-1} |e^{-tE} f|_{r(t)} with r(t) = e^{t/c} on a grid.

    Under sLSI, alpha is non-increasing on [0, t_J(1, q)]; alpha(0) = |f|_1
    and alpha(t_J) = M(1,q)^{-1} |e^{-t_J E} f|_q.
    """
    _require_layers(f, batch)
    sweep_rules(ts, c, beta, q)
    notes = _warn_if_not_lsh(f, batch, lsh_status)
    t_j = janson_time(1.0, q, c)
    return _sweep(
        "alpha-sweep", f, batch, np.linspace(0.0, t_j, 9) if ts is None else ts,
        lambda t: math.exp(t / c), lambda t: math.exp(beta * (1.0 - math.exp(-t / c))),
        {"c": c, "beta": beta, "q": q, "t_J": t_j}, notes,
    )


def check_l1_contractivity(f: ScalarField, batch: HeatSampleBatch, ts=None,
                           lsh_status: str | None = None) -> SweepReport:
    """|e^{-tE} f|_1 over a t grid; non-increasing for log-subharmonic f."""
    _require_layers(f, batch)
    sweep_rules(ts)
    notes = _warn_if_not_lsh(f, batch, lsh_status)
    return _sweep(
        "l1-contractivity", f, batch, np.linspace(0.0, 1.0, 9) if ts is None else ts,
        lambda t: 1.0, lambda t: 1.0, {}, notes,
    )
