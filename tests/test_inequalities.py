import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from carnot import algebra, calculus as calc, heat, inequalities as ineq, lsh
from carnot.errors import ParameterError
from carnot.reports import (
    ABS_FLOOR,
    HEAVY_TAIL_FRACTION,
    MODE_EXPLORATORY,
    MODE_VERIFIED,
    Z_THRESHOLD,
    CheckReport,
    SweepReport,
    heavy_tail_fraction,
)


def exp_ax(a):
    return calc.Exp(calc.Prod(calc.Const(a), calc.x(1, 1)))


def gaussian_closed_forms(a):
    """s = 2 (standard Gaussian) moments of f = e^{ax}, the standing oracle."""
    m = math.exp(a * a / 2.0)
    return {"l1": m, "entropy": a * a * m, "dirichlet": a * a * m, "euler": a * a * m}


# -- estimate -------------------------------------------------------------------


def test_constant_field_estimates(r1_batch_s2):
    ent = ineq.estimate("entropy", calc.Const(1.0), r1_batch_s2)
    assert ent.value == 0.0 and ent.stderr == 0.0
    l2 = ineq.estimate("lp", calc.Const(3.0), r1_batch_s2, p=2.0)
    assert np.isclose(l2.value, 3.0) and l2.stderr < 1e-12
    assert ineq.estimate("l1", calc.Const(3.0), r1_batch_s2).value == 3.0


def test_gaussian_oracle_suite(r1, r1_batch_s2_tilt2):
    # tilted at the integrand scale: every closed form within 4 stderr
    batch_a1 = heat.sample(r1, 2.0, 200_000, 8, seed=107, tilt=np.array([1.0]))
    for a, batch in [(1.0, batch_a1), (2.0, r1_batch_s2_tilt2)]:
        f = exp_ax(a)
        for fid, want in gaussian_closed_forms(a).items():
            est = ineq.estimate(fid, f, batch)
            assert abs(est.value - want) < 4 * est.stderr + 1e-12, (a, fid)
            assert est.stderr < 0.01 * abs(want) + 1e-12
    lp = ineq.estimate("lp", exp_ax(2.0), r1_batch_s2_tilt2, p=2.0)
    assert abs(lp.value - math.exp(4.0)) < 4 * lp.stderr


@pytest.mark.parametrize("p", [3.0, 1.5])
def test_lp_norm_needs_positive_f(p, h3):
    # f = x_1_1 - 3 < 0 on most samples: f^3 has a negative mean, whose real
    # root does not exist, and f^1.5 is NaN with a numpy warning
    batch = heat.sample(h3, 1.0, 200, 8, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="lp norm needs f > 0"):
            ineq.estimate("lp", calc.parse_field("(- x_1_1 3)"), batch, p=p)


def test_lp_norm_power_underflow_is_an_error(h3, lse_norm):
    # f^4 ~ 1e-360 underflows to 0 on every sample, but |f|_4 ~ 1e-90 does
    # not: the norm is formed in logs, and matches a logsumexp reference
    batch = heat.sample(h3, 1.0, 200, 8, seed=1)
    f = calc.parse_field("(* 1e-90 (exp x_1_1))")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = ineq.estimate("lp", f, batch, p=4.0)
    want = lse_norm(calc.evaluate_batch(f, h3, batch.samples), batch, 4.0)
    assert 1e-91 < want < 1e-89
    assert est.value == pytest.approx(want, rel=1e-12) and est.stderr > 0


def test_a_norm_outside_double_range_is_an_error(r1):
    # the weights exp(-45 x + 45^2/4) are about e^-506 and f = 1e-200, so
    # |f|_1 ~ 1e-420 is 0.0 as a double; weights of e^800 make |1e100|_1 overflow
    tilted = heat.sample(r1, 1.0, 200, 8, seed=1, tilt=[45.0])
    with pytest.raises(ParameterError,
                       match=r"^lp norm \|f\|_1 = exp\(-869\.258\) is outside double range$"):
        ineq.estimate("lp", calc.Const(1e-200), tilted, p=1.0)
    heavy = replace(tilted, log_weights=np.full(200, 800.0))
    with pytest.raises(ParameterError,
                       match=r"^sHC check: \|f\|_1 = exp\(1030\.26\) is outside double range$"):
        ineq.check_shc(calc.Const(1e100), heavy, 1.0, 2.0, 1.0, 1.0, 0.0, lsh_status="lsh")


@pytest.mark.parametrize("tilt", [None, [0.5, -1.0]], ids=["plain", "tilted"])
def test_norm_checks_are_positively_homogeneous(h3, tilt):
    # sHC, alpha(t), |e^(-tE) f|_1 and |f|_p are 1-homogeneous in f: kappa f
    # gives kappa times every side, value and stderr, even where the powers
    # of kappa f (up to kappa^3 here) leave double range
    batch = heat.sample(h3, 1.0, 2000, 8, seed=3, tilt=tilt)
    f = calc.parse_field("(exp (* 0.7 x_1_1))")

    def run(g):
        shc = ineq.check_shc(g, batch, 1.5, 3.0, 0.5 * math.log(2.0) + 0.1, 0.5, 0.3,
                             lsh_status="lsh")
        alpha = ineq.sweep_alpha(g, batch, 0.5, 0.3, 3.0, lsh_status="lsh")
        l1 = ineq.check_l1_contractivity(g, batch, lsh_status="lsh")
        lp = ineq.estimate("lp", g, batch, p=2.5)
        sweeps = [x for sw in (alpha, l1) for x in (*sw.values, *sw.stderrs, *sw.diff_stderrs)]
        return ([shc.lhs, shc.rhs, shc.stderr, *sweeps, lp.value, lp.stderr],
                [shc.verdict, alpha.verdict, l1.verdict])

    nums, verdicts = run(f)
    assert len(nums) == 57 and 0.0 not in nums
    for kappa in (1e-200, 1.0, 1e200):
        got, got_verdicts = run(calc.Prod(calc.Const(kappa), f))
        assert got_verdicts == verdicts, kappa
        np.testing.assert_allclose(got, kappa * np.asarray(nums), rtol=1e-12, atol=0.0)


# each functional's integrand of f = 1 + g, g = e^(800 x), x = x_1_1, on h3:
# X_1 f = 800 g, X_2 f = 0, Delta f = 800^2 g and Ef = 800 x g
OVERFLOW_INTEGRANDS = {
    "l1": lambda x, g: 1 + g,
    "entropy": lambda x, g: (1 + g) * np.log(1 + g),
    "dirichlet": lambda x, g: (800 * g) ** 2 / (1 + g),
    "grad_sq": lambda x, g: (800 * g) ** 2,
    "euler": lambda x, g: 800 * x * g,
    "laplacian": lambda x, g: 800 ** 2 * g,
}


@pytest.mark.parametrize("fid", list(OVERFLOW_INTEGRANDS))
def test_estimate_overflow_is_an_error(fid, h3):
    # f = 1 + e^(800 x) is inf on some samples: the mean is inf or NaN, and
    # the error names the first sample where the integrand overflows
    batch = heat.sample(h3, 1.0, 200, 8, seed=1)
    f = calc.parse_field("(+ 1 (exp (* 800 x_1_1)))")
    with np.errstate(over="ignore", invalid="ignore"):
        x = batch.samples[:, 0]
        first = np.flatnonzero(~np.isfinite(OVERFLOW_INTEGRANDS[fid](x, np.exp(800 * x))))[0]
        with pytest.raises(ParameterError,
                           match=f"non-finite value \\(overflow\\) at sample {first}$"):
            ineq.estimate(fid, f, batch)


def test_estimate_validates_inputs(r1_batch_s2):
    with pytest.raises(ParameterError):
        ineq.estimate("lp", calc.Const(1.0), r1_batch_s2)
    with pytest.raises(ParameterError):
        ineq.estimate("santa", calc.Const(1.0), r1_batch_s2)
    with pytest.raises(ParameterError, match="sample"):
        ineq.estimate("entropy", calc.x(1, 1), r1_batch_s2)


# -- LSI / sLSI -------------------------------------------------------------------


def test_gaussian_lsi_slsi_equality(r1_batch_s2_tilt2):
    # c = 1/2, beta = 0 is the equality case for f = e^{ax}
    f = exp_ax(2.0)
    r_lsi = ineq.check_lsi(f, r1_batch_s2_tilt2, 0.5, 0.0)
    assert r_lsi.verdict == "holds"
    assert abs(r_lsi.margin) < 4 * r_lsi.stderr + 1e-12
    r_slsi = ineq.check_slsi(f, r1_batch_s2_tilt2, 0.5, 0.0, lsh_status="lsh")
    assert r_slsi.verdict == "holds"
    assert abs(r_slsi.margin) < 4 * r_slsi.stderr + 1e-12
    assert r_lsi.mode == MODE_VERIFIED


def test_gaussian_lsi_negative_control(r1_batch_s2_tilt2):
    # c = 0.1 fails: closed-form margin (0.1 - 0.5) * 4 e^2
    rep = ineq.check_lsi(exp_ax(2.0), r1_batch_s2_tilt2, 0.1, 0.0)
    assert rep.verdict == "violated"
    want = (0.1 - 0.5) * 4.0 * math.exp(2.0)
    assert abs(rep.margin - want) < 4 * rep.stderr


def test_constant_field_lsi_holds(r1_batch_s2):
    rep = ineq.check_lsi(calc.Const(2.0), r1_batch_s2, 0.5, 0.0)
    assert rep.verdict == "holds"
    # entropy functional of a constant: f log f - |f|_1 log |f|_1 = 0
    assert abs(rep.margin) < 1e-12


def test_lsi_l2_form_equals_l1_on_square(r1_batch_s2_tilt2):
    # (LSI-L2) for f is (LSI-L1) for f^2 up to an exact factor of 2
    f = exp_ax(1.0)
    f_sq = calc.Pow(f, 2.0)
    r2 = ineq.check_lsi(f, r1_batch_s2_tilt2, 0.5, 0.3, form="L2")
    r1_ = ineq.check_lsi(f_sq, r1_batch_s2_tilt2, 0.5, 0.3, form="L1")
    assert np.isclose(r1_.margin, 2.0 * r2.margin, rtol=1e-9, atol=1e-12)
    assert np.isclose(r1_.stderr, 2.0 * r2.stderr, rtol=1e-9, atol=1e-12)


def _se(infl):
    return float(infl.std(ddof=1) / math.sqrt(infl.size))


def _heavy(*contribs):
    return any(heavy_tail_fraction(c) > HEAVY_TAIL_FRACTION for c in contribs)


def _reports_reference(f, batch, c, beta, horizontal):
    """Every margin check's report, each from its own hand-written formula.

    LSI L1 and L2, sLSI, time-space, the chain, sHC, the alpha sweep and L1
    contractivity, at p = 1.5, q = 3 and t = t_J + 0.1 for sHC.
    """
    w, s, alg = batch.weights, batch.s, batch.algebra
    mode, bp = ineq.lsi_mode(alg), ineq._batch_params(batch)
    v = calc.evaluate_batch(f, alg, batch.samples)
    gsq, lap = horizontal(f, alg, batch.samples)
    ef = w * calc.euler_derivative_batch(f, alg, batch.samples)
    logv = np.log(v)

    def report(name, lhs, rhs, infl, heavy, **form):
        return CheckReport.from_margin(
            name, lhs, rhs, _se(infl), mode=mode,
            params={"c": c, "beta": beta, **form, **bp}, heavy_tail=heavy)

    # the Dirichlet integrand |grad f|^2 / f is f |grad log f|^2, at f's scale
    glog = horizontal(calc.Log(f), alg, batch.samples)[0]
    ent, dir_, wf = w * v * logv, w * v * glog, w * v
    m1, L, G = float(np.mean(wf)), float(np.mean(ent)), float(np.mean(dir_))
    l1 = report(
        "lsi-l1", L, (c * s / 2.0) * G + m1 * math.log(m1) + beta * m1,
        (c * s / 2.0) * (dir_ - G) + (math.log(m1) + 1.0 + beta) * (wf - m1) - (ent - L),
        _heavy(ent, dir_, wf), form="L1")
    ent2, g2, wf2 = w * v * v * logv, w * gsq, w * v * v
    m2, L2, G2 = float(np.mean(wf2)), float(np.mean(ent2)), float(np.mean(g2))
    l2 = report(
        "lsi-l2", L2, c * s * G2 + 0.5 * m2 * math.log(m2) + 0.5 * beta * m2,
        c * s * (g2 - G2) + 0.5 * (math.log(m2) + 1.0 + beta) * (wf2 - m2) - (ent2 - L2),
        _heavy(ent2, g2, wf2), form="L2")
    E = float(np.mean(ef))
    slsi = report(
        "slsi", L, c * E + m1 * math.log(m1) + beta * m1,
        c * (ef - E) + (math.log(m1) + 1.0 + beta) * (wf - m1) - (ent - L),
        _heavy(ent, ef, wf))

    def time_space(lap):
        D = float(np.mean(lap))
        return CheckReport.from_margin(
            "time-space", E, (s / 2.0) * D, _se((ef - E) - (s / 2.0) * (lap - D)),
            two_sided=True, mode=mode, params=bp, heavy_tail=_heavy(ef, lap))

    ts = time_space(w * lap)
    cdir, clap = w * v * glog, w * lap
    CG, CD = float(np.mean(cdir)), float(np.mean(clap))
    se1 = _se((clap - CD) - (cdir - CG))
    cineq = CheckReport.from_margin("chain-dirichlet-vs-laplacian", CG, CD, se1,
                                    mode=mode, heavy_tail=_heavy(cdir, clap))
    cts = time_space(clap)
    verdicts = (cineq.verdict, cts.verdict)
    chain = CheckReport(
        name="lsi-implies-slsi-chain", lhs=CG, rhs=CD, margin=cineq.margin, stderr=se1,
        z=cineq.z, verdict=("violated" if "violated" in verdicts else "inconclusive"
                            if "inconclusive" in verdicts else "holds"),
        two_sided=False, mode=mode, params=bp, notes=[],
        details={"inequality": cineq.as_dict(), "time_space": cts.as_dict()})

    p, q = 1.5, 3.0
    t_j = c * math.log(q / p)
    t, m_pq = t_j + 0.1, math.exp(beta * (1.0 / p - 1.0 / q))
    nu, mu, u = _log_norm(calc.evaluate_batch(calc.dilation_pullback(f, t), alg,
                                              batch.samples), batch, q)
    nv, mv, vv = _log_norm(v, batch, p)
    shc = CheckReport.from_margin(
        "shc", nu, m_pq * nv,
        _se(m_pq * (nv / (p * mv)) * (vv - mv) - nu / (q * mu) * (u - mu)),
        mode=mode, params={"p": p, "q": q, "t": t, "t_J": t_j, "M": m_pq, "c": c,
                           "beta": beta, **bp, "exploratory": False},
        heavy_tail=_heavy(u, vv))

    q_tj = c * math.log(math.e)
    alpha = _alpha_reference(f, batch, c, beta, math.e, np.linspace(0.0, q_tj, 9))
    contraction = _sweep_reference(f, batch, "l1-contractivity", np.linspace(0.0, 1.0, 9),
                                   lambda t: 1.0, lambda t: 1.0, {})
    return l1, l2, slsi, ts, chain, shc, alpha, contraction


def _log_norm(v, batch, r):
    """(norm, m, e): the L^r norm of v > 0 against the batch's weights, in logs.

    e = exp(r log v + log w - top), top being the largest exponent, m is the
    mean of e and the norm is exp((top + log m) / r); its derivative in m is
    norm / (r m).
    """
    lw = np.log(v) * r
    if batch.log_weights is not None:
        lw = lw + batch.log_weights
    top = float(lw.max())
    e = np.exp(lw - top)
    m = float(np.mean(e))
    return math.exp((top + math.log(m)) / r), m, e


def _sweep_reference(f, batch, name, ts, r_of, m_of, params):
    """A sweep's report from the per-t formulas, one t of the sorted grid at a time."""
    alg = batch.algebra
    ts = np.sort(np.asarray(ts, dtype=float))
    values, stderrs, infls = [], [], []
    for t in ts:
        r, m_t = r_of(t), m_of(t)
        norm, m, e = _log_norm(calc.evaluate_batch(calc.dilation_pullback(f, t), alg,
                                                   batch.samples), batch, r)
        values.append(norm / m_t)
        infls.append(norm / (r * m) / m_t * (e - m))
        stderrs.append(_se(infls[-1]))
    diff_ses = [_se(b - a) for a, b in zip(infls, infls[1:])]
    tol = Z_THRESHOLD * np.asarray(diff_ses) + ABS_FLOOR
    diffs = np.diff(np.asarray(values))
    noninc = bool(np.all(diffs <= tol))
    return SweepReport(
        name=name, ts=ts.tolist(), values=values, stderrs=stderrs,
        diff_stderrs=diff_ses, monotone_nonincreasing=noninc,
        monotone_nondecreasing=bool(np.all(diffs >= -tol)),
        verdict="holds" if noninc else "violated", mode=ineq.lsi_mode(alg),
        params={**params, **ineq._batch_params(batch)}, notes=[])


def _alpha_reference(f, batch, c, beta, q, ts):
    return _sweep_reference(f, batch, "alpha-sweep", ts, lambda t: math.exp(t / c),
                            lambda t: math.exp(beta * (1.0 - math.exp(-t / c))),
                            {"c": c, "beta": beta, "q": q, "t_J": c * math.log(q)})


@pytest.mark.parametrize("case", ["heisenberg(1)", "euclidean(1)-tilted", "engel"])
def test_entropy_checks_match_hand_written_formulas(case, horizontal):
    # one influence-function core gives every margin check's report bit for bit
    alg = algebra.builtin(case.removesuffix("-tilted"))
    tilt = [1.5] if case.endswith("-tilted") else None
    batch = heat.sample(alg, 0.8, 3000, 16, seed=61, tilt=tilt)
    f = calc.parse_field("(exp (+ (* 0.7 x_1_1) (* 0.2 x_1_2 x_1_2)))"
                         if alg.dim_v1 > 1 else "(exp (* 1.3 x_1_1))")
    for c, beta in [(0.7, 0.3), (0.5, 0.0)]:
        want = _reports_reference(f, batch, c, beta, horizontal)
        t_shc = c * math.log(3.0 / 1.5) + 0.1
        got = (ineq.check_lsi(f, batch, c, beta, form="L1"),
               ineq.check_lsi(f, batch, c, beta, form="L2"),
               ineq.check_slsi(f, batch, c, beta, lsh_status="lsh"),
               ineq.check_time_space(f, batch),
               ineq.check_lsi_implies_slsi_chain(f, batch, lsh_status="lsh"),
               ineq.check_shc(f, batch, 1.5, 3.0, t_shc, c, beta, lsh_status="lsh"),
               ineq.sweep_alpha(f, batch, c, beta, math.e, lsh_status="lsh"),
               ineq.check_l1_contractivity(f, batch, lsh_status="lsh"))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert json.dumps(g.as_dict()) == json.dumps(w.as_dict()), (case, g.name)

    # both sweeps on an unsorted 33-point grid, in the default blocks and in
    # blocks of 1 and of 3 t values, for f, a Dilated field and a constant; at
    # t = +-0.7 log 2 the alpha sweep's power r(t) is 2 and 1/2, which numpy's
    # v ** r computes by its own shortcuts
    grid = [*np.linspace(0.0, 1.5, 31), 0.7 * math.log(2.0), -0.7 * math.log(2.0)]
    grid = np.random.default_rng(62).permutation(grid).tolist()
    fields = [f, lsh.library_field(alg, "expdil").field, calc.Const(1.7)]
    for rows in (None, 1, 3):
        with pytest.MonkeyPatch.context() as mp:
            if rows:
                mp.setattr(ineq, "_SWEEP_BLOCK_FLOATS", rows * batch.n_samples)
            for g in fields:
                pairs = [(ineq.sweep_alpha(g, batch, 0.7, 0.3, 3.0, ts=grid, lsh_status="lsh"),
                          _alpha_reference(g, batch, 0.7, 0.3, 3.0, grid)),
                         (ineq.check_l1_contractivity(g, batch, ts=grid, lsh_status="lsh"),
                          _sweep_reference(g, batch, "l1-contractivity", grid,
                                           lambda t: 1.0, lambda t: 1.0, {}))]
                for got, want in pairs:
                    assert json.dumps(got.as_dict()) == json.dumps(want.as_dict()), (
                        case, rows, calc.to_expr(g), got.name)


def test_slsi_positive_margin_on_h3(h3_batch_s1):
    # frozen closed form: margin = (s/4) e^{s/4} at c = 1, beta = 0, s = 1
    rep = ineq.check_slsi(calc.Exp(calc.x(1, 1)), h3_batch_s1, 1.0, 0.0,
                          lsh_status="lsh")
    assert rep.verdict == "holds"
    want = 0.25 * math.exp(0.25)
    assert abs(rep.margin - want) < 4 * rep.stderr
    assert rep.margin > 4 * rep.stderr  # strictly positive margin


def test_slsi_warns_on_non_lsh(h3_batch_s1, h3):
    bad = lsh.library_field(h3, "gauss-neg")
    with pytest.warns(UserWarning, match="log-subharmonic"):
        ineq.check_slsi(bad.field, h3_batch_s1, 1.0, 0.0)
    with pytest.warns(UserWarning):
        ineq.check_slsi(bad.field, h3_batch_s1, 1.0, 0.0, lsh_status="not-lsh")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ineq.check_slsi(calc.Exp(calc.x(1, 1)), h3_batch_s1, 1.0, 0.0,
                        lsh_status="lsh")


def test_slsi_verdicts_scale_invariant_in_s(h3):
    # with the dilation-matched family f_s = exp(x1) o delta_{1/sqrt(s)},
    # the sLSI margin is the same constant for every s
    margins = []
    for i, s in enumerate([0.5, 1.0, 2.0]):
        batch = heat.sample(h3, s, 40_000, 64, seed=300 + i)
        f = calc.compose_dilation(calc.Exp(calc.x(1, 1)), 1.0 / math.sqrt(s))
        rep = ineq.check_slsi(f, batch, 1.0, 0.0, lsh_status="lsh")
        margins.append((rep.margin, rep.stderr))
        assert rep.verdict == "holds"
    want = 0.25 * math.exp(0.25)
    for m, se in margins:
        assert abs(m - want) < 4 * se


def test_lsi_l2_mass_outside_double_range_is_an_error(h3):
    # kappa f with f = e^(x_1_1): f^2 ~ 1e-340 is subnormal or 0.0 below kappa
    # = 1e-154, so |f|_2^2 has lost its digits; at 1e160 f^2 overflows
    batch = heat.sample(h3, 1.0, 2000, 8, seed=1)
    for kappa, error in [
            (1e-170, r"^lsi-l2 check: mass \|f\|_2\^2 = \S+ is outside double range$"),
            (1e-200, r"^lsi-l2 check: mass \|f\|_2\^2 = 0 is outside double range$"),
            (1e160, r"^non-finite value \(overflow\) at sample \d+$")]:
        f = calc.Prod(calc.Const(kappa), calc.Exp(calc.x(1, 1)))
        with pytest.raises(ParameterError, match=error), np.errstate(over="ignore"):
            ineq.check_lsi(f, batch, 0.5, 0.0, form="L2")
        assert ineq.check_lsi(f, batch, 0.5, 0.0).verdict == "holds"


@pytest.mark.parametrize("tilt", [None, [0.5, -1.0]], ids=["plain", "tilted"])
def test_entropy_checks_are_positively_homogeneous(h3, tilt):
    # LSI (L1), sLSI, time-space, the chain and the Dirichlet form are
    # 1-homogeneous in f: kappa f gives kappa times every margin, value and
    # stderr, even where |grad (kappa f)|^2 leaves double range. f is not the
    # exponential of a linear form, so Delta log f > 0 and the chain's margin
    # is not rounding noise
    batch = heat.sample(h3, 1.0, 2000, 8, seed=3, tilt=tilt)
    f = calc.parse_field("(+ (exp (* 0.7 x_1_1)) (exp (- x_1_2)))")

    def run(g):
        reps = [ineq.check_lsi(g, batch, 0.5, 0.3),
                ineq.check_slsi(g, batch, 0.5, 0.3, lsh_status="lsh"),
                ineq.check_time_space(g, batch),
                ineq.check_lsi_implies_slsi_chain(g, batch, lsh_status="lsh")]
        dirichlet = ineq.estimate("dirichlet", g, batch)
        return ([x for r in reps for x in (r.margin, r.stderr)]
                + [dirichlet.value, dirichlet.stderr], [r.verdict for r in reps])

    nums, verdicts = run(f)
    assert 0.0 not in nums
    for kappa in (1e-170, 1e160):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no check forms |grad (1e160 f)|^2
            got, got_verdicts = run(calc.Prod(calc.Const(kappa), f))
        assert got_verdicts == verdicts, kappa
        np.testing.assert_allclose(got, kappa * np.asarray(nums), rtol=1e-11, atol=0.0)


# every public check of a field on a batch, each with its own constants
FIELD_CHECKS = {
    "estimate": lambda f, b: ineq.estimate("l1", f, b),
    "lsi": lambda f, b: ineq.check_lsi(f, b, 0.5, 0.0),
    "slsi": lambda f, b: ineq.check_slsi(f, b, 0.5, 0.0, lsh_status="lsh"),
    "time-space": lambda f, b: ineq.check_time_space(f, b),
    "chain": lambda f, b: ineq.check_lsi_implies_slsi_chain(f, b, lsh_status="lsh"),
    "shc": lambda f, b: ineq.check_shc(f, b, 1.0, 2.0, 1.0, 1.0, 0.0, lsh_status="lsh"),
    "alpha-sweep": lambda f, b: ineq.sweep_alpha(f, b, 1.0, 0.0, 2.0, lsh_status="lsh"),
    "contractivity": lambda f, b: ineq.check_l1_contractivity(f, b, lsh_status="lsh"),
}


@pytest.mark.parametrize("kind", sorted(FIELD_CHECKS))
def test_a_read_of_an_absent_layer_names_the_layer(kind, engel):
    # a one-step batch holds layer 1 alone: a field that reads x_3_1 stops
    # with that layer named, not with the NaN overflow of its values; one
    # that reads only layer 1 runs as on a walk
    batch = heat.sample(engel, 1.0, 500, 1, seed=4)
    upper = calc.parse_field("(exp (+ x_1_1 (* 0.1 x_3_1)))")
    with pytest.raises(ParameterError, match=r"^the field reads layer 3, which a one-step "
                                             r"batch does not hold: it is an exact "
                                             r"first-layer batch"):
        FIELD_CHECKS[kind](upper, batch)
    FIELD_CHECKS[kind](calc.parse_field("(exp x_1_1)"), batch)


# -- time-space and the chain ------------------------------------------------------


def test_time_space_x1_squared(h3):
    for s, seed in [(1.0, 61), (2.0, 62)]:
        batch = heat.sample(h3, s, 50_000, 128, seed=seed)
        rep = ineq.check_time_space(calc.x(1, 1) ** 2, batch)
        assert rep.verdict == "holds" and rep.two_sided
        assert abs(rep.lhs - s) / s < 0.015
        assert abs(rep.rhs - s) / s < 0.015


def test_time_space_constant_and_exp(h3_batch_s1):
    rep = ineq.check_time_space(calc.Const(5.0), h3_batch_s1)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.verdict == "holds"
    rep = ineq.check_time_space(calc.Exp(calc.x(1, 1)), h3_batch_s1)
    want = 0.5 * math.exp(0.25)  # (s/2) e^{s/4} at s = 1
    assert abs(rep.lhs - want) < 4 * rep.stderr
    assert rep.verdict == "holds"


def test_gaussian_time_space(r1_batch_s2_tilt2):
    rep = ineq.check_time_space(exp_ax(2.0), r1_batch_s2_tilt2)
    assert rep.verdict == "holds"
    assert abs(rep.lhs - 4.0 * math.exp(2.0)) < 4 * rep.stderr


def test_chain_check(h3_batch_s1, h3):
    rep = ineq.check_lsi_implies_slsi_chain(calc.Exp(calc.x(1, 1)), h3_batch_s1,
                                            lsh_status="lsh")
    assert rep.verdict == "holds"
    # equality case: Delta f = |grad f|^2 / f = f pointwise
    assert np.isclose(rep.lhs, rep.rhs, rtol=1e-9)
    assert rep.details["time_space"]["verdict"] == "holds"

    bad = lsh.library_field(h3, "gauss-neg")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        neg = ineq.check_lsi_implies_slsi_chain(bad.field, h3_batch_s1)
    assert neg.verdict == "violated"  # Delta f - |grad f|^2/f = -2f < 0


def test_chain_builds_one_frame(h3_batch_s1, monkeypatch):
    calls = {"frame_jets": [], "horizontal_jets": []}

    def counted(name):
        original = getattr(calc, name)

        def call(first, *args, **kwargs):
            calls[name].append(first)
            return original(first, *args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(calc, name, counted(name))
    f = calc.Exp(calc.x(1, 1))
    rep = ineq.check_lsi_implies_slsi_chain(f, h3_batch_s1, lsh_status="lsh")
    # Delta f, for the inequality and for the time-space part, and |grad log f|^2
    # all come from one pass of f's jets on one frame
    assert len(calls["frame_jets"]) == 1 and calls["horizontal_jets"] == [f]
    alone = ineq.check_time_space(f, h3_batch_s1)
    assert rep.details["time_space"] == alone.as_dict()


# -- sHC ----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def r1_batch_tilt3(r1):
    # midpoint tilt keeps both e^{2x} and e^{4x} integrands light-tailed
    return heat.sample(r1, 2.0, 200_000, 8, seed=88, tilt=np.array([3.0]))


def test_shc_gaussian_equality_at_janson_time(r1_batch_tilt3):
    f = exp_ax(2.0)
    t_j = ineq.janson_time(1, 4, 0.5)
    assert np.isclose(t_j, 0.5 * math.log(4.0))
    rep = ineq.check_shc(f, r1_batch_tilt3, 1.0, 4.0, t_j, 0.5, 0.0,
                         lsh_status="lsh")
    assert rep.verdict == "holds"
    assert abs(rep.lhs / rep.rhs - 1.0) < 3 * rep.stderr / rep.rhs
    assert rep.stderr / rep.rhs < 0.02


def test_shc_below_janson_time_violated(r1_batch_tilt3):
    f = exp_ax(2.0)
    t_j = ineq.janson_time(1, 4, 0.5)
    rep = ineq.check_shc(f, r1_batch_tilt3, 1.0, 4.0, 0.9 * t_j, 0.5, 0.0,
                         exploratory=True, lsh_status="lsh")
    assert rep.verdict == "violated"
    assert rep.margin < -4 * rep.stderr
    # closed form: ratio exceeds 1 by exp(a^2(2^{1-1.8} - 1/2)) - 1
    want_ratio = math.exp(4.0 * (2.0 * 2.0 ** -1.8 - 0.5))
    assert abs(rep.lhs / rep.rhs - want_ratio) < 0.02


def test_shc_refuses_early_time_without_flag(r1_batch_tilt3):
    with pytest.raises(ParameterError, match="Janson"):
        ineq.check_shc(exp_ax(2.0), r1_batch_tilt3, 1.0, 4.0, 0.1, 0.5, 0.0,
                       lsh_status="lsh")
    with pytest.raises(ParameterError):
        ineq.check_shc(exp_ax(2.0), r1_batch_tilt3, 4.0, 1.0, 1.0, 0.5, 0.0,
                       lsh_status="lsh")


def test_shc_p_equals_q_identity(r1_batch_s2):
    rep = ineq.check_shc(exp_ax(1.0), r1_batch_s2, 2.0, 2.0, 0.0, 0.5, 0.0,
                         lsh_status="lsh")
    assert rep.verdict == "holds"
    assert rep.margin == 0.0 and rep.stderr == 0.0  # M = 1, t_J = 0, same field
    assert rep.params["M"] == 1.0 and rep.params["t_J"] == 0.0


def test_shc_reduction_to_p_one(r1_batch_tilt3):
    # the (p,q) check on f equals the (1, q/p) check on f^p: norms map by ^p
    f = exp_ax(1.0)
    p, q = 2.0, 8.0
    t = ineq.janson_time(p, q, 0.5)
    gen = ineq.check_shc(f, r1_batch_tilt3, p, q, t, 0.5, 0.2, lsh_status="lsh")
    red = ineq.check_shc(calc.Pow(f, p), r1_batch_tilt3, 1.0, q / p, t, 0.5, 0.2,
                         lsh_status="lsh")
    assert np.isclose(red.lhs, gen.lhs ** p, rtol=1e-9)
    assert np.isclose(red.rhs, gen.rhs ** p, rtol=1e-9)
    assert np.isclose(red.params["t_J"], gen.params["t_J"], rtol=1e-12)
    assert np.isclose(red.params["M"], gen.params["M"] ** p, rtol=1e-12)


def test_shc_heavy_tail_flagged_without_tilt(r1_batch_s2):
    rep = ineq.check_shc(exp_ax(2.0), r1_batch_s2, 1.0, 4.0,
                         ineq.janson_time(1, 4, 0.5), 0.5, 0.0, lsh_status="lsh")
    assert rep.verdict == "inconclusive"
    assert any("heavy tail" in note for note in rep.notes)


def test_shc_defect_factor(r1_batch_s2):
    # beta > 0 loosens the bound by M(p,q) = exp(beta (1/p - 1/q))
    assert np.isclose(ineq.defect_m(1.0, 4.0, 0.8), math.exp(0.8 * 0.75))
    rep = ineq.check_shc(exp_ax(1.0), r1_batch_s2, 1.0, 2.0,
                         ineq.janson_time(1, 2, 0.5), 0.5, 0.8, lsh_status="lsh")
    assert rep.verdict == "holds"
    assert rep.margin > 0


# -- sweeps -------------------------------------------------------------------------


def test_alpha_sweep_gaussian_constant(r1_batch_tilt3):
    # equality case: alpha(t) = e^2 for all t
    rep = ineq.sweep_alpha(exp_ax(2.0), r1_batch_tilt3, 0.5, 0.0, 4.0,
                           lsh_status="lsh")
    assert rep.verdict == "holds"
    assert rep.monotone_nonincreasing and rep.monotone_nondecreasing
    for v, se in zip(rep.values, rep.stderrs):
        assert abs(v - math.exp(2.0)) < 4 * se + 1e-9


def test_alpha_sweep_constant_field(r1_batch_s2):
    rep = ineq.sweep_alpha(calc.Const(3.0), r1_batch_s2, 1.0, 0.0, math.e,
                           lsh_status="lsh")
    assert rep.monotone_nonincreasing and rep.monotone_nondecreasing
    assert np.allclose(rep.values, 3.0)


def test_alpha_sweep_h3_decreasing(h3_batch_s1):
    # exponent r(t) e^{-t} = 1 for all t at c=1: alpha(t) = exp((s/4) e^{-t})
    rep = ineq.sweep_alpha(calc.Exp(calc.x(1, 1)), h3_batch_s1, 1.0, 0.0, math.e,
                           lsh_status="lsh")
    assert rep.verdict == "holds"
    assert rep.monotone_nonincreasing
    assert not rep.monotone_nondecreasing
    for t, v, se in zip(rep.ts, rep.values, rep.stderrs):
        assert abs(v - math.exp(0.25 * math.exp(-t))) < 4 * se + 1e-9
    assert np.isclose(rep.ts[-1], 1.0)  # t_J(1, e) = c log q = 1


def test_l1_contractivity_h3(h3_batch_s1, h3):
    rep = ineq.check_l1_contractivity(calc.Exp(calc.x(1, 1)), h3_batch_s1,
                                      lsh_status="lsh")
    assert rep.verdict == "holds" and rep.monotone_nonincreasing
    # closed form |e^{-tE} f|_1 = exp(e^{-2t} s/4)
    for t, v, se in zip(rep.ts, rep.values, rep.stderrs):
        assert abs(v - math.exp(math.exp(-2 * t) * 0.25)) < 4 * se + 1e-9

    bad = lsh.library_field(h3, "gauss-neg")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        neg = ineq.check_l1_contractivity(bad.field, h3_batch_s1)
    assert neg.verdict == "violated"
    assert neg.monotone_nondecreasing and not neg.monotone_nonincreasing
    # closed form: E[exp(-e^{-2t} x1^2)] = 1/sqrt(1 + e^{-2t} s)
    for t, v, se in zip(neg.ts, neg.values, neg.stderrs):
        assert abs(v - 1.0 / math.sqrt(1 + math.exp(-2 * t))) < 4 * se + 1e-9


@pytest.mark.parametrize("sweep", [
    lambda f, batch: ineq.check_l1_contractivity(f, batch),
    lambda f, batch: ineq.sweep_alpha(f, batch, 1.0, 0.0, 2.0),
], ids=["contractivity", "alpha-sweep"])
def test_sweep_lsh_spot_check_warns_at_caller(sweep, h3_batch_s1, h3):
    bad = lsh.library_field(h3, "gauss-neg")
    with pytest.warns(UserWarning, match="spot check") as record:
        rep = sweep(bad.field, h3_batch_s1)
    assert [w.filename for w in record] == [__file__]
    assert rep.notes == ["LSH spot check: violated"]


def test_l1_contractivity_constant(r1_batch_s2):
    rep = ineq.check_l1_contractivity(calc.Const(2.0), r1_batch_s2,
                                      lsh_status="lsh")
    assert rep.monotone_nonincreasing and rep.monotone_nondecreasing
    assert np.allclose(rep.values, 2.0)


@pytest.mark.parametrize("grid", [[], [0.3]], ids=["empty", "one-point"])
def test_sweeps_need_two_grid_points(grid, h3_batch_s1):
    # monotonicity is decided from the grid's steps, and fewer than two t have none
    f = calc.Exp(calc.x(1, 1))
    with pytest.raises(ParameterError, match="at least two t values"):
        ineq.sweep_alpha(f, h3_batch_s1, 1.0, 0.0, math.e, ts=grid, lsh_status="lsh")
    with pytest.raises(ParameterError, match="at least two t values"):
        ineq.check_l1_contractivity(f, h3_batch_s1, ts=grid, lsh_status="lsh")


def test_alpha_sweep_needs_nonnegative_beta(h3_batch_s1):
    # like sLSI and sHC, the sweep's statement takes beta >= 0
    f = calc.Exp(calc.x(1, 1))
    with pytest.raises(ParameterError, match=r"^constants c, beta must be >= 0$"):
        ineq.sweep_alpha(f, h3_batch_s1, 1.0, -1.0, math.e, lsh_status="lsh")
    with pytest.raises(ParameterError, match=r"^constants c, beta must be >= 0$"):
        ineq.check_slsi(f, h3_batch_s1, 1.0, -1.0, lsh_status="lsh")


def test_sweep_peak_memory(h3, engel, traced_peak):
    # a block holds a few (t, sample) arrays; sweeping t by t and keeping every
    # t's influences peaked at 10.7 MiB on heisenberg(1) at n = 100k on the
    # default 9-point grid, and at 1.2 MiB on engel at n = 4000 on 33 points
    f = calc.Exp(calc.x(1, 1))
    batch = heat.sample(h3, 1.0, 100_000, 8, seed=5)
    peak = traced_peak(lambda: ineq.sweep_alpha(f, batch, 1.0, 0.0, math.e, lsh_status="lsh"))
    assert peak < 6 * 2 ** 20, peak
    batch = heat.sample(engel, 1.0, 4000, 16, seed=5)
    grid = [i / 32 for i in range(33)]
    peak = traced_peak(lambda: ineq.sweep_alpha(f, batch, 1.0, 0.0, math.e, ts=grid,
                                                lsh_status="lsh"))
    assert peak < 2 ** 20, peak


# -- calibration and labeling -------------------------------------------------------


def test_common_random_numbers_calibration(h3):
    # re-running with fresh seeds moves the margin by < 4 combined stderr
    f = calc.Exp(calc.x(1, 1))
    reps = []
    for seed in range(20):
        batch = heat.sample(h3, 1.0, 5000, 32, seed=1000 + seed)
        reps.append(ineq.check_slsi(f, batch, 1.0, 0.0, lsh_status="lsh"))
    base = reps[0]
    ok = sum(
        abs(r.margin - base.margin) < 4 * math.hypot(r.stderr, base.stderr)
        for r in reps[1:]
    )
    assert ok >= 18  # 4 sigma: essentially all


def test_mode_labels(h3, engel, r1_batch_s2):
    assert ineq.lsi_mode(h3) == MODE_VERIFIED
    assert ineq.lsi_mode(engel) == MODE_EXPLORATORY
    batch = heat.sample(engel, 1.0, 2000, 16, seed=3)
    rep = ineq.check_slsi(calc.Exp(calc.x(1, 1)), batch, 1.0, 0.0, lsh_status="lsh")
    assert rep.mode == MODE_EXPLORATORY
    assert ineq.check_lsi(exp_ax(1.0), r1_batch_s2, 0.5, 0.0).mode == MODE_VERIFIED


def test_every_estimate_carries_stderr(r1_batch_s2):
    est = ineq.estimate("l1", exp_ax(1.0), r1_batch_s2)
    d = est.as_dict()
    assert "stderr" in d and d["stderr"] > 0
    rep = ineq.check_lsi(exp_ax(1.0), r1_batch_s2, 0.5, 0.0)
    assert "stderr" in rep.as_dict()
