"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line through the capture (visible in the
terminal); pytest failure output is the FAIL line.  Batches reuse the fact
that first-layer marginals are exact in law for any step count, so the
Euclidean criteria run with few steps; group-level criteria use the step
counts they state.
"""

import copy
import math

import numpy as np
import pytest
from scipy import stats

from carnot import algebra, calculus as calc, cli, group, heat, inequalities as ineq, lsh


@pytest.fixture()
def announce(capsys):
    def _say(line):
        with capsys.disabled():
            print(line, flush=True)

    return _say


def exp_ax(a):
    return calc.Exp(calc.Prod(calc.Const(a), calc.x(1, 1)))


@pytest.fixture(scope="module")
def r1():
    return algebra.builtin("euclidean(1)")


@pytest.fixture(scope="module")
def h3():
    return algebra.builtin("heisenberg(1)")


@pytest.fixture(scope="module")
def r1_sharpness_batch(r1):
    # tilt 3 = midpoint of the integrand exponents 2 and 4: both sides of the
    # sHC check stay light-tailed; n = 1e6 per the criterion
    return heat.sample(r1, 2.0, 1_000_000, 8, seed=4101, tilt=np.array([3.0]))


@pytest.fixture(scope="module")
def r1_equality_batch(r1):
    # tilt 1.5 serves both a = 1 and a = 2 test families
    return heat.sample(r1, 2.0, 1_000_000, 8, seed=4102, tilt=np.array([1.5]))


@pytest.fixture(scope="module")
def h3_batches(h3):
    return {
        s: heat.sample(h3, s, 100_000, 512, seed=4200 + int(2 * s))
        for s in (1.0, 2.0)
    }


def test_criterion_01_gaussian_shc_sharpness(r1_sharpness_batch, announce):
    f = exp_ax(2.0)
    t_j = ineq.janson_time(1, 4, 0.5)
    rep = ineq.check_shc(f, r1_sharpness_batch, 1.0, 4.0, t_j, 0.5, 0.0,
                         lsh_status="lsh")
    ratio = rep.lhs / rep.rhs
    se_rel = rep.stderr / rep.rhs
    assert rep.verdict == "holds"
    assert abs(ratio - 1.0) <= 3 * se_rel
    assert se_rel < 0.02

    rep9 = ineq.check_shc(f, r1_sharpness_batch, 1.0, 4.0, 0.9 * t_j, 0.5, 0.0,
                          exploratory=True, lsh_status="lsh")
    assert rep9.verdict == "violated"
    assert rep9.margin < -4 * rep9.stderr
    announce(
        f"ACCEPTANCE 1 PASS: sHC sharpness at t_J (ratio {ratio:.5f} ± {se_rel:.5f}); "
        f"0.9 t_J violated with z = {rep9.z:.1f}"
    )


def test_criterion_02_gaussian_lsi_slsi_equality(r1_equality_batch, announce):
    worst = 0.0
    for a in (1.0, 2.0):
        f = exp_ax(a)
        for rep in (
            ineq.check_lsi(f, r1_equality_batch, 0.5, 0.0),
            ineq.check_slsi(f, r1_equality_batch, 0.5, 0.0, lsh_status="lsh"),
        ):
            assert rep.verdict == "holds"
            assert abs(rep.margin) <= 3 * rep.stderr, (a, rep.name)
            worst = max(worst, abs(rep.margin) / rep.stderr)
    announce(
        f"ACCEPTANCE 2 PASS: Gaussian LSI/sLSI equality margins (worst |z| = {worst:.2f})"
    )


def test_criterion_03_time_space_identity(h3_batches, announce):
    fields = {
        "x1^2": calc.x(1, 1) ** 2,
        "exp(x1)": calc.Exp(calc.x(1, 1)),
        "x1x2+x3+8": calc.x(1, 1) * calc.x(1, 2) + calc.x(2, 1) + calc.Const(8.0),
    }
    worst_z = 0.0
    for s, batch in h3_batches.items():
        for name, f in fields.items():
            rep = ineq.check_time_space(f, batch)
            assert rep.verdict == "holds", (s, name, rep.z)
            worst_z = max(worst_z, abs(rep.z))
        rep_sq = ineq.check_time_space(fields["x1^2"], batch)
        assert abs(rep_sq.lhs - s) / s < 0.015
        assert abs(rep_sq.rhs - s) / s < 0.015
    announce(
        f"ACCEPTANCE 3 PASS: time-space identity on H3 (worst |z| = {worst_z:.2f}; "
        f"x1^2 sides within 1.5% of s)"
    )


def test_criterion_04_heat_kernel_marginals(h3, announce, area_variance_z):
    for name in ["euclidean(3)", "heisenberg(1)", "heisenberg(2)", "engel"]:
        alg = algebra.builtin(name)
        s = 2.0
        batch = heat.sample(alg, s, 100_000, 16, seed=4301)
        for k in range(alg.dim_v1):
            p = stats.kstest(batch.samples[:, k], "norm",
                             args=(0.0, math.sqrt(s / 2.0))).pvalue
            assert p > 0.01, (name, k, p)

    refined = heat.coupled_refinement(h3, 1.0, 100_000, [64, 256, 1024], seed=9)
    # Var x3 = (1/16)(1 - 1/K) at K = 1024, and the coupled differences
    # Var_K - Var_1024 = (1/16)(1/1024 - 1/K), each within 3 stderr
    z_var, z_diff = area_variance_z(refined)
    assert abs(z_var) < 3, z_var
    assert all(abs(z) < 3 for z in z_diff.values()), z_diff
    announce(
        "ACCEPTANCE 4 PASS: first-layer KS on all builtins; "
        f"Var(x3) at 1024 steps z = {z_var:.2f}, coupled bias z = "
        + ", ".join(f"{z:.2f} ({k} steps)" for k, z in z_diff.items())
    )


def test_criterion_05_heat_kernel_identities(h3, announce):
    b4 = heat.sample(h3, 4.0, 100_000, 256, seed=4401)
    b1 = heat.sample(h3, 1.0, 100_000, 256, seed=4402)
    inv = heat.empirical_check_inverse_symmetry(b4)
    assert inv.verdict == "holds" and inv.max_abs_z < 4
    sca = heat.empirical_check_scaling(b4, 2.0, b1)
    assert sca.verdict == "holds" and sca.max_abs_z < 4

    shifted = group.multiply_batch(
        h3, np.tile([1.0, 0.0, 0.0], (b4.n_samples, 1)), b4.samples
    )
    control = heat.HeatSampleBatch(h3, 4.0, b4.n_samples, 256, 4401, shifted)
    bad = heat.empirical_check_inverse_symmetry(control)
    assert bad.verdict == "violated"
    announce(
        f"ACCEPTANCE 5 PASS: inverse symmetry (max|z| {inv.max_abs_z:.2f}) and "
        f"lambda=2 scaling (max|z| {sca.max_abs_z:.2f}); shifted control violated"
    )


def test_criterion_06_group_law_exactness(h3, announce):
    worst = 0.0
    for name in ["euclidean(3)", "heisenberg(1)", "heisenberg(2)", "engel"]:
        alg = algebra.builtin(name)
        rng = np.random.default_rng(4501)
        X, Y, Z = (rng.standard_normal((10_000, alg.dim)) * 2 for _ in range(3))
        lhs = group.multiply_batch(alg, group.multiply_batch(alg, X, Y), Z)
        rhs = group.multiply_batch(alg, X, group.multiply_batch(alg, Y, Z))
        resid = float(np.max(np.abs(lhs - rhs)))
        assert resid < 1e-10, name
        worst = max(worst, resid)

    rng = np.random.default_rng(4502)
    X = rng.standard_normal((10_000, 3)) * 2
    Y = rng.standard_normal((10_000, 3)) * 2
    P = group.multiply_batch(h3, X, Y)
    closed = np.column_stack([
        X[:, 0] + Y[:, 0],
        X[:, 1] + Y[:, 1],
        X[:, 2] + Y[:, 2] + 0.5 * (X[:, 0] * Y[:, 1] - X[:, 1] * Y[:, 0]),
    ])
    h3_resid = float(np.max(np.abs(P - closed)))
    assert h3_resid < 1e-14
    announce(
        f"ACCEPTANCE 6 PASS: associativity residual {worst:.2e} (< 1e-10); "
        f"H3 closed-form residual {h3_resid:.2e} (< 1e-14)"
    )


def test_criterion_07_calculus_oracle(h3, horizontal, announce):
    rng = np.random.default_rng(4601)
    P = rng.standard_normal((1000, 3)) * 2
    lap = horizontal(calc.x(2, 1) ** 2, h3, P)[1]
    assert np.max(np.abs(lap - (P[:, 0] ** 2 + P[:, 1] ** 2) / 2)) < 1e-12
    gsq = horizontal(calc.x(2, 1), h3, P)[0]
    assert np.max(np.abs(gsq - (P[:, 0] ** 2 + P[:, 1] ** 2) / 4)) < 1e-12
    f = calc.x(1, 1) * calc.x(1, 2) + calc.x(2, 1)
    ef = calc.euler_derivative_batch(f, h3, P)
    assert np.max(np.abs(ef - 2 * (P[:, 0] * P[:, 1] + P[:, 2]))) < 1e-12

    lam = 1.6
    fd = calc.compose_dilation(f, lam)
    P = P[:100]
    moved = group.dilate_batch(h3, lam, P)
    worst = 0.0
    for xi, layer in [([1.0, 0, 0], 1), ([0, 1.0, 0], 1), ([0, 0, 1.0], 2)]:
        lhs = calc.curve_jet(fd, h3, P, xi).d1
        rhs = lam ** layer * calc.curve_jet(f, h3, moved, xi).d1
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-10
    announce(
        f"ACCEPTANCE 7 PASS: jet operators match closed forms to 1e-12; "
        f"dilation-derivative identity residual {worst:.2e}"
    )


def test_criterion_08_lsh_closure_suite(h3, announce):
    points = lsh.grid_points(h3, 1000, 3.0, seed=4701)
    library = [e for e in lsh.builtin_lsh_library(h3) if e.status == "lsh"]
    n_checks = 0
    for i, a in enumerate(library):
        for b in library[i:]:
            for op, combo in (("product", a.field * b.field), ("sum", a.field + b.field)):
                v = lsh.check_lsh(combo, points, tol=1e-9, algebra=h3)
                assert v.is_lsh_consistent and v.routes_agree, (op, a.name, b.name)
                n_checks += 1
    for a in library:
        for p in (0.5, 2.0, 3.0):
            v = lsh.check_lsh(a.field ** p, points, tol=1e-9, algebra=h3)
            assert v.is_lsh_consistent, ("power", a.name, p)
            n_checks += 1
        for lam in (0.5, 2.0):
            v = lsh.check_lsh(calc.compose_dilation(a.field, lam), points,
                              tol=1e-9, algebra=h3)
            assert v.is_lsh_consistent, ("dilate", a.name, lam)
            n_checks += 1

    negatives = [e for e in lsh.builtin_lsh_library(h3) if e.status == "not-lsh"]
    assert len(negatives) == 2
    for e in negatives:
        v = lsh.check_lsh(e.field, points, tol=1e-9, algebra=h3)
        assert v.verdict == lsh.LSH_VIOLATED, e.name
    announce(
        f"ACCEPTANCE 8 PASS: {n_checks} closure combinations LSH-consistent at "
        f"tol 1e-9 on 1000 grid points; both negative controls flagged"
    )


def test_criterion_09_monotonicity_facts(h3, h3_batches, announce):
    batch = h3_batches[1.0]
    sweep = ineq.sweep_alpha(calc.Exp(calc.x(1, 1)), batch, 1.0, 0.0, math.e,
                             lsh_status="lsh")
    assert sweep.verdict == "holds" and sweep.monotone_nonincreasing

    for entry in lsh.builtin_lsh_library(h3):
        if entry.status != "lsh":
            continue
        rep = ineq.check_l1_contractivity(entry.field, batch, lsh_status="lsh")
        assert rep.monotone_nonincreasing, entry.name

    control = lsh.library_field(h3, "gauss-neg")
    with pytest.warns(UserWarning):
        neg = ineq.check_l1_contractivity(control.field, batch)
    assert neg.monotone_nondecreasing and not neg.monotone_nonincreasing
    announce(
        "ACCEPTANCE 9 PASS: alpha(t) non-increasing; L1 contractivity on all "
        "library LSH fields; non-LSH control increasing"
    )


def test_criterion_10_manifest_reproducibility(monkeypatch, announce):
    config = cli.preset("heisenberg-slsi-sweep")
    config["heat"]["n"] = 20_000
    config["heat"]["steps"] = 64
    blobs = []
    for threads in ("1", "4", "8"):
        monkeypatch.setenv("CARNOT_THREADS", threads)
        manifest = cli.run(copy.deepcopy(config))
        blobs.append(cli.manifest_canonical_bytes(manifest))
    assert blobs[0] == blobs[1] == blobs[2]
    announce(
        "ACCEPTANCE 10 PASS: bit-identical manifests across 1, 4 and 8 threads"
    )
