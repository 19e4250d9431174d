import json

import numpy as np
import pytest

from carnot import algebra, calculus as calc, lsh
from carnot.errors import ParameterError, StructureError


@pytest.fixture(scope="module")
def h3_grid(h3):
    return lsh.grid_points(h3, 1000, 3.0, seed=2)


def lib_by_name(alg):
    return {e.name: e for e in lsh.builtin_lsh_library(alg)}


def test_exp_linear_is_lsh(h3, h3_grid):
    f = calc.Exp(calc.Sum(calc.Prod(calc.Const(1.3), calc.x(1, 1)),
                          calc.Prod(calc.Const(-0.4), calc.x(1, 2))))
    v = lsh.check_lsh(f, h3_grid, algebra=h3)
    assert v.is_lsh_consistent
    assert abs(v.min_delta_log) < 1e-10  # harmonic exponent: Delta log f = 0
    assert v.routes_agree


def test_positive_constant_is_lsh(h3, h3_grid):
    v = lsh.check_lsh(calc.Const(2.5), h3_grid, algebra=h3)
    assert v.is_lsh_consistent


def test_gaussian_bump_is_violated(h3, h3_grid):
    entry = lib_by_name(h3)["gauss-neg"]
    v = lsh.check_lsh(entry.field, h3_grid, algebra=h3)
    assert v.verdict == lsh.LSH_VIOLATED
    assert np.isclose(v.min_delta_log, -2.0, atol=1e-10)  # Delta(-x1^2) = -2
    assert v.routes_agree


def test_domain_error_reports_offending_point(h3):
    pts = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
    v = lsh.check_lsh(calc.x(1, 1), pts, algebra=h3)
    assert v.verdict == lsh.LSH_DOMAIN_ERROR
    assert "1" in v.detail


def test_zero_value_is_an_error_negative_is_a_domain_error(h3):
    # exp(-1000) underflows to +0.0: not a violation, and not f <= 0 of an
    # LSH field either; a -0.0 carries the sign of a negative quantity
    pts = np.array([[1.0, 0, 0], [-1000.0, 0, 0]])
    with pytest.raises(ParameterError, match="f is 0 at point index 1 .underflow"):
        lsh.check_lsh(calc.Exp(calc.x(1, 1)), pts, algebra=h3)
    zero = calc.parse_field("(* x_1_1 0)")
    with pytest.raises(ParameterError, match="f is 0 at point index 0"):
        lsh.check_lsh(zero, pts[:1], algebra=h3)
    v = lsh.check_lsh(zero, pts, algebra=h3)
    assert v.verdict == lsh.LSH_DOMAIN_ERROR and v.detail == "f <= 0 at point index 0"


def test_library_labels(h3, r1, engel):
    h3lib = lib_by_name(h3)
    assert h3lib["sqnorm-eps"].status == "lsh"
    assert h3lib["gauss-neg"].status == "not-lsh"
    assert lib_by_name(r1)["sqnorm-eps"].status == "not-lsh"
    assert lib_by_name(engel)["sqnorm-eps"].status == "unknown"
    with pytest.raises(ParameterError):
        lsh.library_field(h3, "nope")


def test_library_statuses_match_checks(h3, h3_grid):
    for entry in lsh.builtin_lsh_library(h3):
        v = lsh.check_lsh(entry.field, h3_grid, algebra=h3)
        want = lsh.LSH_CONSISTENT if entry.status == "lsh" else lsh.LSH_VIOLATED
        assert v.verdict == want, entry.name


def test_sqnorm_eps_unknown_on_engel_is_consistent(engel):
    # labeled unknown pending a run; the run itself comes out consistent
    pts = lsh.grid_points(engel, 600, 3.0, seed=3)
    entry = lib_by_name(engel)["sqnorm-eps"]
    v = lsh.check_lsh(entry.field, pts, algebra=engel)
    assert v.is_lsh_consistent


def test_r1_sqnorm_eps_violated(r1):
    pts = lsh.grid_points(r1, 500, 3.0, seed=4)
    entry = lib_by_name(r1)["sqnorm-eps"]
    assert lsh.check_lsh(entry.field, pts, algebra=r1).verdict == lsh.LSH_VIOLATED


def test_closure_operations(h3, h3_grid):
    lib = lib_by_name(h3)
    f = lib["expx1"].field
    g = lib["sqnorm-eps"].field
    combos = [
        f * g,
        f + g,
        f ** 2.5,
        g ** 0.5,
        calc.compose_dilation(g, 2.0),
        calc.compose_dilation(f, 0.5),
    ]
    for combo in combos:
        v = lsh.check_lsh(combo, h3_grid, tol=1e-9, algebra=h3)
        assert v.is_lsh_consistent
        assert v.routes_agree


def test_product_of_exponentials_explicit(h3, h3_grid):
    f = calc.Exp(calc.x(1, 1))
    g = calc.Exp(calc.x(1, 2))
    v = lsh.check_lsh(f * g, h3_grid, algebra=h3)
    assert v.is_lsh_consistent
    assert abs(v.min_delta_log) < 1e-10


def test_dilation_scales_delta_log_exactly(h3):
    # Delta log(f o delta_lam)(x) = lam^2 (Delta log f)(delta_lam x)
    from carnot.group import dilate_batch

    entry = lib_by_name(h3)["sqnorm-eps"]
    pts = lsh.grid_points(h3, 200, 2.0, seed=5)
    lam = 1.8
    fd = calc.compose_dilation(entry.field, lam)

    def delta_log(field, points):
        out = np.zeros(len(points))
        for jet in calc.horizontal_jets(calc.Log(field), h3, points):
            out += np.asarray(jet.d2, dtype=float)
        return out

    lhs = delta_log(fd, pts)
    rhs = lam ** 2 * delta_log(entry.field, dilate_batch(h3, lam, pts))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_lsh_functions_are_subharmonic(h3, h3_grid):
    # Delta f >= |grad f|^2 / f >= 0 for everything labeled lsh
    for entry in lsh.builtin_lsh_library(h3):
        if entry.status != "lsh":
            continue
        lap = calc.sub_laplacian_batch(entry.field, h3, h3_grid)
        assert np.min(lap) > -1e-9, entry.name


def test_grid_points_inside_quasi_ball(h3):
    from carnot.group import homogeneous_norm_batch

    pts = lsh.grid_points(h3, 500, 3.0, seed=6)
    assert np.max(homogeneous_norm_batch(h3, pts)) <= 3.0 + 1e-12
    again = lsh.grid_points(h3, 500, 3.0, seed=6)
    assert np.array_equal(pts, again)


def test_check_lsh_takes_an_n_by_dim_array(h3, engel):
    pts = [[0.1, 0.2, 0.3], [-1.0, 0.5, 0.0]]
    v = lsh.check_lsh(calc.Exp(calc.x(1, 1)), pts, algebra=h3)
    assert v.is_lsh_consistent and v.n_points == 2
    # an engel-wide array is not a set of heisenberg(1) points
    with pytest.raises(StructureError, match=r"\(n, 3\)"):
        lsh.check_lsh(calc.Exp(calc.x(1, 1)), np.zeros((5, engel.dim)), algebra=h3)


def test_check_lsh_builds_one_frame_for_both_routes(h3, h3_grid, monkeypatch):
    builds, products = [], []
    frame_jets, multiply_jets = calc.frame_jets, calc.multiply_jets

    def counting_frame_jets(*args):
        builds.append(1)
        return frame_jets(*args)

    def counting_multiply_jets(*args):
        products.append(1)
        return multiply_jets(*args)

    monkeypatch.setattr(lsh, "frame_jets", counting_frame_jets)
    monkeypatch.setattr(calc, "multiply_jets", counting_multiply_jets)
    f = lib_by_name(h3)["coshx1"].field
    own = lsh.check_lsh(f, h3_grid, algebra=h3)
    assert (len(builds), len(products)) == (1, h3.dim_v1)

    frame = calc.frame_jets(h3, h3_grid)
    builds.clear()
    products.clear()
    given = lsh.check_lsh(f, h3_grid, algebra=h3, frame=frame)
    assert (len(builds), len(products)) == (0, 0)
    assert given.as_dict() == own.as_dict()


# -- blocks of points ----------------------------------------------------------------


def _lsh_reference(f, alg, pts, tol=lsh.DEFAULT_TOL) -> lsh.LshVerdict:
    """check_lsh's report of a positive f from one pass over the whole grid,
    by the two routes written out: Delta log f from the jets of log f, the
    lemma (Delta f - |grad f|^2 / f) / f from the jets of f and its values."""
    vals = calc.evaluate_batch(f, alg, pts)
    delta_log = calc.sub_laplacian_batch(calc.Log(f), alg, pts)
    grad_sq, lap = calc.horizontal_sums(f, alg, pts)
    lemma = (lap - grad_sq / vals) / vals
    i = int(np.argmin(delta_log))
    v1, v2 = delta_log[i] < -tol, np.min(lemma) < -tol
    return lsh.LshVerdict(lsh.LSH_VIOLATED if v1 else lsh.LSH_CONSISTENT,
                          float(delta_log[i]), pts[i], tol, float(np.min(lemma)),
                          bool(v1 == v2), len(pts))


@pytest.mark.parametrize("name", ["heisenberg(1)", "heisenberg(2)", "engel"])
def test_blocks_give_the_whole_grid_report(name):
    # 2.5 blocks, with the rows of each field's least Delta log f moved into
    # the partial last block (a field whose every row has it keeps its order,
    # and the tie goes to row 0); with a frame given or built block by block
    alg = algebra.builtin(name)
    block = lsh._BLOCK_POINTS
    base = lsh.grid_points(alg, 5 * block // 2, 3.0, seed=8)
    for entry in lsh.builtin_lsh_library(alg):
        delta_log = calc.sub_laplacian_batch(calc.Log(entry.field), alg, base)
        least = delta_log == delta_log.min()
        pts = base[np.argsort(least, kind="stable")]
        want = _lsh_reference(entry.field, alg, pts)
        worst = 0 if least.all() else len(pts) - int(least.sum())
        assert worst == 0 or worst >= 2 * block, entry.name
        assert np.array_equal(want.worst_point, pts[worst]), entry.name
        own = lsh.check_lsh(entry.field, pts, algebra=alg)
        given = lsh.check_lsh(entry.field, pts, algebra=alg,
                              frame=calc.frame_jets(alg, pts))
        assert json.dumps(own.as_dict()) == json.dumps(want.as_dict()), entry.name
        assert json.dumps(given.as_dict()) == json.dumps(want.as_dict()), entry.name


def _engel_zeros_with(engel, row: int, value: float) -> np.ndarray:
    pts = np.zeros((40_000, engel.dim))
    pts[row, 0] = value
    return pts


def test_overflow_in_a_later_block_names_the_grid_index(engel):
    # the jets of f fail in the second block; the index is the grid's, not
    # the block's (35000 - 2 ** 15 = 2232)
    pts = _engel_zeros_with(engel, 35_000, 3.0)
    f = calc.parse_field("(exp (* 300 x_1_1))")
    with np.errstate(all="ignore"):
        with pytest.raises(ParameterError,
                           match=r"^log of non-finite value \(overflow\) at sample 35000$"):
            lsh.check_lsh(f, pts, algebra=engel)
        with pytest.raises(ParameterError, match=r"at sample 35000$"):
            lsh.check_lsh(f, pts, algebra=engel, frame=calc.frame_jets(engel, pts))


def test_domain_errors_in_a_later_block_name_the_grid_index(engel):
    pts = _engel_zeros_with(engel, 35_000, 3.0)
    v = lsh.check_lsh(calc.parse_field("(- 1 x_1_1)"), pts, algebra=engel)
    assert (v.verdict, v.detail) == (lsh.LSH_DOMAIN_ERROR, "f <= 0 at point index 35000")
    assert np.array_equal(v.worst_point, pts[35_000])
    v = lsh.check_lsh(calc.parse_field("(log (- 2 x_1_1))"), pts, algebra=engel)
    assert (v.verdict, v.detail) == (lsh.LSH_DOMAIN_ERROR,
                                     "log of non-positive value at sample 35000")
    # the first error in the tree's order over the whole grid, as one pass
    # would meet it: the first log fails at 35000, before the second fails at 5
    pts[5, 1] = -3.0
    f = calc.parse_field("(+ (log (- 2 x_1_1)) (log (+ 2 x_1_2)))")
    v = lsh.check_lsh(f, pts, algebra=engel)
    assert v.detail == "log of non-positive value at sample 35000"


def test_check_lsh_peak_memory(engel, traced_peak):
    # with the grid's frame given, every array the check forms is block-sized
    # but f's values: one pass over the whole grid peaked at 6.9-9.2 MiB on
    # these fields, blocks of 2 ** 15 points at 2.0-4.0 MiB
    pts = lsh.grid_points(engel, 100_000, 3.0, seed=0)
    frame = calc.frame_jets(engel, pts)
    for entry in lsh.builtin_lsh_library(engel):
        peak = traced_peak(lambda: lsh.check_lsh(entry.field, pts, algebra=engel,
                                                 frame=frame))
        assert peak < 6 * 2 ** 20, (entry.name, peak)
