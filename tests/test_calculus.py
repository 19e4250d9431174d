import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from carnot import algebra, calculus as calc, cli, group, heat, inequalities as ineq, lsh
from carnot.errors import ConfigError, DomainError, ParameterError, StructureError


def rand_points(alg, n, seed, scale=2.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, alg.dim)) * scale


# -- Jet2 arithmetic against hand-computed chain rules ---------------------------


def test_jet_product_and_chain_rules():
    a = calc.Jet2(2.0, 3.0, -1.0)
    b = calc.Jet2(-1.0, 0.5, 2.0)
    p = a * b
    assert (p.val, p.d1, p.d2) == (-2.0, 3.0 * -1.0 + 2.0 * 0.5, (-1.0) * -1.0 + 2 * 3.0 * 0.5 + 2.0 * 2.0)
    e = a.exp()
    assert np.isclose(e.d1, np.exp(2.0) * 3.0)
    assert np.isclose(e.d2, np.exp(2.0) * (-1.0 + 9.0))
    l = a.log()
    assert np.isclose(l.d1, 3.0 / 2.0)
    assert np.isclose(l.d2, -1.0 / 2.0 - (3.0 / 2.0) ** 2)
    q = a.pow(2.5)
    assert np.isclose(q.d1, 2.5 * 2.0 ** 1.5 * 3.0)
    assert np.isclose(q.d2, 2.5 * 2.0 ** 1.5 * -1.0 + 2.5 * 1.5 * 2.0 ** 0.5 * 9.0)


def test_jets_match_polynomial_differentiation(r1):
    # f(x) = sum_k c_k x^k along x(t) = x0 + v t: exact derivative comparison
    rng = np.random.default_rng(8)
    coeffs = rng.standard_normal(5)
    f = calc.Sum(*[calc.Prod(calc.Const(c), calc.Pow(calc.x(1, 1), float(k)))
                   for k, c in enumerate(coeffs)])
    x0, v = 0.7, 1.3
    jets = [calc.Jet2(x0, v, 0.0)]
    out = f._eval(r1, jets)
    d1 = sum(k * c * x0 ** (k - 1) for k, c in enumerate(coeffs) if k >= 1) * v
    d2 = sum(k * (k - 1) * c * x0 ** (k - 2) for k, c in enumerate(coeffs) if k >= 2) * v ** 2
    assert np.isclose(out.d1, d1, atol=1e-12)
    assert np.isclose(out.d2, d2, atol=1e-12)


# -- structural zeros against dense jet arithmetic ---------------------------------


@dataclass(frozen=True)
class _DenseJet:
    """Jet2's arithmetic before structural zeros: every term is formed."""

    val: object
    d1: object
    d2: object

    def __add__(self, other):
        if isinstance(other, _DenseJet):
            return _DenseJet(self.val + other.val, self.d1 + other.d1, self.d2 + other.d2)
        return _DenseJet(self.val + other, self.d1, self.d2)

    __radd__ = __add__

    def __neg__(self):
        return _DenseJet(-self.val, -self.d1, -self.d2)

    def __sub__(self, other):
        return _DenseJet(self.val - other.val, self.d1 - other.d1, self.d2 - other.d2)

    def __mul__(self, other):
        if isinstance(other, _DenseJet):
            return _DenseJet(
                self.val * other.val,
                self.d1 * other.val + self.val * other.d1,
                self.d2 * other.val + 2.0 * self.d1 * other.d1 + self.val * other.d2,
            )
        return _DenseJet(self.val * other, self.d1 * other, self.d2 * other)

    __rmul__ = __mul__

    def exp(self):
        e = np.exp(self.val)
        return _DenseJet(e, e * self.d1, e * (self.d2 + self.d1 * self.d1))

    def log(self):
        r = self.d1 / self.val
        return _DenseJet(np.log(self.val), r, self.d2 / self.val - r * r)

    def pow(self, p):
        v = self.val
        vp = v ** p
        if p == 0:
            return _DenseJet(vp, 0.0 * self.d1, 0.0 * self.d2)
        vp1 = v ** (p - 1)
        d2 = p * vp1 * self.d2
        if p != 1:
            d2 = d2 + p * (p - 1) * v ** (p - 2) * self.d1 * self.d1
        return _DenseJet(vp, p * vp1 * self.d1, d2)


def _jet_routes(f, alg, pts, xi):
    """Every jet route's output as bytes, broadcast to one value per point.

    Adding 0.0 maps -0.0 to 0.0: the sign of an exact zero is the one bit
    structural zeros may change on finite values.
    """
    def b(c):
        return (np.broadcast_to(np.asarray(c, dtype=float), (len(pts),)) + 0.0).tobytes()

    def jet(j):
        return [b(j.val), b(j.d1), b(j.d2)]

    jets = calc.horizontal_jets(f, alg, pts)
    return {
        "frame_jets": [[jet(j) for j in gamma] for gamma in calc.frame_jets(alg, pts)],
        "frame_sum": [b(calc.frame_sum((j.d1 * j.d1 for j in jets), len(pts))),
                      b(calc.frame_sum((j.d2 for j in jets), len(pts)))],
        "curve_jet right": jet(calc.curve_jet(f, alg, pts, xi, side="right")),
        "euler_derivative_batch": b(calc.euler_derivative_batch(f, alg, pts)),
        "partial_derivative_batch": [b(calc.partial_derivative_batch(f, alg, pts, i))
                                     for i in range(alg.dim)],
    }


def _dense(monkeypatch, call):
    """call() with every jet the calculus module builds a _DenseJet."""
    with monkeypatch.context() as m:
        m.setattr(calc, "Jet2", _DenseJet)
        return call()


def _expr_fields(alg):
    """The expression fields of the shipped presets, and two whose products and
    log have every term non-zero, that alg has coordinates for."""
    exprs = {spec["expr"] for name in ("gaussian-sharpness", "heisenberg-time-space")
             for spec in cli.preset(name)["fields"].values()}
    exprs |= {"(* (exp x_1_1) (pow x_1_1 3) (+ 1 x_1_1))",
              "(log (+ 2 (* (exp x_1_1) (exp (* 0.5 x_1_1)))))"}
    out = []
    for expr in sorted(exprs):
        f = calc.parse_field(expr)
        try:
            calc.evaluate_batch(f, alg, np.zeros((1, alg.dim)))
        except StructureError:
            continue
        out.append(f)
    return out


@pytest.mark.parametrize("name", ["euclidean(1)", "euclidean(3)", "heisenberg(1)",
                                  "heisenberg(2)", "engel"])
def test_structural_zeros_keep_dense_bits(name, monkeypatch):
    # skipping known-zero terms changes no bit of a jet route's output
    alg = algebra.builtin(name)
    pts = rand_points(alg, 200, seed=30, scale=1.5)
    xi = np.random.default_rng(31).standard_normal(alg.dim)
    xi[1::2] = 0.0
    fields = [e.field for e in lsh.builtin_lsh_library(alg)] + _expr_fields(alg)
    assert len(fields) >= 8
    for f in fields:
        got = _jet_routes(f, alg, pts, xi)
        want = _dense(monkeypatch, lambda: _jet_routes(f, alg, pts, xi))
        for route in got:
            assert got[route] == want[route], (calc.to_expr(f), route)


def test_structural_zero_times_overflow_is_zero(h3, monkeypatch):
    # exp(800 x_1_1) overflows to inf; along xi_2, x_1_1's jet has structural
    # zeros for d1 and d2, so f's derivatives there are 0 where dense
    # arithmetic formed inf * 0 = NaN.  Along xi_1 both give the same inf.
    f = calc.parse_field("(exp (* 800 x_1_1))")
    pts = np.array([[1.0, 0.5, -0.5], [-1.0, 0.5, 0.5]])
    with np.errstate(all="ignore"):
        along1, along2 = calc.horizontal_jets(f, h3, pts)
        dense1, dense2 = _dense(monkeypatch, lambda: calc.horizontal_jets(f, h3, pts))
    assert np.isinf(along1.d1[0]) and np.isinf(along1.d2[0])
    assert _bytes(along1) == _bytes(dense1)
    assert along2.d1 == along2.d2 == 0.0
    assert np.isnan(dense2.d1[0]) and np.isnan(dense2.d2[0])
    assert dense2.d1[1] == dense2.d2[1] == 0.0


def test_frame_jets_peak_memory(engel, traced_peak):
    # a frame forms no array for a known-zero term, and its directions share
    # one copy of the points' columns: forming every term peaked at 26.0 MiB
    # on this grid, a copy per direction at 12.2 MiB, one copy at 9.2 MiB
    pts = lsh.grid_points(engel, 100_000, 3.0, seed=0)
    peak = traced_peak(lambda: calc.frame_jets(engel, pts))
    assert peak < 10.5 * 2 ** 20, peak


@pytest.mark.parametrize("name", ["heisenberg(1)", "engel"])
def test_frame_rows_are_the_frame_of_those_points(name):
    # rows lo:hi of a frame are views with the bits of the frame of those
    # points alone; every direction's value is the same copy of the points
    alg = algebra.builtin(name)
    pts = rand_points(alg, 300, seed=42)
    frame = calc.frame_jets(alg, pts)
    assert all(np.shares_memory(gamma[i].val, frame[0][i].val)
               for gamma in frame for i in range(alg.dim))
    for lo, hi in ((0, 300), (0, 128), (128, 256), (256, 300)):
        rows = calc.frame_rows(frame, lo, hi)
        alone = calc.frame_jets(alg, pts[lo:hi])
        assert [[_bytes(j) for j in gamma] for gamma in rows] == \
            [[_bytes(j) for j in gamma] for gamma in alone], (lo, hi)
        assert all(np.shares_memory(j.val, whole.val) for j, whole in zip(rows[0], frame[0]))


# -- pullbacks on a t grid -------------------------------------------------------


@pytest.mark.parametrize("name", ["euclidean(1)", "euclidean(3)", "heisenberg(1)",
                                  "heisenberg(2)", "engel"])
def test_evaluate_pullbacks_match_one_t_at_a_time(name):
    # row i of the grid evaluator is evaluate_batch of the i-th pullback, bit
    # for bit: the library's Dilated field adds its own t, a nested (dilated)
    # scales its columns again, and an upper-layer coordinate takes exp(-t)^j
    alg = algebra.builtin(name)
    pts = rand_points(alg, 300, seed=40, scale=1.5)
    ts = np.array([0.37, 0.0, -0.4, 1.7, 0.37, 6.0])
    top = f"x_{alg.step}_1"
    fields = [e.field for e in lsh.builtin_lsh_library(alg)] + [
        calc.parse_field(f"(exp (+ (dilated (* 0.5 x_1_1) 0.3) (* 0.2 {top})))"),
        calc.parse_field(f"(dilated (+ 2 (pow {top} 2)) -0.2)"),
        calc.Const(1.5)]
    for f in fields:
        got = calc.evaluate_pullbacks(f, alg, pts, ts)
        assert got.shape == (len(ts), len(pts)), calc.to_expr(f)
        for t, row in zip(ts, got):
            want = calc.evaluate_batch(calc.dilation_pullback(f, t), alg, pts)
            assert row.tobytes() == want.tobytes(), (calc.to_expr(f), t)


def test_evaluate_pullbacks_scales_only_the_coordinates_f_reads(engel, traced_peak):
    # exp(x_1_1) on 8 t values reads one of engel's four columns: its (8, n)
    # column and exp's output make the peak, which scaling all four would
    # raise to five such arrays
    pts = rand_points(engel, 20_000, seed=41)
    ts = np.linspace(0.0, 1.0, 8)
    peak = traced_peak(lambda: calc.evaluate_pullbacks(calc.Exp(calc.x(1, 1)), engel,
                                                        pts, ts))
    assert peak < 3 * 8 * 20_000 * 8, peak


# -- invariant vector fields on H3 ------------------------------------------------


def test_h3_left_invariant_fields(h3):
    pt = np.array([[0.0, 1.0, 0.0]])
    jet = calc.curve_jet(calc.x(2, 1), h3, pt, [1.0, 0.0, 0.0], side="left")
    assert np.isclose(jet.d1, -0.5)
    jet = calc.curve_jet(calc.x(2, 1), h3, pt, [1.0, 0.0, 0.0], side="right")
    assert np.isclose(jet.d1, 0.5)


def test_h3_xi1_on_x1_squared(h3):
    P = np.random.default_rng(9).standard_normal((5, 3))
    jet = calc.curve_jet(calc.x(1, 1) ** 2, h3, P, [1.0, 0, 0])
    assert np.allclose(jet.val, P[:, 0] ** 2)
    assert np.allclose(jet.d1, 2 * P[:, 0])
    assert np.allclose(jet.d2, 2.0)


def test_abelian_left_equals_right(r1):
    P = np.random.default_rng(10).standard_normal((5, 1))
    f = calc.Exp(calc.Prod(calc.Const(0.8), calc.x(1, 1)))
    l = calc.curve_jet(f, r1, P, [1.0], side="left")
    r = calc.curve_jet(f, r1, P, [1.0], side="right")
    assert np.allclose(l.d1, r.d1) and np.allclose(l.d2, r.d2)


def test_left_right_agree_at_identity(h3):
    rng = np.random.default_rng(11)
    f = calc.Exp(calc.Sum(calc.x(1, 1), calc.Prod(calc.Const(0.5), calc.x(2, 1))))
    e = np.zeros((1, 3))
    for _ in range(5):
        xi = rng.standard_normal(3)
        l = calc.curve_jet(f, h3, e, xi, side="left")
        r = calc.curve_jet(f, h3, e, xi, side="right")
        assert np.allclose(l.d1, r.d1, atol=1e-12)


def _bytes(jet):
    return [np.asarray(c, dtype=float).tobytes() for c in (jet.val, jet.d1, jet.d2)]


@pytest.mark.parametrize("name", ["heisenberg(1)", "engel", "euclidean(2)"])
def test_shared_frame_jets_match_per_call_route(name):
    alg = algebra.builtin(name)
    pts = rand_points(alg, 300, seed=4, scale=1.0)
    # positive, and reaching the top layer and both first-layer directions
    f = calc.Sum(calc.Exp(calc.Prod(calc.Const(0.7), calc.x(1, 1))),
                 calc.Pow(calc.x(alg.step, 1), 2.0),
                 calc.Pow(calc.x(1, 1) * calc.x(1, 2), 2.0), calc.Const(2.0))
    fields = [f, calc.Log(f), calc.compose_dilation(f, 1.5)]
    frame = calc.frame_jets(alg, pts)
    before = [[_bytes(jet) for jet in gamma] for gamma in frame]
    batch = heat.HeatSampleBatch(alg, 1.0, len(pts), 2, 0, pts)  # unit weights

    basis = alg.orthonormal_v1_frame()
    for g in fields:
        # the per-call route: one curve_jet, hence one frame jet, per direction
        per_call, log_per_call = [], []
        for i in range(alg.dim_v1):
            xi = np.zeros(alg.dim)
            xi[: alg.dim_v1] = basis[:, i]
            per_call.append(calc.curve_jet(g, alg, pts, xi))
            log_per_call.append(calc.curve_jet(calc.Log(g), alg, pts, xi))
        shared = calc.horizontal_jets(g, alg, pts, frame)
        assert len(shared) == alg.dim_v1
        for a, b in zip(shared, per_call):
            assert _bytes(a) == _bytes(b)
        grad_sq, lap, grad_log_sq = (np.zeros(len(pts)) for _ in range(3))
        for jet, log_jet in zip(per_call, log_per_call):
            grad_sq += np.broadcast_to(np.asarray(jet.d1 * jet.d1, dtype=float), grad_sq.shape)
            lap += np.broadcast_to(np.asarray(jet.d2, dtype=float), lap.shape)
            grad_log_sq += np.broadcast_to(np.asarray(log_jet.d1 * log_jet.d1, dtype=float),
                                           grad_log_sq.shape)
        # every column of one horizontal_jets pass, the dirichlet one from its logs
        cols = ineq._columns(g, batch, ("grad_sq", "laplacian", "dirichlet"), "g > 0")
        want = (grad_sq, lap, calc.evaluate_batch(g, alg, pts) * grad_log_sq)
        assert [c.tobytes() for c in cols] == [c.tobytes() for c in want]
        assert [_bytes(j) for j in calc.horizontal_jets(g, alg, pts)] == \
            [_bytes(j) for j in shared]
    # no field evaluation may write into the shared frame
    assert [[_bytes(jet) for jet in gamma] for gamma in frame] == before


# -- sub-Laplacian, sub-gradient, Euler field -------------------------------------


def test_h3_closed_form_operators(h3, horizontal):
    P = rand_points(h3, 1000, 12)
    lap = horizontal(calc.x(2, 1) ** 2, h3, P)[1]
    assert np.max(np.abs(lap - (P[:, 0] ** 2 + P[:, 1] ** 2) / 2)) < 1e-12
    gs = horizontal(calc.x(2, 1), h3, P)[0]
    assert np.max(np.abs(gs - (P[:, 0] ** 2 + P[:, 1] ** 2) / 4)) < 1e-12
    f = calc.x(1, 1) * calc.x(1, 2) + calc.x(2, 1)
    ef = calc.euler_derivative_batch(f, h3, P)
    assert np.max(np.abs(ef - 2 * (P[:, 0] * P[:, 1] + P[:, 2]))) < 1e-12
    assert np.max(np.abs(horizontal(calc.x(1, 1) ** 2, h3, P)[1] - 2.0)) < 1e-12


def test_low_powers_at_zero_have_finite_sub_laplacian(h3, horizontal):
    # pow with p in {0, 1} must not form 0 * inf from a negative power of 0
    P = np.zeros((2, h3.dim))
    P[1, 0] = 1.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, lap, grad_sq in ((1, 0.0, 1.0), (0, 0.0, 0.0), (2, 2.0, 0.0)):
            f = calc.parse_field(f"(pow x_1_1 {p})")
            sums = horizontal(f, h3, P)
            assert sums[1].tolist() == [lap, lap], p
            assert sums[0][0] == grad_sq, p


def test_gradient_of_coordinate_and_constant(h3, horizontal):
    P = rand_points(h3, 100, 13)
    assert np.allclose(horizontal(calc.x(1, 1), h3, P)[0], 1.0)
    assert np.allclose(horizontal(calc.Const(4.2), h3, P)[0], 0.0)
    assert np.allclose(calc.euler_derivative_batch(calc.Const(4.2), h3, P), 0.0)


def test_euclidean_euler_field(r1):
    rng = np.random.default_rng(14)
    Q = rng.standard_normal((200, 1))
    f = calc.Exp(calc.Prod(calc.Const(1.5), calc.x(1, 1)))
    ef = calc.euler_derivative_batch(f, r1, Q)
    assert np.max(np.abs(ef - 1.5 * Q[:, 0] * np.exp(1.5 * Q[:, 0]))) < 1e-12


def test_euler_curve_vs_coordinate_formula(h3, engel):
    for alg in (h3, engel):
        P = rand_points(alg, 200, 15)
        f = calc.Exp(calc.Prod(calc.Const(0.3), calc.x(1, 1)))
        f = calc.Sum(f, calc.Prod(calc.x(1, 2), calc.x(2, 1)))
        curve = calc.euler_derivative_batch(f, alg, P)
        coord = calc.euler_derivative_coordinate_formula(f, alg, P)
        assert np.max(np.abs(curve - coord)) < 1e-12


def test_delta_dilation_identity(h3, horizontal):
    # Delta[f o delta_lam](x) = lam^2 (Delta f)(delta_lam x)
    P = rand_points(h3, 200, 16)
    f = calc.Exp(calc.Sum(calc.x(1, 1), calc.Prod(calc.Const(0.2), calc.x(2, 1))))
    for lam in (0.5, 2.0):
        fd = calc.compose_dilation(f, lam)
        lhs = horizontal(fd, h3, P)[1]
        rhs = lam ** 2 * horizontal(f, h3, group.dilate_batch(h3, lam, P))[1]
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs) + 1)


def test_xi_f_dilation_identity(h3):
    P = rand_points(h3, 100, 17)
    f = calc.Sum(calc.Prod(calc.x(1, 1), calc.x(1, 2)), calc.Pow(calc.x(2, 1), 2.0))
    lam = 1.7
    fd = calc.compose_dilation(f, lam)
    P = P[:40]
    moved = group.dilate_batch(h3, lam, P)
    for xi, layer in [([1.0, 0, 0], 1), ([0, 1.0, 0], 1), ([0, 0, 1.0], 2)]:
        lhs = calc.curve_jet(fd, h3, P, xi).d1
        rhs = lam ** layer * calc.curve_jet(f, h3, moved, xi).d1
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_leibniz_rule_for_sub_laplacian(h3, horizontal):
    rng = np.random.default_rng(18)
    P = rand_points(h3, 100, 19)
    f = calc.Sum(calc.Pow(calc.x(1, 1), 2.0), calc.Prod(calc.x(1, 2), calc.x(2, 1)))
    g = calc.Sum(calc.Prod(calc.x(1, 1), calc.x(1, 2)), calc.Const(0.5))
    fg = calc.Prod(f, g)
    lap_fg = horizontal(fg, h3, P)[1]
    fv = calc.evaluate_batch(f, h3, P)
    gv = calc.evaluate_batch(g, h3, P)
    lap_f = horizontal(f, h3, P)[1]
    lap_g = horizontal(g, h3, P)[1]
    cross = np.zeros(len(P))
    for jf, jg in zip(calc.horizontal_jets(f, h3, P), calc.horizontal_jets(g, h3, P)):
        cross += np.asarray(jf.d1 * jg.d1, dtype=float)
    assert np.max(np.abs(lap_fg - (fv * lap_g + gv * lap_f + 2 * cross))) < 1e-10


def test_left_invariant_coefficients_are_polynomial(engel):
    # coefficient of d/dx_{a,b} in the flow of xi_{j,k}, sampled pointwise,
    # must be fit exactly by polynomials of degree <= 2 on the engel group
    rng = np.random.default_rng(20)
    P = rng.standard_normal((120, 4)) * 1.5
    monos = [
        np.ones(len(P)), P[:, 0], P[:, 1], P[:, 2], P[:, 3],
        P[:, 0] ** 2, P[:, 0] * P[:, 1], P[:, 1] ** 2,
    ]
    design = np.column_stack(monos)
    for src in range(4):
        xi = np.zeros(4)
        xi[src] = 1.0
        for tgt in range(4):
            coeff = calc.curve_jet(calc.Var(*engel.pair_index(tgt)), engel, P, xi).d1
            coeff = np.broadcast_to(np.asarray(coeff, dtype=float), (len(P),))
            sol, *_ = np.linalg.lstsq(design, coeff, rcond=None)
            assert np.max(np.abs(design @ sol - coeff)) < 1e-9


# -- dilation pullback --------------------------------------------------------------


def test_pullback_identity_and_substitution(r1, h3):
    f = calc.Exp(calc.Prod(calc.Const(0.9), calc.x(1, 1)))
    P = rand_points(r1, 50, 21)
    assert np.allclose(
        calc.evaluate_batch(calc.dilation_pullback(f, 0.0), r1, P),
        calc.evaluate_batch(f, r1, P),
    )
    t = 0.6
    got = calc.evaluate_batch(calc.dilation_pullback(f, t), r1, P)
    want = np.exp(0.9 * np.exp(-t) * P[:, 0])
    assert np.max(np.abs(got - want)) < 1e-12
    Q = rand_points(h3, 50, 22)
    got = calc.evaluate_batch(calc.dilation_pullback(calc.x(2, 1), np.log(2)), h3, Q)
    assert np.max(np.abs(got - Q[:, 2] / 4)) < 1e-14


def test_pullback_composition_is_exact(h3):
    f = calc.x(2, 1)
    g = calc.dilation_pullback(calc.dilation_pullback(f, 0.3), 0.4)
    assert isinstance(g, calc.Dilated)
    assert g.args == (f, 0.7)


@pytest.mark.parametrize("lam", [0.0, -1.0])
def test_compose_dilation_needs_a_positive_factor(lam):
    with pytest.raises(ParameterError, match="dilation factor must be > 0"):
        calc.compose_dilation(calc.Exp(calc.x(1, 1)), lam)


def test_evaluate_single_point(h3, horizontal):
    pt = np.array([[1.0, 2.0, 3.0]])
    f = calc.x(1, 1) * calc.x(1, 2) + calc.x(2, 1)
    assert calc.evaluate_batch(f, h3, pt) == [5.0]
    assert horizontal(f, h3, pt)[1] == [0.0]
    assert np.isclose(calc.euler_derivative_batch(f, h3, pt), [2 * 5.0])
    assert np.isclose(horizontal(calc.x(2, 1), h3, pt)[0], [(1 + 4) / 4])


def test_metric_enters_the_frame(horizontal):
    stretched = algebra.StratifiedAlgebra(
        (2, 1), [((1, 1), (1, 2), [((2, 1), 1.0)])],
        metric_v1=[[4.0, 0.0], [0.0, 1.0]],
    )
    frame = stretched.orthonormal_v1_frame()
    assert np.allclose(frame.T @ stretched.metric_v1 @ frame, np.eye(2), atol=1e-12)
    P = np.zeros((1, 3))
    # Delta x1^2 = 2 <u1, e1>^2 = 2/4 with the stretched metric
    lap = horizontal(calc.x(1, 1) ** 2, stretched, P)[1]
    assert np.isclose(lap[0], 0.5)


# -- mini-language ------------------------------------------------------------------


def test_parse_field_roundtrip(h3, engel):
    expr = "(exp (+ (* a x_1_1) (* b x_1_2)))"
    f = calc.parse_field(expr, {"a": 0.5, "b": -1.0})
    P = rand_points(h3, 20, 23)
    want = np.exp(0.5 * P[:, 0] - P[:, 1])
    assert np.allclose(calc.evaluate_batch(f, h3, P), want)
    reparsed = calc.parse_field(calc.to_expr(f))
    assert np.allclose(calc.evaluate_batch(reparsed, h3, P), want)
    # every library field, the dilated one included, parses back to itself
    for alg in (h3, engel):
        P = rand_points(alg, 20, 24)
        for entry in lsh.builtin_lsh_library(alg):
            text = calc.to_expr(entry.field)
            reparsed = calc.parse_field(text)
            assert calc.to_expr(reparsed) == text
            assert calc.evaluate_batch(reparsed, alg, P).tobytes() == \
                calc.evaluate_batch(entry.field, alg, P).tobytes(), text


def test_parse_field_forms(r1):
    P = np.array([[0.3]])
    cases = {
        "(- x_1_1)": -0.3,
        "(- (pow x_1_1 2) x_1_1)": 0.09 - 0.3,
        "(log (exp x_1_1))": 0.3,
        "(+ 1 2 x_1_1)": 3.3,
        "2.5": 2.5,
    }
    for expr, want in cases.items():
        assert np.isclose(calc.evaluate_batch(calc.parse_field(expr), r1, P)[0], want)


def test_parse_field_errors():
    for expr in ["", "(boom x_1_1)", "(exp x_1_1", "(pow x_1_1 x_1_2)", "y_1_1",
                 "(exp x_1_1) trailing", "(dilated x_1_1)", "(dilated x_1_1 x_1_2)"]:
        with pytest.raises(ConfigError):
            calc.parse_field(expr)


@pytest.mark.parametrize("expr, message", [
    ("(boom x_1_1)", "unknown operator 'boom'"),
    ("(+)", "(+) needs at least one argument"),
    ("(*)", "(*) needs at least one argument"),
    ("(-)", "(-) takes one or two arguments"),
    ("(- x_1_1 x_1_2 x_2_1)", "(-) takes one or two arguments"),
    ("(pow x_1_1)", "(pow f p) needs a field and a numeric exponent"),
    ("(pow x_1_1 x_1_1)", "(pow f p) needs a field and a numeric exponent"),
    ("(exp)", "(exp f) takes one argument"),
    ("(log a b)", "(log f) takes one argument"),
    ("(dilated x_1_1)", "(dilated f t) needs a field and a numeric log-scale t"),
])
def test_parse_field_error_texts(expr, message):
    with pytest.raises(ConfigError) as exc:
        calc.parse_field(expr, {"a": 1.0, "b": 2.0})
    assert str(exc.value) == message


# one expression per operator of the mini-language, and the coordinates it reads
OPERATOR_EXPRS = {
    "(+ x_1_1 x_1_2 2.0)": {(1, 1), (1, 2)},
    "(* 0.5 x_1_1 x_2_1)": {(1, 1), (2, 1)},
    "(- x_1_2)": {(1, 2)},
    "(- x_1_1 x_2_1)": {(1, 1), (2, 1)},
    "(pow x_1_1 2.5)": {(1, 1)},
    "(exp (* 0.7 x_1_2))": {(1, 2)},
    "(log (+ 1.0 (pow x_2_1 2.0)))": {(2, 1)},
    "(dilated (dilated (+ x_1_1 x_2_1) 0.3) -0.2)": {(1, 1), (2, 1)},
}


@pytest.mark.parametrize("expr", sorted(OPERATOR_EXPRS))
def test_every_operator_round_trips(expr):
    f = calc.parse_field(expr)
    text = calc.to_expr(f)
    again = calc.parse_field(text)
    assert calc.to_expr(again) == text
    assert calc._coordinates(again) == calc._coordinates(f) == OPERATOR_EXPRS[expr]


def test_domain_errors_name_the_sample(r1):
    P = np.array([[1.0], [-2.0], [3.0]])
    with pytest.raises(DomainError, match="sample 1"):
        calc.evaluate_batch(calc.Log(calc.x(1, 1)), r1, P)
    with pytest.raises(DomainError):
        calc.evaluate_batch(calc.Pow(calc.x(1, 1), 0.5), r1, P)
    # integer powers of negative values are fine
    out = calc.evaluate_batch(calc.Pow(calc.x(1, 1), 3.0), r1, P)
    assert np.allclose(out, [1.0, -8.0, 27.0])


@pytest.mark.parametrize("expr, bad", [("(pow x_1_1 -1)", 0.0), ("(pow x_1_1 0.5)", -2.0)])
def test_power_domain_is_one_rule_on_values_and_jets(r1, horizontal, expr, bad):
    # v ** p needs v != 0 for negative integer p and v > 0 for fractional p;
    # plain values and jets break it with the same message
    f = calc.parse_field(expr)
    P = np.array([[1.0], [bad]])
    messages = []
    for route in (calc.evaluate_batch, horizontal):
        with pytest.raises(DomainError, match="sample 1") as exc:
            route(f, r1, P)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    with pytest.raises(DomainError) as exc:
        calc.evaluate_batch(f, r1, [[bad]])
    assert str(exc.value) == messages[0].replace("sample 1", "sample 0")
