import numpy as np
import pytest

from carnot import algebra, group
from carnot.errors import ParameterError, StructureError


def h3_closed_form(x, y):
    """Closed-form Heisenberg law, the oracle multiply is tested against."""
    return np.column_stack([
        x[:, 0] + y[:, 0],
        x[:, 1] + y[:, 1],
        x[:, 2] + y[:, 2] + 0.5 * (x[:, 0] * y[:, 1] - x[:, 1] * y[:, 0]),
    ])


def test_h3_product_example(h3):
    assert np.allclose(group.multiply_batch(h3, [[1, 0, 0]], [[0, 1, 0]]), [[1, 1, 0.5]])


def test_identity_is_neutral(h3):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10, 3))
    e = np.zeros((10, 3))
    assert np.allclose(group.multiply_batch(h3, X, e), X)
    assert np.allclose(group.multiply_batch(h3, e, X), X)


def test_h3_commutator_lands_in_center(h3):
    x, y = np.array([[1.0, 0, 0]]), np.array([[0, 1.0, 0]])
    xy = group.multiply_batch(h3, x, y)
    z = group.multiply_batch(h3, group.multiply_batch(h3, xy, -x), -y)
    assert np.allclose(z, [[0, 0, 1]], atol=1e-14)


def test_h3_multiply_matches_closed_form(h3):
    rng = np.random.default_rng(1)
    X = rng.standard_normal((10_000, 3)) * 2
    Y = rng.standard_normal((10_000, 3)) * 2
    P = group.multiply_batch(h3, X, Y)
    assert np.max(np.abs(P - h3_closed_form(X, Y))) < 1e-14


@pytest.mark.parametrize("name", ["euclidean(3)", "heisenberg(1)", "heisenberg(2)", "engel"])
def test_associativity(name):
    alg = algebra.builtin(name)
    rng = np.random.default_rng(2)
    X, Y, Z = (rng.standard_normal((10_000, alg.dim)) for _ in range(3))
    lhs = group.multiply_batch(alg, group.multiply_batch(alg, X, Y), Z)
    rhs = group.multiply_batch(alg, X, group.multiply_batch(alg, Y, Z))
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_inverse_examples(h3, engel):
    x = np.array([[1.0, 2.0, 3.0]])
    assert np.allclose(group.multiply_batch(h3, x, -x), 0.0)
    assert np.allclose(group.multiply_batch(h3, -x, x), 0.0)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((1000, 4)) * 3
    resid = group.multiply_batch(engel, X, -X)
    assert np.max(np.abs(resid)) < 1e-12


def test_dilation_examples(h3):
    x = np.array([[1.0, 1.0, 1.0]])
    assert np.allclose(group.dilate_batch(h3, 2.0, x), [[2, 2, 4]])
    assert np.allclose(group.dilate_batch(h3, 0.0, x), [[0, 0, 0]])
    with pytest.raises(ParameterError):
        group.dilate_batch(h3, -1.0, x)


def test_dilation_semigroup_property(engel):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((100, 4))
    for lam, mu in [(2.0, 3.0), (0.5, 1.7), (0.1, 0.3)]:
        once = group.dilate_batch(engel, lam * mu, X)
        twice = group.dilate_batch(engel, lam, group.dilate_batch(engel, mu, X))
        assert np.max(np.abs(once - twice)) < 1e-12


def test_dilation_is_group_automorphism(h3, engel):
    rng = np.random.default_rng(5)
    for alg in (h3, engel):
        X = rng.standard_normal((500, alg.dim))
        Y = rng.standard_normal((500, alg.dim))
        lam = 1.7
        lhs = group.dilate_batch(alg, lam, group.multiply_batch(alg, X, Y))
        rhs = group.multiply_batch(
            alg, group.dilate_batch(alg, lam, X), group.dilate_batch(alg, lam, Y)
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_homogeneous_norm(h3):
    assert list(group.homogeneous_norm_batch(h3, [[0, 0, 0], [0, 0, 4]])) == [0.0, 2.0]
    rng = np.random.default_rng(6)
    X = rng.standard_normal((200, 3)) * 2
    n1 = group.homogeneous_norm_batch(h3, group.dilate_batch(h3, 3.0, X))
    n0 = group.homogeneous_norm_batch(h3, X)
    assert np.max(np.abs(n1 - 3.0 * n0)) < 1e-12


def test_haar_scaling_exponent(engel):
    # delta_lambda scales each coordinate by lambda^layer; the coordinate box
    # volume therefore scales by lambda^D exactly (Haar = Lebesgue here)
    lam = 1.37
    factor = np.prod(lam ** engel.layer_of.astype(float))
    assert np.isclose(factor, lam ** engel.homogeneous_dimension, rtol=1e-12)


def test_bch_table_low_degree_coefficients(h3, engel):
    assert group.bch_table(h3) == ((0.5, (0, 1)),)
    t_en = {w: c for c, w in group.bch_table(engel)}
    assert t_en[(0, 1)] == 0.5
    assert np.isclose(t_en[(0, 1, 0)], -1.0 / 12.0)
    assert np.isclose(t_en[(0, 1, 1)], 1.0 / 12.0)
    assert all(len(w) <= engel.step for w in t_en)


def test_bch_remainder_depends_only_on_lower_layers(engel):
    # R_{j,k}(x,y) = (xy)_{j,k} - x_{j,k} - y_{j,k} must not react to
    # perturbations of coordinates in layers >= j
    rng = np.random.default_rng(7)
    X = rng.standard_normal((50, 4))
    Y = rng.standard_normal((50, 4))
    R0 = group.multiply_batch(engel, X, Y) - X - Y
    for idx, layer in enumerate(engel.layer_of):
        Xp, Yp = X.copy(), Y.copy()
        Xp[:, idx] += rng.standard_normal(50)
        Yp[:, idx] += rng.standard_normal(50)
        R1 = group.multiply_batch(engel, Xp, Yp) - Xp - Yp
        unaffected = [i for i, lj in enumerate(engel.layer_of) if lj <= layer]
        assert np.max(np.abs(R1[:, unaffected] - R0[:, unaffected])) < 1e-12


def test_multiply_jets_accepts_zero_entries(engel):
    # 0.0 marks a structurally zero coordinate, as in a walk step
    rng = np.random.default_rng(3)
    d1, dim = engel.dim_v1, engel.dim
    X = rng.standard_normal((5, dim))
    step = np.zeros((5, dim))
    step[:, :d1] = rng.standard_normal((5, d1))
    ys = [*step.T[:d1], *[0.0] * (dim - d1)]
    got = group.multiply_jets(engel, list(X.T), ys)
    assert np.array_equal(np.column_stack(got), group.multiply_batch(engel, X, step))
    flipped = group.multiply_jets(engel, ys, list(X.T))
    assert np.array_equal(np.column_stack(flipped), group.multiply_batch(engel, step, X))
    zeros = group.multiply_jets(engel, [0.0] * dim, [0.0] * dim)
    assert zeros == [0.0] * dim and all(type(z) is float for z in zeros)


def test_structural_zero_coordinate_times_inf_is_zero(h3):
    # x_1_1 is inf on row 0; y's 0.0 coordinate x_1_2 forms no bracket term
    # with it, so x_2_1 of the product stays finite, where a dense zero
    # column gives 0 * inf = NaN
    X = np.array([[np.inf, 2.0, 0.5], [1.0, 3.0, 0.5]])
    got = np.column_stack(group.multiply_jets(h3, list(X.T), [np.ones(2), 0.0, 0.0]))
    Y = np.array([[1.0, 0.0, 0.0]] * 2)
    with np.errstate(invalid="ignore"):
        dense = group.multiply_batch(h3, X, Y)
    assert np.isfinite(got[:, 1:]).all() and np.isnan(dense[0, 2])
    assert np.array_equal(got[1], dense[1])
    assert got[0, 2] == 0.5 - 0.5 * 2.0  # x_2_1 + (x_1_1 y_1_2 - x_1_2 y_1_1) / 2


def test_dimension_mismatch_rejected(h3):
    with pytest.raises(StructureError):
        group.multiply_batch(h3, [[1, 0, 0]], [[0, 1, 0, 0]])
    with pytest.raises(StructureError):
        group.multiply_batch(h3, [[1.0, 2.0]], [[1.0, 2.0]])
