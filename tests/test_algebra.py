import json

import numpy as np
import pytest

from carnot import algebra
from carnot.errors import NotStepTwoError, StructureError


def test_builtin_homogeneous_dimensions(r1, h3, h5, engel):
    assert algebra.builtin("euclidean(3)").homogeneous_dimension == 3
    assert h3.homogeneous_dimension == 4
    assert h5.homogeneous_dimension == 6
    assert engel.homogeneous_dimension == 7


def test_builtins_validate_clean(h3, h5, engel):
    for alg in (algebra.builtin("euclidean(3)"), h3, h5, engel):
        rep = algebra.validate(alg)
        assert rep.ok
        assert all(c.residual < 1e-12 for c in rep.checks if c.name != "generation")


def test_abelian_step_one_passes():
    rep = algebra.validate(algebra.builtin("euclidean(5)"))
    assert rep.ok


def test_missing_generation_fails_without_exception():
    broken = algebra.StratifiedAlgebra((2, 1), [])
    rep = algebra.validate(broken)
    assert not rep.ok
    gen = next(c for c in rep.checks if c.name == "generation")
    assert not gen.passed
    assert "does not span" in gen.detail


def test_antisymmetry_violation_detected():
    bad = algebra.StratifiedAlgebra(
        (2, 1),
        [
            ((1, 1), (1, 2), [((2, 1), 1.0)]),
            ((1, 2), (1, 1), [((2, 1), 1.0)]),  # should be -1
        ],
    )
    rep = algebra.validate(bad)
    anti = next(c for c in rep.checks if c.name == "antisymmetry")
    assert not anti.passed


def test_jacobi_violation_detected():
    # filiform step 4; an extra [xi2, xi4] = xi5 term breaks Jacobi on (1,2,3)
    def build(d):
        brackets = [
            ((1, 1), (1, 2), [((2, 1), 1.0)]),
            ((1, 1), (2, 1), [((3, 1), 1.0)]),
            ((1, 1), (3, 1), [((4, 1), 1.0)]),
            ((1, 2), (2, 1), [((4, 1), 1.0)]),
            ((1, 2), (3, 1), [((4, 1), d)]),
        ]
        return algebra.StratifiedAlgebra((2, 1, 1, 1), brackets)

    ok = algebra.validate(build(0.0))
    assert next(c for c in ok.checks if c.name == "jacobi").passed
    bad = algebra.validate(build(1.0))
    jac = next(c for c in bad.checks if c.name == "jacobi")
    assert not jac.passed and jac.residual > 0.5


def test_grading_violation_detected():
    bad = algebra.StratifiedAlgebra(
        (2, 1), [((1, 1), (1, 2), [((1, 1), 1.0)])]  # [V1,V1] leaking into V1
    )
    rep = algebra.validate(bad)
    assert not next(c for c in rep.checks if c.name == "grading").passed


def test_metric_must_be_positive_definite():
    alg = algebra.StratifiedAlgebra(
        (2, 1), [((1, 1), (1, 2), [((2, 1), 1.0)])],
        metric_v1=[[1.0, 2.0], [2.0, 1.0]],  # eigenvalues 3, -1
    )
    rep = algebra.validate(alg)
    assert not next(c for c in rep.checks if c.name == "metric_positive_definite").passed


def test_malformed_bracket_index_is_structural_error():
    with pytest.raises(StructureError):
        algebra.StratifiedAlgebra((2, 1), [((1, 3), (1, 2), [((2, 1), 1.0)])])
    with pytest.raises(StructureError):
        algebra.StratifiedAlgebra((0,), [])


def test_fractional_counts_and_indices_are_rejected():
    # int() would truncate these to heisenberg(1); the integer rule names them
    with pytest.raises(StructureError, match="layer_dims must be positive integers, got 2.7"):
        algebra.StratifiedAlgebra((2.7, 1.2), [((1.9, 1), (1, 2.5), [((2, 1), 1.0)])])
    with pytest.raises(StructureError, match=r"basis index \(1.9, 1\) must be a pair of integers"):
        algebra.StratifiedAlgebra((2, 1), [((1.9, 1), (1, 2.5), [((2, 1), 1.0)])])
    with pytest.raises(StructureError, match="got True"):
        algebra.StratifiedAlgebra((2, True), [])
    alg = algebra.StratifiedAlgebra((np.int64(2), 1), [((1, np.int32(1)), (1, 2), [((2, 1), 1.0)])])
    assert alg.layer_dims == (2, 1) and alg.flat_index((np.int64(2), 1)) == 2


def test_h3_j_matrix_matches_direct_computation(h3):
    J = algebra.j_matrix(h3, [1.0])
    assert np.allclose(J, [[0.0, -1.0], [1.0, 0.0]])
    # independent route: <z,[u_j,u_i]> from raw structure constants
    direct = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            u = np.zeros(3)
            w = np.zeros(3)
            u[j] = 1.0
            w[i] = 1.0
            direct[i, j] = h3.bracket(u, w)[2]
    assert np.allclose(J, direct)
    assert algebra.classify_h_type(h3).is_h_type


def test_scaled_bracket_is_not_h_type():
    variant = algebra.StratifiedAlgebra((2, 1), [((1, 1), (1, 2), [((2, 1), 2.0)])])
    J = algebra.j_matrix(variant, [1.0])
    assert np.allclose(J, [[0.0, -2.0], [2.0, 0.0]])
    P = J.T @ J
    assert np.max(np.abs(P @ P - P)) > 1.0  # J^T J = 4I is not a projection
    assert not algebra.classify_h_type(variant).is_h_type


def test_h_type_requires_step_two(engel):
    with pytest.raises(NotStepTwoError):
        algebra.classify_h_type(engel)


def test_h_type_verdict_depends_on_v2_metric(h3):
    # default identity V2 metric: H-type; rescaling V2 changes the verdict,
    # since the unit z and <z, [v,w]> both pick up the metric
    assert algebra.classify_h_type(h3, v2_metric=[[1.0]]).is_h_type
    assert not algebra.classify_h_type(h3, v2_metric=[[4.0]]).is_h_type


def test_h_type_invariant_under_orthonormal_v1_rotation(h5):
    rng = np.random.default_rng(5)
    R, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    C = h5.structure
    brackets = []
    for a in range(4):
        for b in range(4):
            vec = np.zeros(5)
            for j in range(4):
                for k in range(4):
                    vec += R[j, a] * R[k, b] * C[j, k]
            if abs(vec[4]) > 1e-15:
                brackets.append(((1, a + 1), (1, b + 1), [((2, 1), float(vec[4]))]))
    rotated = algebra.StratifiedAlgebra((4, 1), brackets)
    assert algebra.validate(rotated).ok
    assert algebra.classify_h_type(rotated).is_h_type


def test_h_type_sees_the_metric(h3):
    stretched = algebra.StratifiedAlgebra(
        (2, 1), [((1, 1), (1, 2), [((2, 1), 1.0)])],
        metric_v1=[[1.0, 0.0], [0.0, 4.0]],
    )
    # orthonormal frame shrinks xi2 by half, so J^T J = I/4: not a projection
    assert not algebra.classify_h_type(stretched).is_h_type


def test_unknown_builtin_rejected():
    with pytest.raises(StructureError):
        algebra.builtin("quaternionic(2)")
    with pytest.raises(StructureError):
        algebra.builtin("heisenberg(0)")


def test_json_roundtrip(tmp_path, h3):
    spec = {
        "layer_dims": [2, 1],
        "brackets": [[[1, 1], [1, 2], [[2, 1], 1.0]]],
        "metric_v1": [[1.0, 0.0], [0.0, 1.0]],
    }
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(spec))
    loaded = algebra.load(str(path))
    assert algebra.validate(loaded).ok
    assert loaded.homogeneous_dimension == h3.homogeneous_dimension
    assert np.allclose(loaded.structure, h3.structure)


def test_resolve_builtin_or_file(tmp_path):
    assert algebra.resolve("engel").step == 3
    path = tmp_path / "r2.json"
    path.write_text(json.dumps({"layer_dims": [2]}))
    assert algebra.resolve(str(path)).dim == 2
