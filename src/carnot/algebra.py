"""Stratified Lie algebras from structure constants.

An algebra is given by its layer dimensions (dim V_1, ..., dim V_m), sparse
structure constants over the adapted basis xi_{j,k}, and an inner product on
the first layer V_1 (identity by default, i.e. the adapted V_1 basis is
orthonormal).  Everything downstream (group law, sub-Laplacian, heat kernel)
is derived from this data.

Basis vectors are indexed either by the pair (j, k) with j the layer and
k = 1..dim V_j, or by a flat 0-based index in layer order.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import NotStepTwoError, StructureError, is_integer
from .reports import Report

# Residual thresholds: algebraic axioms are checked in floating point, so
# "exact" means below these.
AXIOM_TOL = 1e-12
PARTIAL_ISOMETRY_TOL = 1e-10
# H-type classification tests the V_2 basis and this many random directions,
# drawn from the Philox stream keyed by [_H_TYPE_SEED, 0]
_H_TYPE_RANDOM_DIRECTIONS = 32
_H_TYPE_SEED = 0


class StratifiedAlgebra:
    """A stratified Lie algebra: layered basis, brackets, V_1 inner product.

    Instances are immutable after construction and safe for concurrent reads.
    Construction only validates *structural* well-formedness (index ranges,
    shapes); the Lie-algebra axioms are checked by :func:`validate`, which
    reports failures instead of raising.
    """

    def __init__(self, layer_dims, brackets, metric_v1=None, name=None):
        try:
            layer_dims = tuple(layer_dims)
        except TypeError:
            raise StructureError(f"layer_dims must be a list, got {layer_dims!r}") from None
        if not layer_dims:
            raise StructureError("layer_dims must be positive integers, got none")
        for d in layer_dims:
            if not is_integer(d) or d <= 0:
                raise StructureError(f"layer_dims must be positive integers, got {d!r}")
        layer_dims = tuple(int(d) for d in layer_dims)
        self.layer_dims = layer_dims
        self.step = len(layer_dims)
        self.dim = sum(layer_dims)
        self.name = name

        # flat index <-> (layer, k) maps; layers and k are 1-based
        self._offsets = np.concatenate([[0], np.cumsum(layer_dims)])
        self.layer_of = np.concatenate(
            [np.full(d, j + 1, dtype=int) for j, d in enumerate(layer_dims)]
        )

        dense = np.zeros((self.dim, self.dim, self.dim))
        seen = set()
        for a, b, targets in brackets:
            ia, ib = self.flat_index(a), self.flat_index(b)
            for t, value in targets:
                it = self.flat_index(t)
                dense[ia, ib, it] = float(value)
            seen.add((ia, ib))
        # fill antisymmetric counterparts that were not given explicitly
        for ia, ib in list(seen):
            if (ib, ia) not in seen:
                dense[ib, ia, :] = -dense[ia, ib, :]
        dense.setflags(write=False)
        self.structure = dense
        self.sparse = [
            (a, b, g, dense[a, b, g])
            for a in range(self.dim)
            for b in range(self.dim)
            for g in range(self.dim)
            if dense[a, b, g] != 0.0
        ]

        d1 = layer_dims[0]
        if metric_v1 is None:
            metric = np.eye(d1)
        else:
            metric = np.asarray(metric_v1, dtype=float)
            if metric.shape != (d1, d1):
                raise StructureError(
                    f"metric_v1 must be {d1}x{d1}, got shape {metric.shape}"
                )
        metric.setflags(write=False)
        self.metric_v1 = metric

        self.homogeneous_dimension = int(
            sum((j + 1) * d for j, d in enumerate(layer_dims))
        )

    # -- indexing -----------------------------------------------------------

    def flat_index(self, jk) -> int:
        """Flat 0-based index of basis vector (j, k), both 1-based."""
        try:
            j, k = jk[0], jk[1]
        except (TypeError, KeyError, IndexError) as exc:
            raise StructureError(f"bad basis index {jk!r}") from exc
        if not (is_integer(j) and is_integer(k)):
            raise StructureError(f"basis index {jk!r} must be a pair of integers")
        j, k = int(j), int(k)
        if not (1 <= j <= self.step) or not (1 <= k <= self.layer_dims[j - 1]):
            raise StructureError(
                f"basis index {jk!r} out of range for layers {self.layer_dims}"
            )
        return int(self._offsets[j - 1]) + k - 1

    def pair_index(self, idx: int):
        """(j, k) pair for a flat index."""
        j = int(self.layer_of[idx])
        return j, idx - int(self._offsets[j - 1]) + 1

    def layer_slice(self, j: int) -> slice:
        return slice(int(self._offsets[j - 1]), int(self._offsets[j]))

    @property
    def dim_v1(self) -> int:
        return self.layer_dims[0]

    def coordinate_labels(self):
        return [f"x_{j}_{k}" for j, k in map(self.pair_index, range(self.dim))]

    # -- bracket ------------------------------------------------------------

    def bracket(self, u, v):
        """[u, v] for coefficient vectors over the adapted basis."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        out = np.zeros(self.dim)
        for a, b, g, c in self.sparse:
            out[g] += c * u[a] * v[b]
        return out

    @functools.cached_property
    def is_h_type(self) -> bool:
        """classify_h_type(self).is_h_type under the identity V_2 metric, kept
        on the instance after the first call; a step-2 algebra only."""
        return classify_h_type(self).is_h_type

    def orthonormal_v1_frame(self):
        """Columns are V_1 coefficient vectors forming an orthonormal basis.

        If metric_v1 = L L^T (Cholesky), the columns of L^{-T} are orthonormal.
        """
        L = np.linalg.cholesky(self.metric_v1)
        return np.linalg.inv(L).T

    def __repr__(self):
        nm = self.name or "StratifiedAlgebra"
        return f"<{nm} layers={self.layer_dims} D={self.homogeneous_dimension}>"


# -- validation -------------------------------------------------------------


@dataclass
class AxiomCheck(Report):
    name: str
    passed: bool
    residual: float
    detail: str = ""


@dataclass
class ValidationReport(Report):
    checks: list[AxiomCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return {"ok": self.ok, **super().as_dict()}

    def __str__(self):
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            extra = f"  ({c.detail})" if c.detail else ""
            lines.append(f"  [{status}] {c.name}: residual {c.residual:.3e}{extra}")
        head = "valid stratified algebra" if self.ok else "NOT a valid stratified algebra"
        return head + "\n" + "\n".join(lines)


def validate(algebra: StratifiedAlgebra) -> ValidationReport:
    """Check the stratified-algebra axioms; failures are reported, not raised.

    Checks: antisymmetry, Jacobi identity, grading [V_j, V_j'] subset V_{j+j'}
    (zero past the top layer), generation of V_{j+1} by [V_1, V_j], and
    positive-definiteness of the V_1 metric.
    """
    C = algebra.structure
    report = ValidationReport()

    r_anti = float(np.max(np.abs(C + np.transpose(C, (1, 0, 2))))) if C.size else 0.0
    report.checks.append(AxiomCheck("antisymmetry", r_anti < AXIOM_TOL, r_anti))

    # [[a,b],c] summed cyclically over (a,b,c) must vanish
    double = np.einsum("abe,ecg->abcg", C, C)
    jac = (
        double
        + np.transpose(double, (1, 2, 0, 3))
        + np.transpose(double, (2, 0, 1, 3))
    )
    r_jac = float(np.max(np.abs(jac))) if jac.size else 0.0
    report.checks.append(AxiomCheck("jacobi", r_jac < AXIOM_TOL, r_jac))

    lay = algebra.layer_of
    r_grad = 0.0
    bad = ""
    for a, b, g, c in algebra.sparse:
        if lay[g] != lay[a] + lay[b]:
            r_grad = max(r_grad, abs(c))
            bad = bad or (
                f"[V_{lay[a]},V_{lay[b]}] has a component in V_{lay[g]}"
            )
    report.checks.append(AxiomCheck("grading", r_grad < AXIOM_TOL, r_grad, bad))

    gen_ok = True
    gen_res = 0.0
    detail = ""
    for j in range(1, algebra.step):
        # row (a, b) is [e_a, e_b] on V_{j+1}, for e_a in V_1 and e_b in V_j
        want = algebra.layer_dims[j]
        mat = C[algebra.layer_slice(1), algebra.layer_slice(j),
                algebra.layer_slice(j + 1)].reshape(-1, want)
        rank = int(np.sum(np.linalg.svd(mat, compute_uv=False) > 1e-10))
        if rank < want:
            gen_ok = False
            detail = f"[V_1,V_{j}] does not span V_{j + 1} (rank {rank} < {want})"
            gen_res = 1.0
    report.checks.append(AxiomCheck("generation", gen_ok, gen_res, detail))

    m = algebra.metric_v1
    r_sym = float(np.max(np.abs(m - m.T)))
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    pd_ok = r_sym < AXIOM_TOL and bool(np.all(eigs > 0))
    detail = "" if pd_ok else f"min eigenvalue {eigs.min():.3e}"
    report.checks.append(AxiomCheck("metric_positive_definite", pd_ok, r_sym, detail))

    return report


# -- H-type classification ---------------------------------------------------


@dataclass
class HTypeVerdict(Report):
    is_h_type: bool
    max_residual: float
    n_tested: int


def j_matrix(algebra: StratifiedAlgebra, z, v2_metric=None) -> np.ndarray:
    """Matrix of J_z on the orthonormalized V_1, <J_z v, w> = <z, [v, w]>.

    ``z`` is a coefficient vector over the adapted V_2 basis; ``v2_metric``
    defaults to the identity on that basis.
    """
    if algebra.step != 2:
        raise NotStepTwoError(f"J_z needs a step-2 algebra, got step {algebra.step}")
    z = np.asarray(z, dtype=float)
    g2 = np.eye(algebra.layer_dims[1]) if v2_metric is None else np.asarray(v2_metric, float)
    frame, v1 = algebra.orthonormal_v1_frame(), algebra.layer_slice(1)
    # J[i, j] = <z, [frame_j, frame_i]>; the contracted structure constants
    # are <z, [e_a, e_b]> in row a, so their transpose puts frame_j first
    return frame.T @ (algebra.structure[v1, v1, algebra.layer_slice(2)] @ (z @ g2)).T @ frame


def classify_h_type(algebra: StratifiedAlgebra, v2_metric=None) -> HTypeVerdict:
    """Decide the H-type property: every unit z in V_2 gives a partial isometry.

    Partial isometry is tested as P = J_z^T J_z being an orthogonal projection
    (P^2 = P, P = P^T) within ``PARTIAL_ISOMETRY_TOL``.  Tests the orthonormal
    V_2 basis directions plus ``_H_TYPE_RANDOM_DIRECTIONS`` seeded random unit
    vectors.
    """
    if algebra.step != 2:
        raise NotStepTwoError(
            f"H-type classification needs step 2, got step {algebra.step}"
        )
    d2 = algebra.layer_dims[1]
    g2 = np.eye(d2) if v2_metric is None else np.asarray(v2_metric, dtype=float)
    # orthonormalize the V_2 directions under g2
    L2 = np.linalg.cholesky(g2)
    frame2 = np.linalg.inv(L2).T

    rng = np.random.Generator(np.random.Philox(key=[_H_TYPE_SEED, 0]))
    zs = [frame2[:, k] for k in range(d2)]
    for _ in range(_H_TYPE_RANDOM_DIRECTIONS):
        raw = rng.standard_normal(d2)
        coeff = raw / math.sqrt(float(raw @ raw))
        zs.append(frame2 @ coeff)  # unit under g2

    worst = 0.0
    for z in zs:
        J = j_matrix(algebra, z, v2_metric=g2)
        P = J.T @ J
        res = max(
            float(np.max(np.abs(P @ P - P))),
            float(np.max(np.abs(P - P.T))),
        )
        worst = max(worst, res)
    return HTypeVerdict(
        is_h_type=worst < PARTIAL_ISOMETRY_TOL,
        max_residual=worst,
        n_tested=len(zs),
    )


# -- builtins and JSON loading -----------------------------------------------

_BUILTIN_RE = re.compile(r"^(euclidean|heisenberg)\((\d+)\)$|^(engel)$")


def builtin(name: str) -> StratifiedAlgebra:
    """Catalog of reference algebras: euclidean(n), heisenberg(n), engel.

    heisenberg(n) is the 2n+1 dimensional Heisenberg--Weyl algebra with
    [xi_{1,i}, xi_{1,n+i}] = xi_{2,1}; engel is step 3 with layers (2,1,1),
    [xi_{1,1}, xi_{1,2}] = xi_{2,1} and [xi_{1,1}, xi_{2,1}] = xi_{3,1}.
    """
    m = _BUILTIN_RE.match(name.strip())
    if not m:
        raise StructureError(f"unknown builtin algebra {name!r}")
    if m.group(3) == "engel":
        alg = StratifiedAlgebra(
            (2, 1, 1),
            [
                ((1, 1), (1, 2), [((2, 1), 1.0)]),
                ((1, 1), (2, 1), [((3, 1), 1.0)]),
            ],
            name="engel",
        )
    else:
        kind, n = m.group(1), int(m.group(2))
        if n < 1:
            raise StructureError(f"builtin {name!r} needs n >= 1")
        if kind == "euclidean":
            alg = StratifiedAlgebra((n,), [], name=name)
        else:
            brackets = [
                ((1, i), (1, n + i), [((2, 1), 1.0)]) for i in range(1, n + 1)
            ]
            alg = StratifiedAlgebra((2 * n, 1), brackets, name=name)
    rep = validate(alg)
    if not rep.ok:
        raise StructureError(f"builtin {name!r} failed validation:\n{rep}")
    return alg


def from_dict(data: dict, name=None) -> StratifiedAlgebra:
    """Build an algebra from the JSON definition schema.

    Schema: {"layer_dims": [...], "brackets": [[ [j,k], [j',k'],
    [[j'',k''], value], ... ], ...], "metric_v1": optional matrix}.
    """
    try:
        layer_dims = data["layer_dims"]
        raw = data.get("brackets", [])
    except (TypeError, KeyError) as exc:
        raise StructureError(f"algebra definition missing fields: {exc}") from exc
    brackets = []
    for entry in raw:
        if len(entry) < 2:
            raise StructureError(f"bracket entry too short: {entry!r}")
        a, b, targets = entry[0], entry[1], entry[2:]
        brackets.append((a, b, [(t, v) for t, v in targets]))
    return StratifiedAlgebra(
        layer_dims, brackets, metric_v1=data.get("metric_v1"), name=name
    )


def load(path: str) -> StratifiedAlgebra:
    with open(path) as fh:
        data = json.load(fh)
    return from_dict(data, name=path)


def resolve(spec: str) -> StratifiedAlgebra:
    """Builtin name or path to a JSON definition file."""
    if _BUILTIN_RE.match(spec.strip()):
        return builtin(spec)
    return load(spec)
