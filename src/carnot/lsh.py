"""Log-subharmonicity checking and the LSH closure algebra.

A positive C^2 function f is log-subharmonic (LSH) when Delta log f >= 0,
equivalently Delta f >= |grad f|^2 / f.  Both forms are evaluated here via
exact jets and must agree; verification is pointwise on finite point sets,
so a pass means "LSH-consistent on the tested points", never a proof.

The class is closed under products, sums, positive powers and dilations;
those combinations are the field operators ``f * g``, ``f + g``, ``f ** p``
and :func:`calculus.compose_dilation`, and the closure is exercised by the
test suite over the labeled builtin library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import StratifiedAlgebra
from .calculus import (
    Const,
    Exp,
    Log,
    ScalarField,
    Sum,
    Var,
    compose_dilation,
    evaluate_batch,
    frame_jets,
    horizontal_sums,
    sub_laplacian_batch,
)
from .errors import DomainError, ParameterError, StructureError
from .reports import Report

LSH_CONSISTENT = "LSH-consistent"
LSH_VIOLATED = "violated"
LSH_DOMAIN_ERROR = "domain-error"

DEFAULT_TOL = 1e-9


@dataclass
class LshVerdict(Report):
    verdict: str
    min_delta_log: float | None  # None on a domain error: not evaluated
    worst_point: np.ndarray | None
    tolerance: float
    min_lemma_margin: float | None
    routes_agree: bool
    n_points: int
    detail: str = ""

    @property
    def is_lsh_consistent(self) -> bool:
        return self.verdict == LSH_CONSISTENT


def check_lsh(f: ScalarField, points, tol: float = DEFAULT_TOL, *,
              algebra: StratifiedAlgebra, frame=None) -> LshVerdict:
    """Evaluate Delta log f over the points, an (n, dim) array of ``algebra``;
    cross-check the ratio form.

    The two routes share nothing past the field tree and the frame jets of
    the points: one differentiates log f by the jet chain rule, the other
    assembles (Delta f - |grad f|^2/f) / f from jets of f itself. ``frame``
    is ``frame_jets`` of the points, when the caller has it; otherwise it
    is built once here for both routes. A negative value of f (or -0.0)
    gives the domain-error verdict; a value that is +0.0 with none such is an
    underflow or a zero of f and raises ParameterError, not a violation.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != algebra.dim:
        raise StructureError(
            f"points must be (n, {algebra.dim}) for this algebra, got {pts.shape}")
    try:
        vals = evaluate_batch(f, algebra, pts)
    except DomainError as exc:
        return LshVerdict(LSH_DOMAIN_ERROR, None, None, tol, None, True,
                          pts.shape[0], detail=str(exc))
    if np.any(vals <= 0):
        bad = int(np.argmax(vals <= 0))
        # a positive f that underflows gives +0.0; -0.0 comes from a negative
        # quantity (its underflow, or a negative times zero)
        if not np.any(np.signbit(vals)):
            raise ParameterError(
                f"f is 0 at point index {bad} (underflow, or a zero of f)")
        return LshVerdict(
            LSH_DOMAIN_ERROR, None, pts[bad], tol, None, True, pts.shape[0],
            detail=f"f <= 0 at point index {bad}",
        )

    if frame is None:
        frame = frame_jets(algebra, pts)
    delta_log = sub_laplacian_batch(Log(f), algebra, pts, frame)
    grad_sq, lap = horizontal_sums(f, algebra, pts, frame)
    lemma = (lap - grad_sq / vals) / vals

    i_worst = int(np.argmin(delta_log))
    min_dl = float(delta_log[i_worst])
    min_lm = float(np.min(lemma))
    v1 = min_dl < -tol
    v2 = min_lm < -tol
    verdict = LSH_VIOLATED if v1 else LSH_CONSISTENT
    return LshVerdict(
        verdict=verdict,
        min_delta_log=min_dl,
        worst_point=pts[i_worst],
        tolerance=tol,
        min_lemma_margin=min_lm,
        routes_agree=(v1 == v2),
        n_points=pts.shape[0],
    )


def grid_points(algebra: StratifiedAlgebra, n: int = 1000, radius: float = 3.0,
                seed: int = 0) -> np.ndarray:
    """Seeded uniform points in the quasi-norm ball N(x) <= radius.

    In the max-form quasi-norm the ball is the anisotropic coordinate box
    |x_{j,k}| <= radius^j, so uniform box sampling is exact.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
    u = rng.uniform(-1.0, 1.0, size=(n, algebra.dim))
    scale = np.power(float(radius), algebra.layer_of.astype(float))
    return u * scale


@dataclass
class LibraryField:
    name: str
    field: ScalarField
    status: str  # "lsh" | "not-lsh" | "unknown"
    description: str = ""


def builtin_lsh_library(algebra: StratifiedAlgebra) -> list[LibraryField]:
    """Named test fields with labeled LSH status.

    Exponential-of-linear first-layer fields are LSH on any group (first
    layer coordinates are harmonic); their powers, products, sums and
    dilates stay LSH by closure.  The homogeneous square-norm + epsilon is
    LSH only with at least two horizontal directions, and is left labeled
    "unknown" on groups of step >= 3.  The negative controls have strictly
    superharmonic exponents.
    """
    d1 = algebra.dim_v1
    x1 = Var(1, 1)
    expx1 = Exp(x1)
    out = [
        LibraryField("const1", Const(1.0), "lsh", "positive constant"),
        LibraryField("expx1", expx1, "lsh", "exp(x_1_1)"),
        LibraryField("coshx1", Exp(x1) + Exp(-x1), "lsh", "exp(x_1_1) + exp(-x_1_1)"),
        LibraryField("exppow", expx1 ** 2.5, "lsh", "exp(x_1_1)^2.5"),
        LibraryField("expdil", compose_dilation(expx1, 1.5), "lsh",
                     "exp(x_1_1) o delta_1.5"),
    ]
    if d1 >= 2:
        out.insert(2, LibraryField("explin", Exp(Sum(0.7 * Var(1, 1), -0.3 * Var(1, 2))),
                                   "lsh", "exp(0.7 x_1_1 - 0.3 x_1_2)"))

    sq = Sum(*[Var(1, k) ** 2 for k in range(1, d1 + 1)], Const(0.25))
    if d1 == 1:
        sq_status = "not-lsh"
    elif algebra.step <= 2:
        sq_status = "lsh"
    else:
        sq_status = "unknown"
    out.append(LibraryField(
        "sqnorm-eps", sq, sq_status, "sum_k x_1_k^2 + 1/4 (homogeneous + eps)"
    ))

    out.append(LibraryField(
        "gauss-neg", Exp(-x1 ** 2), "not-lsh",
        "exp(-x_1_1^2): strictly superharmonic exponent",
    ))
    if d1 >= 2:
        neg2 = Exp(Sum(-Var(1, 1) ** 2, -Var(1, 2) ** 2))
        desc = "exp(-x_1_1^2 - x_1_2^2)"
    else:
        neg2 = Exp(-2.0 * x1 ** 2)
        desc = "exp(-2 x_1_1^2)"
    out.append(LibraryField("gauss-neg2", neg2, "not-lsh", desc))
    return out


def library_field(algebra: StratifiedAlgebra, name: str) -> LibraryField:
    for entry in builtin_lsh_library(algebra):
        if entry.name == name:
            return entry
    raise ParameterError(f"no library field named {name!r}")
