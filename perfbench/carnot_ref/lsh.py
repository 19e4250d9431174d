"""Log-subharmonicity checking and the LSH closure algebra.

A positive C^2 function f is log-subharmonic (LSH) when Delta log f >= 0,
equivalently Delta f >= |grad f|^2 / f.  Both forms are evaluated here via
exact jets and must agree; verification is pointwise on finite point sets,
so a pass means "LSH-consistent on the tested points", never a proof.

The class is closed under products, sums, positive powers and dilations;
:func:`lsh_combine` builds those combinations and the closure is exercised
by the test suite over the labeled builtin library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import StratifiedAlgebra
from .calculus import (
    Const,
    Exp,
    Log,
    Pow,
    Prod,
    ScalarField,
    Sum,
    Var,
    compose_dilation,
    evaluate_batch,
    horizontal_jets,
)
from .errors import DomainError, ParameterError
from .group import GroupElement

LSH_CONSISTENT = "LSH-consistent"
LSH_VIOLATED = "violated"
LSH_DOMAIN_ERROR = "domain-error"

DEFAULT_TOL = 1e-9


@dataclass
class LshVerdict:
    verdict: str
    min_delta_log: float
    worst_point: np.ndarray | None
    tolerance: float
    min_lemma_margin: float
    routes_agree: bool
    n_points: int
    detail: str = ""

    @property
    def is_lsh_consistent(self) -> bool:
        return self.verdict == LSH_CONSISTENT

    def as_dict(self):
        return {
            "verdict": self.verdict,
            "min_delta_log": self.min_delta_log,
            "worst_point": None if self.worst_point is None else list(map(float, self.worst_point)),
            "tolerance": self.tolerance,
            "min_lemma_margin": self.min_lemma_margin,
            "routes_agree": self.routes_agree,
            "n_points": self.n_points,
            "detail": self.detail,
        }


def _as_points(points, algebra: StratifiedAlgebra | None):
    if hasattr(points, "samples") and hasattr(points, "algebra"):
        return points.algebra, np.asarray(points.samples, dtype=float)
    if isinstance(points, (list, tuple)) and points and isinstance(points[0], GroupElement):
        return points[0].algebra, np.array([p.coords for p in points])
    if algebra is None:
        raise ParameterError("pass an algebra when points are a bare array")
    return algebra, np.atleast_2d(np.asarray(points, dtype=float))


def check_lsh(f: ScalarField, points, tol: float = DEFAULT_TOL,
              algebra: StratifiedAlgebra | None = None) -> LshVerdict:
    """Evaluate Delta log f over the points; cross-check the ratio form.

    The two routes share nothing past the field tree: one differentiates
    log f by the jet chain rule, the other assembles
    (Delta f - |grad f|^2/f) / f from jets of f itself.
    """
    alg, pts = _as_points(points, algebra)
    try:
        vals = evaluate_batch(f, alg, pts)
    except DomainError as exc:
        return LshVerdict(LSH_DOMAIN_ERROR, np.nan, None, tol, np.nan, True,
                          pts.shape[0], detail=str(exc))
    if np.any(vals <= 0):
        bad = int(np.argmax(vals <= 0))
        return LshVerdict(
            LSH_DOMAIN_ERROR, np.nan, pts[bad], tol, np.nan, True, pts.shape[0],
            detail=f"f <= 0 at point index {bad}",
        )

    n = pts.shape[0]
    delta_log = np.zeros(n)
    for jet in horizontal_jets(Log(f), alg, pts):
        delta_log += np.broadcast_to(np.asarray(jet.d2, dtype=float), (n,))

    lap = np.zeros(n)
    grad_sq = np.zeros(n)
    for jet in horizontal_jets(f, alg, pts):
        lap += np.broadcast_to(np.asarray(jet.d2, dtype=float), (n,))
        grad_sq += np.broadcast_to(np.asarray(jet.d1 * jet.d1, dtype=float), (n,))
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
        n_points=n,
    )


def lsh_combine(op: str, f: ScalarField, g: ScalarField | None = None,
                p: float | None = None, lam: float | None = None) -> ScalarField:
    """Closure operations: product, sum, power(p > 0), dilate(lambda > 0)."""
    if op == "product":
        if g is None:
            raise ParameterError("product needs a second field")
        return Prod(f, g)
    if op == "sum":
        if g is None:
            raise ParameterError("sum needs a second field")
        return Sum(f, g)
    if op == "power":
        if p is None or p <= 0:
            raise ParameterError(f"power needs p > 0, got {p}")
        return Pow(f, float(p))
    if op == "dilate":
        if lam is None or lam <= 0:
            raise ParameterError(f"dilate needs lambda > 0, got {lam}")
        return compose_dilation(f, float(lam))
    raise ParameterError(f"unknown LSH combination {op!r}")


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
        LibraryField("coshx1", Sum(Exp(x1), Exp(Prod(Const(-1.0), x1))), "lsh",
                     "exp(x_1_1) + exp(-x_1_1)"),
        LibraryField("exppow", Pow(expx1, 2.5), "lsh", "exp(x_1_1)^2.5"),
        LibraryField("expdil", compose_dilation(expx1, 1.5), "lsh",
                     "exp(x_1_1) o delta_1.5"),
    ]
    if d1 >= 2:
        out.insert(2, LibraryField(
            "explin",
            Exp(Sum(Prod(Const(0.7), Var(1, 1)), Prod(Const(-0.3), Var(1, 2)))),
            "lsh", "exp(0.7 x_1_1 - 0.3 x_1_2)",
        ))

    sq = Sum(*[Pow(Var(1, k), 2.0) for k in range(1, d1 + 1)], Const(0.25))
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
        "gauss-neg", Exp(Prod(Const(-1.0), Pow(x1, 2.0))), "not-lsh",
        "exp(-x_1_1^2): strictly superharmonic exponent",
    ))
    if d1 >= 2:
        neg2 = Exp(Sum(Prod(Const(-1.0), Pow(Var(1, 1), 2.0)),
                       Prod(Const(-1.0), Pow(Var(1, 2), 2.0))))
        desc = "exp(-x_1_1^2 - x_1_2^2)"
    else:
        neg2 = Exp(Prod(Const(-2.0), Pow(x1, 2.0)))
        desc = "exp(-2 x_1_1^2)"
    out.append(LibraryField("gauss-neg2", neg2, "not-lsh", desc))
    return out


def library_field(algebra: StratifiedAlgebra, name: str) -> LibraryField:
    for entry in builtin_lsh_library(algebra):
        if entry.name == name:
            return entry
    raise ParameterError(f"no library field named {name!r}")
