"""Log-subharmonicity checking and the LSH closure algebra.

A positive C^2 function f is log-subharmonic (LSH) when Delta log f >= 0,
equivalently Delta f >= |grad f|^2 / f.  Both forms are evaluated here from
one set of exact jets of f per frame vector: Delta log f by the jet chain
rule for log, and the lemma form (Delta f - |grad f|^2 / f) / f from the
same jets' sums, so the two routes cross-check the log chain rule against
the lemma.  Verification is pointwise on finite point sets, so a pass means
"LSH-consistent on the tested points", never a proof.

The points are taken in blocks of ``_BLOCK_POINTS``, so every array of the
check is block-sized, not grid-sized; the reports and errors are those of
one pass over the whole grid, to the bit and to the sample index.

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
    ScalarField,
    Sum,
    Var,
    compose_dilation,
    evaluate_batch,
    frame_jets,
    frame_rows,
    frame_sum,
    horizontal_jets,
)
from .errors import DomainError, ParameterError, StructureError
from .reports import Report

LSH_CONSISTENT = "LSH-consistent"
LSH_VIOLATED = "violated"
LSH_DOMAIN_ERROR = "domain-error"

DEFAULT_TOL = 1e-9

# points per block of check_lsh: a block's jets and sums stay in cache where
# whole-grid arrays would not (2 ** 14 used less memory but was slower)
_BLOCK_POINTS = 2 ** 15


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

    f is evaluated once per frame vector as a jet; Delta log f comes from
    the log of those jets (the chain rule), and (Delta f - |grad f|^2/f) / f
    from the sums of the same jets and f's values. ``frame`` is
    ``frame_jets`` of the points, when the caller has it, and is read one
    block of points at a time; otherwise each block builds its own, once
    for both routes. A negative value of f (or -0.0) gives the domain-error
    verdict; a value that is +0.0 with none such is an underflow or a zero
    of f and raises ParameterError, not a violation. ``worst_point`` is the
    first point of the minimum of Delta log f.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != algebra.dim:
        raise StructureError(
            f"points must be (n, {algebra.dim}) for this algebra, got {pts.shape}")
    n = pts.shape[0]
    vals = np.empty(n)

    def values(lo, hi):
        vals[lo:hi] = evaluate_batch(f, algebra, pts[lo:hi])

    try:
        _by_blocks(values, n)
    except DomainError as exc:
        return LshVerdict(LSH_DOMAIN_ERROR, None, None, tol, None, True,
                          n, detail=str(exc))
    if np.any(vals <= 0):
        bad = int(np.argmax(vals <= 0))
        # a positive f that underflows gives +0.0; -0.0 comes from a negative
        # quantity (its underflow, or a negative times zero)
        if not np.any(np.signbit(vals)):
            raise ParameterError(
                f"f is 0 at point index {bad} (underflow, or a zero of f)")
        return LshVerdict(
            LSH_DOMAIN_ERROR, None, pts[bad], tol, None, True, n,
            detail=f"f <= 0 at point index {bad}",
        )

    def minima(lo, hi):
        """(index, Delta log f) of the block's first minimum, and its least
        lemma margin."""
        gammas = (frame_jets(algebra, pts[lo:hi]) if frame is None
                  else frame_rows(frame, lo, hi))
        jets = horizontal_jets(f, algebra, pts[lo:hi], gammas)
        delta_log = frame_sum((j.log().d2 for j in jets), hi - lo)
        grad_sq = frame_sum((j.d1 * j.d1 for j in jets), hi - lo)
        lap = frame_sum((j.d2 for j in jets), hi - lo)
        v = vals[lo:hi]
        i = int(np.argmin(delta_log))
        return lo + i, float(delta_log[i]), float(np.min((lap - grad_sq / v) / v))

    blocks = _by_blocks(minima, n)
    # argmin over the blocks' minima finds the first block holding the grid's
    # first minimum (or first NaN), as argmin over the whole grid would
    i_worst, min_dl, _ = blocks[int(np.argmin([b[1] for b in blocks]))]
    min_lm = float(np.min([b[2] for b in blocks]))
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


def _by_blocks(step, n: int) -> list:
    """[step(lo, hi)] over the blocks of ``_BLOCK_POINTS`` of n points, in order.

    If a block raises, ``step(0, n)`` runs on the whole grid and raises what
    it raises: the error of one pass over the grid, in the tree's order and
    naming its sample by the index in the grid, where the block's error
    would name an index in the block.
    """
    try:
        return [step(lo, min(lo + _BLOCK_POINTS, n)) for lo in range(0, n, _BLOCK_POINTS)]
    except Exception:
        step(0, n)
        raise


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
