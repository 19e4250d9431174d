"""Exact group operations in adapted exponential coordinates.

The group law log(exp X . exp Y) is evaluated through a truncated Dynkin
series.  For a nilpotent algebra of step m every bracket of length > m
vanishes, so truncation at degree m gives the exact group law, not an
approximation.  The series is computed once per algebra: the log of
exp(x)exp(y) is expanded in the free associative algebra on two letters
truncated at degree m, and each homogeneous component is converted to
left-normed bracket words via the Dynkin-Specht-Wever projection.  At
multiply time the bracket words are contracted through the algebra's
structure constants; prefixes shared between words are evaluated once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .algebra import StratifiedAlgebra
from .errors import ParameterError, StructureError

# letters in bracket words: 0 = X (left factor), 1 = Y (right factor)


def _dynkin_terms(step: int):
    """(coefficient, word) list for log(exp x exp y), words of length 2..step.

    Degree-1 terms (x + y) are implicit and handled by the evaluator.
    Coefficients are exact rationals converted to float at the end.
    """
    # series in the free associative algebra: word (tuple of 0/1) -> Fraction
    prod: dict[tuple, Fraction] = {}
    for a in range(step + 1):
        for b in range(step + 1):
            if 0 < a + b <= step:
                word = (0,) * a + (1,) * b
                prod[word] = Fraction(1, factorial(a) * factorial(b))

    def concat(u: dict, v: dict) -> dict:
        out: dict[tuple, Fraction] = {}
        for wu, cu in u.items():
            for wv, cv in v.items():
                w = wu + wv
                if len(w) <= step:
                    out[w] = out.get(w, Fraction(0)) + cu * cv
        return out

    log_series: dict[tuple, Fraction] = {}
    power = dict(prod)  # (exp x exp y - 1)^k
    for k in range(1, step + 1):
        sign = Fraction((-1) ** (k + 1), k)
        for w, c in power.items():
            log_series[w] = log_series.get(w, Fraction(0)) + sign * c
        if k < step:
            power = concat(power, prod)

    # Dynkin-Specht-Wever: a degree-l Lie element L = sum c_w w satisfies
    # L = (1/l) sum c_w [..[[w_1,w_2],w_3]..,w_l].  Words starting with a
    # repeated letter have [w_1,w_1] = 0; words starting (y,x,...) fold into
    # (x,y,...) with a sign by antisymmetry.
    folded: dict[tuple, Fraction] = {}
    for w, c in log_series.items():
        if len(w) < 2 or c == 0:
            continue
        coeff = c / len(w)
        if w[0] == w[1]:
            continue
        if w[0] == 1:
            w = (0, 1) + w[2:]
            coeff = -coeff
        folded[w] = folded.get(w, Fraction(0)) + coeff
    terms = [(float(c), w) for w, c in folded.items() if c != 0]
    terms.sort(key=lambda t: (len(t[1]), t[1]))
    return terms


@dataclass
class BCHTable:
    """Truncated Dynkin series specialized to one algebra.

    ``terms`` is a list of (coefficient, word); each word is a tuple over
    {0, 1} naming the factors of a left-normed bracket.  Words longer than
    the algebra's step are absent (nilpotency).
    """

    algebra: StratifiedAlgebra
    terms: list

    @property
    def max_degree(self) -> int:
        return self.algebra.step


@lru_cache(maxsize=None)
def bch_table(algebra: StratifiedAlgebra) -> BCHTable:
    return BCHTable(algebra, _dynkin_terms(algebra.step))


def _bracket_arrays(algebra, u, v):
    """[u, v] columnwise for (n, dim) coordinate arrays."""
    out = np.zeros_like(u)
    for a, b, g, c in algebra.sparse:
        out[:, g] += c * (u[:, a] * v[:, b])
    return out


def multiply_batch(algebra: StratifiedAlgebra, X, Y) -> np.ndarray:
    """Group products row by row for (n, dim) coordinate arrays."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape or X.shape[-1] != algebra.dim:
        raise StructureError(
            f"coordinate arrays must both be (n, {algebra.dim}), "
            f"got {X.shape} and {Y.shape}"
        )
    table = bch_table(algebra)
    out = X + Y
    letters = (X, Y)
    prefix_cache: dict[tuple, np.ndarray] = {}
    for coeff, word in table.terms:
        prefix = word[:2]
        if prefix not in prefix_cache:
            prefix_cache[prefix] = _bracket_arrays(
                algebra, letters[word[0]], letters[word[1]]
            )
        acc = prefix_cache[prefix]
        for pos in range(2, len(word)):
            prefix = word[: pos + 1]
            if prefix not in prefix_cache:
                prefix_cache[prefix] = _bracket_arrays(
                    algebra, prefix_cache[word[:pos]], letters[word[pos]]
                )
            acc = prefix_cache[prefix]
        out += coeff * acc
    return out


def _bracket_jets(algebra, u, v):
    """[u, v] for coordinate vectors whose entries support + and * (jets).

    Entries may be None for structurally zero components (nested words only
    populate higher layers); those are skipped.
    """
    out = [None] * algebra.dim
    for a, b, g, c in algebra.sparse:
        if u[a] is None or v[b] is None:
            continue
        term = (u[a] * v[b]) * c
        out[g] = term if out[g] is None else out[g] + term
    return out


def multiply_jets(algebra: StratifiedAlgebra, xs, ys):
    """Group product where coordinates are jets (or anything with +, *).

    Same series as :func:`multiply_batch`; used to push curves t -> x(t)y(t)
    through the group law with exact derivatives.
    """
    table = bch_table(algebra)
    out = [xs[i] + ys[i] for i in range(algebra.dim)]
    letters = (xs, ys)
    prefix_cache: dict[tuple, list] = {}
    for coeff, word in table.terms:
        prefix = word[:2]
        if prefix not in prefix_cache:
            prefix_cache[prefix] = _bracket_jets(
                algebra, letters[word[0]], letters[word[1]]
            )
        for pos in range(2, len(word)):
            prefix = word[: pos + 1]
            if prefix not in prefix_cache:
                prefix_cache[prefix] = _bracket_jets(
                    algebra, prefix_cache[word[:pos]], letters[word[pos]]
                )
        acc = prefix_cache[word]
        for i in range(algebra.dim):
            if acc[i] is not None:
                out[i] = out[i] + acc[i] * coeff
    return out


# -- elementwise API ----------------------------------------------------------


@dataclass(frozen=True)
class GroupElement:
    """A point of the group in adapted exponential coordinates x_{j,k}.

    Coordinates are ordered by flat basis index (layer-major).  The identity
    has all-zero coordinates; exp-coordinate inversion is negation.
    """

    algebra: StratifiedAlgebra
    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (self.algebra.dim,):
            raise StructureError(
                f"coords must have length {self.algebra.dim}, got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise StructureError("coords must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    def __iter__(self):
        return iter(self.coords)

    def to_json(self):
        return list(map(float, self.coords))

    def __repr__(self):
        return f"GroupElement({np.array2string(self.coords, precision=6)})"


def identity(algebra: StratifiedAlgebra) -> GroupElement:
    return GroupElement(algebra, np.zeros(algebra.dim))


def element(algebra: StratifiedAlgebra, coords) -> GroupElement:
    return GroupElement(algebra, np.asarray(coords, dtype=float))


def multiply(x: GroupElement, y: GroupElement) -> GroupElement:
    if x.algebra is not y.algebra:
        raise StructureError("group elements belong to different algebras")
    prod = multiply_batch(x.algebra, x.coords[None, :], y.coords[None, :])[0]
    return GroupElement(x.algebra, prod)


def inverse(x: GroupElement) -> GroupElement:
    # exp(v)^{-1} = exp(-v) in exponential coordinates
    return GroupElement(x.algebra, -x.coords)


def dilate(lam: float, x: GroupElement) -> GroupElement:
    return GroupElement(x.algebra, dilate_batch(x.algebra, lam, x.coords))


def dilate_batch(algebra: StratifiedAlgebra, lam: float, coords) -> np.ndarray:
    """delta_lambda: scale layer-j coordinates by lambda^j (lambda >= 0)."""
    if lam < 0:
        raise ParameterError(f"dilation factor must be >= 0, got {lam}")
    weights = np.power(float(lam), algebra.layer_of.astype(float))
    return np.asarray(coords, dtype=float) * weights


def homogeneous_norm(x: GroupElement) -> float:
    return float(homogeneous_norm_batch(x.algebra, x.coords[None, :])[0])


def homogeneous_norm_batch(algebra: StratifiedAlgebra, coords) -> np.ndarray:
    """Max-form quasi-norm N(x) = max |x_{j,k}|^{1/j}; N(delta_l x) = l N(x)."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    exps = 1.0 / algebra.layer_of.astype(float)
    return np.max(np.abs(coords) ** exps, axis=1)
