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

from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .algebra import StratifiedAlgebra
from .errors import ParameterError, StructureError

# letters in bracket words: 0 = X (left factor), 1 = Y (right factor)


@lru_cache(maxsize=None)
def _dynkin_terms(step: int) -> tuple:
    """(coefficient, word) pairs of log(exp x exp y), words of length 2..step.

    Degree-1 terms (x + y) are implicit and handled by the evaluator.
    Coefficients are exact rationals converted to float at the end.  Computed
    once per step, the only thing the series depends on.
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
    return tuple(terms)


def bch_table(algebra: StratifiedAlgebra) -> tuple:
    """Truncated Dynkin series of one algebra: (coefficient, word) pairs.

    Each word is a tuple over {0, 1} naming the factors of a left-normed
    bracket.  Words longer than the algebra's step are absent (nilpotency).
    """
    return _dynkin_terms(algebra.step)


# -- structural zeros -----------------------------------------------------------
#
# The Python float 0.0 is a known zero wherever an entry or a component may be
# an array or a jet: a coordinate of a walk step's upper layers, a component of
# a curve's 2-jet.  Sums and products skip it without touching an array, so a
# term with a known-zero factor is never formed.  Every other term is computed
# as dense arithmetic would, so a finite non-zero result keeps its bits; only
# 0 * inf in a skipped term gives 0, not NaN, and the sign of an exact zero may
# differ.  The float test is written out, not called, in _plus, _minus, _times
# and the loops below, which run once per term.


def _zero(c) -> bool:
    """True for a structurally zero entry or component: the Python float 0.0."""
    return type(c) is float and c == 0.0


def _plus(a, b):
    if type(a) is float and a == 0.0:
        return b
    return a if type(b) is float and b == 0.0 else a + b


def _minus(a, b):
    if type(b) is float and b == 0.0:
        return a
    return -b if type(a) is float and a == 0.0 else a - b


def _times(a, b):
    if type(a) is float and a == 0.0 or type(b) is float and b == 0.0:
        return 0.0
    return a * b


def _bracket_jets(algebra, u, v):
    """[u, v] for coordinate vectors whose entries support +, - and * (jets).

    Structurally zero entries (0.0; nested words only populate higher
    layers) are skipped, and an output entry nothing contributes to is 0.0.
    A structure constant of 1.0 or -1.0 adds or subtracts the product, with
    the bits of multiplying by it.
    """
    out = [0.0] * algebra.dim
    for a, b, g, c in algebra.sparse:
        ua, vb = u[a], v[b]
        if type(ua) is float and ua == 0.0 or type(vb) is float and vb == 0.0:
            continue
        if c == 1.0:
            out[g] = _plus(out[g], ua * vb)
        elif c == -1.0:
            out[g] = _minus(out[g], ua * vb)
        else:
            out[g] = _plus(out[g], (ua * vb) * c)
    return out


def multiply_jets(algebra: StratifiedAlgebra, xs, ys):
    """Group product of two coordinate vectors given as length-dim sequences.

    Entries are anything with +, - and *: jets, to push curves t -> x(t)y(t)
    through the group law with exact derivatives, or (n,) arrays, one per
    coordinate, to multiply n pairs of points at once.  An entry may be 0.0
    for a structurally zero coordinate (the upper layers of a walk step); it
    is skipped, and an output entry is 0.0 only when nothing contributes to it.
    """
    out = [_plus(xs[i], ys[i]) for i in range(algebra.dim)]
    letters = (xs, ys)
    prefix_cache: dict[tuple, list] = {}
    for coeff, word in _dynkin_terms(algebra.step):
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
        for i, term in enumerate(prefix_cache[word]):
            if not (type(term) is float and term == 0.0):
                out[i] = _plus(out[i], term * coeff)
    return out


def multiply_batch(algebra: StratifiedAlgebra, X, Y) -> np.ndarray:
    """Group products row by row for (n, dim) coordinate arrays; the identity
    is the zero row and, in exponential coordinates, a row's inverse is its negation."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape or X.shape[-1] != algebra.dim:
        raise StructureError(
            f"coordinate arrays must both be (n, {algebra.dim}), "
            f"got {X.shape} and {Y.shape}"
        )
    return np.column_stack(multiply_jets(algebra, list(X.T), list(Y.T)))


def dilate_batch(algebra: StratifiedAlgebra, lam: float, coords) -> np.ndarray:
    """delta_lambda: scale layer-j coordinates by lambda^j (lambda >= 0)."""
    if lam < 0:
        raise ParameterError(f"dilation factor must be >= 0, got {lam}")
    weights = np.power(float(lam), algebra.layer_of.astype(float))
    return np.asarray(coords, dtype=float) * weights


def homogeneous_norm_batch(algebra: StratifiedAlgebra, coords) -> np.ndarray:
    """Max-form quasi-norm N(x) = max |x_{j,k}|^{1/j}; N(delta_l x) = l N(x)."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    exps = 1.0 / algebra.layer_of.astype(float)
    return np.max(np.abs(coords) ** exps, axis=1)
