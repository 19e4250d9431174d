"""Scalar fields with exact derivatives via 2-jet propagation.

A :class:`ScalarField` is an expression tree over the adapted coordinates
x_{j,k}.  Derivatives are never taken by finite differences: a curve
gamma(t) with known coordinate 2-jets (value, first, second derivative at
t = 0) is pushed through the group law and the field's tree using
:class:`Jet2` arithmetic, which satisfies the Leibniz and chain rules
exactly.  Since t -> x exp(t xi) is the integral curve of the
left-invariant field of xi, the second jet component along it equals the
iterated derivative, so the sub-Laplacian is a sum of second jets over an
orthonormal first-layer frame.

``frame_jets`` -> ``horizontal_jets`` -> ``frame_sum`` is the one route to a
horizontal derivative: over f's jets along the frame, the sum of d1^2 is
|grad f|^2 and the sum of d2 is Delta f, and the jets' ``log()`` give
|grad log f|^2 and Delta log f the same way.

Each node class is the one place that knows its operator: it carries its
mini-language ``op`` and its ``args`` (the child fields, then the numbers,
as in ``(pow base p)`` and ``(dilated inner t)``), and its
``_eval(algebra, values)`` maps one float, array or jet per coordinate, in
flat order, to its own. ``to_expr`` and ``_coordinates`` walk ``args``
alike for every node, and ``parse_field`` looks each operator up in one
table built from the classes' ``op``.

Jet components may be floats or numpy arrays; all operators therefore work
pointwise or vectorized over a whole sample batch at once.

A component that is the Python float 0.0 is structurally zero, by the one
rule that group.py states and holds for the group law and the jets alike
(``_zero``, ``_plus``, ``_minus`` and ``_times``, imported here): the jet
operators skip every term that has it as a factor and return 0.0, or the
other operand of a sum, without touching an array or computing the term's
other factor (``pow`` forms no v ** (p - 2) when d1 is zero).  A curve's
coordinate jets are mostly such zeros (x + 0 t, exp(t xi) with most xi_i
zero), so this removes most of the arithmetic of a frame.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .algebra import StratifiedAlgebra
from .errors import ConfigError, DomainError, ParameterError
from .group import _minus, _plus, _times, _zero, multiply_jets


# -- 2-jets -------------------------------------------------------------------


@dataclass(frozen=True)
class Jet2:
    """(value, d/dt, d^2/dt^2) of a scalar quantity along a curve at t = 0."""

    val: object
    d1: object
    d2: object

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(_plus(self.val, other.val), _plus(self.d1, other.d1),
                        _plus(self.d2, other.d2))
        return Jet2(_plus(self.val, other), self.d1, self.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(_minus(0.0, self.val), _minus(0.0, self.d1), _minus(0.0, self.d2))

    def __sub__(self, other):
        return Jet2(_minus(self.val, other.val), _minus(self.d1, other.d1),
                    _minus(self.d2, other.d2))

    def __mul__(self, other):
        if isinstance(other, Jet2):
            v, w = self.val, other.val
            return Jet2(
                _times(v, w),
                _plus(_times(self.d1, w), _times(v, other.d1)),
                _plus(_plus(_times(self.d2, w), _times(_times(2.0, self.d1), other.d1)),
                      _times(v, other.d2)),
            )
        return Jet2(_times(self.val, other), _times(self.d1, other),
                    _times(self.d2, other))

    __rmul__ = __mul__

    def exp(self):
        e = np.exp(self.val)
        return Jet2(e, _times(e, self.d1),
                    _times(e, _plus(self.d2, _times(self.d1, self.d1))))

    def log(self):
        _require_positive(self.val, "log")
        r = 0.0 if _zero(self.d1) else self.d1 / self.val
        d2 = 0.0 if _zero(self.d2) else self.d2 / self.val
        return Jet2(np.log(self.val), r, _minus(d2, _times(r, r)))

    def pow(self, p: float):
        v, d1, d2 = self.val, self.d1, self.d2
        _require_power_domain(v, p)
        vp = v ** p
        # p = 0 has no derivative terms and p = 1 no d1^2 term: their powers
        # of v are negative, infinite at v = 0, and are never formed
        if p == 0 or (_zero(d1) and _zero(d2)):
            return Jet2(vp, 0.0, 0.0)
        c1 = p * v ** (p - 1)
        out2 = _times(c1, d2)
        if p != 1 and not _zero(d1):
            out2 = _plus(out2, p * (p - 1) * v ** (p - 2) * d1 * d1)
        return Jet2(vp, _times(c1, d1), out2)


def _require_positive(v, what: str):
    """v > 0 and finite; an inf or NaN is overflow, not a domain error of f."""
    arr = np.asarray(v)
    nonpos, nonfinite = arr <= 0, ~np.isfinite(arr)
    if nonpos.any() or nonfinite.any():
        bad = int(np.argmax(nonpos | nonfinite)) if arr.ndim else 0
        if nonfinite.flat[bad]:
            raise ParameterError(f"{what} of non-finite value (overflow) at sample {bad}")
        raise DomainError(f"{what} of non-positive value at sample {bad}")


def _require_power_domain(v, p):
    """v ** p needs v != 0 for a negative integer p and v > 0 for a fractional p."""
    if not float(p).is_integer():
        _require_positive(v, f"power {p}")
    elif p < 0:
        arr = np.asarray(v)
        if np.any(arr == 0):
            bad = int(np.argmax(arr == 0)) if arr.ndim else 0
            raise DomainError(f"power {p} of zero value at sample {bad}")


# -- scalar fields ------------------------------------------------------------


class ScalarField:
    """Base expression node; the atoms ``Const`` and ``Var`` have no op or args."""

    op: str | None = None
    args: tuple = ()

    def _eval(self, algebra: StratifiedAlgebra, values):
        raise NotImplementedError

    # algebraic sugar so tests and the LSH library read naturally
    def __add__(self, other):
        return Sum(self, _as_field(other))

    def __radd__(self, other):
        return Sum(_as_field(other), self)

    def __mul__(self, other):
        return Prod(self, _as_field(other))

    def __rmul__(self, other):
        return Prod(_as_field(other), self)

    def __sub__(self, other):
        return Sum(self, Prod(Const(-1.0), _as_field(other)))

    def __neg__(self):
        return Prod(Const(-1.0), self)

    def __pow__(self, p):
        return Pow(self, float(p))

    def __repr__(self):
        return to_expr(self)

    @property
    def layers(self) -> set:
        """The layer j of every coordinate variable x_j_k in the tree."""
        return {j for j, _ in _coordinates(self)}


def _as_field(v) -> ScalarField:
    if isinstance(v, ScalarField):
        return v
    return Const(float(v))


class Const(ScalarField):
    def __init__(self, value: float):
        self.value = float(value)

    def _eval(self, algebra, values):
        return self.value


class Var(ScalarField):
    def __init__(self, j: int, k: int):
        self.j = int(j)
        self.k = int(k)

    def _eval(self, algebra, values):
        return values[algebra.flat_index((self.j, self.k))]


class _Fold(ScalarField):
    """An n-ary node: a plain left fold of its children's values by ``_step``."""

    def __init__(self, *children):
        self.args = tuple(_as_field(c) for c in children)

    def _eval(self, algebra, values):
        acc = self.args[0]._eval(algebra, values)
        for c in self.args[1:]:
            acc = self._step(acc, c._eval(algebra, values))
        return acc

    @classmethod
    def _parse(cls, args):
        if not args:
            raise ConfigError(f"({cls.op}) needs at least one argument")
        return args[0] if len(args) == 1 else cls(*args)


class Sum(_Fold):
    op, _step = "+", operator.add


class Prod(_Fold):
    op, _step = "*", operator.mul


class _Unary(ScalarField):
    def __init__(self, arg):
        self.args = (_as_field(arg),)

    @classmethod
    def _parse(cls, args):
        if len(args) != 1:
            raise ConfigError(f"({cls.op} f) takes one argument")
        return cls(args[0])


class Exp(_Unary):
    op = "exp"

    def _eval(self, algebra, values):
        v = self.args[0]._eval(algebra, values)
        return v.exp() if isinstance(v, Jet2) else np.exp(v)


class Log(_Unary):
    op = "log"

    def _eval(self, algebra, values):
        v = self.args[0]._eval(algebra, values)
        if isinstance(v, Jet2):
            return v.log()
        _require_positive(v, "log")
        return np.log(v)


class _FieldAndNumber(ScalarField):
    """A node ``(op f number)``; ``_usage`` is the parse error of any other form."""

    def __init__(self, f, number: float):
        self.args = (_as_field(f), float(number))

    @classmethod
    def _parse(cls, args):
        if len(args) != 2 or not isinstance(args[1], Const):
            raise ConfigError(cls._usage)
        return cls(args[0], args[1].value)


class Pow(_FieldAndNumber):
    op, _usage = "pow", "(pow f p) needs a field and a numeric exponent"

    def _eval(self, algebra, values):
        base, p = self.args
        v = base._eval(algebra, values)
        if isinstance(v, Jet2):
            return v.pow(p)
        _require_power_domain(v, p)
        return v ** p


class Dilated(_FieldAndNumber):
    """f composed with delta_{e^{-t}}, ``args`` (f, t); the dilation semigroup
    pullback e^{-tE}f.

    Stores the log-scale t so that composing pullbacks adds the parameters
    exactly.
    """

    op, _usage = "dilated", "(dilated f t) needs a field and a numeric log-scale t"

    def _eval(self, algebra, values):
        inner, t = self.args
        weights = _pullback_weights(algebra, t)
        return inner._eval(algebra, [v * w for v, w in zip(values, weights)])


def _pullback_weights(algebra: StratifiedAlgebra, t: float) -> list:
    """exp(-t) ** j for the layer j of each coordinate: what e^{-tE} scales it by."""
    try:
        lam = math.exp(-t)
        return [lam ** int(j) for j in algebra.layer_of]
    except OverflowError:
        raise ParameterError(f"dilation weight exp(-t) ** j overflows at t = {t:g}") from None


def x(j: int, k: int = 1) -> Var:
    return Var(j, k)


def dilation_pullback(f: ScalarField, t: float) -> ScalarField:
    """e^{-tE} f = f o delta_{e^{-t}}; pullbacks compose by adding t."""
    if isinstance(f, Dilated):
        inner, t0 = f.args
        return Dilated(inner, t0 + float(t))
    return Dilated(f, float(t))


def compose_dilation(f: ScalarField, lam: float) -> ScalarField:
    """f o delta_lambda for lambda > 0."""
    if lam <= 0:
        raise ParameterError(f"dilation factor must be > 0, got {lam}")
    return dilation_pullback(f, -math.log(lam))


# -- evaluation ---------------------------------------------------------------


def _column(value, n: int) -> np.ndarray:
    """A value or jet component (a float or an (n,) array) as a new (n,) array."""
    return np.broadcast_to(np.asarray(value, dtype=float), (n,)).copy()


def evaluate_batch(f: ScalarField, algebra: StratifiedAlgebra, coords) -> np.ndarray:
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    out = f._eval(algebra, [coords[:, i] for i in range(algebra.dim)])
    return _column(out, coords.shape[0])


def evaluate_pullbacks(f: ScalarField, algebra: StratifiedAlgebra, coords, ts) -> np.ndarray:
    """e^{-tE} f at every row of ``coords`` for every t of ``ts``, as a new
    (len(ts), n) array; row i is ``evaluate_batch(dilation_pullback(f, ts[i]),
    algebra, coords)`` bit for bit.

    Each coordinate column that f reads is scaled by the column of its
    ``_pullback_weights`` (t being a top-level ``Dilated``'s own t plus each
    t of ``ts``, as in ``dilation_pullback``), and f's tree is evaluated once
    on those (len(ts), n) columns. A coordinate that f does not read is
    never scaled.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    inner, t0 = f.args if isinstance(f, Dilated) else (f, None)
    weights = [_pullback_weights(algebra, float(t) if t0 is None else t0 + float(t))
               for t in ts]
    values = [0.0] * algebra.dim
    for i in {algebra.flat_index(jk) for jk in _coordinates(inner)}:
        values[i] = np.multiply.outer([w[i] for w in weights], coords[:, i])
    out = np.asarray(inner._eval(algebra, values), dtype=float)
    shape = (len(weights), coords.shape[0])
    # a tree that reads a coordinate returns a (len(ts), n) array of its own
    return out if out.shape == shape else np.broadcast_to(out, shape).copy()


# -- derivatives along group curves --------------------------------------------


def _ensure_jet(out) -> Jet2:
    # trees with no live variable (e.g. constants) evaluate to a plain number
    return out if isinstance(out, Jet2) else Jet2(out, 0.0, 0.0)


def _point_columns(coords) -> np.ndarray:
    """One contiguous copy of the points' columns, a row per coordinate.

    A curve's value that passes through x + 0 unchanged is that row, not a
    strided view of the caller's array (which later ops read up to 2x
    slower) or the array itself.
    """
    return np.array(np.atleast_2d(np.asarray(coords, dtype=float)).T, order="C")


def _curve(algebra, columns, xi, side: str = "left"):
    """Coordinate jets of t -> x exp(t xi), or exp(t xi) x for side='right',
    at the points whose ``_point_columns`` are ``columns``."""
    xj = [Jet2(c, 0.0, 0.0) for c in columns]
    yj = [Jet2(0.0, float(a), 0.0) for a in np.asarray(xi, dtype=float)]
    if side == "left":
        return multiply_jets(algebra, xj, yj)
    if side == "right":
        return multiply_jets(algebra, yj, xj)
    raise ParameterError(f"side must be 'left' or 'right', got {side!r}")


def curve_jet(f, algebra, coords, xi, side: str = "left") -> Jet2:
    """2-jet of t -> f(x exp(t xi)) (or exp(t xi) x for side='right'); its d1 and
    d2 are the left- (right-) invariant derivatives xi~f and xi~^2 f at each row x."""
    return _ensure_jet(f._eval(algebra, _curve(algebra, _point_columns(coords), xi, side)))


def frame_jets(algebra, coords):
    """Coordinate jets of t -> x exp(t xi_i), one list per orthonormal V_1 vector.

    They depend on the algebra and the points only, not on a field, so one
    frame serves every field evaluated on the same points. Every direction
    shares one copy of the points' coordinates (each curve's value), and
    field evaluation never writes into them.
    """
    upper = algebra.dim - algebra.dim_v1
    columns = _point_columns(coords)
    return [_curve(algebra, columns, np.pad(xi, (0, upper)))
            for xi in algebra.orthonormal_v1_frame().T]


def frame_rows(frame, lo: int, hi: int):
    """The frame jets of points lo:hi, as views into ``frame``, the
    ``frame_jets`` of all the points: the same bits as ``frame_jets`` of
    those points alone, with no copy. A known-zero or constant component
    is kept as it is."""
    def rows(c):
        return c[lo:hi] if isinstance(c, np.ndarray) else c

    return [[Jet2(rows(j.val), rows(j.d1), rows(j.d2)) for j in gamma]
            for gamma in frame]


def horizontal_jets(f, algebra, coords, frame=None):
    """Jets of f along each vector of the orthonormal V_1 frame (vectorized).

    ``frame`` is ``frame_jets(algebra, coords)``, when the caller has it.
    """
    if frame is None:
        frame = frame_jets(algebra, coords)
    return [_ensure_jet(f._eval(algebra, gamma)) for gamma in frame]


def frame_sum(terms, n: int) -> np.ndarray:
    """The sum of one term per frame vector, each a float or an (n,) array,
    added in frame order to zeros."""
    acc = np.zeros(n)
    for term in terms:
        acc += np.broadcast_to(np.asarray(term, dtype=float), (n,))
    return acc


def euler_derivative_batch(f, algebra, coords) -> np.ndarray:
    """Ef along r -> delta_{e^r} x: coordinate jets (x, j x, j^2 x)."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    jets = [
        Jet2(coords[:, i], float(j) * coords[:, i], float(j) ** 2 * coords[:, i])
        for i, j in enumerate(algebra.layer_of)
    ]
    return _column(_ensure_jet(f._eval(algebra, jets)).d1, coords.shape[0])


def partial_derivative_batch(f, algebra, coords, idx: int) -> np.ndarray:
    """d f / d x_idx along the straight coordinate line (not a group curve)."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    jets = [
        Jet2(coords[:, i], 1.0 if i == idx else 0.0, 0.0)
        for i in range(algebra.dim)
    ]
    return _column(_ensure_jet(f._eval(algebra, jets)).d1, coords.shape[0])


def euler_derivative_coordinate_formula(f, algebra, coords) -> np.ndarray:
    """E f = sum_{j,k} j x_{j,k} df/dx_{j,k}; cross-check for the curve form."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    acc = np.zeros(coords.shape[0])
    for i, j in enumerate(algebra.layer_of):
        acc += float(j) * coords[:, i] * partial_derivative_batch(f, algebra, coords, i)
    return acc


# -- field mini-language --------------------------------------------------------

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
_VAR_RE = re.compile(r"^x_(\d+)_(\d+)$")
_NUM_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def parse_field(expr: str, params: dict | None = None) -> ScalarField:
    """Parse a prefix-notation field expression.

    Grammar: atoms are numbers, coordinate variables ``x_j_k`` and named
    parameters; forms are ``(+ e...)``, ``(* e...)``, ``(- e [e])``,
    ``(pow e p)``, ``(exp e)``, ``(log e)`` and ``(dilated e t)``, the
    pullback e o delta_{e^{-t}}; p and t are numbers (or parameters).
    """
    params = params or {}
    tokens = _TOKEN_RE.findall(expr)
    if not tokens:
        raise ConfigError("empty field expression")

    pos = 0

    def parse() -> ScalarField:
        nonlocal pos
        if pos >= len(tokens):
            raise ConfigError(f"unexpected end of expression in {expr!r}")
        tok = tokens[pos]
        pos += 1
        if tok == ")":
            raise ConfigError(f"unexpected ')' in {expr!r}")
        if tok != "(":
            return atom(tok)
        if pos >= len(tokens):
            raise ConfigError(f"unterminated '(' in {expr!r}")
        op = tokens[pos]
        pos += 1
        args = []
        while pos < len(tokens) and tokens[pos] != ")":
            args.append(parse())
        if pos >= len(tokens):
            raise ConfigError(f"unterminated '(' in {expr!r}")
        pos += 1  # consume ')'
        if op not in _PARSERS:
            raise ConfigError(f"unknown operator {op!r}")
        return _PARSERS[op](args)

    def atom(tok: str) -> ScalarField:
        m = _VAR_RE.match(tok)
        if m:
            return Var(int(m.group(1)), int(m.group(2)))
        if _NUM_RE.match(tok):
            return Const(float(tok))
        if tok in params:
            return Const(float(params[tok]))
        raise ConfigError(f"unknown symbol {tok!r} (not a variable, number or parameter)")

    out = parse()
    if pos != len(tokens):
        raise ConfigError(f"trailing tokens in field expression {expr!r}")
    return out


def _parse_minus(args) -> ScalarField:
    if len(args) == 1:
        return -args[0]
    if len(args) == 2:
        return args[0] - args[1]
    raise ConfigError("(-) takes one or two arguments")


# op -> the builder of its form from the parsed arguments; ``-`` is sugar
_PARSERS = {cls.op: cls._parse for cls in (Sum, Prod, Pow, Exp, Log, Dilated)}
_PARSERS["-"] = _parse_minus


def _coordinates(f: ScalarField) -> set:
    """The (j, k) of every coordinate variable in f's tree."""
    if isinstance(f, Var):
        return {(f.j, f.k)}
    return set().union(*(_coordinates(a) for a in f.args if isinstance(a, ScalarField)))


def to_expr(f: ScalarField) -> str:
    """Render a field back into the prefix mini-language."""
    if isinstance(f, Const):
        return repr(f.value)
    if isinstance(f, Var):
        return f"x_{f.j}_{f.k}"
    return f"({' '.join([f.op, *(to_expr(_as_field(a)) for a in f.args)])})"
