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

Jet components may be floats or numpy arrays; all operators therefore work
pointwise or vectorized over a whole sample batch at once.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .algebra import StratifiedAlgebra
from .errors import ConfigError, DomainError, ParameterError
from .group import GroupElement, multiply_jets


# -- 2-jets -------------------------------------------------------------------


@dataclass(frozen=True)
class Jet2:
    """(value, d/dt, d^2/dt^2) of a scalar quantity along a curve at t = 0."""

    val: object
    d1: object
    d2: object

    @staticmethod
    def constant(v):
        return Jet2(v, 0.0, 0.0)

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.val + other.val, self.d1 + other.d1, self.d2 + other.d2)
        return Jet2(self.val + other, self.d1, self.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.val, -self.d1, -self.d2)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet2):
            return Jet2(
                self.val * other.val,
                self.d1 * other.val + self.val * other.d1,
                self.d2 * other.val + 2.0 * self.d1 * other.d1 + self.val * other.d2,
            )
        return Jet2(self.val * other, self.d1 * other, self.d2 * other)

    __rmul__ = __mul__

    def exp(self):
        e = np.exp(self.val)
        return Jet2(e, e * self.d1, e * (self.d2 + self.d1 * self.d1))

    def log(self):
        _require_positive(self.val, "log")
        r = self.d1 / self.val
        return Jet2(np.log(self.val), r, self.d2 / self.val - r * r)

    def pow(self, p: float):
        v = self.val
        if float(p).is_integer():
            _require_nonzero_if_negative_power(v, p)
        else:
            _require_positive(v, f"power {p}")
        vp = v ** p
        vp1 = v ** (p - 1)
        vp2 = v ** (p - 2)
        return Jet2(vp, p * vp1 * self.d1, p * vp1 * self.d2 + p * (p - 1) * vp2 * self.d1 * self.d1)


def _require_positive(v, what: str):
    arr = np.asarray(v)
    if np.any(arr <= 0) or np.any(~np.isfinite(arr)):
        bad = int(np.argmax((arr <= 0) | ~np.isfinite(arr))) if arr.ndim else 0
        raise DomainError(f"{what} of non-positive value at sample {bad}")


def _require_nonzero_if_negative_power(v, p):
    if p < 0:
        arr = np.asarray(v)
        if np.any(arr == 0):
            bad = int(np.argmax(arr == 0)) if arr.ndim else 0
            raise DomainError(f"power {p} of zero value at sample {bad}")


def _exp(v):
    return v.exp() if isinstance(v, Jet2) else np.exp(v)


def _log(v):
    if isinstance(v, Jet2):
        return v.log()
    _require_positive(v, "log")
    return np.log(v)


def _pow(v, p):
    if isinstance(v, Jet2):
        return v.pow(p)
    if float(p).is_integer():
        _require_nonzero_if_negative_power(v, p)
    else:
        _require_positive(v, f"power {p}")
    return v ** p


# -- scalar fields ------------------------------------------------------------


class EvalContext:
    """Coordinate values (floats, arrays, or jets) for one evaluation pass."""

    __slots__ = ("algebra", "values")

    def __init__(self, algebra: StratifiedAlgebra, values):
        self.algebra = algebra
        self.values = values

    def coordinate(self, j: int, k: int):
        return self.values[self.algebra.flat_index((j, k))]

    def scaled(self, weights):
        return EvalContext(
            self.algebra, [v * w for v, w in zip(self.values, weights)]
        )


class ScalarField:
    """Base expression node.  Subclasses implement ``_eval``."""

    def _eval(self, ctx: EvalContext):
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


def _as_field(v) -> ScalarField:
    if isinstance(v, ScalarField):
        return v
    return Const(float(v))


class Const(ScalarField):
    def __init__(self, value: float):
        self.value = float(value)

    def _eval(self, ctx):
        return self.value


class Var(ScalarField):
    def __init__(self, j: int, k: int):
        self.j = int(j)
        self.k = int(k)

    def _eval(self, ctx):
        return ctx.coordinate(self.j, self.k)


class Sum(ScalarField):
    def __init__(self, *children):
        self.children = [_as_field(c) for c in children]

    def _eval(self, ctx):
        acc = self.children[0]._eval(ctx)
        for c in self.children[1:]:
            acc = acc + c._eval(ctx)
        return acc


class Prod(ScalarField):
    def __init__(self, *children):
        self.children = [_as_field(c) for c in children]

    def _eval(self, ctx):
        acc = self.children[0]._eval(ctx)
        for c in self.children[1:]:
            acc = acc * c._eval(ctx)
        return acc


class Pow(ScalarField):
    def __init__(self, base, p: float):
        self.base = _as_field(base)
        self.p = float(p)

    def _eval(self, ctx):
        return _pow(self.base._eval(ctx), self.p)


class Exp(ScalarField):
    def __init__(self, arg):
        self.arg = _as_field(arg)

    def _eval(self, ctx):
        return _exp(self.arg._eval(ctx))


class Log(ScalarField):
    def __init__(self, arg):
        self.arg = _as_field(arg)

    def _eval(self, ctx):
        return _log(self.arg._eval(ctx))


class Dilated(ScalarField):
    """f composed with delta_{e^{-t}}; the dilation semigroup pullback e^{-tE}f.

    Stores the log-scale t so that composing pullbacks adds the parameters
    exactly.
    """

    def __init__(self, inner, t: float):
        self.inner = _as_field(inner)
        self.t = float(t)

    def _eval(self, ctx):
        lam = math.exp(-self.t)
        weights = [lam ** int(j) for j in ctx.algebra.layer_of]
        return self.inner._eval(ctx.scaled(weights))


def x(j: int, k: int = 1) -> Var:
    return Var(j, k)


def affine(coeffs: dict, constant: float = 0.0) -> ScalarField:
    """sum c_{j,k} x_{j,k} + constant, coeffs keyed by (j, k)."""
    parts = [Prod(Const(c), Var(j, k)) for (j, k), c in coeffs.items()]
    if constant or not parts:
        parts.append(Const(constant))
    return parts[0] if len(parts) == 1 else Sum(*parts)


def dilation_pullback(f: ScalarField, t: float) -> ScalarField:
    """e^{-tE} f = f o delta_{e^{-t}}; pullbacks compose by adding t."""
    if isinstance(f, Dilated):
        return Dilated(f.inner, f.t + float(t))
    return Dilated(f, float(t))


def compose_dilation(f: ScalarField, lam: float) -> ScalarField:
    """f o delta_lambda for lambda > 0."""
    if lam <= 0:
        raise ParameterError(f"dilation factor must be > 0, got {lam}")
    return dilation_pullback(f, -math.log(lam))


# -- evaluation ---------------------------------------------------------------


def _coords_of(x) -> np.ndarray:
    return x.coords if isinstance(x, GroupElement) else np.asarray(x, dtype=float)


def evaluate(f: ScalarField, point: GroupElement) -> float:
    ctx = EvalContext(point.algebra, list(point.coords))
    return float(f._eval(ctx))


def evaluate_batch(f: ScalarField, algebra: StratifiedAlgebra, coords) -> np.ndarray:
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    ctx = EvalContext(algebra, [coords[:, i] for i in range(algebra.dim)])
    out = f._eval(ctx)
    return np.broadcast_to(np.asarray(out, dtype=float), (coords.shape[0],)).copy()


# -- derivatives along group curves --------------------------------------------


def _ensure_jet(out) -> Jet2:
    # trees with no live variable (e.g. constants) evaluate to a plain number
    return out if isinstance(out, Jet2) else Jet2(out, 0.0, 0.0)


def _point_jets(coords_cols):
    return [Jet2(c, 0.0, 0.0) for c in coords_cols]


def _direction_jets(xi):
    return [Jet2(0.0, float(a), 0.0) for a in xi]


def curve_jet(f, algebra, coords, xi, side: str = "left") -> Jet2:
    """2-jet of t -> f(x exp(t xi)) (or exp(t xi) x for side='right')."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    xj = _point_jets([coords[:, i] for i in range(algebra.dim)])
    yj = _direction_jets(np.asarray(xi, dtype=float))
    if side == "left":
        gamma = multiply_jets(algebra, xj, yj)
    elif side == "right":
        gamma = multiply_jets(algebra, yj, xj)
    else:
        raise ParameterError(f"side must be 'left' or 'right', got {side!r}")
    return _ensure_jet(f._eval(EvalContext(algebra, gamma)))


def _scalarize(jet: Jet2) -> Jet2:
    return Jet2(*(float(np.asarray(c).reshape(-1)[0]) for c in (jet.val, jet.d1, jet.d2)))


def left_invariant_derivative(f, xi, point: GroupElement) -> Jet2:
    """(f(x), xi~f(x), xi~^2 f(x)) along the integral curve of xi~ through x."""
    return _scalarize(curve_jet(f, point.algebra, point.coords, xi, side="left"))


def right_invariant_derivative(f, xi, point: GroupElement) -> Jet2:
    return _scalarize(curve_jet(f, point.algebra, point.coords, xi, side="right"))


def horizontal_jets(f, algebra, coords):
    """Jets of f along each vector of the orthonormal V_1 frame (vectorized)."""
    frame = algebra.orthonormal_v1_frame()
    jets = []
    for i in range(algebra.dim_v1):
        xi = np.zeros(algebra.dim)
        xi[: algebra.dim_v1] = frame[:, i]
        jets.append(curve_jet(f, algebra, coords, xi, side="left"))
    return jets


def sub_gradient_sq_batch(f, algebra, coords) -> np.ndarray:
    """|grad f|^2 = sum_i (xi_i~ f)^2 over an orthonormal V_1 frame."""
    jets = horizontal_jets(f, algebra, coords)
    n = np.atleast_2d(coords).shape[0]
    acc = np.zeros(n)
    for jet in jets:
        acc = acc + np.broadcast_to(np.asarray(jet.d1 * jet.d1, dtype=float), (n,))
    return acc


def sub_laplacian_batch(f, algebra, coords) -> np.ndarray:
    """Delta f = sum_i xi_i~^2 f over an orthonormal V_1 frame."""
    jets = horizontal_jets(f, algebra, coords)
    n = np.atleast_2d(coords).shape[0]
    acc = np.zeros(n)
    for jet in jets:
        acc = acc + np.broadcast_to(np.asarray(jet.d2, dtype=float), (n,))
    return acc


def sub_gradient_sq(f, point: GroupElement) -> float:
    return float(sub_gradient_sq_batch(f, point.algebra, point.coords)[0])


def sub_laplacian(f, point: GroupElement) -> float:
    return float(sub_laplacian_batch(f, point.algebra, point.coords)[0])


def euler_derivative_batch(f, algebra, coords) -> np.ndarray:
    """Ef along r -> delta_{e^r} x: coordinate jets (x, j x, j^2 x)."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    jets = [
        Jet2(coords[:, i], float(j) * coords[:, i], float(j) ** 2 * coords[:, i])
        for i, j in enumerate(algebra.layer_of)
    ]
    out = _ensure_jet(f._eval(EvalContext(algebra, jets)))
    return np.broadcast_to(np.asarray(out.d1, dtype=float), (coords.shape[0],)).copy()


def euler_derivative(f, point: GroupElement) -> float:
    return float(euler_derivative_batch(f, point.algebra, point.coords)[0])


def partial_derivative_batch(f, algebra, coords, idx: int) -> np.ndarray:
    """d f / d x_idx along the straight coordinate line (not a group curve)."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    jets = [
        Jet2(coords[:, i], 1.0 if i == idx else 0.0, 0.0)
        for i in range(algebra.dim)
    ]
    out = _ensure_jet(f._eval(EvalContext(algebra, jets)))
    return np.broadcast_to(np.asarray(out.d1, dtype=float), (coords.shape[0],)).copy()


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
    ``(pow e p)``, ``(exp e)``, ``(log e)``.
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
        return build(op, args)

    def atom(tok: str) -> ScalarField:
        m = _VAR_RE.match(tok)
        if m:
            return Var(int(m.group(1)), int(m.group(2)))
        if _NUM_RE.match(tok):
            return Const(float(tok))
        if tok in params:
            return Const(float(params[tok]))
        raise ConfigError(f"unknown symbol {tok!r} (not a variable, number or parameter)")

    def build(op: str, args: list) -> ScalarField:
        if op == "+":
            if not args:
                raise ConfigError("(+) needs at least one argument")
            return args[0] if len(args) == 1 else Sum(*args)
        if op == "*":
            if not args:
                raise ConfigError("(*) needs at least one argument")
            return args[0] if len(args) == 1 else Prod(*args)
        if op == "-":
            if len(args) == 1:
                return Prod(Const(-1.0), args[0])
            if len(args) == 2:
                return Sum(args[0], Prod(Const(-1.0), args[1]))
            raise ConfigError("(-) takes one or two arguments")
        if op == "pow":
            if len(args) != 2 or not isinstance(args[1], Const):
                raise ConfigError("(pow f p) needs a field and a numeric exponent")
            return Pow(args[0], args[1].value)
        if op == "exp":
            if len(args) != 1:
                raise ConfigError("(exp f) takes one argument")
            return Exp(args[0])
        if op == "log":
            if len(args) != 1:
                raise ConfigError("(log f) takes one argument")
            return Log(args[0])
        raise ConfigError(f"unknown operator {op!r}")

    out = parse()
    if pos != len(tokens):
        raise ConfigError(f"trailing tokens in field expression {expr!r}")
    return out


def to_expr(f: ScalarField) -> str:
    """Render a field back into the prefix mini-language."""
    if isinstance(f, Const):
        return repr(f.value)
    if isinstance(f, Var):
        return f"x_{f.j}_{f.k}"
    if isinstance(f, Sum):
        return "(+ " + " ".join(to_expr(c) for c in f.children) + ")"
    if isinstance(f, Prod):
        return "(* " + " ".join(to_expr(c) for c in f.children) + ")"
    if isinstance(f, Pow):
        return f"(pow {to_expr(f.base)} {f.p!r})"
    if isinstance(f, Exp):
        return f"(exp {to_expr(f.arg)})"
    if isinstance(f, Log):
        return f"(log {to_expr(f.arg)})"
    if isinstance(f, Dilated):
        return f"(dilated {to_expr(f.inner)} {f.t!r})"
    raise TypeError(f"unknown field node {type(f)!r}")
