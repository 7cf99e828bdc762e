"""First-order forward-mode differentiation with nestable dual numbers ("jets").

A Jet holds a smooth quantity's value and its first partial derivatives with
respect to n variables, coeffs = (value, d_1, ..., d_n).  Arithmetic on jets
applies the sum, product and chain rules once, so evaluating a function
written with generic arithmetic (+, -, *, /, jet_exp, ...) on coordinate jets
yields its gradient.

Coefficients may themselves be Jets.  Differentiating a map whose arguments
are already jets gives jets of derivatives, which is how `partial_map` builds
partial derivatives that stay differentiable, and how each backstep of the
synthesis takes one more derivative of the previous stage: derivatives of
order k come from k nested first-order jets.

Coefficients may also be numpy arrays.  A jet whose innermost values are
arrays of N points carries N gradients at once (vector forward mode), so one
evaluation of a map on array coordinates differentiates it at every sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class JetShapeError(ValueError):
    """Raised when jets over different numbers of variables are combined."""


class Jet:
    """Value and first partials (value, d_1, ..., d_n) of a smooth quantity."""

    __slots__ = ("coeffs",)
    # an array on the left of an operator defers to the Jet's reflected
    # method instead of building an object array of jets
    __array_ufunc__ = None

    def __init__(self, coeffs: tuple):
        self.coeffs = coeffs

    def scale(self, factor) -> "Jet":
        """Multiply every coefficient by a scalar (which may be a coarser Jet)."""
        return Jet(tuple(factor * c for c in self.coeffs))

    def _check(self, other: "Jet") -> None:
        if len(other.coeffs) != len(self.coeffs):
            raise JetShapeError(
                f"jet shape mismatch: {len(self.coeffs) - 1} vs "
                f"{len(other.coeffs) - 1} variables"
            )

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
        return Jet((self.coeffs[0] + other,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return Jet(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            a, b = self.coeffs, other.coeffs
            a0, b0 = a[0], b[0]
            return Jet(
                (a0 * b0,) + tuple(a0 * bi + ai * b0 for ai, bi in zip(a[1:], b[1:]))
            )
        return self.scale(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * jet_recip(other)
        return self.scale(1.0 / other)

    def __rtruediv__(self, other):
        return jet_recip(self) * other

    def __pow__(self, p):
        return jet_pow_int(self, p)


def variables(point: Sequence) -> tuple[Jet, ...]:
    """Coordinate jets at `point`: the i-th has value point[i] and tangent e_i."""
    n = len(point)
    return tuple(
        Jet((v,) + tuple(1.0 if j == i else 0.0 for j in range(n)))
        for i, v in enumerate(point)
    )


def _constant(value, like: Jet) -> Jet:
    """A jet with the given value and zero tangent, shaped like `like`."""
    return Jet((value,) + (0.0,) * (len(like.coeffs) - 1))


def scalar_value(x):
    """Innermost value of a possibly nested jet (a number or an array)."""
    while isinstance(x, Jet):
        x = x.coeffs[0]
    return x


def jet_exp(a):
    """exp; overflow of a plain number or an array entry gives inf."""
    if isinstance(a, np.ndarray):
        with np.errstate(over="ignore"):
            return np.exp(a)
    if not isinstance(a, Jet):
        try:
            return math.exp(a)
        except OverflowError:
            return math.inf
    e = jet_exp(a.coeffs[0])
    return Jet((e,) + tuple(e * ai for ai in a.coeffs[1:]))


def jet_recip(a):
    """Multiplicative inverse 1/a; requires a nonzero value coefficient."""
    if not isinstance(a, Jet):
        return 1.0 / a
    inv = jet_recip(a.coeffs[0])
    slope = -1.0 * (inv * inv)
    return Jet((inv,) + tuple(slope * ai for ai in a.coeffs[1:]))


def jet_pow_int(a, p: int):
    """Integer power by repeated squaring; negative powers via reciprocal."""
    if not isinstance(a, Jet):
        return float(a) ** p
    if p < 0:
        return jet_recip(jet_pow_int(a, -p))
    result = _constant(1.0, a)
    base = a
    while p:
        if p & 1:
            result = result * base
        base = base * base if p > 1 else base
        p >>= 1
    return result


def jet_relu_plus(a):
    """Positive part max(a, 0). Derivative at exactly 0 is taken as 0.

    On arrays, and on jets whose innermost value is an array, the choice is
    made per entry; a nan value gives nan for a plain number or array and
    the zero jet for a jet, as it does per point.
    """
    if isinstance(a, np.ndarray):
        return np.where(a < 0.0, 0.0, a)
    if not isinstance(a, Jet):
        return max(a, 0.0)
    positive = scalar_value(a) > 0.0
    if isinstance(positive, np.ndarray):
        return _where(positive, a)
    if positive:
        return a
    return _constant(0.0, a)


def _where(mask: np.ndarray, a):
    """a where mask holds and 0 elsewhere, through every nested coefficient."""
    if isinstance(a, Jet):
        return Jet(tuple(_where(mask, c) for c in a.coeffs))
    return np.where(mask, a, 0.0)


@dataclass(frozen=True)
class SmoothMap:
    """A smooth function R^arity -> R^codim evaluable on floats or jets.

    `fn` must be written with generic arithmetic (+, -, *, /, jet_exp, ...) so
    that feeding jets propagates derivatives.
    """

    arity: int
    fn: Callable = field(repr=False)
    codim: int = 1
    name: str = ""

    def __call__(self, *args):
        if len(args) != self.arity:
            raise ValueError(
                f"{self.name or 'SmoothMap'}: expected {self.arity} arguments, "
                f"got {len(args)}"
            )
        return self.fn(*args)


def gradient(f: SmoothMap, point: Sequence) -> tuple:
    """Exact first-order partials of a scalar-valued map at a point.

    Coordinates may be arrays of sample values (one column per coordinate);
    each partial is then an array of the broadcast batch shape, and a float
    (numpy scalar) when every coordinate is a number.
    """
    if f.codim != 1:
        raise ValueError("gradient requires a scalar-valued map")
    if len(point) != f.arity:
        raise ValueError(f"expected {f.arity} coordinates, got {len(point)}")
    out = f(*variables(point))
    # constant maps may return a bare number
    partials = out.coeffs[1:] if isinstance(out, Jet) else (0.0,) * len(point)
    shape = np.broadcast_shapes(*(np.shape(v) for v in point))
    return tuple(np.broadcast_to(np.asarray(c, float), shape)[()] for c in partials)


def partial_map(f: SmoothMap, var_index: int) -> SmoothMap:
    """SmoothMap computing the partial derivative of scalar-valued `f`.

    Works by evaluating `f` on jets in a single inner variable whose values
    are the (possibly jet-valued) outer arguments, so the result itself
    remains jet-evaluable and can be differentiated again.
    """
    if f.codim != 1:
        raise ValueError("partial_map requires a scalar-valued map")
    if not 0 <= var_index < f.arity:
        raise ValueError(f"var_index {var_index} out of range for arity {f.arity}")

    def deriv(*args):
        out = f(*(Jet((a, 1.0 if i == var_index else 0.0)) for i, a in enumerate(args)))
        if isinstance(out, Jet):
            return out.coeffs[1]
        # f does not depend on its arguments at all
        return 0.0 * args[0] if isinstance(args[0], Jet) else 0.0

    return SmoothMap(
        f.arity, deriv, codim=1, name=f"d{var_index}({f.name})" if f.name else ""
    )
