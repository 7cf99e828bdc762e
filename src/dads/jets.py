"""Truncated multivariate Taylor arithmetic ("jets") for forward-mode differentiation.

A Jet stores the value and all partial derivatives (as Taylor coefficients) of a
smooth quantity up to a fixed total degree, for a fixed number of variables.
Coefficients are stored densely in graded lexicographic multi-index order.

Coefficients may themselves be Jets of another space, which is how nested
(higher-order through composition) differentiation of already-constructed smooth
maps is performed: see `partial_map`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Callable, Sequence


class JetShapeError(ValueError):
    """Raised when jets of incompatible (order, n_vars) are combined."""


class MaxOrderExceededError(ValueError):
    """Raised when a SmoothMap is evaluated at a jet order above its declared max."""


@lru_cache(maxsize=None)
def jet_space(n_vars: int, order: int) -> "JetSpace":
    """Shared, cached space of jets with `n_vars` variables truncated at `order`."""
    if n_vars < 1:
        raise ValueError(f"n_vars must be positive, got {n_vars}")
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    return JetSpace(n_vars, order)


def _monomials(n_vars: int, order: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for deg in range(order + 1):
        layer = [m for m in product(range(deg + 1), repeat=n_vars) if sum(m) == deg]
        layer.sort(reverse=True)  # within a degree: x1 before x2 before ...
        out.extend(layer)
    return tuple(out)


class JetSpace:
    """Coefficient layout and multiplication table for jets of one (n_vars, order)."""

    __slots__ = ("n_vars", "order", "monomials", "index", "_mul_pairs")

    def __init__(self, n_vars: int, order: int):
        self.n_vars = n_vars
        self.order = order
        self.monomials = _monomials(n_vars, order)
        self.index = {m: i for i, m in enumerate(self.monomials)}
        # _mul_pairs[k] lists the coefficient index pairs (i, j) with
        # monomial_i * monomial_j == monomial_k.
        pairs: list[list[tuple[int, int]]] = [[] for _ in self.monomials]
        for i, mi in enumerate(self.monomials):
            for j, mj in enumerate(self.monomials):
                s = tuple(a + b for a, b in zip(mi, mj))
                if sum(s) <= order:
                    pairs[self.index[s]].append((i, j))
        self._mul_pairs = tuple(tuple(p) for p in pairs)

    def __len__(self) -> int:
        return len(self.monomials)

    def constant(self, value) -> "Jet":
        coeffs = [0.0] * len(self.monomials)
        coeffs[0] = value
        return Jet(self, tuple(coeffs))

    def variable(self, value, var_index: int) -> "Jet":
        if not 0 <= var_index < self.n_vars:
            raise ValueError(
                f"var_index {var_index} out of range for {self.n_vars} variables"
            )
        coeffs = [0.0] * len(self.monomials)
        coeffs[0] = value
        if self.order >= 1:
            unit = tuple(1 if i == var_index else 0 for i in range(self.n_vars))
            coeffs[self.index[unit]] = 1.0
        return Jet(self, tuple(coeffs))

    def variables(self, point: Sequence) -> tuple["Jet", ...]:
        if len(point) != self.n_vars:
            raise JetShapeError(f"expected {self.n_vars} values, got {len(point)}")
        return tuple(self.variable(v, i) for i, v in enumerate(point))


@dataclass(frozen=True)
class Jet:
    """Taylor coefficients of a smooth quantity, truncated at the space's order."""

    space: JetSpace
    coeffs: tuple

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def n_vars(self) -> int:
        return self.space.n_vars

    @property
    def value(self):
        return self.coeffs[0]

    def coeff(self, multi_index: tuple[int, ...]):
        return self.coeffs[self.space.index[tuple(multi_index)]]

    def scale(self, factor) -> "Jet":
        """Multiply every coefficient by a scalar (which may be a coarser Jet)."""
        return Jet(self.space, tuple(factor * c for c in self.coeffs))

    def truncate(self, order: int) -> "Jet":
        """Discard coefficients of total degree above `order`."""
        if order > self.space.order:
            raise JetShapeError(f"cannot truncate order {self.space.order} up to {order}")
        target = jet_space(self.space.n_vars, order)
        return Jet(target, tuple(self.coeffs[: len(target)]))

    def _check(self, other: "Jet") -> None:
        if other.space is not self.space and (
            other.space.n_vars != self.space.n_vars
            or other.space.order != self.space.order
        ):
            raise JetShapeError(
                f"jet shape mismatch: ({self.space.n_vars} vars, order "
                f"{self.space.order}) vs ({other.space.n_vars} vars, order "
                f"{other.space.order})"
            )

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.space, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] + other
        return Jet(self.space, tuple(coeffs))

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            a, b = self.coeffs, other.coeffs
            out = []
            for pairs in self.space._mul_pairs:
                acc = 0.0
                for i, j in pairs:
                    acc = acc + a[i] * b[j]
                out.append(acc)
            return Jet(self.space, tuple(out))
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

    def __repr__(self):
        parts = ", ".join(f"{m}: {c}" for m, c in zip(self.space.monomials, self.coeffs))
        return f"Jet({{{parts}}})"


def scalar_value(x) -> float:
    """Innermost numeric value of a possibly nested jet."""
    while isinstance(x, Jet):
        x = x.coeffs[0]
    return float(x)


def _compose(a: Jet, series: list) -> Jet:
    """Evaluate sum_k series[k] * (a - a0)^k where series[k] = f^(k)(a0) / k!.

    Coefficient types stay generic (floats or coarser jets), so cross-space
    operator dispatch is avoided by building coefficient tuples directly.
    """
    head = [0.0] * len(a.space.monomials)
    head[0] = series[0]
    acc = Jet(a.space, tuple(head))
    w = Jet(a.space, (0.0,) + tuple(a.coeffs[1:]))  # nilpotent part of a
    w_pow = None
    for k in range(1, a.space.order + 1):
        w_pow = w if w_pow is None else w_pow * w
        acc = acc + w_pow.scale(series[k])
    return acc


def jet_exp(a):
    """exp, elementwise through the truncated Taylor expansion."""
    if not isinstance(a, Jet):
        try:
            return math.exp(a)
        except OverflowError:
            return math.inf
    e = jet_exp(a.coeffs[0])
    series = [e * (1.0 / math.factorial(k)) for k in range(a.space.order + 1)]
    return _compose(a, series)


def jet_recip(a):
    """Multiplicative inverse 1/a; requires a nonzero value coefficient."""
    if not isinstance(a, Jet):
        return 1.0 / a
    inv = jet_recip(a.coeffs[0])
    series = []
    p = inv
    for k in range(a.space.order + 1):
        series.append(p if k % 2 == 0 else -1.0 * p)
        p = p * inv
    return _compose(a, series)


def jet_pow_int(a, p: int):
    """Integer power by repeated squaring; negative powers via reciprocal."""
    if not isinstance(a, Jet):
        return float(a) ** p
    if p < 0:
        return jet_recip(jet_pow_int(a, -p))
    result = a.space.constant(1.0)
    base = a
    while p:
        if p & 1:
            result = result * base
        base = base * base if p > 1 else base
        p >>= 1
    return result


def jet_relu_plus(a):
    """Positive part max(a, 0). Derivative at exactly 0 is taken as 0."""
    if not isinstance(a, Jet):
        return max(a, 0.0)
    if scalar_value(a) > 0.0:
        return a
    return a.space.constant(0.0)


_UNLIMITED = 10**9


@dataclass(frozen=True)
class SmoothMap:
    """A smooth function R^arity -> R^codim evaluable on floats or jets.

    `fn` must be written with generic arithmetic (+, -, *, /, jet_exp, ...) so
    that feeding jets propagates derivatives. Evaluation at jet orders above
    `max_order` is rejected rather than silently truncated.
    """

    arity: int
    fn: Callable = field(repr=False)
    codim: int = 1
    max_order: int = _UNLIMITED
    name: str = ""

    def __call__(self, *args):
        if len(args) != self.arity:
            raise ValueError(
                f"{self.name or 'SmoothMap'}: expected {self.arity} arguments, "
                f"got {len(args)}"
            )
        return self.fn(*args)

    def eval_jets(self, jets: Sequence[Jet]):
        """Evaluate on jets from a single space, enforcing the order budget."""
        space = jets[0].space
        if space.order > self.max_order:
            raise MaxOrderExceededError(
                f"{self.name or 'SmoothMap'}: jet order {space.order} exceeds "
                f"declared max_order {self.max_order}"
            )
        return self(*jets)


def smooth_map(arity: int, codim: int = 1, max_order: int = _UNLIMITED, name: str = ""):
    """Decorator wrapping a generic-arithmetic function as a SmoothMap."""

    def wrap(fn):
        return SmoothMap(arity, fn, codim=codim, max_order=max_order, name=name or fn.__name__)

    return wrap


def gradient(f: SmoothMap, point: Sequence[float]) -> tuple[float, ...]:
    """Exact first-order partials of a scalar-valued map via order-1 jets."""
    if f.codim != 1:
        raise ValueError("gradient requires a scalar-valued map")
    if len(point) != f.arity:
        raise ValueError(f"expected {f.arity} coordinates, got {len(point)}")
    space = jet_space(f.arity, 1)
    out = f.eval_jets(space.variables(point))
    if isinstance(out, Jet):
        return tuple(float(c) for c in out.coeffs[1:])
    return tuple(0.0 for _ in point)  # constant maps may return a bare number


def value_and_gradient(f: SmoothMap, point: Sequence[float]):
    space = jet_space(f.arity, 1)
    out = f.eval_jets(space.variables(point))
    if isinstance(out, Jet):
        return float(out.coeffs[0]), tuple(float(c) for c in out.coeffs[1:])
    return float(out), tuple(0.0 for _ in point)


def partial_map(f: SmoothMap, var_index: int) -> SmoothMap:
    """SmoothMap computing the partial derivative of scalar-valued `f`.

    Works by evaluating `f` on order-1 jets in a single inner variable whose
    coefficients are the (possibly jet-valued) outer arguments, so the result
    itself remains jet-evaluable; each nesting level consumes one order from
    the max_order budget.
    """
    if f.codim != 1:
        raise ValueError("partial_map requires a scalar-valued map")
    if not 0 <= var_index < f.arity:
        raise ValueError(f"var_index {var_index} out of range for arity {f.arity}")
    inner = jet_space(1, 1)

    def deriv(*args):
        lifted = []
        for i, a in enumerate(args):
            tangent = 1.0 if i == var_index else 0.0
            lifted.append(Jet(inner, (a, tangent)))
        out = f(*lifted)
        if isinstance(out, Jet) and out.space is inner:
            return out.coeffs[1]
        # f does not depend on its arguments at all
        zero = 0.0 * args[0] if isinstance(args[0], Jet) else 0.0
        return zero

    return SmoothMap(
        f.arity,
        deriv,
        codim=1,
        max_order=f.max_order - 1,
        name=f"d{var_index}({f.name})" if f.name else "",
    )
