"""First-order forward-mode differentiation with nestable dual numbers ("jets").

A Jet holds a smooth quantity's value and its first partial derivatives with
respect to n variables, coeffs = (value, d_1, ..., d_n).  Arithmetic on jets
applies the sum, product and chain rules once, so evaluating a function
written with generic arithmetic (+, -, *, /, jet_exp, ...) on coordinate jets
yields its gradient.

Coefficients may themselves be Jets.  Differentiating a map whose arguments
are already jets gives jets of derivatives: `partials` returns every first
partial of a map, from one evaluation, as a map that stays differentiable,
and each backstep of the synthesis takes one more derivative of the previous
stage that way.  Derivatives of order k come from k nested first-order jets.

Coefficients may also be numpy arrays.  A jet whose innermost values are
arrays of N points carries N gradients at once (vector forward mode), so one
evaluation of a map on array coordinates differentiates it at every sample.

`norm_sq` and `as_tuple` are the generic helpers the laws, the plant, the
synthesis and the checks share: a sum of squares in any of these arithmetics,
and a map's output as a sequence.

The same operator-overloading idiom records instead of computing: arithmetic
on `Traced` values appends one line per distinct operation to a `Tape`
(the "tape" of Griewank & Walther, Evaluating Derivatives, ch. 3), and the
tape compiles its lines as straight-line Python code on floats.
"""

from __future__ import annotations

import math
import struct
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


def jet_exp(a):
    """exp; overflow of a plain number or an array entry gives inf."""
    if isinstance(a, Traced):
        # math.exp overflows only above 709.78
        return a.tape.record("(exp({0}) if {0} < 709.0 else jet_exp({0}))", a)
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


def jet_cos(a):
    """cos of a number, nan at +-inf as numpy gives; on a Traced value it
    records that as one inline expression.  The disturbance signals are its
    only callers."""
    if isinstance(a, Traced):
        return a.tape.record("(cos({0}) if -inf < {0} < inf else nan)", a)
    return _float_cos(a)


def jet_recip(a):
    """Multiplicative inverse 1/a; requires a nonzero value coefficient."""
    if not isinstance(a, Jet):
        return 1.0 / a
    inv = jet_recip(a.coeffs[0])
    slope = -1.0 * (inv * inv)
    return Jet((inv,) + tuple(slope * ai for ai in a.coeffs[1:]))


def jet_pow_int(a: Jet, p: int) -> Jet:
    """Integer power of a jet by repeated squaring; negative powers via reciprocal."""
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
    """Positive part max(a, 0) of a number, an array (per entry) or a traced
    value.  It evaluates the kink and does not differentiate it: no jet
    passes through it, and a Jet raises TypeError from the float comparison.
    A nan gives nan.
    """
    if isinstance(a, Traced):
        # max(a, 0.0) keeps a unless 0.0 > a, so -0.0 and nan stay a
        return a.tape.record("(0.0 if 0.0 > {0} else {0})", a)
    if isinstance(a, np.ndarray):
        return np.where(a < 0.0, 0.0, a)
    return max(a, 0.0)


def norm_sq(values):
    """Sum of squares, in generic arithmetic (numbers, jets or sample columns)."""
    acc = 0.0
    for v in values:
        acc = acc + v * v
    return acc


def as_tuple(out):
    """A map's output as a sequence: a scalar-valued map may return a bare value."""
    return out if isinstance(out, (tuple, list)) else (out,)


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


def partials(f: SmoothMap) -> SmoothMap:
    """Every first partial of scalar-valued `f`, as a map of codim = arity.

    One evaluation of `f` on `variables` gives them all.  On jet arguments
    the partials are jets again, so they nest; on arrays, one per sample.
    """
    if f.codim != 1:
        raise ValueError("partials requires a scalar-valued map")

    def deriv(*args):
        out = f(*variables(args))
        # constant maps may return a bare number
        return out.coeffs[1:] if isinstance(out, Jet) else (0.0,) * f.arity

    return SmoothMap(f.arity, deriv, codim=f.arity, name=f"d({f.name})" if f.name else "")


def gradient(f: SmoothMap, point: Sequence) -> tuple:
    """Exact first-order partials of a scalar-valued map at a point.

    Coordinates may be arrays of sample values (one column per coordinate);
    each partial is then an array of the broadcast batch shape, and a float
    (numpy scalar) when every coordinate is a number.
    """
    if len(point) != f.arity:
        raise ValueError(f"expected {f.arity} coordinates, got {len(point)}")
    shape = np.broadcast_shapes(*(np.shape(v) for v in point))
    return tuple(np.broadcast_to(np.asarray(c, float), shape)[()] for c in partials(f)(*point))


class Tape:
    """A straight-line program recorded by arithmetic on `Traced` values.

    Each distinct operation appends one line `vK = rhs` in the order the
    traced code first performs it; an operation whose right-hand side was
    recorded already returns the earlier value, which is the same float
    because every recorded operation is a pure function of its operands.  A
    caller makes the inputs as `Traced(tape, name)`, writes a function around
    the lines, in tape order, and turns it into code with `compile`.  The
    source holds generated names and float literals only: constants are
    written with `repr`, which round-trips, and the non-finite ones, which
    have no literal, are bound as c + their bits in hex, once per value.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.constants: dict[str, float] = {}
        self._recorded: dict[str, Traced] = {}

    def operand(self, x) -> str:
        """The source text of a traced value (its name) or of a number."""
        if isinstance(x, Traced):
            return x.name
        if isinstance(x, (int, np.integer)):
            text = repr(int(x))
        elif isinstance(x, (float, np.floating)):
            x = float(x)
            if not math.isfinite(x):
                name = "c" + struct.pack(">d", x).hex()
                self.constants[name] = x
                return name
            text = repr(x)
        else:
            raise TypeError(f"cannot trace a value of type {type(x).__name__}")
        return f"({text})" if text.startswith("-") else text

    def record(self, template: str, *operands) -> "Traced":
        """The value of template(operands): vK, from a line appended unless
        the same right-hand side was recorded before."""
        rhs = template.format(*map(self.operand, operands))
        out = self._recorded.get(rhs)
        if out is None:
            out = self._recorded[rhs] = Traced(self, f"v{len(self.lines)}")
            self.lines.append(f"{out.name} = {rhs}")
        return out

    def compile(self, source: str, name: str, namespace: dict) -> Callable:
        """Execute `source` and return the function it defines as `name`.

        The recorded lines compute exp, cos, the positive part and integer
        powers inline on floats, and call jet_exp and _pow only where those
        would overflow, so the overflow and kink semantics stay theirs.
        """
        scope = {**namespace, **self.constants, "exp": math.exp, "cos": math.cos,
                 "inf": math.inf, "nan": math.nan, "jet_exp": jet_exp,
                 "_pow": _float_pow, "_div": _float_div}
        exec(compile(source, f"<traced {name}>", "exec"), scope)
        return scope[name]


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating))


def _float_pow(a, b):
    """a ** b with numpy's float64 result where Python's float power raises
    (overflow, zero to a negative power) or turns complex."""
    try:
        r = a ** b
    except (OverflowError, ZeroDivisionError):
        return np.float64(a) ** b
    return np.float64(a) ** b if isinstance(r, complex) else r


def _float_cos(a):
    """math.cos, with numpy's nan at +-inf, where math.cos raises."""
    try:
        return math.cos(a)
    except ValueError:
        return math.nan


def _float_div(a, b):
    """a / b with numpy's float64 result (inf or nan) where Python's raises."""
    try:
        return a / b
    except ZeroDivisionError:
        return np.float64(a) / b


def _refusing(operation: str):
    """A Traced method that raises: `operation` would read the traced value."""

    def refuse(self, *args):
        raise TypeError(
            f"cannot trace {operation} of a traced value ({self.name}): the law "
            "must be generic arithmetic, without branches on the data"
        )

    return refuse


class Traced:
    """A value on a Tape: arithmetic on it records code instead of computing.

    It supports the generic arithmetic SmoothMap laws are written in: + - * /
    **, negation, jet_exp, jet_cos and jet_relu_plus.  Exactly four
    identities are folded, x + 0.0, 0.0 + x, 1.0 * x and x * 1.0 (which at
    most change the sign of a zero); 0.0 * x is kept so that nan and inf
    propagate.  A formula that wants no zero-weighted term leaves it out
    itself, for floats and traced values alike, as the plant's dot products
    and the sigma-modification leak do.  Anything that reads the value
    raises TypeError: a truth test, a comparison, float(), int(), use as an
    index, a numpy ufunc.  A branch on the data can therefore not be frozen
    into the trace.
    """

    __slots__ = ("tape", "name")
    # numpy defers to the reflected operator, and ufuncs refuse the operand
    __array_ufunc__ = None

    def __init__(self, tape: Tape, name: str):
        self.tape = tape
        self.name = name

    def _binary(self, other, op: str, identity=None, reflected=False):
        if not isinstance(other, Traced):
            if not _is_number(other):
                return NotImplemented
            if identity is not None and other == identity:
                return self
        a, b = (other, self) if reflected else (self, other)
        return self.tape.record(op, a, b)

    def __add__(self, other):
        return self._binary(other, "{} + {}", identity=0.0)

    def __radd__(self, other):
        return self._binary(other, "{} + {}", identity=0.0, reflected=True)

    def __sub__(self, other):
        return self._binary(other, "{} - {}")

    def __rsub__(self, other):
        return self._binary(other, "{} - {}", reflected=True)

    def __mul__(self, other):
        return self._binary(other, "{} * {}", identity=1.0)

    def __rmul__(self, other):
        return self._binary(other, "{} * {}", identity=1.0, reflected=True)

    def __truediv__(self, other):
        # Python's float division raises on a zero divisor, numpy's does not
        if _is_number(other) and other != 0:
            return self._binary(other, "{} / {}")
        return self._binary(other, "_div({}, {})")

    def __rtruediv__(self, other):
        return self._binary(other, "_div({}, {})", reflected=True)

    def __pow__(self, other):
        if isinstance(other, (int, np.integer)) and other > 0:
            # below 2 ** (1023 // p) in magnitude, x ** p cannot overflow
            bound = repr(2.0 ** (1023 // int(other)))
            return self._binary(
                other, f"({{0}} ** {{1}} if -{bound} < {{0}} < {bound} else _pow({{0}}, {{1}}))")
        return self._binary(other, "_pow({}, {})")

    def __rpow__(self, other):
        return self._binary(other, "_pow({}, {})", reflected=True)

    def __neg__(self):
        return self.tape.record("-{}", self)

    __bool__ = _refusing("a truth test")
    __lt__ = _refusing("the comparison <")
    __le__ = _refusing("the comparison <=")
    __gt__ = _refusing("the comparison >")
    __ge__ = _refusing("the comparison >=")
    __eq__ = _refusing("the comparison ==")
    __ne__ = _refusing("the comparison !=")
    __float__ = _refusing("float()")
    __int__ = _refusing("int()")
    __index__ = _refusing("use as an index")
