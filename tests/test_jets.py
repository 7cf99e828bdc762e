"""Tests for the first-order (dual-number) jet arithmetic and its nesting."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dads.jets import (
    Jet,
    JetShapeError,
    SmoothMap,
    Tape,
    Traced,
    _float_pow,
    gradient,
    jet_cos,
    jet_exp,
    jet_pow_int,
    jet_recip,
    jet_relu_plus,
    partials,
    variables,
)


def central_diff(f, point, i, h=1e-6):
    lo = list(point)
    hi = list(point)
    lo[i] -= h
    hi[i] += h
    return (f(*hi) - f(*lo)) / (2.0 * h)


def partial(f, i):
    """The map of df / dx_i: component i of `partials`."""
    df = partials(f)
    return SmoothMap(f.arity, lambda *a: df(*a)[i])


def second(f, i=0, j=0):
    """The map of d^2 f / dx_i dx_j, by nesting partials."""
    return partial(partial(f, i), j)


class TestLift:
    def test_coordinate_jet(self):
        x, y = variables((3.0, -1.0))
        assert x.coeffs == (3.0, 1.0, 0.0)
        assert y.coeffs == (-1.0, 0.0, 1.0)

    def test_no_curvature(self):
        # a coordinate's second derivative, taken by nesting, is zero
        f = SmoothMap(3, lambda x1, x2, x3: x2)
        for i in range(3):
            for j in range(3):
                assert second(f, i, j)(0.2, -0.5, 1.0) == 0.0

    def test_coeff_count(self):
        for n_vars in (1, 2, 4):
            for j in variables((0.0,) * n_vars):
                assert len(j.coeffs) == n_vars + 1


class TestArithmetic:
    def test_square_of_coordinate(self):
        (x,) = variables((2.0,))
        assert (x * x).coeffs == (4.0, 4.0)
        assert second(SmoothMap(1, lambda x: x * x))(2.0) == 2.0

    def test_multiplicative_identity(self):
        x, y = variables((1.3, -0.7))
        a = x * y + 2.0
        one = Jet((1.0, 0.0, 0.0))
        assert (a * one).coeffs == a.coeffs

    def test_product_rule(self):
        x, y = variables((1.0, -0.5))
        xy = x * y
        assert xy.coeffs == (-0.5, -0.5, 1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(JetShapeError):
            variables((1.0, 0.0))[0] * variables((1.0, 0.0, 0.0))[0]
        with pytest.raises(JetShapeError):
            variables((1.0, 0.0))[0] + variables((1.0,))[0]

    def test_division(self):
        (x,) = variables((2.0,))
        r = 1.0 / x
        assert r.coeffs[0] == pytest.approx(0.5)
        assert r.coeffs[1] == pytest.approx(-0.25)
        # (1/x)'' = 2/x^3
        assert second(SmoothMap(1, lambda x: 1.0 / x))(2.0) == pytest.approx(0.25)

    def test_degree_zero_matches_scalar_ops(self):
        a, b = variables((1.7, -2.2))
        assert (a + b).coeffs[0] == 1.7 + -2.2
        assert (a - b).coeffs[0] == 1.7 - -2.2
        assert (a * b).coeffs[0] == 1.7 * -2.2
        assert (a / b).coeffs[0] == pytest.approx(1.7 / -2.2)


class TestElementaries:
    def test_relu_of_a_jet_raises(self):
        # the positive part evaluates the deadzone's kink; only smooth maps
        # are differentiated, so no jet passes through it
        for point in (-1.0, 0.0, 0.3, np.array([-1.0, 2.0])):
            (j,) = variables((point,))
            with pytest.raises(TypeError):
                jet_relu_plus(j)

    def test_exp_of_zero(self):
        assert jet_exp(Jet((0.0, 0.0))).coeffs == (1.0, 0.0)

    def test_exp_derivatives(self):
        (x,) = variables((0.7,))
        e = jet_exp(x)
        v = math.exp(0.7)
        assert e.coeffs[0] == pytest.approx(v)
        assert e.coeffs[1] == pytest.approx(v)
        f = SmoothMap(1, jet_exp)
        assert second(f)(0.7) == pytest.approx(v)
        assert partial(second(f), 0)(0.7) == pytest.approx(v)

    def test_pow_int(self):
        (x,) = variables((1.0,))
        p = jet_pow_int(x, 4)
        assert p.coeffs == (1.0, 4.0)

    def test_negative_power(self):
        (x,) = variables((2.0,))
        p = x ** -2
        assert p.coeffs[0] == pytest.approx(0.25)
        assert p.coeffs[1] == pytest.approx(-0.25)

    def test_recip_scalar(self):
        assert jet_recip(4.0) == 0.25

    def test_cos_is_nan_at_infinity_as_in_numpy(self):
        # math.cos raises at +-inf
        assert jet_cos(0.5) == math.cos(0.5)
        with np.errstate(invalid="ignore"):
            for x in (math.inf, -math.inf, math.nan):
                assert math.isnan(jet_cos(x)) and np.isnan(np.cos(x))


class TestGradient:
    def test_sum_of_squares(self):
        f = SmoothMap(2, lambda x1, x2: x1 * x1 + x2 * x2)
        assert gradient(f, (1.0, -0.5)) == pytest.approx((2.0, -1.0))

    def test_constant_map(self):
        f = SmoothMap(3, lambda *a: 7.0)
        assert gradient(f, (1.0, 2.0, 3.0)) == (0.0, 0.0, 0.0)

    def test_quartic_matches_fd(self):
        f = SmoothMap(2, lambda x1, x2: 1.0 + x1 ** 4 + x2 ** 4)
        g = gradient(f, (1.0, -0.5))
        assert g == pytest.approx((4.0, -0.5))
        for i in range(2):
            fd = central_diff(lambda *a: float(f(*a)), (1.0, -0.5), i)
            assert g[i] == pytest.approx(fd, rel=1e-6)

    def test_arity_mismatch(self):
        f = SmoothMap(2, lambda x, y: x + y)
        with pytest.raises(ValueError):
            gradient(f, (1.0,))


class TestArrayCoefficients:
    """Array coordinates give the gradient at every sample at once."""

    @staticmethod
    def f(x, y):
        return jet_exp(x * y) + (x - 1.0) ** 3 * y * y + 1.0 / (2.0 + y * y)

    def test_gradient_matches_per_point(self):
        xs = np.array([-1.5, 0.0, 0.5, 1.0, 2.0])
        ys = np.array([0.3, -2.0, 1.0, 4.0, -0.5])
        fmap = SmoothMap(2, self.f)
        batched = gradient(fmap, (xs, ys))
        assert all(g.shape == xs.shape for g in batched)
        for i, (x, y) in enumerate(zip(xs, ys)):
            per_point = gradient(fmap, (float(x), float(y)))
            assert (batched[0][i], batched[1][i]) == pytest.approx(per_point, rel=1e-15)

    def test_second_partial_matches_per_point(self):
        d2 = second(SmoothMap(2, self.f), 0, 1)
        xs, ys = np.array([-1.0, 0.5, 3.0]), np.array([2.0, -1.0, 0.25])
        batched = d2(xs, ys)
        for i in range(3):
            assert batched[i] == pytest.approx(d2(float(xs[i]), float(ys[i])), rel=1e-14)

    def test_relu_selects_per_entry(self):
        plain = jet_relu_plus(np.array([-1.0, math.nan, 3.0]))
        assert plain[0] == 0.0 and math.isnan(plain[1]) and plain[2] == 3.0

    def test_array_times_jet_is_a_jet(self):
        (x,) = variables((np.array([1.0, 2.0]),))
        out = np.array([3.0, 4.0]) * x
        assert isinstance(out, Jet)
        assert [list(c) for c in out.coeffs] == [[3.0, 8.0], [3.0, 4.0]]

    def test_constant_map_broadcasts_without_arithmetic(self):
        # the zero partials take the batch shape; a nan coordinate does not
        # turn them into nan
        g = gradient(SmoothMap(2, lambda x, y: 7.0), (np.array([1.0, math.nan]), 0.5))
        assert [list(v) for v in g] == [[0.0, 0.0], [0.0, 0.0]]

    def test_exp_overflow_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(jet_exp(np.array([0.0, 1e4]))) == [1.0, math.inf]


class TestPartialMap:
    """`partials`: every first partial of a map, as a map that nests."""

    def test_first_partial(self):
        f = SmoothMap(2, lambda x, y: x * x * y)
        dfx = partial(f, 0)
        assert float(dfx(3.0, 2.0)) == pytest.approx(12.0)

    def test_every_partial_from_one_evaluation(self):
        calls = []

        def f(x, y, z):
            calls.append(1)
            return x * x * y + jet_exp(z)

        df = partials(SmoothMap(3, f, name="f"))
        assert (df.arity, df.codim, df.name) == (3, 3, "d(f)")
        assert df(3.0, 2.0, 0.0) == (12.0, 9.0, 1.0)
        assert len(calls) == 1

    def test_scalar_valued_only(self):
        with pytest.raises(ValueError, match="scalar-valued"):
            partials(SmoothMap(2, lambda x, y: (x, y), codim=2))

    def test_nested_second_partial(self):
        f = SmoothMap(2, lambda x, y: x ** 3 * y + jet_exp(x))
        dxx = second(f)
        x, y = 0.8, -1.1
        assert float(dxx(x, y)) == pytest.approx(6.0 * x * y + math.exp(x), rel=1e-12)

    def test_mixed_partial(self):
        f = SmoothMap(2, lambda x, y: x * x * y * y)
        dxy = second(f, 0, 1)
        assert float(dxy(1.5, 2.5)) == pytest.approx(4.0 * 1.5 * 2.5)

    def test_partial_is_jet_evaluable(self):
        f = SmoothMap(2, lambda x, y: x * x * y)
        dfx = partial(f, 0)
        g = gradient(dfx, (3.0, 2.0))  # d/dx (2xy) = 2y, d/dy = 2x
        assert g == pytest.approx((4.0, 6.0))

    def test_depth3_gradient_of_second_partial(self):
        # three nested jet levels, as in the stage-3 backstep:
        # f_xx = 12 x^2 y + 4 e^{2x} y^2
        f = SmoothMap(2, lambda x, y: x ** 4 * y + jet_exp(2.0 * x) * y * y)
        x, y = 0.6, -1.3
        g = gradient(second(f), (x, y))
        e2x = math.exp(2.0 * x)
        expected = (24.0 * x * y + 8.0 * e2x * y * y, 12.0 * x * x + 8.0 * e2x * y)
        assert g == pytest.approx(expected, rel=1e-12)


class TestConsistency:
    def test_chain_rule(self):
        g = SmoothMap(1, lambda x: x * x + 1.0)
        f = SmoothMap(1, lambda y: jet_exp(y))
        composed = SmoothMap(1, lambda x: f(g(x)))
        x0 = 0.3
        jc = composed(*variables((x0,)))
        expected = math.exp(x0 * x0 + 1.0) * 2.0 * x0
        assert float(jc.coeffs[1]) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(-3.0, 3.0),
        st.floats(-3.0, 3.0),
        st.floats(-2.0, 2.0),
    )
    def test_grad_matches_fd_random(self, a, b, c):
        f = SmoothMap(3, lambda x, y, z: x * x * y + jet_exp(0.3 * z) * y + x * z)
        g = gradient(f, (a, b, c))
        for i in range(3):
            fd = central_diff(lambda *p: float(f(*p)), (a, b, c), i)
            assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_ring_axioms_order2(self, a, b):
        # first order on coordinate jets, second order by nesting
        x, y = variables((a, b))
        assert ((x + y) * (x - y)).coeffs == pytest.approx(
            (x * x - y * y).coeffs, abs=1e-12
        )
        lhs = SmoothMap(2, lambda x, y: (x + y) * (x - y))
        rhs = SmoothMap(2, lambda x, y: x * x - y * y)
        for i in range(2):
            for j in range(2):
                assert float(second(lhs, i, j)(a, b)) == pytest.approx(
                    float(second(rhs, i, j)(a, b)), abs=1e-12
                )


class TestSmoothMapDecorator:
    def test_arity_enforced(self):
        f = SmoothMap(2, lambda x, y: x + y)
        with pytest.raises(ValueError):
            f(1.0)


def _compiled(build, arity=1):
    """Trace build(*inputs) and compile it to f(x0, ..) -> result."""
    tape = Tape()
    xs = [Traced(tape, f"x{i}") for i in range(arity)]
    out = tape.operand(build(*xs))
    source = "\n    ".join([
        f"def f({', '.join(x.name for x in xs)}):",
        *tape.lines,
        f"return {out}",
    ])
    return tape, tape.compile(source, "f", {})


class TestTrace:
    def test_records_one_line_per_operation_in_order(self):
        tape, f = _compiled(lambda x, y: (x - 2.0) * y / 4.0 + 3.0 ** y, arity=2)
        assert list(map(str, tape.lines)) == [
            "v0 = x0 - 2.0", "v1 = v0 * x1", "v2 = v1 / 4.0",
            "v3 = _pow(3.0, x1)", "v4 = v2 + v3",
        ]
        assert f(1.5, -2.0) == (1.5 - 2.0) * -2.0 / 4.0 + 3.0 ** -2.0

    def test_folds_exactly_four_identities(self):
        tape, _ = _compiled(lambda x: 1.0 * (0.0 + x * 1.0 + 0.0) + 0.0 * x - 0.0)
        assert list(map(str, tape.lines)) == ["v0 = 0.0 * x0", "v1 = x0 + v0", "v2 = v1 - 0.0"]
        # 0.0 * x is kept, so nan and inf still reach the result
        f = _compiled(lambda x: 1.0 + 0.0 * x)[1]
        assert math.isnan(f(math.inf))

    def test_constants_round_trip(self):
        third = 1.0 / 3.0
        tape, f = _compiled(lambda x: -2.0 ** x + x * third + x * math.inf)
        assert "inf" not in "".join(map(str, tape.lines))  # bound by name, not a literal
        assert "(-2.0)" not in "".join(map(str, tape.lines))  # -2.0 ** x is -(2.0 ** x)
        assert f(0.5) == -2.0 ** 0.5 + 0.5 * third + 0.5 * math.inf
        tape, f = _compiled(lambda x: (-2.0) ** x * np.float64(third))
        assert f(2.0) == 4.0 * third

    def test_binds_each_non_finite_value_once(self):
        # a repeated value is one name, so the repeated product is one line
        tape, f = _compiled(lambda x: x * math.inf - x * math.inf)
        assert tape.lines == ["v0 = x0 * c7ff0000000000000", "v1 = v0 - v0"]
        assert math.isnan(f(1.0))
        # the name is the value's bits, so a nan keeps its sign
        tape = Tape()
        values = (math.inf, -math.inf, math.nan, -math.nan, math.inf, -math.nan)
        names = [tape.operand(v) for v in values]
        assert len(set(names)) == 4 == len(tape.constants)
        for name, v in zip(names, values):
            bound = tape.constants[name]
            assert np.array_equal(bound, v, equal_nan=True)
            assert math.copysign(1.0, bound) == math.copysign(1.0, v)

    def test_float_power_and_division_as_numpy(self):
        # Python's float ** and / raise where numpy's float64 gives inf
        f = _compiled(lambda x, y: x ** 3 + 1.0 / y + x / y, arity=2)[1]
        with np.errstate(all="ignore"):
            assert f(1e200, 1.0) == math.inf
            assert f(1.0, 0.0) == math.inf
            assert math.isnan(_compiled(lambda x: x ** 0.5)[1](-4.0))

    def test_records_each_right_hand_side_once(self):
        # the second x * y is the first one's value, and so is what is built
        # on it the same way; every recorded operation is pure
        tape, f = _compiled(lambda x, y: (x * y + 1.0) * (x * y + 1.0) - x * y, arity=2)
        assert list(map(str, tape.lines)) == [
            "v0 = x0 * x1", "v1 = v0 + 1.0", "v2 = v1 * v1", "v3 = v2 - v0"]
        assert f(1.5, -2.0) == (1.5 * -2.0 + 1.0) * (1.5 * -2.0 + 1.0) - 1.5 * -2.0

    def test_elementary_calls_keep_their_semantics(self):
        tape, f = _compiled(lambda x: jet_relu_plus(x) * jet_exp(x))
        assert list(map(str, tape.lines[:2])) == ["v0 = (0.0 if 0.0 > x0 else x0)",
                                  "v1 = (exp(x0) if x0 < 709.0 else jet_exp(x0))"]
        assert f(-1.0) == 0.0
        assert f(1000.0) == math.inf
        tape, f = _compiled(lambda x: jet_cos(2.0 * x))
        assert list(map(str, tape.lines)) == [
            "v0 = 2.0 * x0", "v1 = (cos(v0) if -inf < v0 < inf else nan)"]
        assert f(0.25) == math.cos(0.5)
        assert math.isnan(f(1e308))
        tape, f = _compiled(lambda x: x ** 4)
        assert list(map(str, tape.lines)) == [
            "v0 = (x0 ** 4 if -5.78960446186581e+76 < x0 < 5.78960446186581e+76 "
            "else _pow(x0, 4))"]

    def test_a_long_chain_of_temporaries_compiles(self):
        # every partial result is read once and is a statement of its own,
        # so the source nests no deeper than one line, however long the chain
        def chain(x):
            for k in range(1, 400):
                x = x * 0.5 + k
            return x

        tape, f = _compiled(chain)
        assert len(tape.lines) == 2 * 399
        assert f(0.3) == chain(0.3)

    @pytest.mark.parametrize("elementary, helper, points", [
        (jet_exp, jet_exp, [709.0, 709.78, 709.79, 710.0, math.inf, -math.inf,
                            math.nan, -745.2, -0.0]),
        (jet_cos, jet_cos, [math.inf, -math.inf, math.nan, 1e308, -0.0]),
        (jet_relu_plus, jet_relu_plus, [-0.0, 0.0, math.nan, -1.0, 2.0]),
        *((lambda x, p=p: x ** p, lambda x, p=p: _float_pow(x, p),
           [1e200, -1e200, 2.0 ** (1023 // p), -(2.0 ** (1023 // p)),
            np.nextafter(2.0 ** (1023 // p), 0.0), np.nextafter(2.0 * 2.0 ** (1023 // p), 0.0),
            1.7e308, math.inf, -math.inf, math.nan, -0.0, 1e-200, -3.0])
          for p in (1, 2, 3, 4, 7, 1024)),
    ], ids=["exp", "cos", "relu", "pow1", "pow2", "pow3", "pow4", "pow7", "pow1024"])
    def test_inline_elementary_functions_equal_the_float_helpers(self, elementary, helper,
                                                                   points):
        f = _compiled(elementary)[1]
        with np.errstate(all="ignore"):
            for x in map(float, points):
                got, want = f(x), helper(x)
                assert np.array_equal(got, want, equal_nan=True), (x, got, want)
                assert math.copysign(1.0, got) == math.copysign(1.0, want), (x, got, want)

    def test_traces_through_nested_jets(self):
        f = SmoothMap(2, lambda x, y: x * x * y + jet_exp(0.3 * y) / x)
        d1 = partial(f, 0)
        compiled = _compiled(d1, arity=2)[1]
        assert compiled(1.5, -0.5) == d1(1.5, -0.5)

    @pytest.mark.parametrize("read", [
        bool, float, int, lambda x: x < 0.0, lambda x: x == 1.0,
        lambda x: [1.0, 2.0][x], np.sin, lambda x: math.exp(x),
    ])
    def test_reading_the_value_raises(self, read):
        x = Traced(Tape(), "x")
        with pytest.raises(TypeError):
            read(x)

    def test_unsupported_operand_raises(self):
        x = Traced(Tape(), "x")
        with pytest.raises(TypeError):
            x + "a"
        with pytest.raises(TypeError):
            x * np.ones(2)
