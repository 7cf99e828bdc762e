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
    gradient,
    jet_exp,
    jet_pow_int,
    jet_recip,
    jet_relu_plus,
    partial_map,
    variables,
)


def central_diff(f, point, i, h=1e-6):
    lo = list(point)
    hi = list(point)
    lo[i] -= h
    hi[i] += h
    return (f(*hi) - f(*lo)) / (2.0 * h)


def second(f, i=0, j=0):
    """The map of d^2 f / dx_i dx_j, by nesting partial_map."""
    return partial_map(partial_map(f, i), j)


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

    def test_var_index_out_of_range(self):
        f = SmoothMap(2, lambda x, y: x * y)
        with pytest.raises(ValueError):
            partial_map(f, 2)
        with pytest.raises(ValueError):
            partial_map(f, -1)

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
    def test_relu_inactive(self):
        (j,) = variables((-1.0,))
        assert jet_relu_plus(j).coeffs == (0.0, 0.0)

    def test_relu_active_passthrough(self):
        (j,) = variables((0.3,))
        assert jet_relu_plus(j).coeffs == j.coeffs

    def test_relu_kink_derivative_zero(self):
        (j,) = variables((0.0,))
        assert jet_relu_plus(j).coeffs == (0.0, 0.0)

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
        assert partial_map(second(f), 0)(0.7) == pytest.approx(v)

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
        return jet_exp(x * y) + jet_relu_plus(x - 1.0) * y * y + 1.0 / (2.0 + y * y)

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
        d2 = partial_map(partial_map(SmoothMap(2, self.f), 0), 1)
        xs, ys = np.array([-1.0, 0.5, 3.0]), np.array([2.0, -1.0, 0.25])
        batched = d2(xs, ys)
        for i in range(3):
            assert batched[i] == pytest.approx(d2(float(xs[i]), float(ys[i])), rel=1e-14)

    def test_relu_selects_per_entry(self):
        x = np.array([-1.0, 2.0, 0.0])
        (out,) = [jet_relu_plus(v) for v in variables((x,))]
        assert list(out.coeffs[0]) == [0.0, 2.0, 0.0]
        assert list(out.coeffs[1]) == [0.0, 1.0, 0.0]
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
    def test_first_partial(self):
        f = SmoothMap(2, lambda x, y: x * x * y)
        dfx = partial_map(f, 0)
        assert float(dfx(3.0, 2.0)) == pytest.approx(12.0)

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
        dfx = partial_map(f, 0)
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
