"""Tests for the truncated Taylor (jet) arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dads.jets import (
    Jet,
    JetShapeError,
    MaxOrderExceededError,
    SmoothMap,
    gradient,
    jet_exp,
    jet_pow_int,
    jet_recip,
    jet_relu_plus,
    jet_space,
    partial_map,
    smooth_map,
    value_and_gradient,
)


def central_diff(f, point, i, h=1e-6):
    lo = list(point)
    hi = list(point)
    lo[i] -= h
    hi[i] += h
    return (f(*hi) - f(*lo)) / (2.0 * h)


class TestLift:
    def test_coordinate_jet(self):
        j = jet_space(2, 1).variable(3.0, 0)
        assert j.coeffs == (3.0, 1.0, 0.0)
        assert j.coeff((0, 0)) == 3.0
        assert j.coeff((1, 0)) == 1.0
        assert j.coeff((0, 1)) == 0.0

    def test_order_zero_carries_only_value(self):
        j = jet_space(2, 0).variable(0.0, 1)
        assert j.coeffs == (0.0,)

    def test_no_curvature(self):
        j = jet_space(3, 2).variable(-0.5, 1)
        for m, c in zip(j.space.monomials, j.coeffs):
            if sum(m) == 2:
                assert c == 0.0

    def test_var_index_out_of_range(self):
        with pytest.raises(ValueError):
            jet_space(2, 1).variable(1.0, 2)

    def test_coeff_count(self):
        for n_vars, order in [(1, 3), (2, 2), (4, 1), (3, 0)]:
            j = jet_space(n_vars, order).variable(0.0, 0)
            assert len(j.coeffs) == math.comb(n_vars + order, order)


class TestArithmetic:
    def test_square_of_coordinate(self):
        x = jet_space(1, 2).variable(2.0, 0)
        sq = x * x
        assert sq.coeffs == (4.0, 4.0, 1.0)

    def test_multiplicative_identity(self):
        a = jet_space(2, 2).variable(1.3, 0) * jet_space(2, 2).variable(-0.7, 1) + 2.0
        one = jet_space(2, 2).constant(1.0)
        assert (a * one).coeffs == a.coeffs

    def test_product_rule(self):
        x = jet_space(2, 1).variable(1.0, 0)
        y = jet_space(2, 1).variable(-0.5, 1)
        xy = x * y
        assert xy.coeffs == (-0.5, -0.5, 1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(JetShapeError):
            jet_space(2, 1).variable(1.0, 0) * jet_space(3, 1).variable(1.0, 0)

    def test_division(self):
        x = jet_space(1, 2).variable(2.0, 0)
        r = 1.0 / x
        assert r.coeffs[0] == pytest.approx(0.5)
        assert r.coeffs[1] == pytest.approx(-0.25)
        assert r.coeffs[2] == pytest.approx(0.125)  # (1/x)''/2 = 1/x^3

    def test_degree_zero_matches_scalar_ops(self):
        a = jet_space(2, 1).variable(1.7, 0)
        b = jet_space(2, 1).variable(-2.2, 1)
        assert (a + b).value == 1.7 + -2.2
        assert (a - b).value == 1.7 - -2.2
        assert (a * b).value == 1.7 * -2.2
        assert (a / b).value == pytest.approx(1.7 / -2.2)


class TestElementaries:
    def test_relu_inactive(self):
        j = jet_space(1, 1).variable(-1.0, 0)
        assert jet_relu_plus(j).coeffs == (0.0, 0.0)

    def test_relu_active_passthrough(self):
        j = jet_space(1, 1).variable(0.3, 0)
        assert jet_relu_plus(j).coeffs == j.coeffs

    def test_relu_kink_derivative_zero(self):
        j = jet_space(1, 1).variable(0.0, 0)
        assert jet_relu_plus(j).coeffs == (0.0, 0.0)

    def test_exp_of_zero(self):
        assert jet_exp(jet_space(1, 2).constant(0.0)).coeffs == (1.0, 0.0, 0.0)

    def test_exp_derivatives(self):
        x = jet_space(1, 3).variable(0.7, 0)
        e = jet_exp(x)
        v = math.exp(0.7)
        assert e.coeffs[0] == pytest.approx(v)
        assert e.coeffs[1] == pytest.approx(v)
        assert e.coeffs[2] == pytest.approx(v / 2.0)
        assert e.coeffs[3] == pytest.approx(v / 6.0)

    def test_pow_int(self):
        x = jet_space(1, 1).variable(1.0, 0)
        p = jet_pow_int(x, 4)
        assert p.coeffs == (1.0, 4.0)

    def test_negative_power(self):
        x = jet_space(1, 1).variable(2.0, 0)
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

    def test_value_and_gradient(self):
        f = SmoothMap(2, lambda x, y: x * jet_exp(y))
        v, g = value_and_gradient(f, (2.0, 0.0))
        assert v == pytest.approx(2.0)
        assert g == pytest.approx((1.0, 2.0))

    def test_arity_mismatch(self):
        f = SmoothMap(2, lambda x, y: x + y)
        with pytest.raises(ValueError):
            gradient(f, (1.0,))


class TestPartialMap:
    def test_first_partial(self):
        f = SmoothMap(2, lambda x, y: x * x * y)
        dfx = partial_map(f, 0)
        assert float(dfx(3.0, 2.0)) == pytest.approx(12.0)

    def test_nested_second_partial(self):
        f = SmoothMap(2, lambda x, y: x ** 3 * y + jet_exp(x))
        dxx = partial_map(partial_map(f, 0), 0)
        x, y = 0.8, -1.1
        assert float(dxx(x, y)) == pytest.approx(6.0 * x * y + math.exp(x), rel=1e-12)

    def test_mixed_partial(self):
        f = SmoothMap(2, lambda x, y: x * x * y * y)
        dxy = partial_map(partial_map(f, 0), 1)
        assert float(dxy(1.5, 2.5)) == pytest.approx(4.0 * 1.5 * 2.5)

    def test_partial_is_jet_evaluable(self):
        f = SmoothMap(2, lambda x, y: x * x * y)
        dfx = partial_map(f, 0)
        g = gradient(dfx, (3.0, 2.0))  # d/dx (2xy) = 2y, d/dy = 2x
        assert g == pytest.approx((4.0, 6.0))

    def test_budget_decrements(self):
        f = SmoothMap(1, lambda x: x * x, max_order=1)
        df = partial_map(f, 0)
        assert df.max_order == 0
        with pytest.raises(MaxOrderExceededError):
            gradient(df, (1.0,))

    def test_order_budget_enforced(self):
        f = SmoothMap(1, lambda x: x * x, max_order=1)
        space = jet_space(1, 2)
        with pytest.raises(MaxOrderExceededError):
            f.eval_jets(space.variables((1.0,)))


class TestConsistency:
    def test_truncation_consistency(self):
        f = SmoothMap(2, lambda x, y: jet_exp(x * y) + x ** 3)
        point = (0.4, -0.9)
        j2 = f.eval_jets(jet_space(2, 2).variables(point))
        j1 = f.eval_jets(jet_space(2, 1).variables(point))
        assert j2.truncate(1).coeffs == pytest.approx(j1.coeffs, abs=1e-14)

    def test_chain_rule(self):
        g = SmoothMap(1, lambda x: x * x + 1.0)
        f = SmoothMap(1, lambda y: jet_exp(y))
        composed = SmoothMap(1, lambda x: f(g(x)))
        x0 = 0.3
        jc = composed.eval_jets(jet_space(1, 1).variables((x0,)))
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
        x = jet_space(2, 2).variable(a, 0)
        y = jet_space(2, 2).variable(b, 1)
        lhs = (x + y) * (x - y)
        rhs = x * x - y * y
        assert lhs.coeffs == pytest.approx(rhs.coeffs, abs=1e-12)


class TestSmoothMapDecorator:
    def test_decorator(self):
        @smooth_map(2, name="parab")
        def f(x, y):
            return x * x + y

        assert f.name == "parab"
        assert f(2.0, 1.0) == 5.0

    def test_arity_enforced(self):
        f = SmoothMap(2, lambda x, y: x + y)
        with pytest.raises(ValueError):
            f(1.0)
