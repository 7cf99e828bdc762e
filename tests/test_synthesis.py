"""Tests for the backstepping synthesis engine."""

import collections
import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from dads.jets import SmoothMap, gradient, jet_exp
from dads.synthesis import (
    DadsGains,
    DadsStage,
    MajorantPack,
    MajorantViolationError,
    StageMajorants,
    _validate_scaled_bound,
    backstep,
    solve_base_theorem1,
    solve_base_theorem3,
    synthesize,
    wingrock_majorants,
)
from dads.systems import StrictFeedbackSystem, wingrock
import dads.synthesis as synthesis
from dads.verify import stage_certificate_checks, synthesized_dissipation_check

GAINS = dict(b=1.0, Gamma=20.0, eps_dz=0.01, c=0.5, a=2.0)


def default_gains(**over):
    return DadsGains(**{**GAINS, **over})


class TestDadsGains:
    def test_defaults_accepted(self):
        assert [f.name for f in fields(DadsGains)] == ["b", "Gamma", "eps_dz", "c", "a"]
        assert asdict(default_gains()) == GAINS

    @pytest.mark.parametrize("field", ["b", "Gamma", "eps_dz", "c", "a"])
    def test_positivity(self, field):
        with pytest.raises(ValueError):
            default_gains(**{field: 0.0})

    @pytest.mark.parametrize("field", ["b", "Gamma", "eps_dz", "c", "a"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_finiteness(self, field, value):
        with pytest.raises(ValueError):
            default_gains(**{field: value})


class TestScaledBound:
    @pytest.mark.parametrize("lhs, bound", [(math.nan, 1.0), (0.5, math.nan)])
    def test_nan_is_a_violation(self, lhs, bound):
        with pytest.raises(MajorantViolationError):
            _validate_scaled_bound("toy", lhs, bound, np.zeros((5, 2)))

    def test_first_violating_draw_is_the_witness(self):
        # |x| <= 0.5 fails at several of the draws; the first one is raised
        pts = np.random.default_rng(4).uniform(-1.0, 1.0, (50, 1))
        first = next(p for p in pts if abs(p[0]) > 0.5)
        with pytest.raises(MajorantViolationError) as info:
            _validate_scaled_bound("toy", np.abs(pts[:, 0]), 0.5, pts)
        assert info.value.point == (float(first[0]),)
        assert info.value.lhs == abs(float(first[0]))
        assert info.value.bound == 0.5

    def test_batch_draw_matches_per_point_draws(self):
        # one (n, dim) draw gives the points, and leaves the generator in the
        # state, of n draws of size dim
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        batch = a.uniform(-3.0, 3.0, (20, 4))
        single = np.array([b.uniform(-3.0, 3.0, 4) for _ in range(20)])
        assert np.array_equal(batch, single)
        assert a.standard_normal() == b.standard_normal()


class TestBaseQuadraticForm:
    """The integrator-cascade base step for the scalar case is fully explicit."""

    def test_scalar_case_exact(self):
        g = default_gains()
        one2 = SmoothMap(2, lambda *a: 1.0)
        base = solve_base_theorem1(
            n=1, m=1, gains=g,
            eta1=one2, r=one2, alpha1=SmoothMap(2, lambda *a: (0.0,), codim=1),
        )
        assert base.P == pytest.approx(np.array([[1.0]]), abs=1e-15)
        assert base.omega == pytest.approx(np.array([-1.0]), abs=1e-15)
        assert base.K_const == pytest.approx(1.0, abs=1e-15)
        assert base.M_const / 1.01 == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-13)

    def test_lyapunov_equation_residual(self):
        g = default_gains()
        one5 = SmoothMap(5, lambda *a: 1.0)
        base = solve_base_theorem1(
            n=4, m=2, gains=g,
            eta1=one5, r=one5, alpha1=SmoothMap(5, lambda *a: (0.0,), codim=1),
        )
        n = 4
        shift = 2.0 ** (2 - 1) * 0.5
        A = np.diag(np.ones(n - 1), 1)
        bvec = np.zeros(n)
        bvec[-1] = 1.0
        Acl = A + np.outer(bvec, base.omega) + shift * np.eye(n)
        resid = Acl.T @ base.P + base.P @ Acl + np.eye(n)
        assert np.max(np.abs(resid)) < 1e-9
        # P is symmetric positive definite
        assert np.max(np.abs(base.P - base.P.T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(base.P)) > 0

    def test_comparison_constant_dominates_quadratic(self):
        g = default_gains()
        one4 = SmoothMap(4, lambda *a: 1.0)
        base = solve_base_theorem1(
            n=3, m=1, gains=g,
            eta1=one4, r=one4, alpha1=SmoothMap(4, lambda *a: (0.0,), codim=1),
        )
        rng = np.random.default_rng(0)
        for _ in range(200):
            pt = rng.uniform(-3, 3, 4)
            V = float(base.stage.V(*pt, 0.0))
            assert base.M_const * V >= np.dot(pt, pt) * (1.0 - 1e-9)

    def test_stage_bookkeeping(self):
        g = default_gains()
        one3 = SmoothMap(3, lambda *a: 1.0)
        base = solve_base_theorem1(
            n=2, m=3, gains=g,
            eta1=one3, r=one3, alpha1=SmoothMap(3, lambda *a: (0.0,), codim=1),
        )
        assert base.stage.rate_c == pytest.approx(2.0 ** 2 * 0.5)
        # 2^{1-m} a, divided by the comparison constant
        assert base.stage.gain_a == 2.0 ** -2 * 2.0 / base.M_const
        assert base.stage.gain_a * base.M_const == pytest.approx(2.0 ** -2 * 2.0)


class TestBasePureChain:
    def test_stage_values(self):
        g = default_gains()
        one1 = SmoothMap(1, lambda x1: 1.0)
        stage = solve_base_theorem3(
            m=3, gains=g,
            eta1=one1, r=one1, alpha1=SmoothMap(1, lambda x1: (0.0, 0.0), codim=2),
        )
        assert stage.rate_c == pytest.approx(2.0)  # 2^{m-1} c
        assert stage.gain_a == pytest.approx(0.5)  # 2^{1-m} a
        assert float(stage.sigma(1.0, 0.0)) == 2.0
        assert float(stage.V(3.0, 0.0)) == pytest.approx(4.5)
        assert float(stage.V(0.0, 1.7)) == 0.0

    def test_k1_hand_formula(self):
        g = default_gains()
        one1 = SmoothMap(1, lambda x1: 1.0)
        stage = solve_base_theorem3(
            m=3, gains=g,
            eta1=one1, r=one1, alpha1=SmoothMap(1, lambda x1: (0.0, 0.0), codim=2),
        )
        x1, z = 1.3, -0.4
        ez = math.exp(z)
        # M1 = (b + 1 + e^z) r + (1 + e^z) / (2^{3-m} a) (|alpha|^2 + r^2 x1^2)
        #      + 2^{m-2} c  with r = 1, alpha = 0, m = 3
        M1 = (1.0 + 1.0 + ez) + (1.0 + ez) / 2.0 * x1 * x1 + 1.0
        assert float(stage.k(x1, z)) == pytest.approx(-M1 * x1, rel=1e-13)

    def test_nonpositive_r_rejected(self):
        # the drift of wing-rock's first level vanishes, so only 0 < r fails
        g = default_gains()
        pack = replace(wingrock_majorants(g), base_r=SmoothMap(1, lambda x1: 0.0))
        with pytest.raises(MajorantViolationError) as ei:
            synthesize(wingrock(), g, pack)
        assert ei.value.name == "r (first-level drift)"
        assert ei.value.bound == 0.0

    def test_drift_content_validated(self):
        g = default_gains()
        wr = wingrock()
        plant = replace(wr, h=(SmoothMap(1, lambda x1: 5.0 * x1), *wr.h[1:]))
        with pytest.raises(MajorantViolationError) as ei:
            synthesize(plant, g, wingrock_majorants(g))
        err = ei.value
        assert err.name == "r (first-level drift)"
        assert err.lhs > err.bound
        assert len(err.point) == 1


def _toy_prev_stage(cc=1.0, aa=1.0):
    return DadsStage(
        level=1,
        V=SmoothMap(2, lambda x, z: 0.5 * x * x, name="Vtoy"),
        k=SmoothMap(2, lambda x, z: -x + 0.0 * z, name="ktoy"),
        sigma=SmoothMap(2, lambda x, z: 2.0, name="sigtoy"),
        rate_c=cc,
        gain_a=aa,
    )


def _toy_plant():
    """n=0, m=2, p=l=1: y1' = y2 + y1 theta, y2' = u + d; all gains 1.

    Backstepping level 2 sees the block drift 0, Phi = (y1,), G = (0,) and
    the new level's h = 0, phi = (0,), alpha = (1,).
    """
    zero, one = (lambda *a: 0.0), (lambda *a: 1.0)
    return StrictFeedbackSystem(
        n=0, m=2,
        h=(SmoothMap(1, zero), SmoothMap(2, zero)),
        phi=(SmoothMap(1, lambda y1: (y1,), codim=1), SmoothMap(2, lambda *a: (0.0,), codim=1)),
        alpha=(SmoothMap(1, lambda *a: (0.0,), codim=1),
               SmoothMap(2, lambda *a: (1.0,), codim=1)),
        g=(SmoothMap(2, one), SmoothMap(3, one)),
        eta=(SmoothMap(1, one), SmoothMap(2, one)),
        mu=(SmoothMap(1, one),),
        p=1, l=1, theta_radius=1.0,
    )


def _toy_majorants(R=3.0):
    return StageMajorants(
        R=SmoothMap(2, lambda x, z: R),
        r=SmoothMap(1, lambda x: 1.0),
        rho=SmoothMap(2, lambda x, y: 1.0),
    )


class TestBackstep:
    def test_stacked_gain_termwise_oracle(self):
        gains = default_gains(Gamma=2.0)
        stage = backstep(_toy_prev_stage(), _toy_plant(), 1, gains, _toy_majorants())
        for (x, y, z) in [(0.7, -0.4, 0.2), (1.5, 1.5, -1.0), (-2.0, 0.3, 0.8)]:
            s = y - (-x)
            ez, emz = math.exp(z), math.exp(-z)
            P = 15.0  # (r+mu)/2 (1+|dk/dx|^2) + rho + (1 + mu/2 (3+|dk/dx|^2) + rho) R
            M = (
                0.25  # cc / 4
                + 4.0 * emz ** 2 / 4.0 * 0.5 * x * x
                + P * (1.0 + ez)
                + 0.5 * (2.0 * emz / 4.0 * (1.0 + s * s) + 1.0)
                + 0.5  # mu |dk/dx|^2 / 2
                + 1.0  # rho
                + 2.0 * P * P * (2.0 + ez) ** 2
                + (1.0 + ez) / 4.0
                + (1.0 + ez) / 2.0 * P * P * (s * s + x * x)
                + 2.0 * emz / 4.0
            )
            if s != 0.0:
                assert float(stage.k(x, y, z)) == pytest.approx(-M * s, rel=1e-12)
            assert float(stage.V(x, y, z)) == pytest.approx(0.5 * x * x + 0.5 * s * s)

    def test_sigma_update_arithmetic(self):
        # with R = 3 and sigma = 2 the new comparison factor is (1+2*9)2 + 4 = 42
        gains = default_gains()
        prev = DadsStage(
            level=1,
            V=SmoothMap(2, lambda x, z: 0.5 * x * x),
            k=SmoothMap(2, lambda x, z: 0.0 * x),
            sigma=SmoothMap(2, lambda x, z: 2.0),
            rate_c=1.0, gain_a=1.0,
        )
        stage = backstep(prev, _toy_plant(), 1, gains, _toy_majorants(R=3.0))
        assert float(stage.sigma(0.2, -0.1, 0.3)) == pytest.approx(42.0)

    def test_rate_halves_gain_doubles(self):
        gains = default_gains()
        prev = _toy_prev_stage(cc=2.0, aa=0.5)
        stage = backstep(prev, _toy_plant(), 1, gains, _toy_majorants())
        assert stage.rate_c == 1.0
        assert stage.gain_a == 1.0
        assert stage.level == 2

    def test_vbar_vanishes_on_manifold(self):
        gains = default_gains()
        stage = backstep(_toy_prev_stage(), _toy_plant(), 1, gains, _toy_majorants())
        # V_bar(0, k(0,z), z) = 0 for all z
        for z in (-1.0, 0.0, 2.0):
            assert float(stage.V(0.0, 0.0, z)) == 0.0

    def test_undersized_R_rejected_with_witness(self):
        gains = default_gains()
        with pytest.raises(MajorantViolationError) as ei:
            backstep(_toy_prev_stage(), _toy_plant(), 1, gains, _toy_majorants(R=0.1))
        err = ei.value
        assert err.name.startswith("R")
        assert err.lhs > err.bound
        assert len(err.point) == 2

    def test_arity_mismatch_rejected(self):
        gains = default_gains()
        bad_prev = DadsStage(
            level=1,
            V=SmoothMap(3, lambda x, y, z: 0.5 * x * x),
            k=SmoothMap(3, lambda x, y, z: -x),
            sigma=SmoothMap(3, lambda x, y, z: 2.0),
            rate_c=1.0, gain_a=1.0,
        )
        with pytest.raises(ValueError):
            backstep(bad_prev, _toy_plant(), 1, gains, _toy_majorants())

    @pytest.mark.parametrize("j", [0, 2])
    def test_level_index_checked(self, j):
        # the toy plant has m = 2 levels, so level 2 (j = 1) is the only backstep
        with pytest.raises(ValueError, match="level index"):
            backstep(_toy_prev_stage(), _toy_plant(), j, default_gains(), _toy_majorants())


@pytest.fixture(scope="module")
def result():
    gains = default_gains()
    return synthesize(
        wingrock(), gains, wingrock_majorants(gains), n_samples=100, seed=0
    )


class TestFullSynthesis:
    def test_stage_trace_telescopes(self, result):
        rates = [st.rate_c for st in result.stage_trace]
        gains_a = [st.gain_a for st in result.stage_trace]
        assert rates == pytest.approx([2.0, 1.0, 0.5])
        assert gains_a == pytest.approx([0.5, 1.0, 2.0])
        assert result.stage_trace[-1].rate_c == GAINS["c"]
        assert result.stage_trace[-1].gain_a == GAINS["a"]
        assert result.M_const == 2.0

    def test_final_maps_vanish_at_origin(self, result):
        final = result.stage_trace[-1]
        for z in (-2.0, 0.0, 1.0):
            assert float(final.V(0.0, 0.0, 0.0, z)) == 0.0
            assert float(final.k(0.0, 0.0, 0.0, z)) == 0.0

    def test_comparison_bound_on_samples(self, result):
        final = result.stage_trace[-1]
        rng = np.random.default_rng(1)
        for _ in range(100):
            pt = rng.uniform(-2, 2, 3)
            z = rng.uniform(-2, 2)
            V = float(final.V(*pt, z))
            sig = float(final.sigma(*pt, z))
            assert sig * V >= np.dot(pt, pt) * (1.0 - 1e-9)

    def test_report_mentions_every_stage(self, result):
        text = result.report()
        for lvl in (1, 2, 3):
            assert f"stage {lvl}" in text

    def test_theta_dependent_gain_rejected(self):
        gains = default_gains()
        base = wingrock()
        g_bad = (
            SmoothMap(5, lambda x1, t1, t2, t3, t4: 1.0 + 0.1 * t1),
            base.g[1], base.g[2],
        )
        sys_bad = replace(base, g=g_bad)
        with pytest.raises(ValueError):
            synthesize(sys_bad, gains, wingrock_majorants(gains), n_samples=10)

    def test_gain_moving_with_theta_on_part_of_the_box_rejected(self):
        # g1 is free of theta only at x1 = 0.7, and it obeys
        # eta1 <= g1 <= mu1 (1 + |theta|) on the whole synthesis box
        gains = default_gains()
        base = wingrock()
        g1 = SmoothMap(
            5, lambda x1, t1, t2, t3, t4: 1.0 + 0.001 * t1 * t1 * (x1 - 0.7) ** 2, name="g1")
        with pytest.raises(ValueError, match="gain of level 1"):
            synthesize(replace(base, g=(g1, *base.g[1:])), gains, wingrock_majorants(gains))

    def test_plant_bounds_evaluate_each_gain_once(self):
        # each g_j once on the shared draws, which the theta-free test, the
        # eta bound and the mu bound all read, plus g_j at theta = 0 below
        # the input
        base = wingrock()
        calls = [0] * base.m

        def counted(j, g):
            def fn(*args):
                calls[j] += 1
                return g(*args)
            return SmoothMap(g.arity, fn, name=g.name)

        plant = replace(base, g=tuple(counted(j, g) for j, g in enumerate(base.g)))
        synthesis._validate_plant_bounds(plant, 20, 0)
        assert calls == [2, 2, 1]

    def test_each_backstep_builds_the_previous_partials_once(self, monkeypatch):
        # one jet pass of k and one of V per backstep, which the majorant
        # checks and the new stage both read
        built = []

        def spy(f):
            built.append(f.name)
            return partials(f)

        partials = synthesis.partials
        monkeypatch.setattr(synthesis, "partials", spy)
        gains = default_gains()
        synthesize(wingrock(), gains, wingrock_majorants(gains), n_samples=10)
        assert built == ["k1", "V1", "k2", "V2"]

    def test_wingrock_R1_is_the_stage_1_growth(self, result):
        # the documented identity |dV1/dx1| + |k1| = R1 |x1| for the built
        # stage 1: wing-rock's first level has eta1 = r1 = 1 and alpha1 = 0
        R1 = wingrock_majorants(default_gains()).levels[0].R
        stage1 = result.stage_trace[0]
        for x1, z in np.random.default_rng(3).uniform(-3.0, 3.0, (50, 2)):
            growth = abs(gradient(stage1.V, (x1, z))[0]) + abs(float(stage1.k(x1, z)))
            assert growth == pytest.approx(float(R1(x1, z)) * abs(x1), rel=1e-12)

    def test_majorant_pack_size_checked(self):
        gains = default_gains()
        pack = wingrock_majorants(gains)
        short = MajorantPack(base_r=pack.base_r, levels=pack.levels[:1])
        with pytest.raises(ValueError):
            synthesize(wingrock(), gains, short)


class TestProbePoint:
    """The synthesized wing-rock feedback at (x1, x2, x3, z) = (0.01, 0.01, 0.01, 0)."""

    PROBE = (0.01, 0.01, 0.01, 0.0)

    @pytest.fixture(scope="class")
    def final_k(self):
        # the [synthesis] gains of scenarios/synth_wingrock.scenario
        gains = default_gains(eps_dz=5e-5)
        result = synthesize(wingrock(), gains, wingrock_majorants(gains), n_samples=10)
        return result.stage_trace[-1].k

    def test_value_and_gradient_to_the_last_bit(self, final_k):
        assert final_k(*self.PROBE) == -3.664265063035974e+44
        assert gradient(final_k, self.PROBE) == (
            -8.891003291343159e+46, -2.2289064523524676e+46,
            -3.947979672313199e+41, -7.631503602687235e+45,
        )

    def test_each_backstep_evaluates_the_previous_feedback_twice(self, final_k, monkeypatch):
        # once for its value and once on jets for all its partials
        calls = collections.Counter()
        plain = SmoothMap.__call__

        def counting(f, *args):
            calls[f.name] += 1
            return plain(f, *args)

        monkeypatch.setattr(SmoothMap, "__call__", counting)
        final_k(*self.PROBE)
        assert (calls["k3"], calls["k2"], calls["k1"]) == (1, 2, 6)


def _cascade_plant():
    """n=1, m=2: x' = y1, y1' = y2 + theta x, y2' = u + d; all gains 1."""
    one = lambda *a: 1.0
    return StrictFeedbackSystem(
        n=1, m=2,
        h=(SmoothMap(2, lambda *a: 0.0, name="h1"), SmoothMap(3, lambda *a: 0.0, name="h2")),
        phi=(SmoothMap(2, lambda x, y1: (x,), codim=1, name="phi1"),
             SmoothMap(3, lambda *a: (0.0,), codim=1, name="phi2")),
        alpha=(SmoothMap(2, lambda *a: (0.0,), codim=1, name="alpha1"),
               SmoothMap(3, lambda *a: (1.0,), codim=1, name="alpha2")),
        g=(SmoothMap(3, one, name="g1"), SmoothMap(4, one, name="g2")),
        eta=(SmoothMap(2, one, name="eta1"), SmoothMap(3, one, name="eta2")),
        mu=(SmoothMap(2, one, name="mu1"),),
        p=1, l=1, theta_radius=5.0,
    )


def _cascade_pack(base_r=1.0):
    return MajorantPack(
        base_r=SmoothMap(2, lambda *a: base_r, name="r1"),
        levels=(StageMajorants(
            R=SmoothMap(3, lambda x, y1, z: 1e3 * (1.0 + jet_exp(z)) ** 2, name="R"),
            r=SmoothMap(2, lambda *a: 1.0, name="r"),
            rho=SmoothMap(3, lambda *a: 1.0, name="rho"),
        ),),
    )


class TestCascadeSynthesis:
    """End to end on a plant with a leading integrator (the Theorem-1 base)."""

    def test_undersized_base_r_rejected(self):
        # phi1 = x makes (|h1| + |phi1|) / |(x, y1)| reach 1 > 0.1
        with pytest.raises(MajorantViolationError) as ei:
            synthesize(_cascade_plant(), default_gains(), _cascade_pack(base_r=0.1))
        err = ei.value
        assert err.name == "r (first-level drift)"
        assert err.bound == 0.1
        x, y1 = err.point
        assert err.lhs == pytest.approx(abs(x) / math.hypot(x, y1))
        assert err.lhs > err.bound

    def test_gain_growth_rejected(self):
        # g1 = 3 exceeds mu1 (1 + |theta|) = 1 + |theta| wherever |theta| < 2
        plant = _cascade_plant()
        plant = replace(plant, g=(SmoothMap(3, lambda *a: 3.0, name="g1"), plant.g[1]))
        with pytest.raises(MajorantViolationError) as ei:
            synthesize(plant, default_gains(), _cascade_pack())
        err = ei.value
        assert err.name.startswith("mu1")
        assert err.lhs == 3.0
        assert err.bound == pytest.approx(1.0 + abs(err.point[-1]))
        assert err.lhs > err.bound

    def test_final_feedback_unchanged(self):
        # pinned values: any change to the construction's arithmetic shows here
        result = synthesize(_cascade_plant(), default_gains(), _cascade_pack())
        final = result.stage_trace[-1]
        for pt, k in [
            ((0.1, -0.2, 0.3, 0.0), 6.301369221884183e+17),
            ((1.0, 0.5, -0.7, 0.4), -1.0854893294381663e+24),
            ((-0.3, 0.2, 0.9, -1.0), 3.752574948383192e+17),
        ]:
            assert float(final.k(*pt)) == k

    def test_synthesize_and_certify(self):
        sys = _cascade_plant()
        gains = default_gains()
        result = synthesize(sys, gains, _cascade_pack())
        assert [st.rate_c for st in result.stage_trace] == [1.0, 0.5]
        # n = 1: the comparison constant is the Theorem-1 base step's, its
        # sigma, and it divides the gain: 2^{1-m} a / M, doubled once
        first, last = result.stage_trace
        assert result.M_const == float(first.sigma(0.1, -0.2, 0.3))
        assert first.gain_a == 2.0 ** -1 * 2.0 / result.M_const
        assert last.gain_a == 2.0 * first.gain_a
        reports = stage_certificate_checks(sys, result, gains, n=200) + [
            synthesized_dissipation_check(
                sys, last.V, last.k, gains,
                last.rate_c, last.gain_a, n=500,
            )
        ]
        for rep in reports:
            assert rep.passed, rep.summary()
