"""Tests for plant models, the plant bounds synthesis samples, and exogenous signals."""

import math
from dataclasses import replace

import numpy as np
import pytest

import dads.systems as systems
import dads.verify as ver
from dads.controllers import SigmaModController, WingRockDadsController
from dads.jets import SmoothMap, Tape, Traced
from dads.synthesis import (
    DadsGains,
    MajorantPack,
    MajorantViolationError,
    solve_base_theorem1,
    synthesize,
    wingrock_majorants,
)
from dads.systems import (
    DisturbanceProfile,
    StrictFeedbackSystem,
    constant_parameter,
    eval_dynamics,
    get_system,
    sample_ball,
    sample_disturbance,
    truncate,
    wingrock,
)
from dads.verify import (
    sigma_mod_dissipation_check,
    synthesized_dissipation_check,
    wingrock_dissipation_check,
)

THETA_WR = np.array([20.0, 20.0, 2.0, 1.0])
X0_WR = np.array([1.0, -0.5, -18.0])


class TestWingRockDynamics:
    def test_initial_derivative_oracle(self):
        sys = wingrock()
        xdot = eval_dynamics(sys, X0_WR, u=0.0, theta=THETA_WR, d=np.zeros(2))
        # x2' = 20*1 + 20*(-0.5) + 2*(-0.5) + 1*0.25 + (-18) = -8.75
        assert xdot == pytest.approx([-0.5, -8.75, 0.0])

    def test_affine_in_u(self):
        sys = wingrock()
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(-3, 3, 3)
            d = rng.uniform(-5, 5, 2)
            f0 = eval_dynamics(sys, x, 0.0, THETA_WR, d)
            f1 = eval_dynamics(sys, x, 1.0, THETA_WR, d)
            f5 = eval_dynamics(sys, x, 5.0, THETA_WR, d)
            assert f5 == pytest.approx(f0 + 5.0 * (f1 - f0), rel=1e-12, abs=1e-12)

    def test_affine_in_d(self):
        sys = wingrock()
        x = np.array([0.3, -1.2, 0.7])
        f0 = eval_dynamics(sys, x, 2.0, THETA_WR, np.zeros(2))
        fd = eval_dynamics(sys, x, 2.0, THETA_WR, np.array([3.0, -4.0]))
        assert (fd - f0) == pytest.approx([0.0, 3.0, -4.0])

    def test_origin_is_equilibrium(self):
        sys = wingrock()
        xdot = eval_dynamics(sys, np.zeros(3), 0.0, THETA_WR, np.zeros(2))
        assert xdot == pytest.approx(np.zeros(3))

    def test_dimension_checks(self):
        sys = wingrock()
        with pytest.raises(ValueError):
            eval_dynamics(sys, np.zeros(2), 0.0, THETA_WR, np.zeros(2))
        with pytest.raises(ValueError):
            eval_dynamics(sys, np.zeros(3), 0.0, np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            eval_dynamics(sys, np.zeros(3), 0.0, THETA_WR, np.zeros(1))

    def test_get_system(self):
        sys = get_system("wingrock")
        assert (sys.n, sys.m, sys.p, sys.l) == (0, 3, 4, 2)
        with pytest.raises(KeyError):
            get_system("nope")


def _cascade_toy(eta1_value=1.0):
    """n=2 integrators + m=1 block: y' = u + g(theta) with g = 2 + sin(x1)."""
    g1 = SmoothMap(3 + 1, lambda x1, x2, y1, th1: 2.0 + np.sin(x1), name="g1")
    eta1 = SmoothMap(3, lambda x1, x2, y1: eta1_value, name="eta1")
    zero3 = SmoothMap(3, lambda *a: 0.0, name="zero")
    return StrictFeedbackSystem(
        n=2, m=1,
        h=(zero3,),
        phi=(SmoothMap(3, lambda x1, x2, y1: (x1,), codim=1, name="phi1"),),
        alpha=(SmoothMap(3, lambda *a: (1.0,), codim=1, name="alpha1"),),
        g=(g1,), eta=(eta1,), mu=(),
        p=1, l=1, theta_radius=5.0,
    )


class TestCascadeDynamics:
    def test_chain_structure(self):
        sys = _cascade_toy()
        state = np.array([0.0, 2.0, -1.0])
        out = eval_dynamics(sys, state, u=0.5, theta=[3.0], d=[0.25])
        # x1' = x2, x2' = y1, y1' = g*u + phi.theta + alpha.d
        assert out == pytest.approx([2.0, -1.0, 2.0 * 0.5 + 0.0 + 0.25])

    def test_state_dim(self):
        assert _cascade_toy().state_dim == 3

    def test_theorem1_base_certificate(self):
        sys = _cascade_toy()
        gains = DadsGains(b=1.0, Gamma=20.0, eps_dz=0.01, c=0.5, a=2.0)
        base = solve_base_theorem1(
            n=2, m=1, gains=gains, eta1=sys.eta[0],
            r=SmoothMap(3, lambda *a: 1.0, name="r"), alpha1=sys.alpha[0],
        ).stage
        rep = synthesized_dissipation_check(
            sys, base.V, base.k, gains, base.rate_c, base.gain_a, n=200, seed=0,
        )
        assert rep.n_samples == 200
        assert rep.passed, rep.summary()


def _cascade_base_check(n):
    sys = _cascade_toy()
    gains = DadsGains(b=1.0, Gamma=20.0, eps_dz=0.01, c=0.5, a=2.0)
    base = solve_base_theorem1(
        n=2, m=1, gains=gains, eta1=sys.eta[0],
        r=SmoothMap(3, lambda *a: 1.0, name="r"), alpha1=sys.alpha[0],
    ).stage
    return synthesized_dissipation_check(
        sys, base.V, base.k, gains, base.rate_c, base.gain_a, n=n,
    )


class TestSamplingDomain:
    """Each sampled check draws theta (or its estimate) from the plant's ball."""

    @pytest.mark.parametrize("check, theta_radius", [
        (_cascade_base_check, 5.0),
        (lambda n: wingrock_dissipation_check(wingrock(), WingRockDadsController(), n=n),
         40.0),
        (lambda n: sigma_mod_dissipation_check(
            wingrock(), SigmaModController(), THETA_WR, n=n), 40.0),
    ], ids=["cascade-certificate", "ineq34", "ineq38"])
    def test_theta_ball_is_the_plants(self, monkeypatch, check, theta_radius):
        radii = []

        def recording(rng, dim, radius):
            radii.append(radius)
            return sample_ball(rng, dim, radius)

        monkeypatch.setattr(systems, "sample_ball", recording)
        rep = check(20)
        assert rep.n_samples == 20
        # each draw takes theta, then d
        assert set(radii[0::2]) == {theta_radius}
        assert set(radii[1::2]) == {ver.D_RADIUS}


class TestConstructionChecks:
    """StrictFeedbackSystem rejects per-level maps that do not fit n, m, p, l."""

    @pytest.mark.parametrize("field, value, message", [
        ("h", lambda w: w.h[:2], "h has 2 entries, expected 3"),
        ("eta", lambda w: w.eta + w.eta[:1], "eta has 4 entries, expected 3"),
        ("mu", lambda w: w.mu + w.mu[:1], "mu has 3 entries, expected 2"),
        ("g", lambda w: (SmoothMap(1, lambda x1: 1.0), *w.g[1:]),
         r"g\[0\] takes 1 arguments, expected 5"),
        ("phi", lambda w: (w.phi[0], SmoothMap(3, lambda *a: (0.0,) * 4, codim=4), w.phi[2]),
         r"phi\[1\] takes 3 arguments, expected 2"),
        ("mu", lambda w: (w.mu[0], SmoothMap(3, lambda *a: 1.0)),
         r"mu\[1\] takes 3 arguments, expected 2"),
        ("phi", lambda w: (SmoothMap(1, lambda x1: (0.0,) * 3, codim=3), *w.phi[1:]),
         r"phi\[0\] has codim 3, expected 4"),
        ("alpha", lambda w: (SmoothMap(1, lambda x1: 0.0), *w.alpha[1:]),
         r"alpha\[0\] has codim 1, expected 2"),
    ])
    def test_rejects_with_the_field_named(self, field, value, message):
        wr = wingrock()
        with pytest.raises(ValueError, match=message):
            replace(wr, **{field: value(wr)})

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError, match="m >= 1"):
            replace(wingrock(), m=0, h=(), phi=(), alpha=(), g=(), eta=(), mu=())


def _per_level(sys, x, u, theta, d):
    """The pure-chain (n = 0) rhs written level by level; u follows the last state."""
    out = []
    for i in range(len(x)):
        head = tuple(x[: i + 1])
        nxt = x[i + 1] if i + 1 < len(x) else u
        out.append(
            float(sys.h[i](*head))
            + float(sys.g[i](*head, *theta)) * nxt
            + np.asarray(sys.phi[i](*head), float) @ theta
            + np.asarray(sys.alpha[i](*head), float) @ d
        )
    return out


class TestTruncation:
    def test_wingrock_levels_match_per_level_formula(self):
        sys = wingrock()
        rng = np.random.default_rng(4)
        for dim in (1, 2, 3):
            plant = truncate(sys, dim)
            assert plant.state_dim == dim
            for _ in range(5):
                x = rng.uniform(-3, 3, dim)
                theta = rng.uniform(-20, 20, 4)
                d = rng.uniform(-5, 5, 2)
                u = rng.uniform(-10, 10)
                assert eval_dynamics(plant, x, u, theta, d) == pytest.approx(
                    _per_level(sys, x, u, theta, d), rel=1e-14, abs=1e-12)

    def test_cascade_keeps_the_integrator_chain(self):
        sys = _cascade_toy()
        assert truncate(sys, 3) == sys
        with pytest.raises(ValueError):
            truncate(sys, 2)


GAINS = DadsGains(b=1.0, Gamma=20.0, eps_dz=0.01, c=0.5, a=2.0)


def _synthesize_toy(sys, n_samples):
    """synthesize on the one-level cascade toy, whose drift bound r = 1 holds."""
    pack = MajorantPack(base_r=SmoothMap(3, lambda *a: 1.0, name="r1"), levels=())
    return synthesize(sys, GAINS, pack, n_samples=n_samples, seed=0)


class TestMajorantValidation:
    """synthesize samples eta_j <= g_j <= mu_j (1 + |theta|) before it builds."""

    def test_wingrock_majorants_hold(self):
        synthesize(wingrock(), GAINS, wingrock_majorants(GAINS), n_samples=200, seed=3)

    def test_broken_eta_detected(self):
        # eta1 = 3 exceeds inf g1 = 1 for g1 = 2 + sin(x1)
        with pytest.raises(MajorantViolationError) as info:
            _synthesize_toy(_cascade_toy(eta1_value=3.0), n_samples=300)
        err = info.value
        assert err.name.startswith("eta1")
        assert len(err.point) == 4  # (x1, x2, y1, theta1)
        assert err.lhs == 3.0
        margin = err.bound - err.lhs
        assert margin < 0.0
        # the witness really violates the bound
        assert 2.0 + np.sin(err.point[0]) - 3.0 == pytest.approx(margin)

    def test_nan_margin_is_a_violation(self):
        with pytest.raises(MajorantViolationError) as info:
            _synthesize_toy(_cascade_toy(eta1_value=math.nan), n_samples=20)
        assert info.value.name.startswith("eta1")
        assert math.isnan(info.value.lhs)

    def test_valid_eta_passes(self):
        result = _synthesize_toy(_cascade_toy(eta1_value=1.0), n_samples=300)
        assert len(result.stage_trace) == 1

    def test_bad_sample_count(self):
        with pytest.raises(ValueError):
            synthesize(wingrock(), GAINS, wingrock_majorants(GAINS), n_samples=0)


class TestDisturbanceProfiles:
    def test_zero(self):
        d = DisturbanceProfile(2)
        assert d(3.7) == pytest.approx([0.0, 0.0])

    def test_sinusoid_bank_values(self):
        d = DisturbanceProfile(2, (20.0, 10.0), (10.0, 20.0))
        assert d(0.0) == pytest.approx([20.0, 10.0])
        # at t = pi/10 the first channel sits at a trough
        assert d(math.pi / 10.0)[0] == pytest.approx(-20.0)

    def test_sinusoid_bank_length_mismatch(self):
        with pytest.raises(ValueError):
            DisturbanceProfile(2, (1.0, 2.0), (1.0,))

    def test_vanishing_envelope(self):
        d = DisturbanceProfile(2, (20.0, 0.0), (10.0, 0.0), 1.0)
        assert d(0.0) == pytest.approx([20.0, 0.0])
        t = 2.0
        assert d(t)[0] == pytest.approx(20.0 * math.cos(10.0 * t) * math.exp(-t))
        assert d(t)[1] == 0.0

    def test_negative_time_rejected(self):
        d = DisturbanceProfile(1)
        with pytest.raises(ValueError):
            d(-0.1)

    @pytest.mark.parametrize("profile", [
        DisturbanceProfile(2),
        DisturbanceProfile(2, (20.0, 10.0), (10.0, 20.0)),
        DisturbanceProfile(2, (20.0, -3.0), (10.0, 0.5), 0.7),
    ], ids=["zero", "sinusoid-bank", "vanishing"])
    def test_traced_formula_equals_the_profile(self, profile):
        # the simulator compiles sample_disturbance on a traced t; the
        # compiled d(t) must give the profile's values bit for bit
        tape = Tape()
        d = sample_disturbance(profile, Traced(tape, "t"))
        texts = [tape.operand(x) for x in d]
        source = "\n    ".join(["def d(t):", *tape.lines, f"return ({', '.join(texts)},)"])
        traced = tape.compile(source, "d", {})
        if not profile.amplitudes:
            assert tape.lines == []  # float zeros, nothing to record
        for t in [0.0, *np.random.default_rng(3).uniform(0.0, 50.0, 200).tolist()]:
            assert np.array(traced(t), float).tobytes() == profile(t).tobytes()

    def test_decay_needs_amplitudes(self):
        # a decay without a signal to damp is an input error, not a no-op
        with pytest.raises(ValueError, match="a zero disturbance has no decay, got 2.0"):
            DisturbanceProfile(2, decay=2.0)

    def test_vanishing_length_mismatch(self):
        with pytest.raises(ValueError, match="needs 2 amplitudes/frequencies, got 2/1"):
            DisturbanceProfile(2, (1.0, 2.0), (3.0,), 1.0)

    @pytest.mark.parametrize("decay", [-1.0, math.nan, math.inf])
    def test_decay_must_be_finite_and_nonnegative(self, decay):
        # a decay of -1 was accepted as "vanishing": d(5) = cos(5) e^5 = 42.1
        with pytest.raises(ValueError, match="decay must be finite and >= 0"):
            DisturbanceProfile(1, (1.0,), (1.0,), decay)

    @pytest.mark.parametrize("kind", ["zero", "sinusoid-bank"])
    def test_decay_only_on_vanishing(self, kind):
        # a decay makes a signal vanish: a zero one takes only decay 0, and
        # a sinusoid bank given one is a vanishing signal, not an undamped one
        if kind == "zero":
            assert DisturbanceProfile(1, (), (), 0.0)(1.0).tolist() == [0.0]
            with pytest.raises(ValueError, match="a zero disturbance has no decay, got 1e-300"):
                DisturbanceProfile(1, (), (), 1e-300)
        else:
            d = DisturbanceProfile(1, (1.0,), (1.0,), 2.0)
            assert d(3.0)[0] == math.cos(3.0) * math.exp(-6.0) and not d.persists

    def test_zero_kind_reads_no_amplitudes(self):
        # the zero signal is the one without amplitudes; amplitudes alone
        # are half a signal, not a zero one
        d = DisturbanceProfile(2)
        assert d(1.0).tolist() == [0.0, 0.0] and not d.persists
        with pytest.raises(ValueError, match="needs 2 amplitudes/frequencies, got 1/0"):
            DisturbanceProfile(2, (1.0,), (), 0.0)

    @pytest.mark.parametrize("amplitudes, decay, persists", [
        ((), 0.0, False),
        ((20.0, 10.0), 0.0, True),
        ((20.0, 10.0), 1e-300, False),
        ((20.0, 10.0), 1.0, False),
    ])
    def test_persists(self, amplitudes, decay, persists):
        d = DisturbanceProfile(2, amplitudes, (10.0, 20.0)[:len(amplitudes)], decay)
        assert d.persists is persists


class TestParameterSignal:
    def test_constant(self):
        th = constant_parameter([20.0, 20.0, 2.0, 1.0])
        assert th(0.0) == pytest.approx(THETA_WR)
        assert th(123.0) == pytest.approx(THETA_WR)

    def test_theta_ball_sampler(self):
        radius = wingrock().theta_radius
        rng = np.random.default_rng(0)
        samples = np.array([sample_ball(rng, 4, radius) for _ in range(200)])
        assert samples.shape == (200, 4)
        assert np.all(np.linalg.norm(samples, axis=1) <= radius + 1e-12)
