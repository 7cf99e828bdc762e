"""Tests for the sampled certificate checks and trajectory-estimate checks."""

import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dads.cli import EXIT_OK, main
from dads.controllers import (
    SigmaModController,
    WingRockDadsController,
    _sigma_mod_terms,
    dads_residual,
    sigma_mod_control,
    sigma_mod_W_map,
    wingrock_control,
)
from dads.jets import SmoothMap, gradient, jet_exp
from dads.simulate import SimConfig, TrajectoryLog, simulate
from dads.synthesis import DadsGains, synthesize, wingrock_majorants
from dads.systems import (
    DisturbanceProfile,
    box_sampler,
    constant_parameter,
    eval_dynamics,
    sample_ball,
    wingrock,
)
from dads.verify import (
    CheckReport,
    check_dissipation,
    check_drift_contrast,
    check_sigma_tradeoff,
    check_trajectory_estimates,
    reports_to_csv,
    sigma_mod_dissipation_check,
    signal_sup,
    stage_certificate_checks,
    summarize,
    synthesized_dissipation_check,
    wingrock_dissipation_check,
)
import dads.systems
import dads.verify as ver

THETA = [20.0, 20.0, 2.0, 1.0]
X0 = [1.0, -0.5, -18.0]
Z0 = [-math.log(10.0)]


class TestCheckReport:
    def test_pass_fail_threshold(self):
        good = CheckReport("a", 10, 1e-8, (), 1e-6)
        borderline = CheckReport("b", 10, -1e-7, (), 1e-6)
        bad = CheckReport("c", 10, -1e-5, (), 1e-6)
        assert good.passed and borderline.passed and not bad.passed
        assert "PASS" in good.summary()
        assert "FAIL" in bad.summary()

    @pytest.mark.parametrize("margin", [math.nan, math.inf, -math.inf])
    def test_non_finite_margin_fails(self, margin):
        assert not CheckReport("a", 10, margin, (), 1e-6).passed

    def test_csv_serialization(self, tmp_path):
        reps = [
            CheckReport("alpha", 5, 0.25, (1.0, -2.0), 1e-6),
            CheckReport("beta", 7, -0.5, (0.0,), 0.0),
        ]
        path = tmp_path / "checks.csv"
        reports_to_csv(reps, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("name,passed")
        assert lines[1].startswith("alpha,True,5,")
        assert lines[2].startswith("beta,False,7,")
        assert "1;-2" in lines[1]

    def test_summarize_joins(self):
        reps = [CheckReport("a", 1, 0.0, (), 0.0), CheckReport("b", 1, 0.0, (), 0.0)]
        assert len(summarize(reps).splitlines()) == 2


class TestDissipationChecks:
    def test_wingrock_law_passes(self):
        rep = wingrock_dissipation_check(wingrock(), WingRockDadsController().law, seed=0)
        assert rep.passed
        assert (rep.n_samples, rep.tolerance) == (1000, 1e-6)
        assert len(rep.witness) == 10

    def test_mutated_law_fails_with_witness(self):
        ctrl = WingRockDadsController()
        # sign-flip the whole input of the true law
        broken = SmoothMap(4, lambda x1, x2, x3, z: -wingrock_control((x1, x2, x3), z, ctrl)[0])
        rep = wingrock_dissipation_check(wingrock(), replace(ctrl.law, k=broken), seed=0)
        assert not rep.passed
        assert np.isfinite(rep.worst_margin)
        assert len(rep.witness) == 10

    @pytest.mark.parametrize("e", range(1, 18))
    def test_large_gamma_reads_the_gamma_20_margin(self, e):
        # the dissipation inequality does not depend on Gamma, and up to
        # Gamma = 1e17 the sampled margin resolves it: 1.6e-6 relative off at
        # 1e16, 3e-5 at 1e18; cancellation in the Gamma-scaled terms leaves
        # 120.7 at 1e19 and a FAIL at 1e20 (see ROADMAP); 309556.35... is the
        # margin at the shipped Gamma = 20
        rep = wingrock_dissipation_check(wingrock(), WingRockDadsController(Gamma=10.0 ** e).law,
                                         seed=0)
        assert rep.passed
        assert rep.worst_margin == pytest.approx(309556.3525262382, rel=1e-5)

    def test_sigma_mod_passes_both_leaks(self):
        sys = wingrock()
        for leak in (0.0, 0.4):
            rep = sigma_mod_dissipation_check(sys, SigmaModController(sigma_leak=leak), THETA,
                                              seed=1)
            assert rep.passed, rep.summary()
            assert (rep.n_samples, rep.tolerance) == (1000, 1e-6)

    @given(margin=st.floats(allow_nan=True, allow_infinity=True),
           tols=st.lists(st.floats(0.0, 1e300), min_size=2, max_size=2))
    def test_tolerance_monotonicity(self, margin, tols):
        # a margin that passes at some tolerance passes at every larger one
        tight, loose = (CheckReport("check", 1, margin, (), tol) for tol in sorted(tols))
        assert loose.passed or not tight.passed

    def test_samples_on_the_deadzone_boundary_pass(self, monkeypatch):
        # the deadzone's kink lies in dz/dt at V = eps, not in V, and only V is
        # differentiated: every draw is moved onto V = eps by scaling its x
        # (V(0, z) = 0 < eps) and the wing-rock inequality still holds there
        law = WingRockDadsController().law
        placed = []

        def on_boundary(box_dim, *balls):
            draw = box_sampler(box_dim, *balls)

            def excess(row, s):
                return law.lyapunov([s * v for v in row[:3]], row[3:]) - law.gains.eps_dz

            def sampler(rng):
                row = draw(rng)
                lo, hi = 0.0, 1.0
                assert excess(row, hi) > 0.0
                while lo < (mid := 0.5 * (lo + hi)) < hi:
                    lo, hi = (mid, hi) if excess(row, mid) < 0.0 else (lo, mid)
                row[:3] = [hi * v for v in row[:3]]
                placed.append(excess(row, 1.0))
                return row

            return sampler

        monkeypatch.setattr(ver, "box_sampler", on_boundary)
        rep = wingrock_dissipation_check(wingrock(), law, seed=0)
        assert len(placed) == 1000
        # every draw lies within 1e-9 of the deadzone boundary
        assert max(map(abs, placed)) < 1e-9
        assert rep.passed and rep.n_samples == 1000, rep.summary()

    def test_nan_margin_fails_with_its_sample(self):
        # the third draw gives a nan rate; it is the witness even though
        # later samples have finite, smaller margins
        V = SmoothMap(1, lambda v: v)
        draws = iter([1.0, 2.0, 3.0, 4.0, 5.0])

        def rhs(s):
            return (np.where(s[0] == 3.0, math.nan, s[0]),)

        rep = check_dissipation(V, lambda s: (rhs(s), 10.0), lambda rng: (next(draws),),
                                n=5, tol=0.0)
        assert rep.n_samples == 5
        assert math.isnan(rep.worst_margin)
        assert rep.witness == (3.0,)
        assert not rep.passed

    def test_first_n_kept_draws_in_stream_order(self):
        # draws 0, 1, 2, ...; every draw is kept
        V = SmoothMap(1, lambda v: v)
        calls = []

        def sampler(rng):
            calls.append(len(calls))
            return (float(calls[-1]),)

        def bound(s):
            assert isinstance(s[0], np.ndarray)
            return 100.0 - s[0]

        rep = check_dissipation(V, lambda s: ((s[0],), bound(s)), sampler, n=8, tol=0.0,
                                name="toy")
        # exactly n draws, in stream order, nothing more
        assert calls == list(range(8))
        assert rep.n_samples == 8 and rep.passed
        # margin 100 - 2v is smallest at the last draw
        assert rep.witness == (7.0,)
        assert rep.worst_margin == 100.0 - 2 * 7

    def test_matches_a_per_sample_loop(self):
        # the batched margins and witness against one evaluation per draw
        sys, ctrl = wingrock(), SigmaModController(sigma_leak=0.4)
        rep = sigma_mod_dissipation_check(sys, ctrl, THETA, seed=3)
        W = sigma_mod_W_map(ctrl, THETA)
        rng = np.random.default_rng(3)
        theta = np.asarray(THETA)
        worst, witness = math.inf, None
        for _ in range(1000):
            x = rng.uniform(-3.0, 3.0, 3)
            th_hat = np.asarray(sample_ball(rng, 4, 40.0))
            d = np.asarray(sample_ball(rng, 2, 30.0))
            g = gradient(W, (*x, *th_hat))
            u, w = sigma_mod_control(x, th_hat, ctrl)
            f = np.concatenate([eval_dynamics(sys, x, u, THETA, d), w])
            zeta, chi, _ = _sigma_mod_terms(*x, *th_hat, c=ctrl.c, K=ctrl.K)
            bound = (
                -ctrl.c * (x[0] ** 2 + zeta ** 2 + chi ** 2)
                - 0.4 / 40.0 * float((th_hat - theta) @ (th_hat - theta))
                + 0.5 * float(d @ d) + 0.4 / 40.0 * float(theta @ theta)
            )
            margin = bound - float(np.dot(g, f))
            if margin < worst:
                worst, witness = margin, (*x, *th_hat, *d)
        assert rep.n_samples == 1000
        assert rep.witness == tuple(float(v) for v in witness)
        assert rep.worst_margin == pytest.approx(worst, rel=1e-12)

    def test_overflow_raises_no_warning(self):
        # exp overflows at the second draw and 0 * inf is nan; neither warns,
        # and the nan margin is the witness
        V = SmoothMap(1, lambda v: v)
        draws = iter([1.0, 1000.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_dissipation(
                V, lambda s: ((0.0 * jet_exp(s[0]),), 1.0), lambda rng: (next(draws),),
                n=3, tol=0.0,
            )
        assert rep.witness == (1000.0,)
        assert not rep.passed

    @pytest.mark.parametrize("n", [0, -3])
    def test_no_samples_rejected(self, n):
        V = SmoothMap(1, lambda v: v)
        with pytest.raises(ValueError):
            check_dissipation(V, lambda s: (np.array([0.0]), 1.0), lambda rng: (0.5,), n=n,
                              tol=0.0)

    def test_seed_reproducibility(self):
        a = wingrock_dissipation_check(wingrock(), WingRockDadsController().law, seed=7)
        b = wingrock_dissipation_check(wingrock(), WingRockDadsController().law, seed=7)
        assert a.worst_margin == b.worst_margin
        assert a.witness == b.witness


@pytest.fixture(scope="module")
def synthesis_result():
    gains = DadsGains(b=1.0, Gamma=20.0, eps_dz=0.01, c=0.5, a=2.0)
    return synthesize(wingrock(), gains, wingrock_majorants(gains), seed=0)


class TestSynthesizedChecks:
    def test_final_certificate_passes(self, synthesis_result):
        result = synthesis_result
        final = result.stage_trace[-1]
        rep = synthesized_dissipation_check(
            wingrock(), final.V, final.k, final.gains, n=200, seed=0)
        assert rep.passed, rep.summary()

    def test_certificate_evaluates_V_twice(self, synthesis_result):
        # one jet pass for the gradient, one plain pass that the deadzone
        # rate and -cV both read
        result = synthesis_result
        final = result.stage_trace[-1]
        calls = []

        def V(*args):
            calls.append(1)
            return final.V(*args)

        rep = synthesized_dissipation_check(
            wingrock(), SmoothMap(final.V.arity, V, name="V3"), final.k, final.gains,
            n=50, seed=0,
        )
        assert len(calls) == 2
        assert rep.passed, rep.summary()

    def test_every_stage_passes(self, synthesis_result):
        result = synthesis_result
        reports = stage_certificate_checks(wingrock(), result)
        assert len(reports) == 3
        for rep in reports:
            assert rep.passed, rep.summary()
            assert (rep.n_samples, rep.tolerance) == (200, 1e-7)


class TestCertificatesThatCanFail:
    """Each sampled certificate fails its law with the residual deleted, on
    a stratum where the residual binds, and passes the law itself there; at
    the checks' own sample counts and seed 0.

    The DADS residual binds only near the origin, where dV/dt ~ |x| |d|
    outgrows cV ~ |x|^2: states and z are drawn from [-1e-3, 1e-3], and
    theta and d from their balls.  The stage 1 and stage 3 certificates have
    no such stratum: stage 1's level, x1' = x2, carries neither d nor theta,
    and stage 3's least margin on any box down to 1e-300 is -7e-29, far
    inside its tolerance of 1e-7.
    """

    @pytest.fixture(params=[1.0, 0.0], ids=["law", "residual-deleted"])
    def residual(self, request, monkeypatch):
        """The factor on the DADS residual that the certificates read."""
        monkeypatch.setattr(ver, "dads_residual",
                            lambda *args: request.param * dads_residual(*args))
        return request.param

    def test_wingrock_dissipation(self, monkeypatch, residual):
        monkeypatch.setattr(dads.systems, "BOX_RADIUS", 1e-3)
        rep = wingrock_dissipation_check(wingrock(), WingRockDadsController().law, seed=0)
        assert rep.n_samples == 1000
        assert rep.passed == bool(residual), rep.summary()
        assert -0.01 < rep.worst_margin  # finite: a violation, not an overflow

    def test_stage_2_certificate(self, monkeypatch, residual):
        # synthesized on the shipped box, certified near the origin; the
        # synth_wingrock constants
        gains = DadsGains(b=1.0, Gamma=20.0, eps_dz=5e-05, c=0.5, a=2.0)
        result = synthesize(wingrock(), gains, wingrock_majorants(gains), seed=0)
        monkeypatch.setattr(dads.systems, "BOX_RADIUS", 1e-3)
        stage2 = stage_certificate_checks(wingrock(), result, seed=0)[1]
        assert (stage2.name, stage2.n_samples) == ("stage 2 certificate", 200)
        assert stage2.passed == bool(residual), stage2.summary()
        assert -0.01 < stage2.worst_margin

    def test_sigma_mod_dissipation(self, monkeypatch):
        # the leak law's residual binds on the shipped box already
        law = SigmaModController(sigma_leak=0.4)
        assert sigma_mod_dissipation_check(wingrock(), law, THETA, seed=0).passed
        residual = SigmaModController.residual
        monkeypatch.setattr(SigmaModController, "residual",
                            lambda self, *args: 0.0 * residual(self, *args))
        rep = sigma_mod_dissipation_check(wingrock(), law, THETA, seed=0)
        assert not rep.passed and rep.n_samples == 1000
        assert rep.worst_margin == pytest.approx(-145.002, abs=1e-3)


def dads_run(dist, t_end=10.0):
    cfg = SimConfig(dt=1e-3, t_end=t_end, method="radau", log_stride=10)
    return simulate(
        wingrock(), WingRockDadsController().law, X0, Z0, dist,
        constant_parameter(THETA), cfg,
    )


@pytest.fixture(scope="module")
def dads_quiet_log():
    return dads_run(DisturbanceProfile(2))


@pytest.fixture(scope="module")
def dads_persistent_log():
    return dads_run(DisturbanceProfile(2, (20.0, 10.0), (10.0, 20.0)))


class TestTrajectoryEstimates:
    def test_signal_sup(self):
        d = DisturbanceProfile(2, (20.0, 10.0), (10.0, 20.0))
        assert signal_sup(d) == math.hypot(20.0, 10.0) == float(np.linalg.norm(d(0.0)))
        assert signal_sup(DisturbanceProfile(2)) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_signal_sup_bounds_every_time(self, data):
        # |a cos(w t) e^(-decay t)| <= |a| entry by entry, in floating point
        # too, with equality at t = 0; w and t are bounded so that w t stays
        # finite, where cos is a number; hypot scales, so |a| near 1e300
        # does not overflow
        dim = data.draw(st.integers(1, 3))
        d = DisturbanceProfile(
            dim, tuple(data.draw(st.lists(st.floats(-1e300, 1e300), min_size=dim, max_size=dim))),
            tuple(data.draw(st.lists(st.floats(-1e300, 1e300), min_size=dim, max_size=dim))),
            data.draw(st.floats(0.0, 1e300)))
        t = data.draw(st.floats(0.0, 1e6))
        assert math.hypot(*d(t)) <= signal_sup(d)
        assert signal_sup(d) == math.hypot(*d(0.0))

    def test_signal_sup_does_not_overflow(self):
        # the square of this amplitude overflows; its norm does not
        a = 1.3407807929942597e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert signal_sup(DisturbanceProfile(1, (a,), (0.0,))) == a

    def test_verify_evaluates_the_disturbance_once(self, tmp_path, monkeypatch):
        # the sup is the amplitudes' norm, which evaluates no d(t); the one
        # call is the compiled rhs's check at t = 0
        calls = []
        call = DisturbanceProfile.__call__

        def counted(self, t):
            calls.append(t)
            return call(self, t)

        monkeypatch.setattr(DisturbanceProfile, "__call__", counted)
        scenario = os.path.join(os.path.dirname(__file__), "..", "scenarios", "fig4_dads.scenario")
        assert main(["verify", scenario, "--out", str(tmp_path)]) == EXIT_OK
        assert calls == [0.0]

    def test_quiet_run_estimates(self, dads_quiet_log):
        reports = check_trajectory_estimates(
            dads_quiet_log, WingRockDadsController().law,
            d_sup=0.0, theta_sup=float(np.linalg.norm(THETA)),
        )
        names = [r.name for r in reports]
        assert names == ["V envelope", "z monotonicity", "tail V bound",
                         "tail output bound"]
        for rep in reports:
            assert rep.passed, rep.summary()

    def test_persistent_run_estimates(self, dads_persistent_log):
        d = DisturbanceProfile(2, (20.0, 10.0), (10.0, 20.0))
        d_sup = signal_sup(d)
        reports = check_trajectory_estimates(
            dads_persistent_log, WingRockDadsController().law,
            d_sup=d_sup, theta_sup=float(np.linalg.norm(THETA)),
        )
        for rep in reports:
            assert rep.passed, rep.summary()

    def test_attractivity_radius_value(self):
        # sqrt(sigma eps) is (sqrt(c^2 + 1) + c) sqrt(2 eps) at the benchmark
        # constants, to the last bit
        law = WingRockDadsController().law
        sigma = law.sigma(*X0, *Z0)
        assert np.sqrt(sigma * law.gains.eps_dz) == (math.sqrt(1.25) + 0.5) * math.sqrt(0.02)
        assert np.sqrt(sigma * law.gains.eps_dz) == 0.22882456112707372

    def test_output_bound_is_judged_row_by_row(self):
        # a sigma that varies along the tail: the worst row is not the one
        # with the largest |Y|, and the witness is the worst row's |Y|
        t = np.linspace(0.0, 1.0, 10)
        x = np.column_stack([t, np.zeros(10), np.zeros(10)])
        ynorm = np.array([0.0] * 8 + [0.5, 0.4])
        log = TrajectoryLog(t, x, np.zeros((10, 1)), np.zeros(10), np.zeros(10), ynorm)
        law = replace(WingRockDadsController().law,
                      sigma=SmoothMap(4, lambda x1, x2, x3, z: 100.0 - 99.0 * x1))
        tail_Y = check_trajectory_estimates(log, law, d_sup=0.0, theta_sup=0.0)[3]
        radius = np.sqrt((100.0 - 99.0 * t[-2:]) * 0.01) * 1.1
        assert tail_Y.witness == (0.4,)
        assert tail_Y.worst_margin == radius[1] - 0.4
        assert tail_Y.worst_margin < radius[0] - 0.5

    @pytest.mark.parametrize("z_last, rising", [(1.0, False), (1.5, True)])
    def test_failing_tail_bounds_say_whether_z_still_rose(self, z_last, rising):
        # ten rows, the last two of them the tail, with V and |Y| far above
        # their bounds; z rises into the tail and then holds or goes on rising
        t, ones = np.linspace(0.0, 1.0, 10), np.ones(10)
        z = np.array([0.0] * 8 + [1.0, z_last])
        log = TrajectoryLog(t, np.ones((10, 3)), z[:, None], ones, ones, ones)
        reports = check_trajectory_estimates(
            log, WingRockDadsController().law, d_sup=0.0, theta_sup=0.0)
        assert [r.name for r in reports[2:]] == ["tail V bound", "tail output bound"]
        tail_V, tail_Y = reports[2:]
        assert not tail_V.passed and not tail_Y.passed
        assert tail_Y.summary().endswith(" (z still rising at t_end)") == rising
        # the tail V bound notes max V/eps over its halving windows first
        trend = "max V/eps per halving window back from t_end: 100, 100, 100, 100"
        assert tail_V.summary().endswith(
            f" ({trend}; z still rising at t_end)" if rising else f" ({trend})")
        # a passing check keeps its note to itself
        held = CheckReport("tail V bound", 2, 0.5, (0.0,), 0.0, "z still rising at t_end")
        assert held.summary().endswith("(tol 0)")

    @pytest.mark.parametrize("rows, trend", [
        (101, "1.49, 1.74, 1.87, 1.93, 1.96"),
        # (1/32, 1/16] holds no row of ten: four windows
        (10, "1.44, 1.67, 1.78, 1.89"),
    ])
    def test_failing_tail_V_bound_notes_the_halving_window_trend(self, rows, trend):
        # V = eps (2 - t) on [0, 1], so max V/eps over (1/2, 1], (1/4, 1/2],
        # ... is 2 - t at the first row of each window; z rises into the tail
        t, ones = np.linspace(0.0, 1.0, rows), np.ones(rows)
        eps = WingRockDadsController().gains.eps_dz
        log = TrajectoryLog(t, np.ones((rows, 3)), t[:, None], ones, eps * (2.0 - t), ones)
        tail_V, tail_Y = check_trajectory_estimates(
            log, WingRockDadsController().law, d_sup=0.0, theta_sup=0.0)[2:]
        assert tail_V.note == (f"max V/eps per halving window back from t_end: {trend}; "
                               "z still rising at t_end")
        assert tail_V.summary().endswith(f" ({tail_V.note})")
        # the output bound notes only the gain
        assert tail_Y.note == "z still rising at t_end"

    def test_violated_envelope_fails(self, dads_quiet_log):
        # shrinking the claimed offset and rate far enough must break the bound
        reports = check_trajectory_estimates(
            dads_quiet_log, replace(WingRockDadsController().law,
                                    gains=DadsGains(b=1.0, Gamma=20.0, eps_dz=1e-9, c=50.0,
                                                    a=1e-6)),
            d_sup=0.0, theta_sup=float(np.linalg.norm(THETA)),
        )
        by_name = {r.name: r for r in reports}
        assert not by_name["V envelope"].passed
        # the tail is above eps (1 + SLACK), by less than the tolerance
        assert by_name["tail V bound"].worst_margin < 0.0
        # monotonicity of z is a property of the law, not of the estimate
        assert by_name["z monotonicity"].passed


def sigma_run(leak, dist, t_end=10.0):
    cfg = SimConfig(dt=1e-4, t_end=t_end, method="rk4", log_stride=100)
    return simulate(
        wingrock(), SigmaModController(sigma_leak=leak), X0, [0.0] * 4, dist,
        constant_parameter(THETA), cfg,
    )


@pytest.fixture(scope="module")
def persistent_triple(dads_persistent_log, sigma0_persistent, sigma04_persistent):
    # the two sigma-mod runs are the session fixtures of conftest.py
    return dads_persistent_log, sigma0_persistent, sigma04_persistent


class TestContrastChecks:
    def test_drift_contrast_passes(self, persistent_triple):
        dads_log, s0_log, s4_log = persistent_triple
        rep = check_drift_contrast(dads_log, s0_log, s4_log, expect_drift=True)
        assert rep.passed, rep.summary()
        growth, drift_norm, leak_norm = rep.witness
        assert abs(growth) < 0.01
        assert drift_norm > leak_norm

    def test_drift_contrast_requires_shared_grid(self, persistent_triple):
        dads_log, s0_log, s4_log = persistent_triple
        short = sigma_run(0.0, DisturbanceProfile(2, (20.0, 10.0), (10.0, 20.0)),
                          t_end=1.0)
        with pytest.raises(ValueError):
            check_drift_contrast(dads_log, short, s4_log)

    def test_drift_contrast_rejects_other_interior_times(self):
        # same length and last time, other interior times: a DADS grid at
        # dt = 0.01 ending at 0.035 against a uniform sigma = 0 grid; the
        # contrast returned a report over 5 samples
        def log(t):
            n = len(t)
            return TrajectoryLog(np.array(t), np.zeros((n, 3)), np.ones((n, 1)),
                                 np.zeros(n), np.zeros(n), np.zeros(n))

        dads_log = log([0.0, 0.01, 0.02, 0.03, 0.035])
        sigma0_log = log([0.0, 0.00875, 0.0175, 0.02625, 0.035])
        with pytest.raises(ValueError, match="logs must share the time grid"):
            check_drift_contrast(dads_log, sigma0_log, dads_log)

    def test_sigma_tradeoff_bound(self, persistent_triple):
        _, _, s4_log = persistent_triple
        ctrl = SigmaModController(sigma_leak=0.4)
        dist = DisturbanceProfile(2, (20.0, 10.0), (10.0, 20.0))
        d_sup = signal_sup(dist)
        rep = check_sigma_tradeoff(s4_log, THETA, ctrl, d_sup)
        assert rep.passed, rep.summary()
        # W = V + |theta_hat - theta|^2 / (2 Gamma), recomputed row by row
        W = [ctrl.lyapunov(x, th_hat) + sum((h - t) ** 2 for h, t in zip(th_hat, THETA)) / 40.0
             for x, th_hat in zip(s4_log.x, s4_log.ctrl)]
        # envelope e^{-lam t} W(0) + r (1 - e^{-lam t}) / lam with lam = min(2c, sigma)
        # and r = d_sup^2 / 2 + (sigma / 2 Gamma) |theta|^2, over the rows after t = 0
        r = 0.5 * d_sup ** 2 + 0.4 / 40.0 * float(np.dot(THETA, THETA))
        envelope = [math.exp(-0.4 * t) * W[0] + r * (1.0 - math.exp(-0.4 * t)) / 0.4
                    for t in s4_log.t]
        margins = [e - w for e, w in zip(envelope[1:], W[1:])]
        i = int(np.argmin(margins)) + 1
        assert rep.n_samples == len(s4_log) - 1
        assert rep.worst_margin == pytest.approx(margins[i - 1], rel=1e-12)
        assert rep.witness == pytest.approx((s4_log.t[i], W[i], envelope[i]), rel=1e-12)

    def test_sigma_tradeoff_bound_linear_in_sigma(self, persistent_triple):
        # the residual r the envelope reads, recovered from its witness, is
        # d_sup^2 / 2 plus a leak share linear in sigma
        _, _, s4_log = persistent_triple
        dist = DisturbanceProfile(2, (20.0, 10.0), (10.0, 20.0))
        d_sup = signal_sup(dist)
        W0 = float(s4_log.V[0]) + float(np.dot(THETA, THETA)) / 40.0  # theta_hat(0) = 0

        def residual(sigma):
            rep = check_sigma_tradeoff(s4_log, THETA, SigmaModController(sigma_leak=sigma), d_sup)
            t, _, envelope = rep.witness
            lam = min(1.0, sigma)
            return (envelope - math.exp(-lam * t) * W0) * lam / -math.expm1(-lam * t)

        base = 0.5 * d_sup ** 2
        r4, r8 = residual(0.4), residual(0.8)
        assert r4 - base == pytest.approx(0.4 / 40.0 * float(np.dot(THETA, THETA)), rel=1e-12)
        assert r8 - base == pytest.approx(2.0 * (r4 - base), rel=1e-12)

    def test_sigma_tradeoff_fails_when_W_rises(self):
        # sigma = 0 and no disturbance: r = 0, so the envelope is W(0) at
        # every t, and a W that rises above it fails with (t, W, W(0))
        theta_hat = np.tile(THETA, (4, 1))  # E = 0, so W is the logged V
        log = TrajectoryLog(np.array([0.0, 0.01, 0.02, 0.03]), np.zeros((4, 3)), theta_hat,
                            np.zeros(4), np.array([1.0, 0.5, 1.0, 1.5]), np.zeros(4))
        rep = check_sigma_tradeoff(log, THETA, SigmaModController(sigma_leak=0.0), 0.0)
        assert not rep.passed
        assert rep.n_samples == 3
        assert rep.worst_margin == -0.5
        assert rep.witness == (0.03, 1.5, 1.0)
        # W(t) = W(0) meets the bound: tolerance 0, margin 0
        log.V[3] = 1.0
        rep = check_sigma_tradeoff(log, THETA, SigmaModController(sigma_leak=0.0), 0.0)
        assert rep.passed and rep.worst_margin == 0.0
