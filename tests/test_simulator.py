"""Tests for the closed-loop simulator and trajectory statistics."""

import functools
import hashlib
import math
import re
import time
from argparse import Namespace
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dads.simulate as simulate_module
from conftest import run_fresh
from dads.cli import (
    build,
    build_controller,
    build_disturbance,
    build_gains,
    build_system,
    load_scenario,
    run_scenario,
)
from dads.controllers import SigmaModController, WingRockDadsController
from dads.jets import Tape
from dads.simulate import (
    DivergenceError,
    SimConfig,
    StiffSolution,
    simulate,
    trajectory_stats,
)
from dads.synthesis import BaseStepResult, synthesize, wingrock_majorants
from dads.systems import (
    DisturbanceProfile,
    constant_parameter,
    eval_dynamics,
    truncate,
    wingrock,
)
from dads.verify import check_trajectory_estimates, signal_sup
from test_synthesis import _cascade_plant

THETA = constant_parameter([20.0, 20.0, 2.0, 1.0])
X0 = [1.0, -0.5, -18.0]
Z0 = [-math.log(10.0)]
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
SIMULATING = sorted(p.stem for p in SCENARIOS.glob("*.scenario") if "[sim]" in p.read_text())


def run_sigma(t_end=1.0, dt=1e-4, sigma=0.4, dist=None, stride=100):
    sys = wingrock()
    ctrl = SigmaModController(sigma_leak=sigma)
    cfg = SimConfig(dt=dt, t_end=t_end, method="rk4", log_stride=stride)
    d = dist if dist is not None else DisturbanceProfile(2)
    return simulate(sys, ctrl, X0, [0.0] * 4, d, THETA, cfg), ctrl


def run_dads(t_end=2.0, dist=None):
    sys = wingrock()
    ctrl = WingRockDadsController()
    cfg = SimConfig(dt=1e-3, t_end=t_end, method="radau", log_stride=10)
    d = dist if dist is not None else DisturbanceProfile(2)
    return simulate(sys, ctrl, X0, Z0, d, THETA, cfg), ctrl


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(t_end=-1.0)
        with pytest.raises(ValueError):
            SimConfig(log_stride=0)
        with pytest.raises(ValueError):
            SimConfig(method="euler")
        with pytest.raises(ValueError, match="shorter than one step"):
            SimConfig(dt=1e-4, t_end=4e-5, method="rk4")
        assert SimConfig(dt=1e-4, t_end=1e-4).t_end == 1e-4

    def test_the_default_method_runs_lsoda(self, monkeypatch):
        # RK4 runs only when a scenario or caller names it
        solves, solve = [], simulate_module.solve_ivp
        monkeypatch.setattr(simulate_module, "_integrate_rk4", None)
        monkeypatch.setattr(simulate_module, "solve_ivp",
                            lambda *args: solves.append(args) or solve(*args))
        assert SimConfig().method == "radau"
        simulate(wingrock(), SigmaModController(), X0, [0.0] * 4, DisturbanceProfile(2),
                 THETA, SimConfig(dt=1e-3, t_end=0.01))
        assert len(solves) == 1


class TestBasicSimulation:
    def test_shapes_and_grid(self):
        log, _ = run_sigma(t_end=0.5)
        assert log.t[0] == 0.0
        assert log.t[-1] == pytest.approx(0.5)
        assert log.x.shape == (len(log), 3)
        assert log.ctrl.shape == (len(log), 4)
        assert log.header() == ["t", "x1", "x2", "x3", "th1", "th2", "th3", "th4",
                                "u", "V", "Ynorm"]

    def test_initial_row_matches_ic(self):
        log, _ = run_sigma(t_end=0.1)
        assert log.x[0] == pytest.approx(X0)
        assert log.Ynorm[0] == pytest.approx(np.linalg.norm(X0[:2]))

    def test_deterministic_bitwise(self):
        a, _ = run_sigma(t_end=0.3)
        b, _ = run_sigma(t_end=0.3)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.ctrl, b.ctrl)

    def test_log_stride_keeps_the_same_rows(self):
        # RK4 stores only the logged rows: every 7th step and the last one
        full, _ = run_sigma(t_end=0.05, dt=1e-3, stride=1)
        thin, _ = run_sigma(t_end=0.05, dt=1e-3, stride=7)
        rows = [*range(0, 51, 7), 50]
        assert np.array_equal(thin.t, full.t[rows])
        assert np.array_equal(thin.x, full.x[rows])
        assert np.array_equal(thin.ctrl, full.ctrl[rows])

    def test_equilibrium_stays_fixed(self):
        sys = wingrock()
        ctrl = SigmaModController()
        cfg = SimConfig(dt=1e-3, t_end=0.2, method="rk4", log_stride=10)
        log = simulate(sys, ctrl, [0.0] * 3, [0.0] * 4,
                       DisturbanceProfile(2), THETA, cfg)
        assert np.max(np.abs(log.x)) == 0.0
        assert np.max(np.abs(log.u)) == 0.0

    def test_ic_shape_checks(self):
        sys = wingrock()
        ctrl = SigmaModController()
        with pytest.raises(ValueError):
            simulate(sys, ctrl, [0.0, 0.0], [0.0] * 4, DisturbanceProfile(2), THETA)
        with pytest.raises(ValueError):
            simulate(sys, ctrl, [0.0] * 3, [0.0], DisturbanceProfile(2), THETA)

    @pytest.mark.parametrize("run", [run_dads, run_sigma])
    def test_output_norm_is_the_plants_output(self, run):
        # wing-rock's output is (x1, x2), the pair its attractivity radius bounds
        log, _ = run(t_end=0.05)
        assert wingrock().output_dim == 2
        assert np.array_equal(log.Ynorm, np.linalg.norm(log.x[:, :2], axis=1))
        assert np.all(log.Ynorm < np.linalg.norm(log.x, axis=1))

    @pytest.mark.parametrize("method", ["rk4", "radau"])
    @pytest.mark.parametrize("t_end, stride", [(0.00035, 1), (0.0305, 100), (0.03, 100)])
    def test_log_times_are_the_logged_times(self, method, t_end, stride):
        cfg = SimConfig(dt=1e-4, t_end=t_end, method=method, log_stride=stride)
        log = simulate(wingrock(), SigmaModController(), X0, [0.0] * 4,
                       DisturbanceProfile(2), THETA, cfg)
        assert log.t.tobytes() == cfg.log_times().tobytes()
        # RK4 ends on its last whole step, 0.0004 for t_end = 0.00035
        assert log.t[-1] == (1e-4 * round(t_end / 1e-4) if method == "rk4" else t_end)


class TestAccuracyAndStiffness:
    def test_rk4_order_by_step_halving(self):
        ref = {}
        for dt in (4e-4, 2e-4, 1e-4):
            log, _ = run_sigma(t_end=0.5, dt=dt, stride=int(round(0.5 / dt)))
            ref[dt] = log.x[-1]
        e1 = np.linalg.norm(ref[4e-4] - ref[2e-4])
        e2 = np.linalg.norm(ref[2e-4] - ref[1e-4])
        assert 8.0 <= e1 / e2 <= 32.0

    def test_dads_rk4_diverges_immediately(self):
        sys = wingrock()
        ctrl = WingRockDadsController()
        cfg = SimConfig(dt=1e-4, t_end=1.0, method="rk4")
        with pytest.raises(DivergenceError) as ei:
            simulate(sys, ctrl, X0, Z0, DisturbanceProfile(2), THETA, cfg)
        assert ei.value.t_last == pytest.approx(0.0, abs=1e-2)

    def test_stiff_blow_up_ends_at_the_budget(self):
        # y' = y^3 from y = -18 blows up at t = 1/648; LSODA never gives up on
        # its own there, so the rhs-evaluation budget ends the solve
        class BlowUp(WingRockDadsController):
            def step(self, x, cs, t=0.0):
                return x[2] ** 3, np.zeros(1)

        cfg = SimConfig(dt=1e-3, t_end=0.1, method="radau", log_stride=10)
        start = time.perf_counter()
        with pytest.raises(DivergenceError) as ei:
            simulate(wingrock(), BlowUp(), X0, Z0, DisturbanceProfile(2), THETA, cfg)
        assert time.perf_counter() - start < 10.0
        budget = simulate_module.NFEV_PER_SECOND  # t_end < 1
        assert f"budget of {budget} rhs evaluations" in str(ei.value)
        assert ei.value.t_last == pytest.approx(1.0 / 648.0, rel=1e-6)

    def test_dads_radau_integrates_and_z_monotone(self):
        log, _ = run_dads(t_end=2.0)
        dz = np.diff(log.ctrl[:, 0])
        assert np.min(dz) >= -1e-12
        assert np.all(np.isfinite(log.x))

    @pytest.mark.parametrize("name", ["fig1_dads", "fig4_dads"])
    def test_stiff_solver_matches_a_radau_reference(self, name):
        # oracle: scipy's Radau IIA on the interpreted rhs, at the tolerances
        # the stiff method ran with before it moved to LSODA
        from scipy.integrate import solve_ivp

        setup = build(str(SCENARIOS / f"{name}.scenario"), Namespace(t_end=0.5))
        log, ctrl = run_scenario(setup)
        dist = setup.disturbance
        sys, theta = setup.system, np.array(setup.theta)
        got = np.column_stack([log.x, log.ctrl])
        with np.errstate(over="ignore", invalid="ignore"):
            ref = solve_ivp(
                lambda t, s: _interpreted_rhs(sys, ctrl, theta, dist, t, s),
                (0.0, 0.5), got[0], method="Radau", t_eval=log.t,
                rtol=1e-10, atol=1e-13).y.T
        assert np.all(np.abs(got - ref) <= 1e-8 * (1.0 + np.abs(ref)))

    @pytest.mark.parametrize("name, t_end", [
        ("fig1_dads", 2.34), ("fig4_dads", 1.11), ("vanishing", 1.61),
    ])
    def test_stiff_solver_completes_at_other_horizons(self, name, t_end):
        # with the last plant state held to RTOL/ATOL like the others, LSODA
        # failed its error test (fig1) or crawled into the budget here
        log, _ = run_scenario(build(str(SCENARIOS / f"{name}.scenario"), Namespace(t_end=t_end)))
        assert log.t[-1] == t_end
        assert np.min(np.diff(log.ctrl[:, 0])) >= -1e-13

    def test_dads_regulates(self):
        log, _ = run_dads(t_end=2.0)
        assert log.Ynorm[-1] < 0.25 * log.Ynorm[0]


class TestRecordsHoldingArrays:
    def test_equality_and_hash_are_identity(self):
        # generated field-wise equality would compare arrays, whose truth
        # value is ambiguous
        log, _ = run_sigma(t_end=0.01)
        solution = StiffSolution(np.zeros((2, 1)), None, 2, 1, 0, 0)
        base = BaseStepResult(np.eye(2), np.zeros(2), 1.0, 1.0, None)
        for record, copy in ((log, replace(log)), (solution, replace(solution)),
                             (base, replace(base))):
            assert record == record and record != copy
            assert hash(record) != hash(copy)


class TestCsvRoundTrip:
    """The CSV holds every logged float exactly (17 significant digits)."""

    @staticmethod
    def _written(log, tmp_path):
        path = tmp_path / "log.csv"
        log.to_csv(str(path))
        with open(path) as fh:
            header = fh.readline().rstrip("\n")
        return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

    def test_round_trip_exact(self, tmp_path):
        log, _ = run_sigma(t_end=0.2)
        header, data = self._written(log, tmp_path)
        assert header == "t,x1,x2,x3,th1,th2,th3,th4,u,V,Ynorm"
        expected = np.column_stack([log.t, log.x, log.ctrl, log.u, log.V, log.Ynorm])
        assert np.array_equal(data, expected)

    def test_round_trip_dads_names(self, tmp_path):
        log, _ = run_dads(t_end=0.05)
        header, data = self._written(log, tmp_path)
        assert header == "t,x1,x2,x3,z,u,V,Ynorm"
        assert np.array_equal(data[:, 4], log.ctrl[:, 0])
        assert np.array_equal(data[:, 5:], np.column_stack([log.u, log.V, log.Ynorm]))


class CountingController(SigmaModController):
    """The leakage baseline, counting its evaluations."""

    calls = 0

    def step(self, x, cs, t=0.0):
        CountingController.calls += 1
        return super().step(x, cs, t)


class TestControllerCalls:
    def test_traced_once_checked_once_plus_one_per_row(self):
        # the integrator runs the compiled trace, never the law itself
        CountingController.calls = 0
        cfg = SimConfig(dt=1e-3, t_end=0.05, method="rk4", log_stride=10)
        log = simulate(wingrock(), CountingController(), X0, [0.0] * 4,
                       DisturbanceProfile(2), THETA, cfg)
        assert len(log) == 6
        assert CountingController.calls == 1 + 1 + len(log)


def _interpreted_rhs(sys, ctrl, theta, dist, t, s):
    n = sys.state_dim
    u, rate = ctrl.step(s[:n], s[n:], t)
    return np.concatenate([eval_dynamics(sys, s[:n], u, theta, dist(t)), rate])


class LinearCascadeLaw:
    """u = -(x + 3 y1 + 3 y2) on the n = 1, m = 2 cascade; c' = -c."""

    ctrl_dim = 1

    def step(self, x, cs, t=0.0):
        return -(x[0] + 3.0 * x[1] + 3.0 * x[2]), (-1.0 * cs[0],)

    def lyapunov(self, x, cs):
        return float(np.dot(x, x))


class TimedSigmaMod(SigmaModController):
    """The leakage law with a time-dependent term added to u."""

    def step(self, x, cs, t=0.0):
        u, w = super().step(x, cs, t)
        return u + 0.5 * t * x[0] - t * t, w


class HoldsInfinity(SigmaModController):
    """The leakage law plus x1 / (0 x1 + inf), a signed zero: the trace binds
    the non-finite constant by name, as c0."""

    def step(self, x, cs, t=0.0):
        u, w = super().step(x, cs, t)
        return u + x[0] / (0.0 * x[0] + math.inf), w


class PushesDown(WingRockDadsController):
    """u = -1e9, z held: x3 falls linearly, and x1, x2 stay finite."""

    def step(self, x, cs, t=0.0):
        return -1e9, (0.0,)


class RampsAnEstimate(SigmaModController):
    """The leak-free law (sigma = 0) with 1e9 added to the first estimate's
    rate.  From the origin the law holds the plant at rest, so the first
    estimate alone ramps, past DIVERGENCE_THRESHOLD at t = 0.1."""

    def __init__(self):
        super().__init__(sigma_leak=0.0)

    def step(self, x, cs, t=0.0):
        u, w = super().step(x, cs, t)
        return u, (w[0] + 1e9, *w[1:])


@functools.cache
def _synth_wingrock():
    """synthesize on synth_wingrock's gains (eps = 5e-5), seed 0, once per module."""
    gains = build_gains(load_scenario(
        str(SCENARIOS / "synth_wingrock.scenario")))
    return synthesize(wingrock(), gains, wingrock_majorants(gains), seed=0)


def _synthesized_controller():
    return _synth_wingrock().stage_trace[-1]


class TestTrace:
    """The compiled rhs equals the interpreted plant plus law, state by state."""

    @pytest.mark.parametrize("case", ["sigma-mod", "sigma-zero", "dads", "cascade-linear",
                                      "reads-t", "synthesized"])
    def test_compiled_equals_interpreted_at_sampled_states(self, case):
        sys, theta = wingrock(), np.array([20.0, 20.0, 2.0, 1.0])
        dist = DisturbanceProfile(2, (20.0, 10.0), (10.0, 20.0))
        ctrl = {
            "sigma-mod": SigmaModController,
            "sigma-zero": lambda: SigmaModController(sigma_leak=0.0),
            "dads": WingRockDadsController,
            "reads-t": TimedSigmaMod,
            "synthesized": _synthesized_controller,
            "cascade-linear": LinearCascadeLaw,
        }[case]()
        if case == "cascade-linear":
            sys, theta = _cascade_plant(), np.array([1.5])
            dist = DisturbanceProfile(1, (2.0,), (3.0,))
        rhs = simulate_module._rhs_function(
            *simulate_module._trace_rhs(sys, ctrl, theta.tolist(), dist))(math.inf)
        rng = np.random.default_rng(11)
        n, q = sys.state_dim, ctrl.ctrl_dim
        finite = 0
        with np.errstate(all="ignore"):
            for _ in range(1000):
                s = np.concatenate([rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, q)])
                t = rng.uniform(0.0, 10.0)
                got = np.array(rhs(t, s))
                want = _interpreted_rhs(sys, ctrl, theta, dist, t, s)
                assert np.array_equal(got, want, equal_nan=True), (s, t, got, want)
                finite += bool(np.all(np.isfinite(want)))
        assert finite >= 500

    def test_overflow_and_zero_division_follow_numpy(self):
        # Python's float ** and / raise where the interpreted float64 path
        # gives inf; the compiled rhs must give inf too
        class Steep(SigmaModController):
            def step(self, x, cs, t=0.0):
                u, w = super().step(x, cs, t)
                return u + x[0] ** 3 + 1.0 / (x[1] * 0.0), w

        ctrl, dist = Steep(), DisturbanceProfile(2)
        rhs = simulate_module._rhs_function(
            *simulate_module._trace_rhs(wingrock(), ctrl, THETA(0.0).tolist(), dist))(math.inf)
        s = np.array([1e200, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        with np.errstate(all="ignore"):
            got = np.array(rhs(0.0, s))
            want = _interpreted_rhs(wingrock(), ctrl, THETA(0.0), dist, 0.0, s)
        assert np.array_equal(got, want, equal_nan=True)
        assert not np.all(np.isfinite(got))

    @pytest.mark.parametrize("law", [
        lambda x, cs, t: (-x[2] if x[0] else x[2], (0.0,)),
        lambda x, cs, t: (max(x[0], 0.0), (0.0,)),
        lambda x, cs, t: (float(x[0]), (0.0,)),
        lambda x, cs, t: (np.sin(x[0]), (0.0,)),
    ], ids=["if", "max", "float", "np.sin"])
    def test_untraceable_law_raises_before_the_first_step(self, law, monkeypatch):
        class Law(WingRockDadsController):
            def step(self, x, cs, t=0.0):
                return law(x, cs, t)

        def never(*args):
            raise AssertionError("integration started")

        monkeypatch.setattr(simulate_module, "_integrate_rk4", never)
        cfg = SimConfig(dt=1e-3, t_end=0.01, method="rk4", log_stride=1)
        with pytest.raises(TypeError, match="cannot trace|does not support ufuncs"):
            simulate(wingrock(), Law(), X0, Z0, DisturbanceProfile(2), THETA, cfg)

    def test_mismatch_with_the_interpreted_rhs_raises(self):
        class Drifting(SigmaModController):
            """Not a function of its arguments: each call adds more."""

            calls = 0

            def step(self, x, cs, t=0.0):
                Drifting.calls += 1
                u, w = super().step(x, cs, t)
                return u + float(Drifting.calls), w

        cfg = SimConfig(dt=1e-3, t_end=0.01, method="rk4", log_stride=1)
        with pytest.raises(RuntimeError, match="traced rhs"):
            simulate(wingrock(), Drifting(), X0, [0.0] * 4, DisturbanceProfile(2), THETA,
                     cfg)


class TestSynthesizedStageLoop:
    """A synthesized stage is a runnable law: stage 2 (c = 1, a = 1) closes
    the loop on the wing-rock plant cut after x2, under a disturbance and a
    parameter scaled by s_d and s_theta, and its trajectory estimates hold."""

    @pytest.mark.parametrize("s_d, s_theta, t_end", [
        (1.0, 1.0, 10.0), (10.0, 1.0, 10.0), (1.0, 100.0, 10.0),
        (100.0, 1.0, 2.0), (100.0, 100.0, 2.0),
    ])
    def test_trajectory_estimates_hold(self, s_d, s_theta, t_end):
        stage = _synth_wingrock().stage_trace[1]
        assert (stage.gains.c, stage.gains.a) == (1.0, 1.0)
        dist = DisturbanceProfile(2, (20.0 * s_d, 0.0), (10.0, 0.0))
        theta = s_theta * np.array([20.0, 20.0, 2.0, 1.0])
        log = simulate(truncate(wingrock(), 2), stage, (1.0, -0.5), (0.0,), dist,
                       constant_parameter(theta), SimConfig(dt=1e-4, t_end=t_end, log_stride=100))
        # the output radius sqrt(2 eps) stands in for one derived from sigma,
        # so its report is not asserted
        reports = check_trajectory_estimates(
            log, stage.gains, d_sup=signal_sup(dist),
            theta_sup=float(np.linalg.norm(theta)),
            attractivity_radius=math.sqrt(2.0 * stage.gains.eps_dz))
        assert [rep.name for rep in reports[:3]] == [
            "V envelope", "z monotonicity", "tail V bound"]
        for rep in reports[:3]:
            assert rep.passed, rep.summary()


def _reference_rk4(sys, ctrl, theta, dist, s0, cfg):
    """The logged rows of RK4 on the interpreted rhs, with numpy arrays."""
    f, dt = (lambda t, s: _interpreted_rhs(sys, ctrl, theta, dist, t, s)), cfg.dt
    n_steps, s, rows = int(round(cfg.t_end / dt)), np.asarray(s0, float), [s0]
    for i in range(n_steps):
        t = i * dt
        k1 = f(t, s)
        k2 = f(t + dt / 2.0, s + dt / 2.0 * k1)
        k3 = f(t + dt / 2.0, s + dt / 2.0 * k2)
        k4 = f(t + dt, s + dt * k3)
        s = s + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(s)) or np.max(np.abs(s)) > simulate_module.DIVERGENCE_THRESHOLD:
            raise DivergenceError(t)
        if (i + 1) % cfg.log_stride == 0 or i + 1 == n_steps:
            rows.append(s)
    return np.array(rows)


class TestCompiledLoop:
    """The RK4 loop over the compiled rhs logs the same rows as RK4 on arrays."""

    @pytest.mark.parametrize("case", ["zero", "sinusoid-bank", "vanishing",
                                      "cascade", "reads-t", "stride-divides",
                                      "non-finite-constant", "sigma-zero"])
    def test_rows_equal_the_reference(self, case):
        sys, theta, ctrl = wingrock(), THETA(0.0), SigmaModController(sigma_leak=0.4)
        x0, c0 = X0, [0.0] * 4
        dist = {
            "zero": DisturbanceProfile(2),
            "vanishing": DisturbanceProfile(2, (20.0, 10.0), (10.0, 20.0), 0.7),
        }.get(case, DisturbanceProfile(2, (20.0, 10.0), (10.0, 20.0)))
        if case == "cascade":
            sys, theta = _cascade_plant(), np.array([1.5])
            dist = DisturbanceProfile(1, (2.0,), (3.0,))
            ctrl, x0, c0 = LinearCascadeLaw(), [1.0, -0.5, 0.3], [2.0]
        if case == "reads-t":
            ctrl = TimedSigmaMod()
        if case == "non-finite-constant":
            ctrl = HoldsInfinity(sigma_leak=0.4)
        if case == "sigma-zero":
            ctrl = SigmaModController(sigma_leak=0.0)
        # 300 steps: 7 does not divide them, 10 does
        stride = 10 if case == "stride-divides" else 7
        cfg = SimConfig(dt=1e-4, t_end=0.03, method="rk4", log_stride=stride)
        log = simulate(sys, ctrl, x0, c0, dist, constant_parameter(theta), cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _reference_rk4(sys, ctrl, theta, dist, [*x0, *c0], cfg)
        assert np.array_equal(np.column_stack([log.x, log.ctrl]), want)
        assert np.array_equal(log.t, 1e-4 * np.array(sorted({*range(0, 301, stride), 300})))

    @pytest.mark.parametrize("law", ["dads", "pushes-down", "ramps-an-estimate"])
    def test_divergence_time_equals_the_reference(self, law):
        # the stiff DADS law blows up at once; the second drives x3 below
        # -DIVERGENCE_THRESHOLD at t = 0.1 with every state finite, and the
        # leak-free third one does so with its first estimate
        ctrl = {"dads": WingRockDadsController, "pushes-down": PushesDown,
                "ramps-an-estimate": RampsAnEstimate}[law]()
        x0, c0 = ([0.0] * 3, [0.0] * 4) if law == "ramps-an-estimate" else (X0, Z0)
        cfg = SimConfig(dt=1e-4, t_end=1.0, method="rk4")
        with pytest.raises(DivergenceError) as got:
            simulate(wingrock(), ctrl, x0, c0, DisturbanceProfile(2), THETA, cfg)
        with pytest.raises(DivergenceError) as want, np.errstate(over="ignore", invalid="ignore"):
            _reference_rk4(wingrock(), ctrl, THETA(0.0), DisturbanceProfile(2),
                           [*x0, *c0], cfg)
        assert got.value.t_last == want.value.t_last
        if law != "dads":
            assert got.value.t_last == pytest.approx(0.1, abs=2e-4)

    @staticmethod
    def _traced_run(name, monkeypatch):
        """The tape, the rates' texts and the generated source of a short
        run of a shipped scenario."""
        trace, traced = simulate_module._trace_rhs, []
        compile_, sources = Tape.compile, []
        monkeypatch.setattr(simulate_module, "_trace_rhs",
                            lambda *args: traced.append(trace(*args)) or traced[-1])
        monkeypatch.setattr(Tape, "compile", lambda tape, source, name, namespace: (
            sources.append(source) or compile_(tape, source, name, namespace)))
        run_scenario(build(str(SCENARIOS / f"{name}.scenario"), Namespace(t_end=1e-3)))
        ((tape, rates),), (source,) = traced, sources
        return tape, rates, source

    @pytest.mark.parametrize("name", SIMULATING)
    def test_shipped_kernels_record_each_operation_once_and_call_no_rhs(
            self, name, monkeypatch):
        tape, rates, _ = self._traced_run(name, monkeypatch)
        right_sides = [line.partition(" = ")[2] for line in tape.lines]
        assert len(set(right_sides)) == len(right_sides)
        # the compiled rhs, which both methods call, reads no global but the
        # state's tolist, the budget's error and the inline elementary
        # functions with their slow paths
        rhs = simulate_module._rhs_function(tape, rates)(math.inf)
        assert set(rhs.__code__.co_names) <= {
            "tolist", "_over_budget", "exp", "jet_exp", "cos", "inf", "nan", "_pow", "_div"}

    @pytest.mark.parametrize("name, lines", [
        ("fig1_dads", 70), ("fig1_sigma0", 57), ("fig1_sigma04", 65), ("fig4_dads", 78),
        ("fig4_sigma0", 65), ("fig4_sigma04", 73), ("vanishing", 83)])
    def test_shipped_tape_lengths(self, name, lines, monkeypatch):
        # the [disturbance] numbers alone fix the traced d(t): no amplitudes
        # record no line, and a zero decay no decay factor
        assert len(self._traced_run(name, monkeypatch)[0].lines) == lines

    @pytest.mark.parametrize("name", SIMULATING)
    def test_compiled_source_is_the_tape(self, name, monkeypatch):
        # statement K after the state's unpacking is tape line vK, every
        # line in tape order, then the return of the rates' texts
        tape, rates, source = self._traced_run(name, monkeypatch)
        body = [line.strip() for line in source.splitlines()]
        start = next(i for i, line in enumerate(body) if line.endswith("= s.tolist()")) + 1
        assert body[start:-2] == tape.lines
        assert body[-2:] == [f"return ({', '.join(rates)},)", "return rhs"]

    @pytest.mark.parametrize("method", ["rk4", None])
    def test_one_generated_function_per_run(self, method, monkeypatch):
        # the RK4 loop compiled the traced lines a second time
        compile_, names = Tape.compile, []
        monkeypatch.setattr(Tape, "compile", lambda tape, source, name, namespace: (
            names.append(name) or compile_(tape, source, name, namespace)))
        cfg = SimConfig(dt=1e-3, t_end=0.01, **({"method": method} if method else {}))
        simulate(wingrock(), SigmaModController(), X0, [0.0] * 4, DisturbanceProfile(2),
                 THETA, cfg)
        assert names == ["budgeted"]

    def test_sigma0_trace_skips_zero_weights(self):
        scn = load_scenario(str(SCENARIOS / "fig4_sigma0.scenario"))
        sys = build_system(scn)
        tape, _ = simulate_module._trace_rhs(
            sys, build_controller(scn, sys)[1], scn.get("parameter", "value"),
            build_disturbance(scn, sys.l))
        # neither the sigma = 0 leak nor the disturbance channels a level
        # does not receive leave a product with 0.0 on the tape
        assert len(tape.lines) <= 65
        assert not any(re.fullmatch(r"v\d+ = (0\.0 \* \S+|\S+ \* 0\.0)", line)
                       for line in tape.lines)


def _log_digest(log) -> str:
    """sha256 of the float64 bytes of t, x, ctrl, u, V and Ynorm, in that order."""
    digest = hashlib.sha256()
    for column in (log.t, log.x, log.ctrl, log.u, log.V, log.Ynorm):
        digest.update(np.ascontiguousarray(column, dtype=np.float64).tobytes())
    return digest.hexdigest()


class TestPinnedTrajectories:
    """Every logged bit of four runs, pinned before the RK4 kernel and the
    stiff rhs were rewritten; a change to their arithmetic shows here."""

    def test_sigma_mod_persistent_runs(self, sigma0_persistent, sigma04_persistent):
        assert _log_digest(sigma0_persistent) == (
            "db199784f9eac1828c107f819a32b0c62daa563fe9f5c0e97320c126571b92e1")
        assert _log_digest(sigma04_persistent) == (
            "b8d6a739b4fc6fea69fb5848c1b73abb58e0b98dd6077986fb2274d7a97b7289")

    @pytest.mark.parametrize("name, digest", [
        ("fig1_dads", "210db60e4d9448bdd5872808bfe645f9e74084a8089071faa77d7808d0391c8e"),
        ("fig4_dads", "9cf84db3d672f001b7aa1f80a5d5d6d4260c9dea82ed5ff9670566ce4d6960bd"),
    ])
    def test_stiff_dads_runs(self, name, digest):
        log, _ = run_scenario(build(str(SCENARIOS / f"{name}.scenario"), Namespace(t_end=0.5)))
        assert _log_digest(log) == digest


class TestStats:
    def test_control_energy_additive_over_split(self):
        log, ctrl = run_sigma(t_end=1.0, stride=10)
        stats = trajectory_stats(log, ctrl)
        mid = len(log) // 2
        e_front = np.trapezoid(log.u[: mid + 1] ** 2, log.t[: mid + 1])
        e_back = np.trapezoid(log.u[mid:] ** 2, log.t[mid:])
        assert stats.control_energy == pytest.approx(e_front + e_back, rel=1e-9)

    def test_tail_suprema(self):
        log, ctrl = run_sigma(t_end=1.0)
        stats = trajectory_stats(log, ctrl)
        n_tail = max(1, int(math.ceil(0.2 * len(log))))
        assert stats.sup_output_tail == pytest.approx(np.max(log.Ynorm[-n_tail:]))
        assert stats.sup_V_tail == pytest.approx(np.max(log.V[-n_tail:]))
        assert stats.final_ctrl_norm == pytest.approx(np.linalg.norm(log.ctrl[-1]))

    def test_gain_statistics(self):
        log, ctrl = run_dads(t_end=0.5)
        stats = trajectory_stats(log, ctrl)
        gains = 1.0 + np.exp(log.ctrl[:, 0])
        assert stats.sup_gain == pytest.approx(np.max(gains))
        assert stats.final_gain == pytest.approx(gains[-1])


class TestDeferredScipy:
    @staticmethod
    def _run(code, *args):
        """Run code in a fresh interpreter that has imported dads.cli from src/."""
        return run_fresh(
            "import sys, dads.cli; assert dads.cli.__file__.startswith(sys.argv[1]); " + code,
            *args)

    def test_cli_import_does_not_load_scipy(self):
        # the LSODA extension is loaded by the first stiff solve, not by
        # importing the CLI
        out = self._run("print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert out.strip() == "[]"

    def test_stiff_run_does_not_import_scipy_integrate(self, tmp_path):
        # the stiff solve loads only the compiled extension, so neither the
        # scipy.integrate package nor scipy.special (its largest import) runs
        out = self._run(
            "import dads.simulate as s; "
            "code = dads.cli.main(['simulate', sys.argv[2], '--t-end', '0.01', "
            "'--out', sys.argv[3]]); "
            "print(code, s.odepack.cache_info().currsize, "
            "'scipy.integrate' in sys.modules, 'scipy.special' in sys.modules)",
            str(SCENARIOS / "fig1_dads.scenario"), str(tmp_path))
        assert out.splitlines()[-1].split() == ["0", "1", "False", "False"]

    def test_only_the_sampled_checks_import_numpy_random(self, tmp_path):
        # numpy.random costs a simulating command about 13 ms and 6 MB per
        # process; only the seeded samplers load it
        out = self._run(
            "seen = lambda: 'numpy.random' in sys.modules; print(seen()); "
            "dads.cli.main(['verify', sys.argv[2], '--t-end', '0.05', '--out', sys.argv[4]]); "
            "print(seen()); "
            "dads.cli.main(['verify', sys.argv[3], '--out', sys.argv[4]]); print(seen())",
            str(SCENARIOS / "fig1_dads.scenario"), str(SCENARIOS / "ineq34.scenario"),
            str(tmp_path))
        seen = [line for line in out.splitlines() if line in ("False", "True")]
        assert seen == ["False", "False", "True"]


class TestOdepackExtension:
    """The stiff method calls scipy's private `_odepack` extension."""

    def test_loads_from_the_scipy_install(self):
        # fails with the path looked for if scipy moves or renames the file
        assert callable(simulate_module.odepack().odeint)

    def test_a_missing_file_is_named(self, monkeypatch):
        monkeypatch.setattr(simulate_module.os.path, "isfile", lambda path: False)
        with pytest.raises(ImportError, match=r"integrate[/\\]_odepack\."):
            simulate_module.odepack.__wrapped__()

    def test_messages_match_scipy(self):
        from scipy.integrate._odepack_py import _msgs

        assert simulate_module.LSODA_MESSAGES == {k: v for k, v in _msgs.items() if k < 0}

    def test_solve_ivp_counts(self):
        # y' = -y; nlu is LSODA's nje, as scipy's LSODA wrapper reports it.
        # A budget past a C int (t_end above 21,475 s) caps LSODA's step limit.
        t = np.linspace(0.0, 1.0, 11)
        sol = simulate_module.solve_ivp(
            lambda t, s: (-s[0],), np.array([1.0]), t, np.array([1e-14]), 10**12)
        assert sol.istate == 2 and sol.failed is None
        assert np.allclose(sol.y[:, 0], np.exp(-t), rtol=1e-10)
        assert sol.nfev > 0 and sol.njev == sol.nlu
