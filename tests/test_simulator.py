"""Tests for the closed-loop simulator and trajectory statistics."""

import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dads.controllers import SigmaModController, WingRockDadsController
from dads.simulate import (
    DivergenceError,
    SimConfig,
    TrajectoryLog,
    simulate,
    trajectory_stats,
)
from dads.systems import (
    constant_parameter,
    sinusoid_bank,
    wingrock,
    zero_disturbance,
)

THETA = constant_parameter([20.0, 20.0, 2.0, 1.0])
X0 = [1.0, -0.5, -18.0]
Z0 = [-math.log(10.0)]


def run_sigma(t_end=1.0, dt=1e-4, sigma=0.4, dist=None, stride=100):
    sys = wingrock()
    ctrl = SigmaModController(sigma_leak=sigma)
    cfg = SimConfig(dt=dt, t_end=t_end, method="rk4", log_stride=stride)
    d = dist if dist is not None else zero_disturbance(2)
    return simulate(sys, ctrl, X0, [0.0] * 4, d, THETA, cfg), ctrl


def run_dads(t_end=2.0, dist=None):
    sys = wingrock()
    ctrl = WingRockDadsController()
    cfg = SimConfig(dt=1e-3, t_end=t_end, method="radau", log_stride=10)
    d = dist if dist is not None else zero_disturbance(2)
    return simulate(sys, ctrl, X0, Z0, d, THETA, cfg, output_indices=[0, 1]), ctrl


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


class TestBasicSimulation:
    def test_shapes_and_grid(self):
        log, _ = run_sigma(t_end=0.5)
        assert log.t[0] == 0.0
        assert log.t[-1] == pytest.approx(0.5)
        assert log.x.shape == (len(log), 3)
        assert log.ctrl.shape == (len(log), 4)
        assert log.state_names == ("x1", "x2", "x3")
        assert log.ctrl_names == ("th1", "th2", "th3", "th4")

    def test_initial_row_matches_ic(self):
        log, _ = run_sigma(t_end=0.1)
        assert log.x[0] == pytest.approx(X0)
        assert log.Ynorm[0] == pytest.approx(np.linalg.norm(X0))

    def test_deterministic_bitwise(self):
        a, _ = run_sigma(t_end=0.3)
        b, _ = run_sigma(t_end=0.3)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.ctrl, b.ctrl)

    def test_equilibrium_stays_fixed(self):
        sys = wingrock()
        ctrl = SigmaModController()
        cfg = SimConfig(dt=1e-3, t_end=0.2, method="rk4", log_stride=10)
        log = simulate(sys, ctrl, [0.0] * 3, [0.0] * 4,
                       zero_disturbance(2), THETA, cfg)
        assert np.max(np.abs(log.x)) == 0.0
        assert np.max(np.abs(log.u)) == 0.0

    def test_ic_shape_checks(self):
        sys = wingrock()
        ctrl = SigmaModController()
        with pytest.raises(ValueError):
            simulate(sys, ctrl, [0.0, 0.0], [0.0] * 4, zero_disturbance(2), THETA)
        with pytest.raises(ValueError):
            simulate(sys, ctrl, [0.0] * 3, [0.0], zero_disturbance(2), THETA)

    def test_output_indices_restrict_norm(self):
        log, _ = run_dads(t_end=0.05)
        expected = float(np.hypot(log.x[0, 0], log.x[0, 1]))
        assert log.Ynorm[0] == pytest.approx(expected)


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
            simulate(sys, ctrl, X0, Z0, zero_disturbance(2), THETA, cfg)
        assert ei.value.t_last == pytest.approx(0.0, abs=1e-2)

    def test_radau_failure_keeps_the_solver_reason(self):
        # y' = y^3 from y = -18 blows up at t = 1/648; Radau gives up before
        class BlowUp(WingRockDadsController):
            def step(self, x, cs, t=0.0):
                return x[2] ** 3, np.zeros(1)

        cfg = SimConfig(dt=1e-3, t_end=0.1, method="radau", log_stride=10)
        with pytest.raises(DivergenceError) as ei:
            simulate(wingrock(), BlowUp(), X0, Z0, zero_disturbance(2), THETA, cfg)
        assert "Required step size is less than spacing between numbers" in str(ei.value)
        assert ei.value.t_last == 0.0

    def test_dads_radau_integrates_and_z_monotone(self):
        log, _ = run_dads(t_end=2.0)
        dz = np.diff(log.ctrl[:, 0])
        assert np.min(dz) >= -1e-12
        assert np.all(np.isfinite(log.x))

    def test_dads_regulates(self):
        log, _ = run_dads(t_end=2.0)
        assert log.Ynorm[-1] < 0.25 * log.Ynorm[0]


class TestCsvRoundTrip:
    def test_round_trip_exact(self):
        log, _ = run_sigma(t_end=0.2)
        buf = io.StringIO()
        log.to_csv(buf)
        buf.seek(0)
        back = TrajectoryLog.from_csv(buf)
        assert back.state_names == log.state_names
        assert back.ctrl_names == log.ctrl_names
        assert np.array_equal(back.t, log.t)
        assert np.array_equal(back.x, log.x)
        assert np.array_equal(back.ctrl, log.ctrl)
        assert np.array_equal(back.u, log.u)
        assert np.array_equal(back.V, log.V)
        assert np.array_equal(back.Ynorm, log.Ynorm)

    def test_round_trip_dads_names(self):
        log, _ = run_dads(t_end=0.05)
        buf = io.StringIO()
        log.to_csv(buf)
        buf.seek(0)
        back = TrajectoryLog.from_csv(buf)
        assert back.ctrl_names == ("z",)
        assert np.array_equal(back.ctrl, log.ctrl)


class CountingController(SigmaModController):
    """The leakage baseline, counting its evaluations."""

    calls = 0

    def step(self, x, cs, t=0.0):
        CountingController.calls += 1
        return super().step(x, cs, t)


class TestControllerCalls:
    def test_one_step_per_rhs_plus_one_per_row(self):
        CountingController.calls = 0
        cfg = SimConfig(dt=1e-3, t_end=0.05, method="rk4", log_stride=10)
        log = simulate(wingrock(), CountingController(), X0, [0.0] * 4,
                       zero_disturbance(2), THETA, cfg)
        n_steps = 50
        assert len(log) == 6
        assert CountingController.calls == 4 * n_steps + len(log)


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
    def test_cli_import_does_not_load_scipy(self):
        # scipy is loaded by the first Radau solve, not by importing the CLI
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, dads.cli; assert dads.cli.__file__.startswith(sys.argv[1]); "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))", src],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
