"""Tests for the closed-form wing-rock laws and the synthesized wrapper."""

import math

import numpy as np
import pytest

from conftest import run_fresh
from dads.controllers import (
    DadsGains,
    SigmaModController,
    SynthesizedDadsController,
    WingRockDadsController,
    sigma_mod_W_map,
    sigma_mod_control,
    deadzone_rate,
    wingrock_control,
    wingrock_damping,
    wingrock_intermediates,
)
from dads.jets import SmoothMap, gradient

X0 = (1.0, -0.5, -18.0)
Z0 = -math.log(10.0)

# frozen reference values at the benchmark initial condition
ZETA0 = 0.5
RHO0 = 1.1
L0 = 2.0625
XI0 = -0.030625
V0 = 0.6254689453124997
ZDOT0 = 123.09378906249993
U0 = 319634.27054951474


class TestWingRockIntermediates:
    def test_frozen_values(self):
        terms = wingrock_intermediates(*X0, Z0, c=0.5, K=14.0)
        assert terms.zeta == pytest.approx(ZETA0, abs=1e-15)
        assert terms.rho == pytest.approx(RHO0, abs=1e-15)
        assert terms.L == pytest.approx(L0, abs=1e-15)
        assert terms.xi == pytest.approx(XI0, abs=1e-12)
        assert terms.V == pytest.approx(V0, rel=1e-14)

    def test_origin_values(self):
        terms = wingrock_intermediates(0.0, 0.0, 0.0, 0.0, c=0.5, K=14.0)
        assert terms.zeta == 0.0
        assert terms.rho == 2.0
        assert terms.L == 1.0
        assert terms.xi == 0.0
        assert terms.V == 0.0


class TestWingRockDads:
    def test_constructor_defaults(self):
        ctrl = WingRockDadsController()
        assert (ctrl.c, ctrl.K, ctrl.Gamma, ctrl.eps_dz) == (0.5, 14.0, 20.0, 0.01)

    def test_gains_are_the_design_constants(self):
        g = WingRockDadsController(c=0.75, K=30.0, Gamma=3.0, eps_dz=0.2).gains
        assert (g.b, g.a, g.c, g.Gamma, g.eps_dz) == (1.0, 2.0, 0.75, 3.0, 0.2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"c": 0.4},
            {"K": 13.0},
            {"c": 1.0, "K": 20.0},  # K < 28 c
            {"Gamma": 0.0},
            {"eps_dz": -1.0},
        ],
    )
    def test_constructor_rejects(self, kwargs):
        with pytest.raises(ValueError):
            WingRockDadsController(**kwargs)

    def test_initial_input_oracle(self):
        ctrl = WingRockDadsController()
        assert wingrock_control(X0, Z0, ctrl)[0] == pytest.approx(U0, rel=1e-12)
        u, rate = ctrl.step(np.array(X0), np.array([Z0]))
        assert u == pytest.approx(U0, rel=1e-12)
        assert rate == pytest.approx([ZDOT0], rel=1e-12)

    def test_input_termwise_oracle(self):
        ctrl = WingRockDadsController()
        c, K, G, eps = 0.5, 14.0, 20.0, 0.01
        x1, x2, x3 = X0
        zeta, rho, L, xi, V = wingrock_intermediates(x1, x2, x3, Z0, c, K)
        expected = (
            -(2 * c + K * rho**2 * (L + 4 * zeta * x2**3)) * x3
            - zeta - x2
            - 2 * G * K * rho * L * max(V - eps, 0.0) * zeta
            - K * rho**2 * x2 * (4 * x1**3 * zeta + 2 * c * L)
            - 42 * c * (2 * c + 1) * rho**2 * L * (1 + 18 * c * K * rho**2 * L) ** 2 * xi
        )
        assert wingrock_control(X0, Z0, ctrl)[0] == pytest.approx(expected, rel=1e-14)
        terms = wingrock_intermediates(x1, x2, x3, Z0, c, K)
        assert wingrock_damping(terms, c, K) == pytest.approx(
            42 * c * (2 * c + 1) * rho**2 * L * (1 + 18 * c * K * rho**2 * L) ** 2 * xi,
            rel=1e-14,
        )

    def test_initial_z_rate_oracle(self):
        ctrl = WingRockDadsController()
        assert wingrock_control(X0, Z0, ctrl)[1] == pytest.approx(ZDOT0, rel=1e-12)
        # Gamma e^{-z} (V - eps)^+ with z = -ln 10
        assert deadzone_rate(V0, Z0, 20.0, 0.01) == pytest.approx(
            20.0 * 10.0 * (V0 - 0.01), rel=1e-14
        )

    def test_deadzone_freezes_adaptation(self):
        ctrl = WingRockDadsController()
        # near the origin V < eps_dz, so z does not move
        x1, x2 = 0.01, 0.0
        zeta = x2 + 2 * ctrl.c * x1
        L = 1.0 + x1**4 + x2**4
        x3 = -x1 - 2 * ctrl.c * x2 - ctrl.K * 4.0 * L * zeta  # makes xi = 0 at z = 0
        x_small = (x1, x2, x3)
        V = wingrock_intermediates(*x_small, 0.0, ctrl.c, ctrl.K).V
        assert V < ctrl.eps_dz
        assert wingrock_control(x_small, 0.0, ctrl)[1] == 0.0

    def test_z_rate_nonnegative(self):
        ctrl = WingRockDadsController()
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-2, 2, 3)
            z = rng.uniform(-3, 3)
            assert wingrock_control(x, z, ctrl)[1] >= 0.0

    def test_gain_magnitude(self):
        ctrl = WingRockDadsController()
        assert ctrl.gain_magnitude([Z0]) == pytest.approx(1.1, rel=1e-14)

    def test_lyapunov_is_jet_evaluable(self):
        ctrl = WingRockDadsController()
        Vmap = SmoothMap(4, lambda *p: ctrl.lyapunov(p[:3], p[3:]))
        assert float(Vmap(*X0, Z0)) == pytest.approx(V0, rel=1e-14)
        g = gradient(Vmap, (*X0, Z0))
        h = 1e-6
        for i in range(4):
            p_hi = list((*X0, Z0)); p_hi[i] += h
            p_lo = list((*X0, Z0)); p_lo[i] -= h
            fd = (float(Vmap(*p_hi)) - float(Vmap(*p_lo))) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-6)


class TestSigmaMod:
    def test_constructor_rejects(self):
        with pytest.raises(ValueError):
            SigmaModController(K=1.5)  # K < 1 + 2c
        with pytest.raises(ValueError):
            SigmaModController(sigma_leak=-0.1)
        with pytest.raises(ValueError):
            SigmaModController(Gamma=0.0)

    def test_estimate_rates_structure(self):
        ctrl = SigmaModController(sigma_leak=0.4)
        x = np.array(X0)
        th = np.array([1.0, 2.0, 3.0, 4.0])
        _, w = sigma_mod_control(x, th, ctrl)
        zeta = x[1] + 2 * ctrl.c * x[0]
        chi = (th[0] * x[0] + th[1] * x[1] + th[2] * x[0] * x[1] + th[3] * x[1] ** 2
               + 2 * ctrl.c * x[1] + ctrl.K * zeta + x[0] + x[2])
        phi = 2 * ctrl.c + ctrl.K + th[1] + th[2] * x[0] + 2 * th[3] * x[1]
        drive = ctrl.Gamma * (zeta + phi * chi)
        regressor = (x[0], x[1], x[0] * x[1], x[1] ** 2)
        for i in range(4):
            assert w[i] == pytest.approx(drive * regressor[i] - 0.4 * th[i], rel=1e-12)

    def test_leakage_is_linear_in_sigma(self):
        x = np.array(X0)
        th = np.array([5.0, -2.0, 1.0, 0.5])
        _, w0 = sigma_mod_control(x, th, SigmaModController(sigma_leak=0.0))
        _, w4 = sigma_mod_control(x, th, SigmaModController(sigma_leak=0.4))
        diff = np.array(w0) - np.array(w4)
        assert diff == pytest.approx(0.4 * th, rel=1e-12)

    def test_zero_state_zero_estimates(self):
        ctrl = SigmaModController()
        u, w = sigma_mod_control(np.zeros(3), np.zeros(4), ctrl)
        assert u == 0.0
        assert np.asarray(w) == pytest.approx(np.zeros(4))

    def test_W_map_value(self):
        ctrl = SigmaModController()
        theta = (20.0, 20.0, 2.0, 1.0)
        W = sigma_mod_W_map(ctrl, theta)
        val = float(W(*X0, *theta))
        # at theta_hat = theta the parameter-error term vanishes
        zeta = X0[1] + 2 * ctrl.c * X0[0]
        chi = (theta[0] * X0[0] + theta[1] * X0[1] + theta[2] * X0[0] * X0[1]
               + theta[3] * X0[1] ** 2 + 2 * ctrl.c * X0[1] + ctrl.K * zeta
               + X0[0] + X0[2])
        assert val == pytest.approx(0.5 * X0[0] ** 2 + 0.5 * zeta**2 + 0.5 * chi**2)
        # at the origin only the scaled parameter error survives
        off = float(W(0.0, 0.0, 0.0, theta[0] + 2.0, *theta[1:]))
        assert off == pytest.approx(4.0 / (2.0 * ctrl.Gamma), rel=1e-12)


GAINS = DadsGains(b=1.0, Gamma=2.0, eps_dz=0.01, c=0.5, a=2.0)
SIGMA = SmoothMap(2, lambda x1, z: 2.0, name="sigma")


class TestSynthesizedWrapper:
    def _make(self):
        k = SmoothMap(2, lambda x1, z: -2.0 * x1, name="k")
        V = SmoothMap(2, lambda x1, z: 0.5 * x1 * x1, name="V")
        return SynthesizedDadsController(V, k, SIGMA, GAINS)

    def test_state_dim(self):
        assert self._make().state_dim == 1

    def test_control_and_rate(self):
        ctrl = self._make()
        u, (zdot,) = ctrl.step(np.array([3.0]), np.array([0.0]))
        assert u == pytest.approx(-6.0)
        assert zdot == pytest.approx(2.0 * (4.5 - 0.01))

    def test_deadzone(self):
        ctrl = self._make()
        assert ctrl.step(np.array([0.1]), np.array([1.0]))[1] == (0.0,)

    def test_constructor_rejects(self):
        # the gains check themselves (TestDadsGains); the arities are the stage's
        k = SmoothMap(2, lambda x1, z: -x1)
        V3 = SmoothMap(3, lambda x1, x2, z: x1 * x1)
        with pytest.raises(ValueError, match="k and V must share a state dimension"):
            SynthesizedDadsController(V3, k, SIGMA, GAINS)

    def test_state_length_check(self):
        ctrl = self._make()
        with pytest.raises(ValueError):
            ctrl.step(np.array([1.0, 2.0]), np.array([0.0]))


class TestEngineImport:
    """The runtime laws, the simulator and the checks run without the
    backstepping engine; only the CLI imports `dads.synthesis`."""

    @staticmethod
    def _run(code):
        """The dads modules that a fresh interpreter has loaded after code."""
        return run_fresh(
            code + "; import sys; "
            "assert all(m.__file__.startswith(sys.argv[1]) for n, m in sys.modules.items() "
            "if n.startswith('dads.')); "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'dads'))").split()

    def test_law_simulator_and_checks_leave_the_engine_out(self):
        loaded = self._run("import dads.controllers, dads.simulate, dads.verify")
        assert loaded == ["dads", "dads.controllers", "dads.jets", "dads.simulate",
                          "dads.systems", "dads.verify"]

    def test_the_laws_import_only_jets(self):
        assert self._run("import dads.controllers") == ["dads", "dads.controllers", "dads.jets"]

    def test_the_cli_binds_the_engine_by_name(self):
        # perfbench spans cli.synthesize and cli.wingrock_majorants
        loaded = self._run(
            "import dads.cli as cli, dads.synthesis as syn; "
            "assert cli.synthesize is syn.synthesize; "
            "assert cli.wingrock_majorants is syn.wingrock_majorants")
        assert "dads.synthesis" in loaded
