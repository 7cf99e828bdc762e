"""Runtime feedback laws for the wing-rock benchmark and synthesized designs.

Three controllers are provided:

* the closed-form deadzone-adapted (DADS) wing-rock law, whose single
  adaptation state z drives the gain rho = 1 + e^z and freezes inside the
  deadzone V <= eps_dz;
* the classical adaptive baseline with sigma-modification leakage, whose
  controller state is the four-dimensional parameter estimate;
* a generic wrapper around a synthesized (V, k) pair from the backstepping
  engine, for library use: the CLI builds no controller from it.

Each controller exposes step(x, cs, t) -> (u, rate): the input and the rate
of the controller state, from one evaluation of the law.  All formula
evaluation is written with generic arithmetic so the same code paths can be
fed jets for derivative-based certificate checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .jets import SmoothMap, jet_exp, jet_relu_plus
from .synthesis import DadsGains


class WingRockTerms(NamedTuple):
    zeta: float
    rho: float
    L: float
    xi: float
    V: float


def wingrock_intermediates(x1, x2, x3, z, c: float, K: float) -> WingRockTerms:
    """The auxiliary quantities of the wing-rock DADS design (generic arithmetic)."""
    zeta = x2 + 2.0 * c * x1
    rho = 1.0 + jet_exp(z)
    L = 1.0 + x1 ** 4 + x2 ** 4
    xi = x3 + x1 + 2.0 * c * x2 + K * rho * rho * L * zeta
    V = 0.5 * x1 * x1 + 0.5 * zeta * zeta + 0.5 * xi * xi
    return WingRockTerms(zeta, rho, L, xi, V)


def deadzone_rate(V, z, Gamma: float, eps_dz: float):
    """Deadzone gain adaptation Gamma e^{-z} (V - eps_dz)^+: zero whenever
    V <= eps_dz, nonnegative always (generic arithmetic)."""
    return Gamma * jet_exp(-z) * jet_relu_plus(V - eps_dz)


@dataclass(frozen=True)
class WingRockDadsController:
    """Closed-form DADS law for the wing-rock plant.

    Valid for c >= 1/2, K >= 28 c, Gamma > 0, eps_dz > 0; the constructor
    rejects parameters outside this region.
    """

    c: float = 0.5
    K: float = 14.0
    Gamma: float = 20.0
    eps_dz: float = 0.01

    def __post_init__(self):
        # each bound is written so that nan and inf fail it
        if not 0.5 <= self.c < math.inf:
            raise ValueError(f"c must be finite and >= 1/2, got {self.c}")
        if not 28.0 * self.c <= self.K < math.inf:
            raise ValueError(f"K must be finite and >= 28 c = {28 * self.c}, got {self.K}")
        if not 0 < self.Gamma < math.inf:
            raise ValueError(f"Gamma must be positive and finite, got {self.Gamma}")
        if not 0 < self.eps_dz < math.inf:
            raise ValueError(f"eps_dz must be positive and finite, got {self.eps_dz}")

    @property
    def gains(self) -> DadsGains:
        """The DADS design constants of this law: b = 1, a = 2."""
        return DadsGains(b=1.0, Gamma=self.Gamma, eps_dz=self.eps_dz, c=self.c, a=2.0)

    # --- simulator interface -------------------------------------------------
    ctrl_dim = 1

    def step(self, x, cs, t=0.0):
        """Input and controller-state rate at (x, cs, t)."""
        u, zdot = wingrock_control(x, cs[0], self)
        return u, (zdot,)

    def gain_magnitude(self, cs) -> float:
        return 1.0 + np.exp(float(cs[0]))

    def lyapunov(self, x, cs) -> float:
        return wingrock_intermediates(x[0], x[1], x[2], float(cs[0]), self.c, self.K).V

    def lyapunov_map(self) -> SmoothMap:
        """V(x1, x2, x3, z) as a jet-evaluable map."""
        c, K = self.c, self.K

        def V(x1, x2, x3, z):
            return wingrock_intermediates(x1, x2, x3, z, c, K).V

        return SmoothMap(4, V, name="wingrock_V")


def wingrock_damping(terms: WingRockTerms, c: float, K: float):
    """The stabilizing damping term of the wing-rock DADS input (which subtracts it)."""
    rho, L = terms.rho, terms.L
    return (
        42.0 * c * (2.0 * c + 1.0) * rho * rho * L
        * (1.0 + 18.0 * c * K * rho * rho * L) ** 2 * terms.xi
    )


def wingrock_control(x, z, ctrl: WingRockDadsController):
    """The wing-rock DADS input, term by term, and the rate of z (generic arithmetic)."""
    c, K, Gamma, eps = ctrl.c, ctrl.K, ctrl.Gamma, ctrl.eps_dz
    x1, x2, x3 = x[0], x[1], x[2]
    terms = wingrock_intermediates(x1, x2, x3, z, c, K)
    zeta, rho, L, xi, V = terms
    deadzone = jet_relu_plus(V - eps)
    u = (
        -(2.0 * c + K * rho * rho * (L + 4.0 * zeta * x2 ** 3)) * x3
        - zeta
        - x2
        - 2.0 * Gamma * K * rho * L * deadzone * zeta
        - K * rho * rho * x2 * (4.0 * x1 ** 3 * zeta + 2.0 * c * L)
        - wingrock_damping(terms, c, K)
    )
    return u, deadzone_rate(V, z, Gamma, eps)


@dataclass(frozen=True)
class SigmaModController:
    """Adaptive baseline with leakage: estimate update w_i carries -sigma theta_i."""

    c: float = 0.5
    Gamma: float = 20.0
    K: float = 14.0
    sigma_leak: float = 0.4

    def __post_init__(self):
        # each bound is written so that nan and inf fail it
        if not (0 < self.c < math.inf and 0 < self.Gamma < math.inf):
            raise ValueError(
                f"c and Gamma must be positive and finite, got {self.c}, {self.Gamma}"
            )
        if not 1.0 + 2.0 * self.c <= self.K < math.inf:
            raise ValueError(f"K must be finite and >= 1 + 2c = {1 + 2 * self.c}, got {self.K}")
        if not 0 <= self.sigma_leak < math.inf:
            raise ValueError(f"sigma_leak must be nonnegative and finite, got {self.sigma_leak}")

    ctrl_dim = 4

    def step(self, x, cs, t=0.0):
        """Input and estimate rates at (x, cs, t)."""
        return sigma_mod_control(x, cs, self)

    def gain_magnitude(self, cs) -> float:
        return float(np.linalg.norm(cs))

    def lyapunov(self, x, cs) -> float:
        # state part of the comparison function (parameter-error term omitted:
        # the true theta is not available at runtime)
        zeta, chi, _ = _sigma_mod_terms(x[0], x[1], x[2], *cs, c=self.c, K=self.K)
        return 0.5 * x[0] ** 2 + 0.5 * zeta ** 2 + 0.5 * chi ** 2


def _sigma_mod_terms(x1, x2, x3, t1, t2, t3, t4, c, K):
    zeta = x2 + 2.0 * c * x1
    chi = t1 * x1 + t2 * x2 + t3 * x1 * x2 + t4 * x2 * x2 + 2.0 * c * x2 + K * zeta + x1 + x3
    phi = 2.0 * c + K + t2 + t3 * x1 + 2.0 * t4 * x2
    return zeta, chi, phi


def sigma_mod_control(x, theta_hat, ctrl: SigmaModController):
    """Input and estimate rates of the sigma-modification law (generic arithmetic)."""
    c, K, Gamma, leak = ctrl.c, ctrl.K, ctrl.Gamma, ctrl.sigma_leak
    x1, x2, x3 = x[0], x[1], x[2]
    t1, t2, t3, t4 = theta_hat[0], theta_hat[1], theta_hat[2], theta_hat[3]
    zeta, chi, phi = _sigma_mod_terms(x1, x2, x3, t1, t2, t3, t4, c, K)
    drive = Gamma * (zeta + phi * chi)
    w = (drive * x1, drive * x2, drive * x1 * x2, drive * x2 * x2)
    if leak != 0.0:  # sigma = 0 is the leak-free law, without a 0 * theta_i term
        w = (w[0] - leak * t1, w[1] - leak * t2, w[2] - leak * t3, w[3] - leak * t4)
    u = (
        -(w[0] + 2.0 * c + w[2] * x2) * x1
        - (t1 + w[1] + 2.0 + 2.0 * K * c) * x2
        - (t3 + w[3]) * x2 * x2
        - phi * (t1 * x1 + t2 * x2 + t3 * x1 * x2 + t4 * x2 * x2 + x3)
        - (K + phi * phi) * chi
    )
    return u, w


def sigma_mod_W_map(ctrl: SigmaModController, theta) -> SmoothMap:
    """Comparison function W(x, theta_hat) for a fixed true parameter vector."""
    c, K, Gamma = ctrl.c, ctrl.K, ctrl.Gamma
    th = tuple(float(v) for v in theta)

    def W(x1, x2, x3, t1, t2, t3, t4):
        zeta, chi, _ = _sigma_mod_terms(x1, x2, x3, t1, t2, t3, t4, c, K)
        err = 0.0
        for est, true in zip((t1, t2, t3, t4), th):
            err = err + (est - true) * (est - true)
        return 0.5 * x1 * x1 + 0.5 * zeta * zeta + 0.5 * chi * chi + err / (2.0 * Gamma)

    return SmoothMap(7, W, name="sigma_mod_W")


@dataclass(frozen=True)
class SynthesizedDadsController:
    """Wraps a synthesized (V, k) pair as a runtime deadzone-adapted controller."""

    k_final: SmoothMap
    V_final: SmoothMap
    Gamma: float
    eps_dz: float

    def __post_init__(self):
        if self.Gamma <= 0 or self.eps_dz <= 0:
            raise ValueError("Gamma and eps_dz must be positive")
        if self.k_final.arity != self.V_final.arity:
            raise ValueError("k_final and V_final must share a state dimension")

    @property
    def state_dim(self) -> int:
        return self.k_final.arity - 1  # last argument is z

    ctrl_dim = 1

    def step(self, x, cs, t=0.0):
        """Input and controller-state rate at (x, cs, t)."""
        u, zdot = synthesized_control(x, cs[0], self)
        return u, (zdot,)

    def gain_magnitude(self, cs) -> float:
        return 1.0 + np.exp(float(cs[0]))

    def lyapunov(self, x, cs) -> float:
        return float(self.V_final(*x, float(cs[0])))


def synthesized_control(state, z, ctrl: SynthesizedDadsController):
    """u = k(state, z) and the deadzone update rate for z."""
    if len(state) != ctrl.state_dim:
        raise ValueError(
            f"state has length {len(state)}, controller expects {ctrl.state_dim}"
        )
    u = ctrl.k_final(*state, z)
    V = ctrl.V_final(*state, z)
    return u, deadzone_rate(V, z, ctrl.Gamma, ctrl.eps_dz)
