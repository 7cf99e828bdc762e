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
of the controller state, from one evaluation of the law, and lyapunov(x, cs),
the law's one Lyapunov function, which the simulator logs and the trajectory
checks and certificates read.  Each law's dissipation inequality is stated
once, beside its Lyapunov function, and the checks of `verify` read it.  All
formula evaluation is written with generic arithmetic so the same code paths
can be fed jets for derivative-based certificate checking.

`DadsGains`, the design constants of the deadzone law, lives here beside
`deadzone_rate`; the synthesis engine and the checks read it from here.  The
module imports no other part of `dads` than `jets`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .jets import SmoothMap, jet_exp, jet_relu_plus, norm_sq


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


def dads_residual(d_sq, theta_norm, z, b: float, a: float):
    """The residual of the deadzone law's V' <= -c V + residual, from |d|^2
    and |theta|: a (|d|^2 + ((|theta| - b - e^z)^+)^2) / (1 + e^z)."""
    ez = jet_exp(z)
    excess = jet_relu_plus(theta_norm - b - ez)
    return a * (d_sq + excess * excess) / (1.0 + ez)


def _require_positive(law, *names: str) -> None:
    """Raise unless each named field of law is positive and finite (nan fails too)."""
    for name in names:
        if not 0 < (value := getattr(law, name)) < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class DadsGains:
    """Design constants of the deadzone-adapted scheme.

    b offsets the parameter norm in (|theta| - b - e^z)^+, Gamma is the
    adaptation rate, eps_dz the deadzone level (z freezes while V <= eps_dz),
    c the decay rate and a the disturbance gain.  The gain-attenuation
    functions of the general law are the identity.
    """

    b: float
    Gamma: float
    eps_dz: float
    c: float
    a: float

    def __post_init__(self):
        _require_positive(self, "b", "Gamma", "eps_dz", "c", "a")


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
        _require_positive(self, "Gamma", "eps_dz")

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

    def lyapunov(self, x, cs):
        return wingrock_intermediates(x[0], x[1], x[2], cs[0], self.c, self.K).V


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

    def lyapunov(self, x, cs):
        # state part of the comparison function (parameter-error term omitted:
        # the true theta is not available at runtime)
        zeta, chi, _ = _sigma_mod_terms(x[0], x[1], x[2], *cs, c=self.c, K=self.K)
        return 0.5 * x[0] ** 2 + 0.5 * zeta ** 2 + 0.5 * chi ** 2

    # W = V + E, E the estimate energy at the true theta, obeys
    # W' <= -2c V - sigma E + r, and r grows with sigma |theta|^2.
    def estimate_energy(self, theta_hat, theta):
        return norm_sq(est - true for est, true in zip(theta_hat, theta)) / (2.0 * self.Gamma)

    @property
    def decay_rates(self) -> tuple[float, float]:
        """The rates 2c on V and sigma on E."""
        return 2.0 * self.c, self.sigma_leak

    def residual(self, d_sq, theta_sq):
        """r = |d|^2 / 2 + sigma |theta|^2 / (2 Gamma), from |d|^2 and |theta|^2."""
        return 0.5 * d_sq + self.sigma_leak / (2.0 * self.Gamma) * theta_sq

    def dissipation_bound(self, x, theta_hat, theta, d_sq):
        """-2c V - sigma E + r, with sigma E rounded as r's leak share is."""
        rate_V, rate_E = self.decay_rates
        err = norm_sq(est - true for est, true in zip(theta_hat, theta))
        return (-rate_V * self.lyapunov(x, theta_hat) - rate_E / (2.0 * self.Gamma) * err
                + self.residual(d_sq, norm_sq(theta)))


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
    th = tuple(float(v) for v in theta)

    def W(x1, x2, x3, *th_hat):
        return ctrl.lyapunov((x1, x2, x3), th_hat) + ctrl.estimate_energy(th_hat, th)

    return SmoothMap(7, W, name="sigma_mod_W")


@dataclass(frozen=True)
class SynthesizedDadsController:
    """Wraps a synthesized (V, k) pair as a runtime deadzone-adapted controller."""

    k_final: SmoothMap
    V_final: SmoothMap
    Gamma: float
    eps_dz: float

    def __post_init__(self):
        _require_positive(self, "Gamma", "eps_dz")
        if self.k_final.arity != self.V_final.arity:
            raise ValueError("k_final and V_final must share a state dimension")

    @property
    def state_dim(self) -> int:
        return self.k_final.arity - 1  # last argument is z

    ctrl_dim = 1

    def step(self, x, cs, t=0.0):
        """u = k(x, z) and the deadzone update rate for z, at (x, cs, t)."""
        if len(x) != self.state_dim:
            raise ValueError(f"state has length {len(x)}, controller expects {self.state_dim}")
        z = cs[0]
        u = self.k_final(*x, z)
        return u, (deadzone_rate(self.V_final(*x, z), z, self.Gamma, self.eps_dz),)

    def gain_magnitude(self, cs) -> float:
        return 1.0 + np.exp(float(cs[0]))

    def lyapunov(self, x, cs):
        return self.V_final(*x, cs[0])
