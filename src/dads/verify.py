"""Executable checks: sampled dissipation inequalities and trajectory estimates.

Every check produces a CheckReport with the worst margin observed and the
sample achieving it (margin >= -tolerance means pass).  A sampled check draws
one sample per sampler call, through `systems.box_sampler` as synthesis's
majorant validations do, then evaluates them all in a single array pass:
V's gradient comes from jets with array coefficients, and the rhs and
bound callables take a tuple of sample columns.
Asymptotic claims are checked as finite-horizon surrogates: suprema over the
final portion of the horizon with recorded slack, since a simulation cannot
observe true limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .controllers import (
    SigmaModController,
    WingRockDadsController,
    _sigma_mod_terms,
    deadzone_rate,
    sigma_mod_control,
    sigma_mod_W_map,
    wingrock_control,
)
from .jets import SmoothMap, gradient, jet_exp, jet_relu_plus
from .simulate import TrajectoryLog, tail_length
from .synthesis import DadsGains, _norm_sq
from .systems import D_RADIUS, box_sampler, draw_rows, eval_dynamics, truncate

# a tail bound passes within this relative slack of the limit it stands for
SLACK = 0.1
# drift contrast: most relative growth of the deadzone gain over the tail that
# counts as a plateau, and least growth of the leak-free estimate norm from
# mid-horizon to the end that counts as drift
PLATEAU_REL = 0.01
DRIFT_FACTOR = 1.1


@dataclass(frozen=True)
class CheckReport:
    """Worst margin of a check and the sample achieving it.

    A non-finite worst margin never passes.
    """

    name: str
    n_samples: int
    worst_margin: float
    witness: tuple
    tolerance: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.worst_margin) and self.worst_margin >= -self.tolerance

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: worst margin {self.worst_margin:.6g} "
            f"over {self.n_samples} samples (tol {self.tolerance:g})"
        )


def reports_to_csv(reports: Sequence[CheckReport], path: str) -> None:
    lines = ["name,passed,n_samples,worst_margin,tolerance,witness"]
    for rep in reports:
        wit = ";".join(f"{v:.9g}" for v in rep.witness)
        lines.append(
            f"{rep.name},{rep.passed},{rep.n_samples},"
            f"{rep.worst_margin:.17g},{rep.tolerance:.9g},{wit}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def summarize(reports: Sequence[CheckReport]) -> str:
    return "\n".join(rep.summary() for rep in reports)


def check_dissipation(
    V: SmoothMap,
    closed_loop_rhs: Callable,
    rhs_bound: Callable,
    sampler: Callable,
    n: int = 1000,
    tol: float = 1e-6,
    seed: int = 0,
    name: str = "dissipation",
) -> CheckReport:
    """Worst margin of (bound - dV/dt) over n sampled points.

    The sampler draws one sample per call, n times.  The draws are stacked,
    and closed_loop_rhs and rhs_bound each receive all of them at once as a
    tuple of columns (one array per sample entry); the first V.arity columns
    are the coordinates of V.  closed_loop_rhs returns one component per
    coordinate of V.  Only V is differentiated, so a kink of the rhs or the
    bound (the deadzone's at V = eps) needs no special treatment.  A
    non-finite margin ranks below every finite one, so the first such
    sample is the witness and the report fails.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        samples = draw_rows(sampler, rng, n)
        cols = tuple(np.ascontiguousarray(samples.T))
        g = gradient(V, cols[: V.arity])
        f = closed_loop_rhs(cols)
        if len(f) != len(g):
            raise ValueError(f"rhs has {len(f)} components, V has {len(g)} coordinates")
        lhs = sum(gi * fi for gi, fi in zip(g, f))
        margins = np.broadcast_to(rhs_bound(cols) - lhs, n)
        i = int(np.argmin(np.where(np.isfinite(margins), margins, -np.inf)))
    return CheckReport(name, n, float(margins[i]), tuple(float(v) for v in samples[i]), tol)


# ---------------------------------------------------------------------------
# Prebuilt dissipation checks for the wing-rock benchmark
# ---------------------------------------------------------------------------

def wingrock_dissipation_check(
    sys,
    ctrl: WingRockDadsController,
    n: int = 1000,
    tol: float = 1e-6,
    seed: int = 0,
    control_fn: Callable | None = None,
) -> CheckReport:
    """Sampled decay inequality for the closed-form wing-rock law.

    The bound is -cV + a(|d|^2 + ((|theta|-b-e^z)^+)^2)/(1+e^z): the general
    DADS inequality with the controller's gains.  control_fn overrides the
    input computation (used by mutation tests).
    """
    u_of = control_fn or (lambda x, z: wingrock_control(x, z, ctrl)[0])
    k = SmoothMap(4, lambda x1, x2, x3, z: u_of((x1, x2, x3), z), name="wingrock_u")
    gains = ctrl.gains
    return synthesized_dissipation_check(
        sys, ctrl.lyapunov_map(), k, gains, rate_c=gains.c, gain_a=gains.a,
        n=n, tol=tol, seed=seed, name="wingrock dissipation",
    )


def sigma_mod_dissipation_check(
    sys,
    ctrl: SigmaModController,
    theta: Sequence[float],
    n: int = 1000,
    tol: float = 1e-6,
    seed: int = 0,
) -> CheckReport:
    """Sampled decay inequality of the leakage baseline for a fixed theta.

    The comparison function includes the parameter-estimation error, and the
    bound carries the leakage residual (sigma/2Gamma)|theta|^2.
    """
    theta = np.asarray(theta, float)
    W = sigma_mod_W_map(ctrl, theta)
    leak, Gamma, c = ctrl.sigma_leak, ctrl.Gamma, ctrl.c

    nx, nt = sys.state_dim, ctrl.ctrl_dim

    def split(cols):
        """(x, theta_hat, d) of the sample columns."""
        return cols[:nx], cols[nx : nx + nt], cols[nx + nt :]

    def rhs(cols):
        x, th_hat, d = split(cols)
        u, w = sigma_mod_control(x, th_hat, ctrl)
        return (*eval_dynamics(sys, x, u, theta, d), *w)

    def bound(cols):
        x, th_hat, d = split(cols)
        zeta, chi, _ = _sigma_mod_terms(*x, *th_hat, c=c, K=ctrl.K)
        err = _norm_sq(e - t for e, t in zip(th_hat, theta))
        return (
            -c * (x[0] ** 2 + zeta ** 2 + chi ** 2)
            - leak / (2.0 * Gamma) * err
            + 0.5 * _norm_sq(d)
            + leak / (2.0 * Gamma) * float(theta @ theta)
        )

    return check_dissipation(
        W, rhs, bound, box_sampler(nx, (nt, sys.theta_radius), (sys.l, D_RADIUS)),
        n=n, tol=tol, seed=seed, name=f"sigma-mod dissipation (leak={leak:g})",
    )


def synthesized_dissipation_check(
    sys,
    V: SmoothMap,
    k: SmoothMap,
    gains,
    rate_c: float,
    gain_a: float,
    n: int = 500,
    tol: float = 1e-7,
    seed: int = 0,
    name: str = "synthesized dissipation",
) -> CheckReport:
    """Decay inequality of a synthesized (V, k) pair on a strict-feedback plant.

    Works for any number of leading integrators and any stage: the plant is
    truncated to the stage's state dimension with the next state replaced by
    the stage feedback.
    """
    dim = V.arity - 1
    plant = truncate(sys, dim)

    def split(cols):
        """(x, z, theta, d) of the sample columns."""
        return cols[:dim], cols[dim], cols[dim + 1 : dim + 1 + sys.p], cols[dim + 1 + sys.p :]

    def rhs(cols):
        x, z, th, d = split(cols)
        zdot = deadzone_rate(V(*x, z), z, gains.Gamma, gains.eps_dz)
        return (*eval_dynamics(plant, x, k(*x, z), th, d), zdot)

    def bound(cols):
        x, z, th, d = split(cols)
        ez = jet_exp(z)
        excess = jet_relu_plus(np.sqrt(_norm_sq(th)) - gains.b - ez)
        return -rate_c * V(*x, z) + gain_a * (
            _norm_sq(d) + excess * excess
        ) / (1.0 + ez)

    return check_dissipation(
        V, rhs, bound, box_sampler(dim + 1, (sys.p, sys.theta_radius), (sys.l, D_RADIUS)),
        n=n, tol=tol, seed=seed, name=name,
    )


def stage_certificate_checks(
    sys, result, gains, n: int = 200, tol: float = 1e-7, seed: int = 0
) -> list[CheckReport]:
    """One decay-inequality report per synthesis stage."""
    reports = []
    for stage in result.stage_trace:
        reports.append(
            synthesized_dissipation_check(
                sys, stage.V, stage.k, gains, stage.rate_c, stage.effective_gain,
                n=n, tol=tol, seed=seed + stage.level,
                name=f"stage {stage.level} certificate",
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Trajectory estimates
# ---------------------------------------------------------------------------

def signal_sup(profile, times) -> float:
    """Supremum of |signal(t)| over the logged grid."""
    return float(max(np.linalg.norm(np.atleast_1d(profile(t))) for t in times))


def check_trajectory_estimates(
    log: TrajectoryLog,
    gains: DadsGains,
    d_sup: float,
    theta_sup: float,
    attractivity_radius: float | None = None,
    tol: float = 1e-6,
) -> list[CheckReport]:
    """Estimate checks along a deadzone-adapted run.

    Produces reports for (i) the exponential-plus-offset envelope on V,
    (ii) monotonicity of the adaptation state z, (iii) the tail bound
    V <= eps_dz (1 + SLACK), and (iv) when a radius is given, the tail output
    bound |Y| <= radius (1 + SLACK).  The envelope uses the supplied signal
    suprema, which should come from the actually sampled signals.
    """
    c, a, b = gains.c, gains.a, gains.b
    z = log.ctrl[:, 0]
    z0 = float(z[0])
    V0 = float(log.V[0])
    ez0 = math.exp(z0)
    offset = (
        a * (d_sup ** 2 + max(theta_sup - b - ez0, 0.0) ** 2) / (c * (1.0 + ez0))
    )
    envelope = np.exp(-c * log.t) * V0 + offset
    margins = envelope - log.V
    i_env = int(np.argmin(margins))
    reports = [
        CheckReport(
            "V envelope", len(log), float(margins[i_env]),
            (float(log.t[i_env]), float(log.V[i_env]), float(envelope[i_env])),
            tol,
        )
    ]

    dz = np.diff(z)
    i_z = int(np.argmin(dz)) if len(dz) else 0
    reports.append(
        CheckReport(
            "z monotonicity", len(log), float(dz[i_z]) if len(dz) else 0.0,
            (float(log.t[i_z]),), 1e-12,
        )
    )

    n_tail = tail_length(len(log))
    v_tail = float(np.max(log.V[-n_tail:]))
    reports.append(
        CheckReport(
            "tail V bound", n_tail, gains.eps_dz * (1.0 + SLACK) - v_tail,
            (v_tail,), tol,
        )
    )

    if attractivity_radius is not None:
        y_tail = float(np.max(log.Ynorm[-n_tail:]))
        reports.append(
            CheckReport(
                "tail output bound", n_tail,
                attractivity_radius * (1.0 + SLACK) - y_tail, (y_tail,), tol,
            )
        )
    return reports


def wingrock_attractivity_radius(c: float, eps: float) -> float:
    """Residual output radius of the wing-rock design: (sqrt(c^2+1)+c) sqrt(2 eps)."""
    return (math.sqrt(c * c + 1.0) + c) * math.sqrt(2.0 * eps)


def same_grid(t, other) -> bool:
    """Whether two time grids agree row by row, rounded to 9 decimals."""
    return np.array_equal(np.round(t, 9), np.round(other, 9))


def check_drift_contrast(
    dads_log: TrajectoryLog,
    sigma0_log: TrajectoryLog,
    sigma_log: TrajectoryLog,
    expect_drift: bool = True,
) -> CheckReport:
    """Deadzone-vs-leakage contrast on a shared scenario.

    Passes when the deadzone gain rho = 1 + e^z plateaus (relative growth
    below PLATEAU_REL over the tail), the leak-free estimate norm drifts by
    more than DRIFT_FACTOR between mid-horizon and the end (when a persistent
    disturbance makes drift expected), and the leaky estimates stay finite.
    """
    if not all(same_grid(dads_log.t, other.t) for other in (sigma0_log, sigma_log)):
        raise ValueError("logs must share the time grid")

    rho = 1.0 + np.exp(dads_log.ctrl[:, 0])
    # growth needs two rows even in a short log
    n_tail = max(2, tail_length(len(dads_log)))
    growth = (rho[-1] - rho[-n_tail]) / rho[-1]
    margins = [PLATEAU_REL - float(growth)]

    norms0 = np.linalg.norm(sigma0_log.ctrl, axis=1)
    if expect_drift:
        mid = np.searchsorted(sigma0_log.t, 0.5 * sigma0_log.t[-1])
        ref = float(norms0[min(mid, len(norms0) - 1)])
        ratio = float(norms0[-1]) / max(ref, 1e-12)
        margins.append(ratio - DRIFT_FACTOR)
    else:
        margins.append(1.0 if np.all(np.isfinite(norms0)) else -math.inf)

    norms_leak = np.linalg.norm(sigma_log.ctrl, axis=1)
    margins.append(1.0 if np.all(np.isfinite(norms_leak)) else -math.inf)

    worst = min(margins)
    return CheckReport(
        "drift contrast", len(dads_log), worst,
        (float(growth), float(norms0[-1]), float(norms_leak[-1])), 0.0,
    )


def check_sigma_tradeoff(
    sigma_log: TrajectoryLog,
    theta: Sequence[float],
    ctrl: SigmaModController,
    d_sup: float,
) -> CheckReport:
    """Residual-set bound of the leakage baseline grows with |theta|.

    Checks that the tail sup of x1^2 + zeta^2 + chi^2, twice the logged
    state part of the comparison function, stays below the Lyapunov-implied
    residual level (|d|^2/2 + (sigma/2Gamma)|theta|^2)/c.
    """
    theta = np.asarray(theta, float)
    bound = (
        0.5 * d_sup ** 2
        + ctrl.sigma_leak / (2.0 * ctrl.Gamma) * float(theta @ theta)
    ) / ctrl.c
    n_tail = tail_length(len(sigma_log))
    worst_val = 2.0 * float(np.max(sigma_log.V[-n_tail:]))
    return CheckReport(
        "sigma-mod residual bound", n_tail,
        bound * (1.0 + SLACK) - worst_val, (worst_val, bound), 0.0,
    )
