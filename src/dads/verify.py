"""Executable checks: sampled dissipation inequalities and trajectory estimates.

Every check produces a CheckReport with the worst margin observed and the
sample achieving it (margin >= -tolerance means pass).  A sampled check draws
its samples one per sampler call and then evaluates every one of them in a
single array pass: V's gradient comes from jets with array coefficients, and
the rhs, bound and exclusion callables take a tuple of sample columns.
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
from .synthesis import BOX_RADIUS, DadsGains, _norm_sq
from .systems import eval_dynamics, sample_ball, truncate

# sampling box covering the benchmark experiment magnitudes; the states are
# drawn from the box on which synthesis validated the plant bounds
DEFAULT_BOX = {"x": BOX_RADIUS, "z": 3.0, "theta": 40.0, "d": 30.0}
# samples this close to the deadzone boundary are excluded (derivative kink)
KINK_BAND = 1e-9
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

    A check that asked for `requested` samples passes only if it used that
    many; a non-finite worst margin never passes.
    """

    name: str
    n_samples: int
    worst_margin: float
    witness: tuple
    tolerance: float
    requested: int = 0

    @property
    def passed(self) -> bool:
        return (
            math.isfinite(self.worst_margin)
            and self.worst_margin >= -self.tolerance
            and self.n_samples >= self.requested
        )

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        used = f"{self.n_samples}"
        if self.n_samples < self.requested:
            used += f" of {self.requested} requested"
        return (
            f"[{status}] {self.name}: worst margin {self.worst_margin:.6g} "
            f"over {used} samples (tol {self.tolerance:g})"
        )


def reports_to_csv(reports: Sequence[CheckReport], path_or_buf) -> None:
    lines = ["name,passed,n_samples,worst_margin,tolerance,witness"]
    for rep in reports:
        wit = ";".join(f"{v:.9g}" for v in rep.witness)
        lines.append(
            f"{rep.name},{rep.passed},{rep.n_samples},"
            f"{rep.worst_margin:.17g},{rep.tolerance:.9g},{wit}"
        )
    text = "\n".join(lines) + "\n"
    if hasattr(path_or_buf, "write"):
        path_or_buf.write(text)
    else:
        with open(path_or_buf, "w") as fh:
            fh.write(text)


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
    exclude: Callable | None = None,
    name: str = "dissipation",
) -> CheckReport:
    """Worst margin of (bound - dV/dt) over n sampled points.

    The sampler draws one sample per call.  The draws are stacked, and
    exclude, closed_loop_rhs and rhs_bound each receive all of them at once
    as a tuple of columns (one array per sample entry); the first V.arity
    columns are the coordinates of V.  closed_loop_rhs returns one component
    per coordinate of V.  Excluded samples (e.g. inside the deadzone kink
    band) are made up by further draws, up to 10 n draws in all, so the
    samples used are the first n non-excluded draws; a report that used
    fewer than n samples fails.  A non-finite margin ranks below every
    finite one, so the first such sample is the witness and the report fails.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    kept = []
    used = drawn = 0
    with np.errstate(all="ignore"):
        while used < n and drawn < 10 * n:
            size = min(n - used, 10 * n - drawn)
            batch = np.array([sampler(rng) for _ in range(size)], float)
            drawn += len(batch)
            if exclude is not None:
                batch = batch[~np.broadcast_to(exclude(tuple(batch.T)), len(batch))]
            kept.append(batch)
            used += len(batch)
        samples = np.concatenate(kept)
        if not used:
            return CheckReport(name, 0, math.inf, (), tol, requested=n)
        cols = tuple(np.ascontiguousarray(samples.T))
        g = gradient(V, cols[: V.arity])
        f = closed_loop_rhs(cols)
        if len(f) != len(g):
            raise ValueError(f"rhs has {len(f)} components, V has {len(g)} coordinates")
        lhs = sum(gi * fi for gi, fi in zip(g, f))
        margins = np.broadcast_to(rhs_bound(cols) - lhs, used)
        i = int(np.argmin(np.where(np.isfinite(margins), margins, -np.inf)))
    return CheckReport(
        name, used, float(margins[i]), tuple(float(v) for v in samples[i]), tol,
        requested=n,
    )


# ---------------------------------------------------------------------------
# Prebuilt dissipation checks for the wing-rock benchmark
# ---------------------------------------------------------------------------

def _box_sampler(x_dim, theta_dim, d_dim):
    def sample(rng):
        x = rng.uniform(-DEFAULT_BOX["x"], DEFAULT_BOX["x"], x_dim)
        z = rng.uniform(-DEFAULT_BOX["z"], DEFAULT_BOX["z"])
        th = sample_ball(rng, theta_dim, DEFAULT_BOX["theta"])
        d = sample_ball(rng, d_dim, DEFAULT_BOX["d"])
        return (*x, z, *th, *d)

    return sample


def wingrock_dissipation_check(
    sys,
    ctrl: WingRockDadsController,
    n: int = 1000,
    tol: float = 1e-6,
    seed: int = 0,
    control_fn: Callable | None = None,
) -> CheckReport:
    """Sampled decay inequality for the closed-form wing-rock law.

    The bound is -cV + 2(|d|^2 + ((|theta|-1-e^z)^+)^2)/(1+e^z): the general
    DADS inequality with b = 1, kappa = lambda = id and a = 2.  control_fn
    overrides the input computation (used by mutation tests).
    """
    u_of = control_fn or (lambda x, z: wingrock_control(x, z, ctrl)[0])
    k = SmoothMap(4, lambda x1, x2, x3, z: u_of((x1, x2, x3), z), name="wingrock_u")
    gains = DadsGains(b=1.0, Gamma=ctrl.Gamma, eps_dz=ctrl.eps_dz, c=ctrl.c, a=2.0)
    return synthesized_dissipation_check(
        sys, ctrl.lyapunov_map(), k, gains, rate_c=ctrl.c, gain_a=2.0,
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

    def sample7(rng):
        x = rng.uniform(-DEFAULT_BOX["x"], DEFAULT_BOX["x"], 3)
        th_hat = sample_ball(rng, 4, DEFAULT_BOX["theta"])
        d = sample_ball(rng, 2, DEFAULT_BOX["d"])
        return (*x, *th_hat, *d)

    def rhs(cols):
        x, th_hat, d = cols[:3], cols[3:7], cols[7:9]
        u, w = sigma_mod_control(x, th_hat, ctrl)
        return (*eval_dynamics(sys, x, u, theta, d), *w)

    def bound(cols):
        x, th_hat, d = cols[:3], cols[3:7], cols[7:9]
        zeta, chi, _ = _sigma_mod_terms(*x, *th_hat, c=c, K=ctrl.K)
        err = _norm_sq(e - t for e, t in zip(th_hat, theta))
        return (
            -c * (x[0] ** 2 + zeta ** 2 + chi ** 2)
            - leak / (2.0 * Gamma) * err
            + 0.5 * _norm_sq(d)
            + leak / (2.0 * Gamma) * float(theta @ theta)
        )

    return check_dissipation(
        W, rhs, bound, sample7, n=n, tol=tol, seed=seed,
        name=f"sigma-mod dissipation (leak={leak:g})",
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
        excess = jet_relu_plus(np.sqrt(_norm_sq(th)) - gains.b - gains.lam(ez))
        return -rate_c * V(*x, z) + gain_a * (
            _norm_sq(d) + excess * excess
        ) / (1.0 + gains.kappa(ez))

    def exclude(cols):
        return np.abs(V(*cols[: dim + 1]) - gains.eps_dz) < KINK_BAND

    return check_dissipation(
        V, rhs, bound, _box_sampler(dim, sys.p, sys.l), n=n, tol=tol,
        seed=seed, exclude=exclude, name=name,
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
    c: float,
    a: float,
    b: float,
    eps_dz: float,
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
            "tail V bound", n_tail, eps_dz * (1.0 + SLACK) - v_tail,
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
    for other in (sigma0_log, sigma_log):
        if len(other) != len(dads_log) or abs(other.t[-1] - dads_log.t[-1]) > 1e-9:
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

    Checks that the tail sup of x1^2 + zeta^2 + chi^2 stays below the
    Lyapunov-implied residual level (|d|^2/2 + (sigma/2Gamma)|theta|^2)/c.
    """
    theta = np.asarray(theta, float)
    bound = (
        0.5 * d_sup ** 2
        + ctrl.sigma_leak / (2.0 * ctrl.Gamma) * float(theta @ theta)
    ) / ctrl.c
    n_tail = tail_length(len(sigma_log))
    worst_val = 0.0
    for x, th_hat in zip(sigma_log.x[-n_tail:], sigma_log.ctrl[-n_tail:]):
        zeta, chi, _ = _sigma_mod_terms(x[0], x[1], x[2], *th_hat, c=ctrl.c, K=ctrl.K)
        worst_val = max(worst_val, x[0] ** 2 + zeta ** 2 + chi ** 2)
    return CheckReport(
        "sigma-mod residual bound", n_tail,
        bound * (1.0 + SLACK) - worst_val, (worst_val, bound), 0.0,
    )
