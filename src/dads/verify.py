"""Executable checks: sampled dissipation inequalities and trajectory estimates.

Every check produces a CheckReport with the worst margin observed and the
sample achieving it (margin >= -tolerance means pass).  A sampled check
draws through `systems.box_sampler`, as synthesis's majorant validations do,
and evaluates all its samples in one array pass of one closed-loop function,
which gives the rhs and the bound together (see `check_dissipation`).
The bounds are each law's own dissipation inequality, from `controllers`.
Asymptotic claims are checked as finite-horizon surrogates: suprema over the
final portion of the horizon with recorded slack, since a simulation cannot
observe true limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile
from typing import Callable, Sequence

import numpy as np

from .controllers import (
    DadsGains,
    SigmaModController,
    WingRockDadsController,
    _sigma_mod_terms,  # noqa: F401  (perfbench/invoke.py spans verify._sigma_mod_terms)
    dads_residual,
    deadzone_rate,
    sigma_mod_control,
    sigma_mod_W_map,
    wingrock_control,
)
from .jets import SmoothMap, gradient, norm_sq
from .simulate import TrajectoryLog, tail_length
from .systems import D_RADIUS, box_sampler, draw_rows, eval_dynamics, truncate

# a tail bound passes within this relative slack of the limit it stands for
SLACK = 0.1
# drift contrast: most relative growth of the deadzone gain over the tail that
# counts as a plateau, and least growth of the leak-free estimate norm from
# mid-horizon to the end that counts as drift
PLATEAU_REL = 0.01
DRIFT_FACTOR = 1.1
# each check's draws and tolerance, part of what it certifies: the closed-form
# laws' inequalities, each synthesized stage's, and the trajectory estimates
LAW_SAMPLES, LAW_TOL = 1000, 1e-6
STAGE_SAMPLES, STAGE_TOL = 200, 1e-7
TRAJECTORY_TOL = 1e-6


@dataclass(frozen=True)
class CheckReport:
    """Worst margin of a check and the sample achieving it.

    A non-finite worst margin never passes.  note, when given, ends the
    summary of a failing check.
    """

    name: str
    n_samples: int
    worst_margin: float
    witness: tuple
    tolerance: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return math.isfinite(self.worst_margin) and self.worst_margin >= -self.tolerance

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = f" ({self.note})" if self.note and not self.passed else ""
        return (
            f"[{status}] {self.name}: worst margin {self.worst_margin:.6g} "
            f"over {self.n_samples} samples (tol {self.tolerance:g}){note}"
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
    closed_loop: Callable,
    sampler: Callable,
    n: int,
    tol: float,
    seed: int = 0,
    name: str = "dissipation",
) -> CheckReport:
    """Worst margin of (bound - dV/dt) over n sampled points, judged at tol.

    The sampler draws one sample per call, n times.  The draws are stacked,
    and closed_loop receives all of them at once as a tuple of columns (one
    array per sample entry); the first V.arity columns are the coordinates
    of V.  It returns (rhs, bound) from one pass over the columns: rhs has
    one component per coordinate of V, and bound is the right-hand side of
    the inequality.  Only V is differentiated, so a kink of the rhs or the
    bound (the deadzone's at V = eps) needs no special treatment.  A
    non-finite margin ranks below every finite one, so the first such
    sample is the witness and the report fails.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        samples, cols = draw_rows(sampler, rng, n)
        g = gradient(V, cols[: V.arity])
        f, bound = closed_loop(cols)
        if len(f) != len(g):
            raise ValueError(f"rhs has {len(f)} components, V has {len(g)} coordinates")
        lhs = sum(gi * fi for gi, fi in zip(g, f))
        margins = np.broadcast_to(bound - lhs, n)
        i = int(np.argmin(np.where(np.isfinite(margins), margins, -np.inf)))
    return CheckReport(name, n, float(margins[i]), tuple(float(v) for v in samples[i]), tol)


# ---------------------------------------------------------------------------
# Prebuilt dissipation checks for the wing-rock benchmark
# ---------------------------------------------------------------------------

def wingrock_dissipation_check(sys, ctrl: WingRockDadsController, seed: int = 0,
                               control_fn: Callable | None = None) -> CheckReport:
    """Sampled decay inequality for the closed-form wing-rock law at LAW_SAMPLES
    and LAW_TOL: the bound is -cV + `dads_residual` with the controller's gains.
    control_fn overrides the input computation (used by mutation tests).
    """
    u_of = control_fn or (lambda x, z: wingrock_control(x, z, ctrl)[0])
    k = SmoothMap(4, lambda x1, x2, x3, z: u_of((x1, x2, x3), z), name="wingrock_u")
    V = SmoothMap(4, lambda x1, x2, x3, z: ctrl.lyapunov((x1, x2, x3), (z,)), name="wingrock_V")
    return synthesized_dissipation_check(
        sys, V, k, ctrl.gains, LAW_SAMPLES, LAW_TOL, seed, "wingrock dissipation")


def sigma_mod_dissipation_check(sys, ctrl: SigmaModController, theta: Sequence[float],
                                seed: int = 0) -> CheckReport:
    """Sampled decay inequality of the leakage baseline for a fixed theta at
    LAW_SAMPLES and LAW_TOL: W = V + E (`sigma_mod_W_map`) against the law's
    -2c V - sigma E + r.
    """
    W = sigma_mod_W_map(ctrl, theta)
    nx, nt = sys.state_dim, ctrl.ctrl_dim

    def closed_loop(cols):
        x, th_hat, d = cols[:nx], cols[nx : nx + nt], cols[nx + nt :]
        u, w = sigma_mod_control(x, th_hat, ctrl)
        return ((*eval_dynamics(sys, x, u, theta, d), *w),
                ctrl.dissipation_bound(x, th_hat, theta, norm_sq(d)))

    return check_dissipation(
        W, closed_loop, box_sampler(nx, (nt, sys.theta_radius), (sys.l, D_RADIUS)),
        LAW_SAMPLES, LAW_TOL, seed, f"sigma-mod dissipation (leak={ctrl.sigma_leak:g})",
    )


def synthesized_dissipation_check(
    sys,
    V: SmoothMap,
    k: SmoothMap,
    gains: DadsGains,
    n: int = 500,
    tol: float = STAGE_TOL,
    seed: int = 0,
    name: str = "synthesized dissipation",
) -> CheckReport:
    """Decay inequality of a synthesized (V, k) pair on a strict-feedback plant
    at n draws and tol, which its callers set apart (the closed-form law, each
    stage, the final law by default): the bound is -cV + `dads_residual`.

    Works for any number of leading integrators and any stage: the plant is
    truncated to the stage's state dimension with the next state replaced by
    the stage feedback.
    """
    dim, p = V.arity - 1, sys.p
    plant = truncate(sys, dim)

    def closed_loop(cols):
        x, z, th, d = cols[:dim], cols[dim], cols[dim + 1 : dim + 1 + p], cols[dim + 1 + p :]
        v = V(*x, z)  # the deadzone rate and -cV read one value
        zdot = deadzone_rate(v, z, gains.Gamma, gains.eps_dz)
        return ((*eval_dynamics(plant, x, k(*x, z), th, d), zdot),
                -gains.c * v + dads_residual(norm_sq(d), np.sqrt(norm_sq(th)), z, gains.b, gains.a))

    return check_dissipation(
        V, closed_loop, box_sampler(dim + 1, (p, sys.theta_radius), (sys.l, D_RADIUS)),
        n, tol, seed, name,
    )


def stage_certificate_checks(sys, result, seed: int = 0) -> list[CheckReport]:
    """One decay-inequality report per synthesis stage, each with its own
    gains, STAGE_SAMPLES draws at STAGE_TOL; stage l draws from seed + l."""
    return [synthesized_dissipation_check(
        sys, stage.V, stage.k, stage.gains,
        STAGE_SAMPLES, STAGE_TOL, seed + lvl, f"stage {lvl} certificate",
    ) for lvl, stage in enumerate(result.stage_trace, 1)]


# ---------------------------------------------------------------------------
# Trajectory estimates
# ---------------------------------------------------------------------------

def signal_sup(profile) -> float:
    """sup over t >= 0 of |d(t)|: the amplitudes' norm, d(0), since each entry's
    |cos(w t)| and e^(-decay t), decay >= 0, are at most 1."""
    return math.hypot(*profile.amplitudes)


def check_trajectory_estimates(log: TrajectoryLog, gains: DadsGains, d_sup: float,
                               theta_sup: float, attractivity_radius: float) -> list[CheckReport]:
    """Estimate checks along a deadzone-adapted run at TRAJECTORY_TOL (z's
    monotonicity at 1e-12).

    Produces reports for (i) the envelope e^{-ct} V(0) + residual / c on V,
    the law's residual at (d_sup, theta_sup, z(0)) from the signals'
    suprema, (ii) monotonicity of the adaptation state z, (iii) the tail
    bound V <= eps_dz (1 + SLACK), and (iv) the tail output bound |Y| <=
    attractivity_radius (1 + SLACK), |Y| the logged norm of the plant's
    output.  A failing tail bound notes when z still rose over the tail: the
    gain had not settled; the tail V bound notes the trend of max V/eps over
    halving windows too.
    """
    z = log.ctrl[:, 0]
    offset = dads_residual(d_sup ** 2, theta_sup, float(z[0]), gains.b, gains.a) / gains.c
    envelope = np.exp(-gains.c * log.t) * float(log.V[0]) + offset
    reports = [_envelope_report("V envelope", log.t, log.V, envelope, TRAJECTORY_TOL)]

    dz = np.diff(z)
    i_z = int(np.argmin(dz)) if len(dz) else 0
    reports.append(
        CheckReport(
            "z monotonicity", len(log), float(dz[i_z]) if len(dz) else 0.0,
            (float(log.t[i_z]),), 1e-12,
        )
    )

    n_tail = tail_length(len(log))
    note = "z still rising at t_end" if z[-1] > z[-n_tail] else ""
    v_tail = float(np.max(log.V[-n_tail:]))
    # max V/eps over (t_end/2, t_end], (t_end/4, t_end/2], ... up to five
    # windows, latest first, up to the first window that holds no row
    halves = ((log.t > log.t[-1] / 2 ** (k + 1)) & (log.t <= log.t[-1] / 2 ** k) for k in range(5))
    trend = ", ".join(f"{np.max(log.V[w]) / gains.eps_dz:.3g}" for w in takewhile(np.any, halves))
    reports.append(
        CheckReport(
            "tail V bound", n_tail, gains.eps_dz * (1.0 + SLACK) - v_tail, (v_tail,),
            TRAJECTORY_TOL,
            "; ".join(filter(None, (f"max V/eps per halving window back from t_end: {trend}",
                                    note))),
        )
    )

    y_tail = float(np.max(log.Ynorm[-n_tail:]))
    reports.append(
        CheckReport(
            "tail output bound", n_tail,
            attractivity_radius * (1.0 + SLACK) - y_tail, (y_tail,), TRAJECTORY_TOL, note,
        )
    )
    return reports


def _envelope_report(name: str, t, W, envelope, tol: float) -> CheckReport:
    """Worst margin of W <= envelope over the logged rows t, with the
    witness (t, W, envelope)."""
    margins = envelope - W
    i = int(np.argmin(margins))
    return CheckReport(name, len(t), float(margins[i]),
                       (float(t[i]), float(W[i]), float(envelope[i])), tol)


def wingrock_attractivity_radius(c: float, eps: float) -> float:
    """Residual output radius of the wing-rock design: (sqrt(c^2+1)+c) sqrt(2 eps).

    It bounds |(x1, x2)|, the plant's output, from V >= x1^2/2 + zeta^2/2
    with zeta = x2 + 2 c x1; it does not bound x3.
    """
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
    """The envelope of W = V + E that the leakage law's dissipation implies.

    W' <= -2c V - sigma E + r <= -lam W + r with lam = min(2c, sigma), so by
    the comparison lemma W(t) <= e^{-lam t} W(0) + r (1 - e^{-lam t}) / lam,
    W(0) + r t at sigma = 0, with r at d_sup.  r grows with sigma |theta|^2.
    Row 0 meets the bound with equality; the rows after it are checked, and
    the witness is (t, W, envelope).
    """
    lam = min(ctrl.decay_rates)
    r = ctrl.residual(d_sup ** 2, norm_sq(theta))
    W = sigma_log.V + ctrl.estimate_energy(sigma_log.ctrl.T, theta)
    t = sigma_log.t[1:]
    # the integral of e^{-lam s} over [0, t]
    spread = t if lam == 0.0 else -np.expm1(-lam * t) / lam
    envelope = np.exp(-lam * t) * W[0] + r * spread
    return _envelope_report("sigma-mod W envelope", t, W[1:], envelope, 0.0)
