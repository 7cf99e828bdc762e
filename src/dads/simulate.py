"""Closed-loop simulation of a plant with a dynamic controller.

The integration state is the plant state concatenated with the controller
state (adaptation gain z or parameter estimates).  Two methods are available:

* "rk4": the classical fixed-step fourth-order Runge-Kutta scheme, suitable
  for the baseline adaptive loops;
* "radau": scipy's implicit Radau IIA scheme, needed for the deadzone-adapted
  loops whose stacked damping gains make the dynamics extremely stiff (the
  fastest closed-loop eigenvalue sits many decades above the slow ones, and
  explicit fixed-step schemes diverge immediately at practical step sizes).

Logs are dense (every log_stride-th grid point) and serialize to CSV with full
floating-point precision for reproducible downstream checks.

scipy is imported by the first Radau solve, not with this module, so the
commands that never integrate (synthesize, and verify without trajectory
checks) do not load it.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .systems import DisturbanceProfile, ParameterSignal, eval_dynamics


# Radau tolerances, and the state magnitude at which RK4 declares divergence
RTOL = 1e-10
ATOL = 1e-13
DIVERGENCE_THRESHOLD = 1e8
# Largest accepted t_end / dt.  RK4 stores every step, 7 floats of 8 B on the
# sigma-mod wing-rock loop, so the cap keeps a run under about 560 MB.
MAX_STEPS = 10**7


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


class DivergenceError(Exception):
    """The integration left the finite range; carries the last finite time.

    reason, when given, is the solver's own account of the failure.
    """

    def __init__(self, t_last: float, reason: str = ""):
        self.t_last = float(t_last)
        super().__init__(
            f"trajectory diverged; last finite time t = {t_last:.6g}"
            + (f" ({reason})" if reason else "")
        )


@dataclass(frozen=True)
class SimConfig:
    """Integration settings.

    dt is the logging grid spacing (and the RK4 step); log_stride thins the
    stored samples.  The implicit method integrates adaptively and evaluates
    the solution on the same logging grid.
    """

    dt: float = 1e-4
    t_end: float = 10.0
    method: str = "rk4"  # rk4 | radau
    log_stride: int = 100

    def __post_init__(self):
        # the chained comparisons also reject nan
        if not (0 < self.dt < math.inf and 0 < self.t_end < math.inf):
            raise ValueError(
                f"dt and t_end must be finite and positive, got {self.dt}, {self.t_end}"
            )
        if self.t_end / self.dt > MAX_STEPS:  # also true when the ratio overflows
            raise ValueError(
                f"t_end / dt = {self.t_end / self.dt:.6g} steps exceeds MAX_STEPS = {MAX_STEPS}"
            )
        if self.log_stride < 1:
            raise ValueError("log_stride must be >= 1")
        if self.method not in ("rk4", "radau"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class TrajectoryLog:
    """Dense closed-loop log: states, controller states, input, V, output norm."""

    t: np.ndarray
    x: np.ndarray  # (N, state_dim)
    ctrl: np.ndarray  # (N, ctrl_dim)
    u: np.ndarray
    V: np.ndarray
    Ynorm: np.ndarray
    state_names: tuple[str, ...]
    ctrl_names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.t)

    def header(self) -> list[str]:
        return ["t", *self.state_names, *self.ctrl_names, "u", "V", "Ynorm"]

    def to_csv(self, path_or_buf) -> None:
        data = np.column_stack(
            [self.t, self.x, self.ctrl, self.u, self.V, self.Ynorm]
        )
        header = ",".join(self.header())
        if hasattr(path_or_buf, "write"):
            np.savetxt(path_or_buf, data, delimiter=",", header=header,
                       comments="", fmt="%.17g")
        else:
            with open(path_or_buf, "w") as fh:
                np.savetxt(fh, data, delimiter=",", header=header,
                           comments="", fmt="%.17g")

    @classmethod
    def from_csv(cls, path_or_buf) -> "TrajectoryLog":
        if hasattr(path_or_buf, "read"):
            text = path_or_buf.read()
        else:
            with open(path_or_buf) as fh:
                text = fh.read()
        lines = text.strip().splitlines()
        names = lines[0].split(",")
        data = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)
        state_names = tuple(n for n in names if n.startswith("x"))
        ctrl_names = tuple(
            n for n in names[1:] if n not in ("u", "V", "Ynorm") and not n.startswith("x")
        )
        ns, nc = len(state_names), len(ctrl_names)
        return cls(
            t=data[:, 0],
            x=data[:, 1 : 1 + ns],
            ctrl=data[:, 1 + ns : 1 + ns + nc],
            u=data[:, 1 + ns + nc],
            V=data[:, 2 + ns + nc],
            Ynorm=data[:, 3 + ns + nc],
            state_names=state_names,
            ctrl_names=ctrl_names,
        )


def _default_ctrl_names(controller) -> tuple[str, ...]:
    if controller.ctrl_dim == 1:
        return ("z",)
    return tuple(f"th{i + 1}" for i in range(controller.ctrl_dim))


def simulate(
    sys,
    controller,
    x0: Sequence[float],
    ctrl0: Sequence[float],
    disturbance: DisturbanceProfile,
    theta: ParameterSignal,
    config: SimConfig = SimConfig(),
    output_indices: Sequence[int] | None = None,
) -> TrajectoryLog:
    """Integrate the closed loop and return a dense trajectory log.

    output_indices selects which plant states enter the logged output norm
    (default: all of them).  Raises DivergenceError when the state leaves the
    finite range.
    """
    x0 = np.asarray(x0, float)
    ctrl0 = np.asarray(ctrl0, float)
    n = sys.state_dim
    q = controller.ctrl_dim
    if x0.shape != (n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({n},)")
    if ctrl0.shape != (q,):
        raise ValueError(f"ctrl0 has shape {ctrl0.shape}, expected ({q},)")
    sel = np.arange(n) if output_indices is None else np.asarray(output_indices, int)

    def rhs(t, s):
        u, rate = controller.step(s[:n], s[n:], t)
        return np.concatenate([eval_dynamics(sys, s[:n], u, theta(t), disturbance(t)), rate])

    n_steps = int(round(config.t_end / config.dt))
    t_log = config.dt * np.arange(0, n_steps + 1, config.log_stride)
    if t_log[-1] < config.t_end - 1e-12:
        t_log = np.append(t_log, config.t_end)

    if config.method == "rk4":
        states = _integrate_rk4(rhs, np.concatenate([x0, ctrl0]), config, n_steps)
        log_idx = list(range(0, n_steps + 1, config.log_stride))
        if log_idx[-1] != n_steps:
            log_idx.append(n_steps)
        t_log = config.dt * np.array(log_idx, float)
        traj = states[log_idx]
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_ivp(
                rhs, (0.0, config.t_end), np.concatenate([x0, ctrl0]),
                method="Radau", t_eval=t_log, rtol=RTOL, atol=ATOL,
            )
        if not sol.success or sol.t[-1] < config.t_end - 1e-9:
            raise DivergenceError(sol.t[-1] if len(sol.t) else 0.0, sol.message)
        traj = sol.y.T
        t_log = sol.t

    u_log = np.array([controller.step(s[:n], s[n:], t)[0] for t, s in zip(t_log, traj)])
    V_log = np.array([controller.lyapunov(s[:n], s[n:]) for s in traj])
    Y_log = np.linalg.norm(traj[:, sel], axis=1)
    return TrajectoryLog(
        t=t_log,
        x=traj[:, :n],
        ctrl=traj[:, n:],
        u=u_log,
        V=V_log,
        Ynorm=Y_log,
        state_names=tuple(f"x{i + 1}" for i in range(n)),
        ctrl_names=_default_ctrl_names(controller),
    )


def _integrate_rk4(rhs, s0: np.ndarray, config: SimConfig, n_steps: int) -> np.ndarray:
    dt = config.dt
    out = np.empty((n_steps + 1, len(s0)))
    out[0] = s0
    s = s0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            t = i * dt
            k1 = rhs(t, s)
            k2 = rhs(t + dt / 2.0, s + dt / 2.0 * k1)
            k3 = rhs(t + dt / 2.0, s + dt / 2.0 * k2)
            k4 = rhs(t + dt, s + dt * k3)
            s = s + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(s)) or np.max(np.abs(s)) > DIVERGENCE_THRESHOLD:
                raise DivergenceError(t)
            out[i + 1] = s
    return out


@dataclass(frozen=True)
class TrajectoryStats:
    sup_output_tail: float
    sup_V_tail: float
    sup_gain: float
    final_gain: float
    final_ctrl_norm: float
    control_energy: float


def trajectory_stats(log: TrajectoryLog, controller) -> TrajectoryStats:
    """Summary statistics: suprema over the final 20 % of the log, gain
    magnitudes, input energy."""
    n_tail = max(1, int(math.ceil(0.2 * len(log))))
    gains = np.array([controller.gain_magnitude(cs) for cs in log.ctrl])
    return TrajectoryStats(
        sup_output_tail=float(np.max(log.Ynorm[-n_tail:])),
        sup_V_tail=float(np.max(log.V[-n_tail:])),
        sup_gain=float(np.max(gains)),
        final_gain=float(gains[-1]),
        final_ctrl_norm=float(np.linalg.norm(log.ctrl[-1])),
        control_energy=float(np.trapezoid(log.u ** 2, log.t)),
    )
