"""Closed-loop simulation of a plant with a dynamic controller.

The integration state is the plant state concatenated with the controller
state (adaptation gain z or parameter estimates).  Two methods are available:

* "radau": the stiff integrator, the default of SimConfig and of a scenario
  that does not name a method, and the one every shipped scenario uses.  The
  deadzone-adapted loops need it: their stacked damping gains make the
  dynamics extremely stiff (the fastest closed-loop eigenvalue sits many
  decades above the slow ones, and explicit fixed-step schemes diverge
  immediately at practical step sizes).  The sigma-modification loops are
  not stiff at the shipped gains, but LSODA takes about a tenth of RK4's
  rhs evaluations on them at dt = 1e-4, and stays stable at adaptation gains
  where RK4 at that step does not.  It runs LSODA (Petzold 1983, from
  Hindmarsh's ODEPACK) through the `odeint` entry of scipy's compiled
  `scipy.integrate._odepack` extension, which makes the whole solve over the
  log grid one compiled call.  The method keeps the name
  "radau", after scipy's Radau IIA that it first ran, because scenario files
  and the benchmark harness (perfbench) name it.  The last plant state has an
  absolute tolerance of its own (ATOL_INPUT_STATE);
* "rk4": the classical fixed-step fourth-order Runge-Kutta scheme, selected
  by name only.

The extension is loaded once, by the first stiff solve, from its file
(`odepack`), so scipy's package `__init__` never runs: importing
`scipy.integrate` costs about 0.3 s per process, most of it `scipy.special`,
against a few ms for the extension.  The commands that never integrate
(synthesize, and verify without trajectory checks) load neither.  The
module is private to scipy; it was verified on scipy 1.17 only, and there is
no fallback to scipy's public solvers.  `solve_ivp` is the one stiff-solve
function and keeps that name because perfbench spans it and reads the
counts `nfev`, `njev` and `nlu` from its result; `nlu` is LSODA's `nje`, as
scipy's own LSODA wrapper reports it.

The stiff solve has a budget of NFEV_PER_SECOND right-hand-side evaluations
per unit of simulated time (at least one unit), counted inside the generated
rhs itself.  LSODA never gives up on a finite-time blow-up by itself, so a
run past the budget raises DivergenceError with the time reached; a failure
LSODA reports itself (istate < 0) raises DivergenceError at the last output
time it completed, with LSODA's own message.

Before integrating, `simulate` traces the closed loop once: one evaluation of
the controller's `step`, of the disturbance formula
(`systems.sample_disturbance`) and of the plant formula
(`systems.state_rates`) on `jets.Traced` inputs records every operation in
the law's own order, each distinct operation once (`_trace_rhs`), and
`_rhs_function` turns the record into one straight-line function
f(t, s) -> tuple on floats, which unpacks the state array s itself and
evaluates d(t) inline.  A zero disturbance is float constants, which the
trace folds away.  Both methods call f with no wrapper.  Laws must
therefore be written in generic arithmetic: a branch on the data, a
comparison, float() or a numpy ufunc on a traced value raises TypeError
before the first step.  The trace folds
exactly four identities (x + 0.0, 0.0 + x, 1.0 * x, x * 1.0), which can
change at most the sign of a zero.  Zero-weighted terms are left
out where the formulas live, not by the trace: the plant's dot products skip
a weight that is the float 0.0 (a disturbance channel a level does not
receive) and the sigma-modification law forms its leak only for a nonzero
sigma, so the interpreted and the traced evaluation skip the same terms.
The interpreted evaluation stays the reference: the compiled rhs at
(0, s0) must equal eval_dynamics plus controller.step there, or the run
raises.  A rhs that is not finite there raises DivergenceError at t = 0,
naming each such rate, before either method steps.

f is the one generated function per run, whichever the method: `simulate`
compiles it once, and the compiled check and the solve each call an
instance of it.  Its statements are the tape's lines as recorded, one
`vK = rhs` each, in tape order.
The RK4 loop steps on Python floats in the operation order of the array
form, so its rows are bit-identical to the same scheme on numpy arrays.
A stiff solve whose state turns non-finite raises DivergenceError as well:
LSODA reports success (istate 2) on a nan right-hand side.

Logs are dense (the times of `SimConfig.log_times`) and serialize to CSV
with full floating-point precision for reproducible downstream checks.  The
logged input u comes from the interpreted `step`, once per row.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .jets import Tape, Traced
from .systems import (
    DisturbanceProfile,
    ParameterSignal,
    eval_dynamics,
    sample_disturbance,
    state_rates,
)


# Stiff-solver tolerances.  The last plant state, where the input enters, has
# an absolute tolerance of its own: a high-gain law slaves it to the other
# states through the gradient of its stabilizing function (about 400 on the
# wing-rock DADS loop), so it is only ever as accurate as they are times that
# gain.  Held to RTOL/ATOL like the others, it made LSODA fail its error test
# or crawl at tiny steps on about one horizon in eight of the shipped DADS
# scenarios; with ATOL_INPUT_STATE it failed on none of 615.
RTOL = 1e-12
ATOL = 1e-14
ATOL_INPUT_STATE = 1e-10
# rhs evaluations the stiff solver may spend per unit of simulated time: the
# shipped loops use at most 6,025 per unit over horizons from 0.01 to 10 s
# (fig4_dads at 1 s), fig1_dads at k = 1e5 over 0.05 s uses 15,813, and
# fig4_dads at amplitudes and theta x10 uses 49,928 over 10 s
NFEV_PER_SECOND = 3 * 10**4
# The state magnitude at which RK4 declares divergence
DIVERGENCE_THRESHOLD = 1e8
# Largest accepted t_end / dt.  It bounds the length of the RK4 loop and the
# logged rows: at log_stride = 1 every step is logged, 7 floats of 8 B on the
# sigma-mod wing-rock loop, so the cap keeps such a log under about 560 MB.
MAX_STEPS = 10**7


# LSODA's account of a failed solve, by istate; copied from the `_msgs` table
# of scipy/integrate/_odepack_py.py (scipy 1.17)
LSODA_MESSAGES = {
    -1: "Excess work done on this call (perhaps wrong Dfun type).",
    -2: "Excess accuracy requested (tolerances too small).",
    -3: "Illegal input detected (internal error).",
    -4: "Repeated error test failures (internal error).",
    -5: "Repeated convergence failures (perhaps bad Jacobian or tolerances).",
    -6: "Error weight became zero during problem.",
    -7: "Internal workspace insufficient to finish (internal error).",
    -8: "Run terminated (internal error).",
}
# odeint takes mxstep as a C int
_INT_MAX = 2**31 - 1


@functools.cache
def odepack():
    """scipy's compiled ODEPACK extension, `scipy.integrate._odepack`.

    It is loaded from its file next to scipy's `__init__.py`, so neither
    `scipy` nor `scipy.integrate` is imported.  Verified on scipy 1.17;
    older releases were not tried.  Raises ImportError naming the path
    looked for when the file is not there.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("the stiff method needs scipy, which is not installed")
    stem = os.path.join(os.path.dirname(spec.origin), "integrate", "_odepack")
    paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy's LSODA extension {paths[0]} is missing")
    spec = importlib.util.spec_from_file_location("scipy.integrate._odepack", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True, eq=False)
class StiffSolution:
    """One LSODA solve over an output grid.

    y holds the states at the output times LSODA completed.  failed is the
    index of the first output time it did not reach, or None when it reached
    them all; istate is LSODA's return code (2 on success, < 0 on failure).
    nfev, njev and nlu count the rhs evaluations, the Jacobians and the LU
    factorizations of the whole solve, a failed last call included.
    """

    y: np.ndarray
    failed: int | None
    istate: int
    nfev: int
    njev: int
    nlu: int


def solve_ivp(fun, s0: np.ndarray, t_log: np.ndarray, atol: np.ndarray,
              budget: int) -> StiffSolution:
    """LSODA from s0 at t_log[0] through the output times t_log.

    fun(t, s) is the rhs.  The step limit per output interval is the rhs
    budget (capped at a C int), so the budget inside fun is the only bound
    on the work; an exception fun raises propagates.
    """
    y, info, istate = odepack().odeint(
        fun, s0.copy(), t_log.copy(), (), None, 0, -1, -1, 1, RTOL, atol, None,
        0.0, 0.0, 0.0, 0, min(budget, _INT_MAX), 0, 12, 5, 1)
    # info[key][i] describes the solve to t_log[i + 1].  After a failure the
    # rows of y and the info entries past the failed call are uninitialized
    # memory, so the scan stops at the first output time not reached.
    last, failed = len(t_log) - 2, None
    if istate < 0:
        last = next(i for i, (reached, t) in enumerate(zip(info["tcur"], t_log[1:]))
                    if reached < t)
        failed = last + 1
        y = y[:failed]
    nje = int(info["nje"][last])
    return StiffSolution(y, failed, int(istate), int(info["nfe"][last]), nje, nje)


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
    stored samples.  The stiff method (LSODA) integrates adaptively and
    evaluates the solution on the same logging grid, and its last row is at
    t_end.  RK4 takes round(t_end / dt) whole steps, so its last row is at
    round(t_end / dt) dt: 0.0004 for t_end = 0.00035 and dt = 1e-4.  A t_end
    below dt, which RK4 would round to no step at all, is rejected.
    """

    dt: float = 1e-4
    t_end: float = 10.0
    method: str = "radau"  # runs LSODA (see the module docstring); rk4 by name only
    log_stride: int = 100

    def __post_init__(self):
        # the chained comparisons also reject nan
        if not (0 < self.dt < math.inf and 0 < self.t_end < math.inf):
            raise ValueError(
                f"dt and t_end must be finite and positive, got {self.dt}, {self.t_end}"
            )
        if self.t_end < self.dt:
            raise ValueError(f"t_end = {self.t_end} is shorter than one step dt = {self.dt}")
        if self.t_end / self.dt > MAX_STEPS:  # also true when the ratio overflows
            raise ValueError(
                f"t_end / dt = {self.t_end / self.dt:.6g} steps exceeds MAX_STEPS = {MAX_STEPS}"
            )
        if self.log_stride < 1:
            raise ValueError("log_stride must be >= 1")
        if self.method not in ("rk4", "radau"):
            raise ValueError(f"unknown method {self.method!r}")

    @property
    def n_steps(self) -> int:
        """round(t_end / dt): RK4's whole steps, and the last grid index."""
        return round(self.t_end / self.dt)

    def log_times(self) -> np.ndarray:
        """The logged times: every log_stride-th grid point k dt, then the
        last row (see the class docstring) when the stride skips it."""
        n = self.n_steps
        t = self.dt * np.arange(0, n + 1, self.log_stride)
        if self.method == "rk4":
            return t if n % self.log_stride == 0 else np.append(t, self.dt * n)
        # the last grid point can round past t_end; the log ends at t_end
        t = np.minimum(t, self.t_end)
        return t if t[-1] >= self.t_end - 1e-12 else np.append(t, self.t_end)


@dataclass(eq=False)
class TrajectoryLog:
    """Dense closed-loop log: states, controller states, input, V, output norm."""

    t: np.ndarray
    x: np.ndarray  # (N, state_dim)
    ctrl: np.ndarray  # (N, ctrl_dim)
    u: np.ndarray
    V: np.ndarray
    Ynorm: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def header(self) -> list[str]:
        """Column names: t, the `state_names`, u, V and Ynorm."""
        return ["t", *state_names(self.x.shape[1], self.ctrl.shape[1]), "u", "V", "Ynorm"]

    def to_csv(self, path: str) -> None:
        data = np.column_stack(
            [self.t, self.x, self.ctrl, self.u, self.V, self.Ynorm]
        )
        np.savetxt(path, data, delimiter=",", header=",".join(self.header()),
                   comments="", fmt="%.17g")


def simulate(
    sys,
    controller,
    x0: Sequence[float],
    ctrl0: Sequence[float],
    disturbance: DisturbanceProfile,
    theta: ParameterSignal,
    config: SimConfig = SimConfig(),
) -> TrajectoryLog:
    """Integrate the closed loop and return a dense trajectory log.

    The log's Ynorm is |Y|, the norm of the plant's first `output_dim` states.
    Raises DivergenceError when the state leaves the finite range.
    """
    x0 = np.asarray(x0, float)
    ctrl0 = np.asarray(ctrl0, float)
    n = sys.state_dim
    q = controller.ctrl_dim
    if x0.shape != (n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({n},)")
    if ctrl0.shape != (q,):
        raise ValueError(f"ctrl0 has shape {ctrl0.shape}, expected ({q},)")
    theta_value = theta(0.0)  # held constant
    s0 = np.concatenate([x0, ctrl0])
    budgeted = _rhs_function(*_trace_rhs(sys, controller, theta_value.tolist(), disturbance))
    budget = int(NFEV_PER_SECOND * max(config.t_end, 1.0))
    # checked on an instance of its own, so the solve's count starts at 0
    _check_compiled(budgeted(budget), sys, controller, s0, theta_value, disturbance)

    t_log = config.log_times()
    if config.method == "rk4":
        traj = _integrate_rk4(budgeted(math.inf), s0, config, config.n_steps)
    else:
        atol = np.full(len(s0), ATOL)
        atol[n - 1] = ATOL_INPUT_STATE
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_ivp(budgeted(budget), s0, t_log, atol, budget)
        if sol.istate < 0:
            raise DivergenceError(
                t_log[sol.failed - 1], "lsoda: " + LSODA_MESSAGES[sol.istate])
        traj = sol.y
        # LSODA can report success on a nan rhs; the log ends at the last
        # finite row as RK4's does
        finite = np.isfinite(traj).all(axis=1)
        if not finite.all():
            first_bad = int(np.argmin(finite))
            raise DivergenceError(t_log[max(first_bad - 1, 0)], "the state is not finite")

    u_log = np.array([controller.step(s[:n], s[n:], t)[0] for t, s in zip(t_log, traj)])
    V_log = np.array([controller.lyapunov(s[:n], s[n:]) for s in traj])
    return TrajectoryLog(t_log, traj[:, :n], traj[:, n:], u_log, V_log,
                         np.linalg.norm(traj[:, :sys.output_dim], axis=1))


def state_names(n: int, q: int) -> list[str]:
    """x1..xn, then z for one controller state or th1..thq for q parameter
    estimates."""
    ctrl = ["z"] if q == 1 else [f"th{i + 1}" for i in range(q)]
    return [*(f"x{i + 1}" for i in range(n)), *ctrl]


def _trace_rhs(sys, controller, theta: Sequence[float], disturbance) -> tuple[Tape, list[str]]:
    """The tape of one traced rhs evaluation on inputs t, s0, ..., sN (the
    plant state, then the controller state; theta holds the parameter
    values) and the source texts of the N + 1 rates, for `_rhs_function`.
    A law that is not generic arithmetic raises TypeError here."""
    n, q = sys.state_dim, controller.ctrl_dim
    tape = Tape()
    t = Traced(tape, "t")
    s = tuple(Traced(tape, f"s{i}") for i in range(n + q))
    u, rate = controller.step(s[:n], s[n:], t)
    d = sample_disturbance(disturbance, t)
    outputs = [*state_rates(sys, s[:n], u, theta, d), *rate]
    return tape, [tape.operand(x) for x in outputs]


def _rhs_function(tape: Tape, rates: Sequence[str]) -> Callable:
    """budgeted(budget) -> f(t, s), the traced lines as one function.

    f takes the state as an array, as the stiff solver passes it, runs the
    tape's lines in tape order (statement K after the unpacking is line vK)
    and returns the rates.  Each f that budgeted returns counts its own calls
    and raises DivergenceError at t on the call after the budget-th one, so
    the count and the budget test cost no frame of their own.
    """
    source = "\n".join([
        "def budgeted(budget):",
        "    calls = 0",
        "    def rhs(t, s):",
        *("        " + line for line in [
            "nonlocal calls",
            "calls += 1",
            "if calls > budget:",
            "    raise _over_budget(t, budget)",
            f"{', '.join(f's{i}' for i in range(len(rates)))}, = s.tolist()",
            *tape.lines,
            f"return ({', '.join(rates)},)",
        ]),
        "    return rhs",
    ])
    return tape.compile(source, "budgeted", {"_over_budget": _over_budget})


def _over_budget(t: float, budget: int) -> DivergenceError:
    return DivergenceError(
        t, f"the stiff solver used its budget of {budget} rhs evaluations "
        f"(NFEV_PER_SECOND = {NFEV_PER_SECOND} per unit of simulated time)")


def _check_compiled(rhs, sys, controller, s0, theta, disturbance) -> None:
    """Raise unless the compiled rhs equals the interpreted one at (0, s0),
    and raise DivergenceError at t = 0, naming each rate that is nan or
    infinite, unless that rhs is finite.

    nan equals nan; the sign of a zero may differ (see the module docstring).
    """
    n = sys.state_dim
    with np.errstate(over="ignore", invalid="ignore"):
        u, rate = controller.step(s0[:n], s0[n:], 0.0)
        expected = np.concatenate(
            [eval_dynamics(sys, s0[:n], u, theta, disturbance(0.0)), rate])
        got = np.array(rhs(0.0, s0), float)
    if not np.array_equal(got, expected, equal_nan=True):
        raise RuntimeError(
            f"the traced rhs at t = 0 gives {got.tolist()}, the interpreted one "
            f"{expected.tolist()}"
        )
    names = state_names(n, controller.ctrl_dim)
    bad = [f"d{name}/dt = {v:g}" for name, v in zip(names, expected) if not math.isfinite(v)]
    if bad:
        raise DivergenceError(0.0, "the rhs at the initial state is not finite: "
                              + ", ".join(bad))


def _integrate_rk4(f: Callable, s0: np.ndarray, config: SimConfig,
                   n_steps: int) -> np.ndarray:
    """The states at steps 0, log_stride, 2 log_stride, ... and at n_steps.

    Classical RK4 over f(t, s), the compiled rhs that `_rhs_function` built,
    on floats in the operation order of the array form
    s + dt/6 (k1 + 2 k2 + 2 k3 + k4).  Each state is an array("d"), which has
    the tolist() the rhs unpacks its state with.  Raises DivergenceError(i dt)
    at the first step i that leaves [-DIVERGENCE_THRESHOLD,
    DIVERGENCE_THRESHOLD] in some component, or turns nan.
    """
    dt, h2, h6, stride = config.dt, config.dt / 2.0, config.dt / 6.0, config.log_stride
    limit = DIVERGENCE_THRESHOLD
    out = np.empty((len(config.log_times()), len(s0)))
    out[0] = s0
    y = array("d", s0)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            t = i * dt
            k1 = f(t, y)
            k2 = f(t + h2, array("d", [a + h2 * k for a, k in zip(y, k1)]))
            k3 = f(t + h2, array("d", [a + h2 * k for a, k in zip(y, k2)]))
            k4 = f(t + dt, array("d", [a + dt * k for a, k in zip(y, k3)]))
            y = array("d", [a + h6 * (p + 2.0 * q + 2.0 * r + w)
                            for a, p, q, r, w in zip(y, k1, k2, k3, k4)])
            if not all(-limit <= a <= limit for a in y):
                raise DivergenceError(t)
            if (i + 1) % stride == 0:
                out[(i + 1) // stride] = y
    out[-1] = y
    return out


@dataclass(frozen=True)
class TrajectoryStats:
    sup_output_tail: float
    sup_V_tail: float
    sup_gain: float
    final_gain: float
    final_ctrl_norm: float
    control_energy: float


def tail_length(n_rows: int) -> int:
    """Rows in the tail of an n_rows log: the final 20 %, at least one row.

    Every asymptotic statistic and check is taken over this tail.
    """
    return max(1, int(math.ceil(0.2 * n_rows)))


def trajectory_stats(log: TrajectoryLog, controller) -> TrajectoryStats:
    """Summary statistics: suprema over the tail of the log, gain
    magnitudes, input energy."""
    n_tail = tail_length(len(log))
    gains = np.array([controller.gain_magnitude(cs) for cs in log.ctrl])
    return TrajectoryStats(
        sup_output_tail=float(np.max(log.Ynorm[-n_tail:])),
        sup_V_tail=float(np.max(log.V[-n_tail:])),
        sup_gain=float(np.max(gains)),
        final_gain=float(gains[-1]),
        final_ctrl_norm=float(np.linalg.norm(log.ctrl[-1])),
        control_energy=float(np.trapezoid(log.u ** 2, log.t)),
    )
