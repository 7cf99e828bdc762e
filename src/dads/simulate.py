"""Closed-loop simulation of a plant with a dynamic controller.

The integration state is the plant state concatenated with the controller
state (adaptation gain z or parameter estimates).  Two methods are available:

* "rk4": the classical fixed-step fourth-order Runge-Kutta scheme, suitable
  for the baseline adaptive loops;
* "radau": the stiff integrator, needed for the deadzone-adapted loops whose
  stacked damping gains make the dynamics extremely stiff (the fastest
  closed-loop eigenvalue sits many decades above the slow ones, and explicit
  fixed-step schemes diverge immediately at practical step sizes).  It runs
  LSODA (Petzold 1983, from Hindmarsh's ODEPACK) through the `odeint` entry
  of scipy's compiled `scipy.integrate._odepack` extension, which makes the
  whole solve over the log grid one compiled call.  The method keeps the name
  "radau", after scipy's Radau IIA that it first ran, because scenario files
  and the benchmark harness (perfbench) name it.  The last plant state has an
  absolute tolerance of its own (ATOL_INPUT_STATE).

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
per unit of simulated time (at least one unit).  LSODA never gives up on a
finite-time blow-up by itself, so a run past the budget raises
DivergenceError with the time reached; a failure LSODA reports itself
(istate < 0) raises DivergenceError at the last output time it completed,
with LSODA's own message.

Before integrating, `simulate` traces the closed loop once: one evaluation of
the controller's `step`, of the disturbance formula
(`systems.sample_disturbance`) and of the plant formula
(`systems.state_rates`) on `jets.Traced` inputs records every operation in
the law's own order, each distinct operation once, and `compile_rhs` turns
the record into one straight-line function f(t, s0, ..., sN) -> tuple on
floats, which evaluates d(t) inline.  A zero disturbance is float constants,
which the trace folds away.  The stiff solver calls f; the RK4 loop is built
from the same recorded lines (below).  Laws must therefore be
written in generic arithmetic: a branch on the data, a comparison, float() or
a numpy ufunc on a traced value raises TypeError before the first step.  The
trace folds exactly four identities (x + 0.0, 0.0 + x, 1.0 * x, x * 1.0),
which can change at most the sign of a zero.  Zero-weighted terms are left
out where the formulas live, not by the trace: the plant's dot products skip
a weight that is the float 0.0 (a disturbance channel a level does not
receive) and the sigma-modification law forms its leak only for a nonzero
sigma, so the interpreted and the traced evaluation skip the same terms.
The interpreted evaluation stays the reference: the compiled rhs at
(0, s0) must equal eval_dynamics plus controller.step there, or the run
raises.

Both generated functions come from one emitter, `Tape.emit`: f and each
stage of the RK4 loop write every recorded line once, except that a
temporary read exactly once is substituted, parenthesised, into its
reader, which performs the same operations in the same order.  The RK4
loop is one generated float kernel per run (`_rk4_source`): one variable
per state component, the traced lines written out once per stage instead of
four calls of f, stage 3 taking the lines that depend on t alone from stage
2 (both run at t + dt/2), the later stages and the update reading each
stage's rates by name, the update in the operation order of
s + dt/6 (k1 + 2 k2 + 2 k3 + k4), and a divergence test on each component,
so its states are bit-identical to the same scheme on numpy arrays.  A
stiff solve whose state turns non-finite raises DivergenceError as well:
LSODA reports success (istate 2) on a nan right-hand side.

Logs are dense (every log_stride-th grid point) and serialize to CSV with full
floating-point precision for reproducible downstream checks.  The logged
input u comes from the interpreted `step`, once per row.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import io
import math
import os
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
# rhs evaluations the stiff solver may spend per unit of simulated time (the
# shipped 10 s DADS runs use at most about 2,200: nfe 5,992 on fig1_dads,
# 22,247 on fig4_dads, 13,438 on vanishing)
NFEV_PER_SECOND = 10**5
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


@dataclass(frozen=True)
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
    stored samples.  The implicit method integrates adaptively and evaluates
    the solution on the same logging grid, and its last row is at t_end.
    RK4 takes round(t_end / dt) whole steps, so its last row is at
    round(t_end / dt) dt: 0.0004 for t_end = 0.00035 and dt = 1e-4.  A t_end
    below dt, which RK4 would round to no step at all, is rejected.
    """

    dt: float = 1e-4
    t_end: float = 10.0
    method: str = "rk4"  # rk4 | radau (runs LSODA; see the module docstring)
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
    theta_value = theta(0.0)  # held constant
    s0 = np.concatenate([x0, ctrl0])
    traced = _trace_rhs(sys, controller, theta_value.tolist(), disturbance)
    rhs = _rhs_function(*traced)
    _check_compiled(rhs, sys, controller, s0, theta_value, disturbance)

    n_steps = int(round(config.t_end / config.dt))
    if config.method == "rk4":
        traj = _integrate_rk4(traced, s0, config, n_steps)
        log_idx = list(range(0, n_steps + 1, config.log_stride))
        if log_idx[-1] != n_steps:
            log_idx.append(n_steps)
        t_log = config.dt * np.array(log_idx, float)
    else:
        # the last grid point can round past t_end; the log ends at t_end
        t_log = np.minimum(
            config.dt * np.arange(0, n_steps + 1, config.log_stride), config.t_end)
        if t_log[-1] < config.t_end - 1e-12:
            t_log = np.append(t_log, config.t_end)
        atol = np.full(len(s0), ATOL)
        atol[n - 1] = ATOL_INPUT_STATE
        budget = int(NFEV_PER_SECOND * max(config.t_end, 1.0))
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_ivp(_budgeted(rhs, budget), s0, t_log, atol, budget)
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


def compile_rhs(sys, controller, theta: Sequence[float], disturbance) -> Callable:
    """The closed-loop rhs as one straight-line float function, traced once.

    The result is f(t, s0, ..., sN) -> tuple of the N + 1 rates, where s is
    the plant state followed by the controller state; theta holds the
    parameter values.  controller.step runs once on traced state, controller
    state and t, the disturbance formula (`systems.sample_disturbance`) once
    on the traced t, and the plant formula once on their results, so f
    evaluates d(t) inline.  A law that is not generic arithmetic raises
    TypeError here.
    """
    return _rhs_function(*_trace_rhs(sys, controller, theta, disturbance))


def _trace_rhs(sys, controller, theta: Sequence[float], disturbance) -> tuple[Tape, list]:
    """The tape of one traced rhs evaluation on inputs t, s0, ..., sN, and
    the N + 1 rates as tape operands (see `compile_rhs`)."""
    n, q = sys.state_dim, controller.ctrl_dim
    tape = Tape()
    t = Traced(tape, "t")
    s = tuple(Traced(tape, f"s{i}") for i in range(n + q))
    u, rate = controller.step(s[:n], s[n:], t)
    d = sample_disturbance(disturbance, t)
    outputs = [*state_rates(sys, s[:n], u, theta, d), *rate]
    return tape, [tape.operand(x) for x in outputs]


def _rhs_function(tape: Tape, rates: Sequence) -> Callable:
    """f(t, s0, ..., sN) -> rates, the traced lines as one function."""
    statements, texts, _ = tape.emit(rates)
    source = "\n    ".join([
        f"def rhs(t, {', '.join(f's{i}' for i in range(len(rates)))}):",
        *statements,
        f"return ({', '.join(texts)},)",
    ])
    return tape.compile(source, "rhs", {})


def _check_compiled(rhs, sys, controller, s0, theta, disturbance) -> None:
    """Raise unless the compiled rhs equals the interpreted one at (0, s0).

    nan equals nan; the sign of a zero may differ (see the module docstring).
    """
    n = sys.state_dim
    with np.errstate(over="ignore", invalid="ignore"):
        u, rate = controller.step(s0[:n], s0[n:], 0.0)
        expected = np.concatenate(
            [eval_dynamics(sys, s0[:n], u, theta, disturbance(0.0)), rate])
        got = np.array(rhs(0.0, *s0.tolist()), float)
    if not np.array_equal(got, expected, equal_nan=True):
        raise RuntimeError(
            f"the traced rhs at t = 0 gives {got.tolist()}, the interpreted one "
            f"{expected.tolist()}"
        )


def _budgeted(rhs, budget: int) -> Callable:
    """The compiled rhs as the stiff solver calls it, fun(t, s) with s an
    array, raising DivergenceError at the call after the budget-th one."""
    calls = 0

    def counted(t, s):
        nonlocal calls
        calls += 1
        if calls > budget:
            raise DivergenceError(
                t, f"the stiff solver used its budget of {budget} rhs evaluations "
                f"(NFEV_PER_SECOND = {NFEV_PER_SECOND} per unit of simulated time)")
        return rhs(t, *s.tolist())

    return counted


def _integrate_rk4(traced: tuple[Tape, list], s0: np.ndarray, config: SimConfig,
                   n_steps: int) -> np.ndarray:
    """The states at steps 0, log_stride, 2 log_stride, ... and at n_steps.

    traced is the (tape, rates) pair of `_trace_rhs`; the loop is its
    generated RK4 kernel (see `_rk4_source`).
    """
    stride = config.log_stride
    out = np.empty((math.ceil(n_steps / stride) + 1, len(s0)))
    out[0] = s0
    tape, rates = traced
    loop = tape.compile(_rk4_source(tape, rates), "rk4", {"DivergenceError": DivergenceError})
    with np.errstate(over="ignore", invalid="ignore"):
        out[-1] = loop(config.dt, n_steps, stride, out, *s0.tolist())
    return out


def _rk4_source(tape: Tape, rates: Sequence) -> str:
    """Source of rk4(dt, n_steps, stride, out, y0, ..., yN) -> final state.

    Classical RK4 with one float variable per state component, in the
    operation order of the array form s + dt/6 (k1 + 2 k2 + 2 k3 + k4).  The
    traced lines are written out once per stage by `Tape.emit`, their names
    suffixed with the stage number j: stage j reads its time and its state
    sI_j (stage 1 reads t_i and yI themselves), and the later stages and
    the update read its rates by their names, without copies.  Stages 2 and
    3 both run at t_2 = t_i + dt/2, so stage 3 takes the lines that depend on
    t alone from stage 2.  The update assigns every yI at once, because a
    stage-1 rate may be some yI itself.  No local is named cK, the tape's
    name for a non-finite constant.  The kernel writes every stride-th
    state into row (i + 1) // stride of out, and raises DivergenceError(i dt)
    at the first step that leaves [-DIVERGENCE_THRESHOLD, DIVERGENCE_THRESHOLD]
    in some component; the chained comparison is false for nan and +-inf as
    well.
    """
    dim = len(rates)
    timed = tape.independent_of(f"s{i}" for i in range(dim))
    y = [f"y{i}" for i in range(dim)]

    def stage(j: int, t: str, h: str = "", k: Sequence[str] = (), env: dict | None = None):
        """Stage j at time t and state y + h k (y itself without h): its
        statements, rate texts and names, from tape.emit."""
        state = [f"s{i}_{j}" for i in range(dim)] if h else y
        inputs = {"t": t, **{f"s{i}": s for i, s in enumerate(state)}}
        statements, texts, names = tape.emit(
            rates, {**(env or {}), **inputs}, f"_{j}", shared=timed)
        bound = [f"s{i}_{j} = y{i} + {h} * {k[i]}" for i in range(dim)] if h else []
        return bound + statements, texts, names

    lines1, k1, _ = stage(1, "t_i")
    lines2, k2, names2 = stage(2, "t_2", "h2", k1)
    lines3, k3, _ = stage(3, "t_2", "h2", k2, {v: names2[v] for v in timed})
    lines4, k4, _ = stage(4, "t_4", "dt", k3)
    limit = repr(DIVERGENCE_THRESHOLD)
    body = [
        "t_i = i * dt",
        *lines1,
        "t_2 = t_i + h2",
        *lines2,
        *lines3,
        "t_4 = t_i + dt",
        *lines4,
        f"{', '.join(y)} = " + ", ".join(
            f"y{i} + h6 * ({k1[i]} + 2.0 * {k2[i]} + 2.0 * {k3[i]} + {k4[i]})"
            for i in range(dim)),
        "if not (" + " and ".join(f"-{limit} <= {v} <= {limit}" for v in y) + "):",
        "    raise DivergenceError(t_i)",
        "if (i + 1) % stride == 0:",
        f"    out[(i + 1) // stride] = {', '.join(y)}",
    ]
    return "\n".join([
        f"def rk4(dt, n_steps, stride, out, {', '.join(y)}):",
        "    h2 = dt / 2.0",
        "    h6 = dt / 6.0",
        "    for i in range(n_steps):",
        *("        " + line for line in body),
        f"    return {', '.join(y)},",
    ])


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
