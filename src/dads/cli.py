"""Command-line front end: scenario files and the four subcommands.

Scenarios are INI-style files whose sections and keys `SCENARIO_KEYS` lists:
[system], [controller], [sim], [disturbance] (the signal's numbers; none is
the zero signal), [parameter], and optionally [checks] and [synthesis].
`build` turns a file into one checked `Setup`, which is all a command reads;
simulate, compare and the checks that simulate need [sim].  Every name a file
gives (a section, the [system] name, the [controller] type, each [checks] name)
is a key of one table, looked up by `_lookup`.  The subcommands, `COMMANDS`:

* simulate  — run one closed loop, write the trajectory CSV, print stats;
* synthesize — run the backstepping construction, write the stage report;
* verify    — run the scenario's checks, write the report CSV;
* compare   — run several scenarios and print a side-by-side table.

Exit codes: 0 success, 2 parse/usage error or an output file that cannot be
written, 3 divergence, 4 majorant violation, 5 failed check of verify or
synthesize, or failed drift contrast of compare.  A closed stdout ends the
output, not the command.
"""

from __future__ import annotations

import argparse
import configparser
import errno
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from .controllers import (
    DadsGains,
    SigmaModController,
    SynthesizedDadsController,
    WingRockDadsController,
    wingrock_control,
    wingrock_damping,
    wingrock_intermediates,
)
from .jets import SmoothMap
from .simulate import DivergenceError, SimConfig, TrajectoryLog, simulate, trajectory_stats
from .synthesis import MajorantViolationError, base_stage_gains, synthesize, wingrock_majorants
from .systems import BUILTINS, DisturbanceProfile, constant_parameter
from . import verify as ver

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIVERGENCE = 3
EXIT_MAJORANT = 4
EXIT_CHECK_FAILED = 5


class ScenarioError(Exception):
    pass


ERROR_EXITS = {
    ScenarioError: EXIT_PARSE,
    DivergenceError: EXIT_DIVERGENCE,
    MajorantViolationError: EXIT_MAJORANT,
    OSError: EXIT_PARSE,  # an output file that cannot be written
}


def _finite_numbers(text: str) -> list[float]:
    v = [float(s) for s in text.replace(",", " ").split()]
    if not all(map(math.isfinite, v)):
        raise ValueError(text)
    return v


# conversions of a value's text: (function, what the text must be); the
# function raises KeyError or ValueError on text it does not accept
_TEXT = (str, "text")
_NUMBER = (float, "a number")
_INTEGER = (int, "an integer")
_BOOLEAN = (lambda v: configparser.ConfigParser.BOOLEAN_STATES[v.lower()],
            "a boolean (1/yes/true/on or 0/no/false/off)")
_VECTOR = (_finite_numbers, "a list of finite numbers")
_NAMES = (lambda v: v.replace(",", " ").split(), "a list of names")

# [controller] type: its parameter class, its keys mapped to the fields they set
# (an omitted key keeps the default, any other but `type` is rejected), its law
_CONTROLLER_FIELDS = {
    "dads-wingrock": (
        WingRockDadsController, {"c": "c", "k": "K", "gamma": "Gamma", "eps": "eps_dz"},
        lambda params: params.law,
    ),
    "sigma-mod": (
        SigmaModController, {"c": "c", "k": "K", "gamma": "Gamma", "sigma": "sigma_leak"},
        lambda params: params,
    ),
}

# [synthesis] keys, mapped to the DadsGains fields they set; eps is the
# deadzone level, as in [controller]
_SYNTHESIS_FIELDS = {"b": "b", "gamma": "Gamma", "eps": "eps_dz", "c": "c", "a": "a"}

# every section and key a scenario may have, with the conversion of its text
SCENARIO_KEYS = {
    "system": {"name": _TEXT},
    "controller": {"type": _TEXT, **{
        key: _NUMBER for _, fields, _ in _CONTROLLER_FIELDS.values() for key in fields}},
    "sim": {"dt": _NUMBER, "t_end": _NUMBER, "method": _TEXT, "log_stride": _INTEGER,
            "x0": _VECTOR, "ctrl0": _VECTOR},
    "disturbance": {"amplitudes": _VECTOR, "frequencies": _VECTOR, "decay": _NUMBER},
    "parameter": {"value": _VECTOR},
    "checks": {"names": _NAMES, "corrupt_controller": _BOOLEAN},
    "synthesis": dict.fromkeys(_SYNTHESIS_FIELDS, _NUMBER),
}


@dataclass
class Scenario:
    """Parsed scenario file: each section's values, converted by SCENARIO_KEYS."""

    sections: dict

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"could not read scenario file {path}: {exc}") from None
    return parse_scenario_text(text, path)


def parse_scenario_text(text: str, path: str = "<string>") -> Scenario:
    # without interpolation a `%` is plain text, which then fails its
    # conversion; no header names the empty section, so [DEFAULT] is an
    # ordinary section, and unknown
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        cp.read_string(text, source=path)
    except configparser.Error as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    return Scenario({sec: _convert_section(sec, cp[sec]) for sec in cp.sections()})


def _lookup(what: str, table: dict, name):
    """table[name]; exit 2 on a name (None when absent) that table does not have."""
    try:
        return table[name]
    except KeyError:
        raise ScenarioError(f"{what} {name!r} is not one of {', '.join(table)}") from None


def _convert_section(section: str, entries) -> dict:
    keys = _lookup("section", SCENARIO_KEYS, section)
    values = {}
    for key, text in entries.items():
        _reject_unread(f"[{section}]", (key,), keys)
        convert, what = keys[key]
        try:
            values[key] = convert(text)
        except (KeyError, ValueError):
            raise ScenarioError(f"[{section}] {key}: not {what}: {text!r}") from None
    return values


def _reject_unread(what: str, given, reads) -> None:
    """Exit 2 on the keys of given, in its order, that are not in reads: such
    a key would run as if it were absent."""
    unread = [key for key in given if key not in reads]
    if unread:
        raise ScenarioError(
            f"{what} does not read {', '.join(unread)}; it reads {', '.join(reads)}")


def build_system(scn: Scenario):
    return _lookup("[system] name", BUILTINS, scn.get("system", "name"))()


def build_controller(scn: Scenario, sys_model=None) -> tuple:
    """The [controller] type and parameters; sys_model is unused (perfbench's probe passes it)."""
    ctype = scn.get("controller", "type", "dads-wingrock")
    cls, fields, _ = _lookup("[controller] type", _CONTROLLER_FIELDS, ctype)
    given = scn.sections.get("controller", {})
    _reject_unread(f"[controller] type {ctype!r}", sorted(given), ("type", *fields))
    try:
        return ctype, cls(**{name: given[key] for key, name in fields.items() if key in given})
    except ValueError as exc:
        raise ScenarioError(f"invalid controller parameters: {exc}") from None


def build_gains(scn: Scenario) -> DadsGains:
    """The [synthesis] constants; an omitted key takes the wing-rock law's."""
    base = WingRockDadsController().gains
    try:
        return DadsGains(**{
            name: scn.get("synthesis", key, getattr(base, name))
            for key, name in _SYNTHESIS_FIELDS.items()
        })
    except ValueError as exc:
        raise ScenarioError(f"invalid synthesis gains: {exc}") from None


def build_disturbance(scn: Scenario, dim: int) -> DisturbanceProfile:
    """The [disturbance] signal; without amplitudes it is zero, and decay defaults to 0."""
    try:
        return DisturbanceProfile(
            dim, tuple(scn.get("disturbance", "amplitudes", ())),
            tuple(scn.get("disturbance", "frequencies", ())),
            scn.get("disturbance", "decay", 0.0))
    except ValueError as exc:  # the message names its section, as conversion errors do
        raise ScenarioError(f"[disturbance] {exc}") from None


def build_sim_config(scn: Scenario, args) -> SimConfig:
    """The [sim] settings, --t-end overriding; unset ones keep SimConfig's."""
    fields = {
        "dt": scn.get("sim", "dt"),
        "t_end": args.t_end if args.t_end is not None else scn.get("sim", "t_end"),
        "method": scn.get("sim", "method"),
        "log_stride": scn.get("sim", "log_stride"),
    }
    try:
        return SimConfig(**{k: v for k, v in fields.items() if v is not None})
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def _sized_vector(scn: Scenario, section: str, key: str, size: int) -> tuple:
    """A vector entry of the given length; all zeros when absent."""
    v = scn.get(section, key, [0.0] * size)
    if len(v) != size:
        raise ScenarioError(f"[{section}] {key} has {len(v)} entries, expected {size}")
    return tuple(v)


@dataclass(frozen=True)
class Setup:
    """Everything the commands read from one scenario file, built by `build`."""

    path: str
    system: object
    ctype: str  # the [controller] type
    controller: object  # the law: a dads-wingrock one is a SynthesizedDadsController
    gains: DadsGains  # the [synthesis] constants
    config: SimConfig
    disturbance: DisturbanceProfile
    x0: tuple
    ctrl0: tuple
    theta: tuple  # the [parameter] value
    checks: tuple  # the [checks] names
    corrupt: SynthesizedDadsController | None  # [checks] corrupt_controller's mutant law


def build(path: str, args, simulates: str = "") -> Setup:
    """Load a scenario file and build every object a command reads, once.

    Every rule is applied here, so a malformed value exits 2 before any
    solve, synthesis or check, whichever command runs.  simulates names the
    command when it simulates the loop; it, like a check that simulates,
    needs a [sim] section.  The builders are looked up as module globals,
    where perfbench spans them.
    """
    scn = load_scenario(path)
    sysm = build_system(scn)
    ctype, params = build_controller(scn, sysm)
    controller = _CONTROLLER_FIELDS[ctype][2](params)  # the runtime law
    checks = tuple(scn.get("checks", "names", []))
    for i, name in enumerate(checks):
        check = _lookup("[checks] names entry", CHECKS, name)
        if name in checks[:i]:  # it would run, print and write its report twice
            raise ScenarioError(f"[checks] names lists {name!r} twice")
        if check.needs is not None and ctype != check.needs:
            raise ScenarioError(f"check {name!r} evaluates {check.evaluates}; it needs "
                                f"controller type {check.needs!r}, got {ctype!r}")
    gains = build_gains(scn)
    try:  # the first stage scales c and a by powers of 2, which can overflow
        base_stage_gains(gains, sysm.m)
    except ValueError as exc:
        raise ScenarioError(f"[synthesis] the first of {sysm.m} stages: {exc}") from None
    built = (gains, build_sim_config(scn, args), build_disturbance(scn, sysm.l),
             _sized_vector(scn, "sim", "x0", sysm.state_dim),
             _sized_vector(scn, "sim", "ctrl0", controller.ctrl_dim),
             _sized_vector(scn, "parameter", "value", sysm.p))
    # a [checks] key that no named check reads would be silently ignored
    read = [key for key in SCENARIO_KEYS["checks"]
            if key == "names" or any(key in CHECKS[name].reads for name in checks)]
    _reject_unread(f"[checks] names = {', '.join(checks) or '(none)'}",
                   scn.sections.get("checks", {}), read)
    # without [sim] the loop would start at the zero state, an equilibrium
    user = simulates or next((f"check {n!r}" for n in checks if CHECKS[n].simulates), None)
    if user and "sim" not in scn.sections:
        raise ScenarioError(f"{user}: {path} has no [sim] section to simulate the loop with")
    corrupt = (_damping_flipped(params, controller)
               if scn.get("checks", "corrupt_controller") else None)
    return Setup(path, sysm, ctype, controller, *built, checks, corrupt)


def _damping_flipped(params: WingRockDadsController,
                     law: SynthesizedDadsController) -> SynthesizedDadsController:
    """The mutation probe's law: k with its stabilizing damping term's sign flipped."""
    def k(x1, x2, x3, z):
        terms = wingrock_intermediates(x1, x2, x3, z, params.c, params.K)
        damping = wingrock_damping(terms, params.c, params.K)
        return wingrock_control((x1, x2, x3), z, params)[0] + 2.0 * damping

    return replace(law, k=SmoothMap(4, k, name="wingrock_u"))


def run_scenario(setup: Setup) -> tuple[TrajectoryLog, object]:
    log = simulate(setup.system, setup.controller, setup.x0, setup.ctrl0, setup.disturbance,
                   constant_parameter(setup.theta), setup.config)
    return log, setup.controller


def _out_path(args, setup: Setup, suffix: str) -> str:
    stem = os.path.splitext(os.path.basename(setup.path))[0] or "scenario"
    return _writable(os.path.join(args.out or ".", f"{stem}.{suffix}"))


def _say(text: str, end: str = "\n") -> None:
    """Print output; a closed stdout ends the output, not the command."""
    try:
        print(text, end=end, flush=True)
    except BrokenPipeError:  # the later lines, and the exit's flush, go to devnull
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


def cmd_simulate(args) -> int:
    setup = build(args.scenario, args, "simulate")
    path = _out_path(args, setup, "csv")
    log, controller = run_scenario(setup)
    log.to_csv(path)
    stats = trajectory_stats(log, controller)
    _say(f"wrote {path}")
    _say(
        f"sup|Y| tail = {stats.sup_output_tail:.6g}  sup gain = {stats.sup_gain:.6g}"
        f"  final gain = {stats.final_gain:.6g}  energy = {stats.control_energy:.6g}"
    )
    return EXIT_OK


def _synthesis(setup: Setup, seed: int):
    """The construction, its stage certificates and the final one, each at its own count."""
    sysm, gains = setup.system, setup.gains
    result = synthesize(sysm, gains, wingrock_majorants(gains), seed=seed)
    last = result.stage_trace[-1]
    reports = ver.stage_certificate_checks(sysm, result, seed=seed)
    return result, reports + [ver.synthesized_dissipation_check(
        sysm, last.V, last.k, last.gains, seed=seed)]


def cmd_synthesize(args) -> int:
    setup = build(args.scenario, args)
    path = _out_path(args, setup, "report.txt")
    result, reports = _synthesis(setup, args.seed)
    with open(path, "w") as fh:
        fh.write(result.report() + "\n\n" + ver.summarize(reports) + "\n")
    _say(result.report())
    _say(ver.summarize(reports))
    _say(f"wrote {path}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _trajectory(setup: Setup, seed: int) -> list[ver.CheckReport]:
    return ver.check_trajectory_estimates(
        run_scenario(setup)[0], setup.controller, d_sup=ver.signal_sup(setup.disturbance),
        theta_sup=math.hypot(*setup.theta))


def _sigma_tradeoff(setup: Setup, seed: int) -> list[ver.CheckReport]:
    log, controller = run_scenario(setup)
    return [ver.check_sigma_tradeoff(
        log, setup.theta, controller, d_sup=ver.signal_sup(setup.disturbance))]


class Check(NamedTuple):
    """A [checks] name: the controller type it needs (None for none), what it
    evaluates, the [checks] keys it reads besides names, whether it
    simulates the scenario's loop, and run(setup, seed) -> reports."""

    needs: str | None
    evaluates: str
    reads: tuple
    simulates: bool
    run: Callable


CHECKS = {
    "dissipation-dads": Check("dads-wingrock", "the closed-form deadzone-adapted law",
                              ("corrupt_controller",), False,
                              lambda setup, seed: [ver.wingrock_dissipation_check(
                                  setup.system, setup.corrupt or setup.controller, seed=seed)]),
    "trajectory": Check("dads-wingrock",
                        "the trajectory estimates of a deadzone-adapted controller", (), True,
                        _trajectory),
    "dissipation-sigma": Check("sigma-mod", "the sigma-modification law", (), False,
                               lambda setup, seed: [ver.sigma_mod_dissipation_check(
                                   setup.system, setup.controller, setup.theta, seed=seed)]),
    "sigma-tradeoff": Check("sigma-mod", "the W = V + E envelope of the sigma-modification law",
                            (), True, _sigma_tradeoff),
    "synthesis-certificates": Check(None, "the synthesized law", (), False,
                                    lambda setup, seed: _synthesis(setup, seed)[1]),
}


def cmd_verify(args) -> int:
    setup = build(args.scenario, args)
    if not setup.checks:
        raise ScenarioError("verify: scenario has no [checks] names")
    path = _out_path(args, setup, "checks.csv")
    reports = [rep for name in setup.checks for rep in CHECKS[name].run(setup, args.seed)]
    ver.reports_to_csv(reports, path)
    _say(ver.summarize(reports))
    _say(f"wrote {path}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def cmd_compare(args) -> int:
    if len(args.scenarios) < 2:
        raise ScenarioError("compare needs at least two scenarios")
    setups = [build(path, args, "compare") for path in args.scenarios]  # before the first solve
    grids = [setup.config.log_times() for setup in setups]
    if not all(ver.same_grid(grids[0][-1], grid[-1]) for grid in grids[1:]):
        raise ScenarioError("scenarios have different horizons")
    # the drift contrast reads the last DADS, sigma = 0 and leaky sigma-mod scenario
    leaks = [s.controller.sigma_leak if s.ctype == "sigma-mod" else None for s in setups]
    slots = {"dads" if leak is None else "sigma0" if leak == 0.0 else "leak": i
             for i, leak in enumerate(leaks)}
    triple = [slots[key] for key in ("dads", "sigma0", "leak") if key in slots]
    if len(triple) == 3 and not all(
            ver.same_grid(grids[triple[0]], grids[i]) for i in triple[1:]):
        raise ScenarioError("the drift contrast's scenarios have different log grids")
    path = _writable(os.path.join(args.out, "compare.txt")) if args.out else None
    rows, logs = [], []
    for setup, leak in zip(setups, leaks):
        log, controller = run_scenario(setup)
        stats = trajectory_stats(log, controller)
        label = setup.ctype if leak is None else f"{setup.ctype}({leak:g})"
        rows.append((os.path.basename(setup.path), label, stats))
        logs.append(log)

    header = f"{'scenario':30s} {'controller':22s} {'sup|Y|tail':>12s} {'sup gain':>12s} {'energy':>14s}"
    lines = [header, "-" * len(header)]
    for name, label, stats in rows:
        lines.append(
            f"{name:30s} {label:22s} {stats.sup_output_tail:12.5g}"
            f" {stats.sup_gain:12.5g} {stats.control_energy:14.6g}"
        )
    table = "\n".join(lines)
    _say(table)

    if len(triple) == 3:
        # drift is expected when the sigma = 0 scenario's own disturbance persists
        expect_drift = setups[triple[1]].disturbance.persists
        rep = ver.check_drift_contrast(*(logs[i] for i in triple), expect_drift=expect_drift)
        _say(rep.summary())
        if expect_drift and rep.passed:
            _say("sigma=0 baseline flagged: drift")
        table += "\n" + rep.summary()
    if path:
        with open(path, "w") as fh:
            fh.write(table + "\n")
        _say(f"wrote {path}")
    return EXIT_OK if len(triple) < 3 or rep.passed else EXIT_CHECK_FAILED


def nonnegative_int(text: str) -> int:
    """A --seed value; numpy's generators take integers >= 0 only."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _make_out_dir(path: str) -> None:
    """The --out directory, made before any work so that a bad one costs none."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"--out {path}: {exc.strerror}") from None


def _writable(path: str) -> str:
    """path, checked before any work as open(path, "w") would check it: not a
    directory, and writable, or in a writable directory when it does not
    exist.  The check creates and truncates nothing."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.access(path if os.path.exists(path) else os.path.dirname(path) or ".", os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    return path


# each subcommand: its function, its positional argument and its help; compare
# takes any number of scenarios and says itself when it has too few
COMMANDS = {
    "simulate": (cmd_simulate, "scenario", "run one closed loop, write a trajectory CSV"),
    "synthesize": (cmd_synthesize, "scenario", "run the backstepping construction"),
    "verify": (cmd_verify, "scenario", "run the scenario's checks"),
    "compare": (cmd_compare, "scenarios", "side-by-side table for several scenarios"),
}


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=nonnegative_int, default=0)
    common.add_argument("--t-end", dest="t_end", type=float, default=None)
    common.add_argument("--out", default=None)
    parser = argparse.ArgumentParser(
        prog="dads",
        description="Deadzone-adapted disturbance suppression: simulate, synthesize, verify, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, arg, text) in COMMANDS.items():
        cmd = sub.add_parser(name, parents=[common], help=text)
        cmd.add_argument(arg, nargs="*" if arg == "scenarios" else None)
        cmd.set_defaults(fn=fn)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        _say("", end="")  # the --help text argparse left in the buffer
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        if args.out:
            _make_out_dir(args.out)
        return args.fn(args)
    except tuple(ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in ERROR_EXITS.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
