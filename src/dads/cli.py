"""Command-line front end: scenario files and the four subcommands.

Scenarios are INI-style files with sections [system], [controller], [sim],
[disturbance], [parameter], and optionally [checks] and [synthesis].  The
subcommands are:

* simulate  — run one closed loop, write the trajectory CSV, print stats;
* synthesize — run the backstepping construction, write the stage report;
* verify    — run the scenario's checks, write the report CSV;
* compare   — run several scenarios and print a side-by-side table.

Exit codes: 0 success, 2 parse/usage error, 3 divergence, 4 majorant
violation, 5 failed check.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .controllers import (
    SigmaModController,
    SynthesizedDadsController,
    WingRockDadsController,
    wingrock_control,
    wingrock_damping,
    wingrock_intermediates,
)
from .simulate import DivergenceError, SimConfig, TrajectoryLog, simulate, trajectory_stats
from .synthesis import (
    DadsGains,
    MajorantViolationError,
    StageMajorants,
    synthesize,
    wingrock_majorants,
)
from .systems import (
    DisturbanceProfile,
    constant_parameter,
    get_system,
    sinusoid_bank,
    vanishing_disturbance,
    zero_disturbance,
)
from . import verify as ver
from .jets import SmoothMap

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
}


@dataclass
class Scenario:
    """Parsed scenario file: plain nested dictionaries plus typed accessors."""

    sections: dict
    path: str = ""

    # --- helpers -----------------------------------------------------------
    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def _convert(self, section, key, default, convert):
        v = self.get(section, key)
        if v is None:
            return default
        try:
            return convert(v)
        except ValueError:
            raise ScenarioError(f"[{section}] {key}: not a number: {v!r}") from None

    def getfloat(self, section, key, default=None):
        return self._convert(section, key, default, float)

    def getint(self, section, key, default=None):
        return self._convert(section, key, default, int)

    def getvector(self, section, key, default=None):
        return self._convert(
            section, key, default,
            lambda v: [float(s) for s in v.replace(",", " ").split()],
        )

    def serialize(self) -> str:
        cp = configparser.ConfigParser()
        for sec, kv in self.sections.items():
            cp[sec] = {k: str(v) for k, v in kv.items()}
        import io

        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"could not read scenario file {path}: {exc}") from None
    scn = parse_scenario_text(text, path)
    if "system" not in scn.sections:
        raise ScenarioError(f"{path}: missing [system] section")
    return scn


def parse_scenario_text(text: str, path: str = "<string>") -> Scenario:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text, source=path)
    except configparser.Error as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    return Scenario({sec: dict(cp[sec]) for sec in cp.sections()}, path)


def build_system(scn: Scenario):
    name = scn.get("system", "name")
    if name is None:
        raise ScenarioError("missing system name")
    try:
        return get_system(name)
    except KeyError as exc:
        raise ScenarioError(str(exc)) from None


# [controller] keys of each closed-form controller type, mapped to the
# dataclass fields they set; a key the scenario omits keeps the field default
_CONTROLLER_FIELDS = {
    "dads-wingrock": (
        WingRockDadsController, {"c": "c", "k": "K", "gamma": "Gamma", "eps": "eps_dz"},
    ),
    "sigma-mod": (
        SigmaModController, {"c": "c", "k": "K", "gamma": "Gamma", "sigma": "sigma_leak"},
    ),
}


def build_controller(scn: Scenario, sys_model=None):
    ctype = scn.get("controller", "type", "dads-wingrock")
    try:
        if ctype in _CONTROLLER_FIELDS:
            cls, fields = _CONTROLLER_FIELDS[ctype]
            return cls(**{
                name: scn.getfloat("controller", key)
                for key, name in fields.items()
                if scn.get("controller", key) is not None
            })
        if ctype == "dads-synthesized":
            gains = build_gains(scn)
            result = synthesize(sys_model, gains, wingrock_majorants(gains))
            return SynthesizedDadsController(
                k_final=result.k_final, V_final=result.V_final,
                Gamma=gains.Gamma, eps_dz=gains.eps_dz,
            )
    except ValueError as exc:
        raise ScenarioError(f"invalid controller parameters: {exc}") from None
    raise ScenarioError(f"unknown controller type {ctype!r}")


def build_gains(scn: Scenario) -> DadsGains:
    eps = scn.getfloat("synthesis", "eps", 0.01)
    eps_dz = scn.getfloat("synthesis", "eps_dz", eps * eps / 2.0)
    try:
        return DadsGains(
            b=scn.getfloat("synthesis", "b", 1.0),
            Gamma=scn.getfloat(
                "synthesis", "gamma",
                scn.getfloat("controller", "gamma", WingRockDadsController.Gamma),
            ),
            eps_dz=eps_dz,
            c=scn.getfloat(
                "synthesis", "c", scn.getfloat("controller", "c", WingRockDadsController.c)
            ),
            a=scn.getfloat("synthesis", "a", 2.0),
        )
    except ValueError as exc:
        raise ScenarioError(f"invalid synthesis gains: {exc}") from None


def build_disturbance(scn: Scenario, dim: int) -> DisturbanceProfile:
    kind = scn.get("disturbance", "kind", "zero")
    if kind == "zero":
        return zero_disturbance(dim)
    amps = _finite_vector(scn, "disturbance", "amplitudes", [])
    freqs = _finite_vector(scn, "disturbance", "frequencies", [])
    if len(amps) != dim or len(freqs) != dim:
        raise ScenarioError(
            f"disturbance needs {dim} amplitudes/frequencies, got {len(amps)}/{len(freqs)}"
        )
    if kind == "sinusoid-bank":
        return sinusoid_bank(amps, freqs)
    if kind == "vanishing":
        decay = scn.getfloat("disturbance", "decay", 1.0)
        # a "vanishing" disturbance that grows is an input error; the chained
        # comparison also rejects nan
        if not 0.0 <= decay < math.inf:
            raise ScenarioError(f"[disturbance] decay must be finite and >= 0, got {decay}")
        return vanishing_disturbance(amps, freqs, decay)
    raise ScenarioError(f"unknown disturbance kind {kind!r}")


def build_sim_config(scn: Scenario, args) -> SimConfig:
    dt = args.dt if args.dt is not None else scn.getfloat("sim", "dt", 1e-4)
    t_end = args.t_end if args.t_end is not None else scn.getfloat("sim", "t_end", 10.0)
    try:
        return SimConfig(
            dt=dt,
            t_end=t_end,
            method=scn.get("sim", "method", "rk4"),
            log_stride=scn.getint("sim", "log_stride", 100),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def _finite_vector(scn: Scenario, section: str, key: str, default: list[float]) -> list[float]:
    """A vector entry whose entries are all finite."""
    v = scn.getvector(section, key, default)
    if not all(math.isfinite(x) for x in v):
        raise ScenarioError(f"[{section}] {key} must be finite, got {v}")
    return v


def _sized_vector(scn: Scenario, section: str, key: str, size: int) -> list[float]:
    """A finite vector entry of the given length; all zeros when absent."""
    v = _finite_vector(scn, section, key, [0.0] * size)
    if len(v) != size:
        raise ScenarioError(f"[{section}] {key} has {len(v)} entries, expected {size}")
    return v


def run_scenario(scn: Scenario, args) -> tuple[TrajectoryLog, object, object]:
    sysm = build_system(scn)
    controller = build_controller(scn, sysm)
    config = build_sim_config(scn, args)
    x0 = _sized_vector(scn, "sim", "x0", sysm.state_dim)
    ctrl0 = _sized_vector(scn, "sim", "ctrl0", controller.ctrl_dim)
    theta = constant_parameter(_sized_vector(scn, "parameter", "value", sysm.p))
    dist = build_disturbance(scn, sysm.l)
    sel = scn.getvector("sim", "output_indices", None)
    if sel is not None:
        # `in range` is false for a fraction, a negative, nan and inf alike
        if not all(v in range(sysm.state_dim) for v in sel):
            raise ScenarioError(
                f"[sim] output_indices must be integers in [0, {sysm.state_dim}), got {sel}"
            )
        sel = [int(v) for v in sel]
    log = simulate(sysm, controller, x0, ctrl0, dist, theta, config, output_indices=sel)
    return log, controller, dist


def _out_path(args, scn: Scenario, suffix: str) -> str:
    out_dir = args.out or scn.get("output", "dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(scn.path))[0] or "scenario"
    return os.path.join(out_dir, f"{stem}.{suffix}")


def cmd_simulate(args) -> int:
    scn = load_scenario(args.scenario)
    log, controller, _ = run_scenario(scn, args)
    path = _out_path(args, scn, "csv")
    log.to_csv(path)
    stats = trajectory_stats(log, controller)
    print(f"wrote {path}")
    print(
        f"sup|Y| tail = {stats.sup_output_tail:.6g}  sup gain = {stats.sup_gain:.6g}"
        f"  final gain = {stats.final_gain:.6g}  energy = {stats.control_energy:.6g}"
    )
    return EXIT_OK


def _synthesis_reports(sysm, result, gains, seed: int) -> list[ver.CheckReport]:
    """Stage certificates at 200 samples each, then the final one at 500."""
    last = result.stage_trace[-1]
    return ver.stage_certificate_checks(sysm, result, gains, n=200, seed=seed) + [
        ver.synthesized_dissipation_check(
            sysm, result.V_final, result.k_final, gains,
            last.rate_c, last.effective_gain, n=500, seed=seed,
        )
    ]


def cmd_synthesize(args) -> int:
    scn = load_scenario(args.scenario)
    sysm = build_system(scn)
    gains = build_gains(scn)
    pack = wingrock_majorants(gains)
    bad_r = scn.getfloat("synthesis", "override_base_r", None)
    if bad_r is not None:
        pack = type(pack)(
            base_r=SmoothMap(1, lambda x1: bad_r, name="override_r"),
            levels=tuple(
                StageMajorants(
                    R=lv.R,
                    r=SmoothMap(lv.r.arity, lambda *a: bad_r, name="override_r"),
                    rho=lv.rho,
                )
                for lv in pack.levels
            ),
        )
    result = synthesize(sysm, gains, pack, seed=args.seed)
    reports = _synthesis_reports(sysm, result, gains, args.seed)
    path = _out_path(args, scn, "report.txt")
    with open(path, "w") as fh:
        fh.write(result.report() + "\n\n" + ver.summarize(reports) + "\n")
    print(result.report())
    print(ver.summarize(reports))
    print(f"wrote {path}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


# checks that evaluate one particular controller law: (type, what it checks)
_CHECK_CONTROLLERS = {
    "dissipation-dads": ("dads-wingrock", "the closed-form deadzone-adapted law"),
    "trajectory": ("dads-wingrock", "the trajectory estimates of a deadzone-adapted controller"),
    "dissipation-sigma": ("sigma-mod", "the sigma-modification law"),
    "sigma-tradeoff": ("sigma-mod", "the sigma-modification residual bound"),
}


def _run_checks(scn: Scenario, args) -> list[ver.CheckReport]:
    sysm = build_system(scn)
    names = [
        s.strip()
        for s in scn.get("checks", "names", "").replace(",", " ").split()
        if s.strip()
    ]
    if not names:
        raise ScenarioError("verify: scenario has no [checks] names")
    n = scn.getint("checks", "n_samples", 1000)
    if n < 1:
        raise ScenarioError(f"[checks] n_samples must be positive, got {n}")
    tol = scn.getfloat("checks", "tol", 1e-6)
    if not 0 <= tol < math.inf:  # an infinite tolerance would pass any margin
        raise ScenarioError(f"[checks] tol must be finite and >= 0, got {tol}")
    seed = args.seed
    ctype = scn.get("controller", "type", "dads-wingrock")
    reports: list[ver.CheckReport] = []
    for name in names:
        need, what = _CHECK_CONTROLLERS.get(name, (None, ""))
        if need is not None and ctype != need:
            raise ScenarioError(
                f"check {name!r} evaluates {what}; it needs controller type "
                f"{need!r}, got {ctype!r}"
            )
        if name == "dissipation-dads":
            ctrl = build_controller(scn, sysm)
            control_fn = None
            if scn.get("checks", "corrupt_controller", "false").lower() == "true":
                # mutation probe: sign-flip the stabilizing damping term
                def control_fn(x, z, _c=ctrl):
                    u, _ = wingrock_control(x, z, _c)
                    terms = wingrock_intermediates(x[0], x[1], x[2], z, _c.c, _c.K)
                    return u + 2.0 * wingrock_damping(terms, _c.c, _c.K)
            reports.append(
                ver.wingrock_dissipation_check(
                    sysm, ctrl, n=n, tol=tol, seed=seed, control_fn=control_fn
                )
            )
        elif name == "dissipation-sigma":
            ctrl = build_controller(scn, sysm)
            theta = _sized_vector(scn, "parameter", "value", sysm.p)
            reports.append(
                ver.sigma_mod_dissipation_check(sysm, ctrl, theta, n=n, tol=tol, seed=seed)
            )
        elif name == "synthesis-certificates":
            gains = build_gains(scn)
            result = synthesize(sysm, gains, wingrock_majorants(gains), seed=seed)
            reports.extend(_synthesis_reports(sysm, result, gains, seed))
        elif name == "trajectory":
            log, controller, dist = run_scenario(scn, args)
            theta = _sized_vector(scn, "parameter", "value", sysm.p)
            radius = ver.wingrock_attractivity_radius(controller.c, controller.eps_dz)
            reports.extend(
                ver.check_trajectory_estimates(
                    log,
                    c=controller.c, a=2.0, b=1.0, eps_dz=controller.eps_dz,
                    d_sup=ver.signal_sup(dist, log.t),
                    theta_sup=float(np.linalg.norm(theta)),
                    attractivity_radius=radius,
                )
            )
        elif name == "sigma-tradeoff":
            log, controller, dist = run_scenario(scn, args)
            theta = _sized_vector(scn, "parameter", "value", sysm.p)
            reports.append(
                ver.check_sigma_tradeoff(
                    log, theta, controller, d_sup=ver.signal_sup(dist, log.t)
                )
            )
        else:
            raise ScenarioError(f"unknown check {name!r}")
    return reports


def cmd_verify(args) -> int:
    scn = load_scenario(args.scenario)
    reports = _run_checks(scn, args)
    path = _out_path(args, scn, "checks.csv")
    ver.reports_to_csv(reports, path)
    print(ver.summarize(reports))
    print(f"wrote {path}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def cmd_compare(args) -> int:
    if len(args.scenarios) < 2:
        raise ScenarioError("compare needs at least two scenarios")
    rows = []
    logs = {}
    for path in args.scenarios:
        scn = load_scenario(path)
        log, controller, _ = run_scenario(scn, args)
        stats = trajectory_stats(log, controller)
        ctype = scn.get("controller", "type", "dads-wingrock")
        leak = controller.sigma_leak if ctype == "sigma-mod" else None
        label = ctype if leak is None else f"{ctype}({leak:g})"
        rows.append((os.path.basename(path), label, stats, log))
        logs[(ctype, leak)] = log

    horizons = {round(float(r[3].t[-1]), 9) for r in rows}
    if len(horizons) != 1:
        raise ScenarioError("scenarios have different horizons")

    header = f"{'scenario':30s} {'controller':22s} {'sup|Y|tail':>12s} {'sup gain':>12s} {'energy':>14s}"
    lines = [header, "-" * len(header)]
    for name, label, stats, _ in rows:
        lines.append(
            f"{name:30s} {label:22s} {stats.sup_output_tail:12.5g}"
            f" {stats.sup_gain:12.5g} {stats.control_energy:14.6g}"
        )
    table = "\n".join(lines)
    print(table)

    dads = logs.get(("dads-wingrock", None))
    s0 = logs.get(("sigma-mod", 0.0))
    s_leak = next(
        (v for (t, lk), v in logs.items() if t == "sigma-mod" and lk not in (None, 0.0)),
        None,
    )
    if dads is not None and s0 is not None and s_leak is not None:
        expect_drift = any(
            load_scenario(p).get("disturbance", "kind", "zero") != "zero"
            for p in args.scenarios
        )
        rep = ver.check_drift_contrast(dads, s0, s_leak, expect_drift=expect_drift)
        print(rep.summary())
        if expect_drift and rep.passed:
            print("sigma=0 baseline flagged: drift")
        table += "\n" + rep.summary()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "compare.txt")
        with open(path, "w") as fh:
            fh.write(table + "\n")
        print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--dt", type=float, default=None)
    common.add_argument("--t-end", dest="t_end", type=float, default=None)
    common.add_argument("--out", default=None)
    parser = argparse.ArgumentParser(
        prog="dads",
        description="Deadzone-adapted disturbance suppression: simulate, synthesize, verify, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run one closed loop, write a trajectory CSV")
    p_sim.add_argument("scenario")
    p_sim.set_defaults(fn=cmd_simulate)

    p_syn = sub.add_parser("synthesize", parents=[common],
                           help="run the backstepping construction")
    p_syn.add_argument("scenario")
    p_syn.set_defaults(fn=cmd_synthesize)

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run the scenario's checks")
    p_ver.add_argument("scenario")
    p_ver.set_defaults(fn=cmd_verify)

    p_cmp = sub.add_parser("compare", parents=[common],
                           help="side-by-side table for several scenarios")
    p_cmp.add_argument("scenarios", nargs="*")
    p_cmp.set_defaults(fn=cmd_compare)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except tuple(ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in ERROR_EXITS.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
