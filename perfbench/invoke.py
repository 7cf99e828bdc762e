"""Run one `dads` CLI invocation in this process and record what it did.

    python3 perfbench/invoke.py --root DIR --result OUT.json [--spans OUT.npz]
                                [--trace | --setup-only] -- <dads arguments>

The package is imported from DIR/src, never from an installed copy.  The
import is timed, the scenario parse/build functions of `dads.cli` are
spanned, and the check reports and trajectory statistics the command produces
are captured for the correctness gate.  With --trace every layer boundary
listed in `install_tracing` is spanned as well.  The exit code is the
command's own.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import resource
import sys
import time

BUILD_FUNCTIONS = ("load_scenario", "build_system", "build_controller",
                   "build_gains", "build_disturbance", "build_sim_config")


def import_dads(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import dads.cli  # noqa: F401  (imports every module of the package)

    import_s = time.perf_counter() - t0
    if not os.path.abspath(dads.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"dads was imported from {dads.cli.__file__}, not {src}")
    return import_s


def _after(fn, hook):
    """Wrap fn so that hook(result, args) runs after each call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(result, args)
        return result

    return wrapper


def install_capture(tracer, captured: dict) -> None:
    """Spans for set-up, and capture of the outputs the gate compares."""
    import dads.cli as cli
    import dads.verify as ver

    for name in BUILD_FUNCTIONS:
        setattr(cli, name, tracer.span("cli.build", getattr(cli, name)))

    def keep_run(result, _args):
        captured["runs"].append(result[:2])

    def keep_reports(_result, args):
        captured["reports"] = list(args[0])

    cli.run_scenario = _after(cli.run_scenario, keep_run)
    ver.summarize = _after(ver.summarize, keep_reports)
    ver.check_drift_contrast = _after(
        ver.check_drift_contrast, lambda rep, _a: captured["reports"].append(rep))
    cli.trajectory_stats = _after(
        cli.trajectory_stats, lambda st, _a: captured["stats"].append(st))


def install_tracing(tracer) -> None:
    """Span every call into a layer, at the name the caller looks up."""
    import dads.cli as cli
    import dads.controllers as ctl
    import dads.jets as jets
    import dads.simulate as sim
    import dads.systems as sysm
    import dads.verify as ver

    counts = tracer.counts
    plain_call = jets.SmoothMap.__call__

    def solver_stats(sol, _args):
        counts["simulate.nfev"] += int(sol.nfev)
        counts["simulate.njev"] += int(sol.njev)
        counts["simulate.nlu"] += int(sol.nlu)

    def rk4_steps(_out, args):
        counts["simulate.rk4_steps"] += int(args[3])

    sim.solve_ivp = tracer.span("simulate.solve_ivp", _after(sim.solve_ivp, solver_stats))
    sim._integrate_rk4 = tracer.span("simulate.rk4", _after(sim._integrate_rk4, rk4_steps))
    cli.simulate = tracer.span("simulate.simulate", cli.simulate)
    cli.trajectory_stats = tracer.span("simulate.trajectory_stats", cli.trajectory_stats)

    for mod in (sim, ver):
        mod.eval_dynamics = tracer.span(
            "systems.eval_dynamics",
            _untraced_maps(jets.SmoothMap, plain_call, mod.eval_dynamics))
    sysm.DisturbanceProfile.__call__ = tracer.span(
        "systems.signal.disturbance", sysm.DisturbanceProfile.__call__)
    sysm.ParameterSignal.__call__ = tracer.span(
        "systems.signal.parameter", sysm.ParameterSignal.__call__)

    for cls in (ctl.WingRockDadsController, ctl.SigmaModController,
                ctl.SynthesizedDadsController):
        for meth in ("u", "ctrl_rate", "lyapunov", "gain_magnitude", "lyapunov_map"):
            if hasattr(cls, meth):
                setattr(cls, meth, tracer.span(f"controllers.{meth}", getattr(cls, meth)))
    for mod, names in ((ver, ("wingrock_control", "sigma_mod_control",
                              "_sigma_mod_terms", "sigma_mod_W_map")),
                       (cli, ("wingrock_control", "wingrock_intermediates"))):
        for name in names:
            setattr(mod, name, tracer.span(
                f"controllers.{name.lstrip('_')}", getattr(mod, name)))

    ver.gradient = tracer.span("jets.gradient", ver.gradient)
    jets.SmoothMap.__call__ = tracer.outermost_span("jets.smoothmap", jets.SmoothMap.__call__)
    mul = tracer.counted("jets.mul.calls", jets.Jet.__mul__)
    jets.Jet.__mul__ = jets.Jet.__rmul__ = mul

    cli.synthesize = tracer.span("synthesis.synthesize", cli.synthesize)
    cli.wingrock_majorants = tracer.span("synthesis.majorants", cli.wingrock_majorants)

    for name in ("wingrock_dissipation_check", "sigma_mod_dissipation_check",
                 "synthesized_dissipation_check", "stage_certificate_checks",
                 "check_trajectory_estimates", "check_sigma_tradeoff",
                 "check_drift_contrast", "signal_sup", "summarize", "reports_to_csv"):
        setattr(ver, name, tracer.span(f"verify.{name}", getattr(ver, name)))
    ver.check_dissipation = _counting_check(tracer, ver.check_dissipation)


def _untraced_maps(smooth_map, plain, eval_dynamics):
    """Run eval_dynamics with the plain SmoothMap.__call__.

    The plant's own maps (h, g, phi, alpha) are 12 SmoothMap calls per rhs;
    wrapping them doubled the traced rhs cost, and their time is already in
    the eval_dynamics span.  They are left out of the jets counts.
    """
    @functools.wraps(eval_dynamics)
    def wrapper(*args, **kwargs):
        traced = smooth_map.__call__
        smooth_map.__call__ = plain
        try:
            return eval_dynamics(*args, **kwargs)
        finally:
            smooth_map.__call__ = traced

    return wrapper


def _counting_check(tracer, check_dissipation):
    """Span check_dissipation and count the samples it draws and uses."""
    spanned = tracer.span("verify.check_dissipation", check_dissipation)
    signature = inspect.signature(check_dissipation)
    counts = tracer.counts

    @functools.wraps(check_dissipation)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        sampler = bound.arguments["sampler"]
        drawn = [0]

        def counting_sampler(rng):
            drawn[0] += 1
            return sampler(rng)

        bound.arguments["sampler"] = counting_sampler
        t0 = time.perf_counter()
        rep = spanned(*bound.args, **bound.kwargs)
        seconds = time.perf_counter() - t0
        counts["verify.samples_drawn"] += drawn[0]
        counts["verify.samples_used"] += rep.n_samples
        tracer.checks.append({"name": rep.name, "drawn": drawn[0],
                              "used": rep.n_samples, "s": seconds})
        return rep

    return wrapper


def build_scenarios(cli, paths) -> int:
    """The parse and build calls a command makes before it computes."""
    sim_args = argparse.Namespace(dt=None, t_end=None)
    for path in paths:
        scn = cli.load_scenario(path)
        sysm = cli.build_system(scn)
        if "synthesis" in scn.sections:
            cli.build_gains(scn)
        else:
            cli.build_controller(scn, sysm)
        if "sim" in scn.sections:
            cli.build_disturbance(scn, sysm.l)
            cli.build_sim_config(scn, sim_args)
    return 0


def report_record(rep) -> dict:
    return {"name": rep.name, "passed": bool(rep.passed), "n_samples": int(rep.n_samples),
            "worst_margin": float(rep.worst_margin),
            "witness": [float(v) for v in rep.witness], "tolerance": float(rep.tolerance)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="only parse and build the scenarios named in the arguments")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    import_s = import_dads(opts.root)
    import dads.cli as cli
    from dads.simulate import trajectory_stats
    from tracing import Tracer  # after the timed import: it loads numpy

    tracer = Tracer()
    captured = {"runs": [], "reports": [], "stats": []}
    install_capture(tracer, captured)
    if opts.setup_only:
        code = build_scenarios(cli, [a for a in argv if a.endswith(".scenario")])
    elif opts.trace:
        install_tracing(tracer)
        code = tracer.span("cli.main", cli.main)(argv)
    else:
        code = cli.main(argv)

    totals = tracer.layer_totals()
    totals["cli.import_s"] = import_s
    result = {
        "exit_code": code,
        "import_s": import_s,
        "build_s": totals["cli.build_s"],
        "sim_seconds": sum(float(log.t[-1]) for log, _ in captured["runs"]),
        "reports": [report_record(r) for r in captured["reports"]],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if opts.trace:
        result["totals"] = totals
        result["checks"] = tracer.checks
        if opts.spans:
            tracer.save(opts.spans)
    # `verify` does not print trajectory statistics; form them here, after
    # the spans are closed, so the gate can compare them with the reference
    stats = captured["stats"] or [trajectory_stats(log, ctrl) for log, ctrl in captured["runs"]]
    result["stats"] = [{k: float(v) for k, v in vars(st).items()} for st in stats]
    result["final_states"] = [
        [float(v) for v in (*log.x[-1], *log.ctrl[-1])] for log, _ in captured["runs"]]
    with open(opts.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
