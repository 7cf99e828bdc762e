"""The dads benchmark: three workloads driven through the `dads` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seconds S] [--seed N]   # 7 metrics x 3 workloads
    python3 perfbench/run.py --baseline [--seed N]            # ROADMAP baseline rows
    python3 perfbench/run.py --self-test                      # failure accounting
    python3 perfbench/run.py --write-reference                # regenerate reference.json

Each CLI invocation is its own process (perfbench/invoke.py), started one
after another from this process, so import and set-up are paid and measured
as a user pays them.  One pass runs every invocation of the workload once;
passes repeat until --seconds have elapsed and timings are medians over the
passes.  With --trace 1 traced and untraced passes alternate: the traced ones
give the per-layer metrics, the difference between the two is the tracing
overhead.  Every invocation is checked against perfbench/reference.json; a
failed one is counted in `failed` and left out of every timing.  The last
line of standard output is one JSON object; a record of the run is written
to .perfbench_out/records/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import check
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

# The drift-contrast check of fig4 needs the sigma=0 estimates to drift by
# 10 % between mid-horizon and the end; it fails at t_end 1 and 1.5 and
# passes at 2, the shortest horizon that keeps the paper's headline verdict.
FIG4_T_END = "2"

WORKLOADS = {
    "stiff-dads": [
        ["verify", "scenarios/fig1_dads.scenario"],
        ["verify", "scenarios/fig4_dads.scenario"],
    ],
    "fig4-compare": [
        ["compare", "scenarios/fig4_dads.scenario", "scenarios/fig4_sigma0.scenario",
         "scenarios/fig4_sigma04.scenario", "--t-end", FIG4_T_END],
    ],
    "certify": [
        ["verify", "scenarios/ineq34.scenario"],
        ["verify", "scenarios/ineq38.scenario"],
        ["synthesize", "scenarios/synth_wingrock.scenario"],
    ],
}
# workloads whose inputs depend on the seed (the certificate sample points)
SAMPLED = {"certify"}

# the end-to-end metrics BENCHMARK.json gates; --all adds the rates and
# error_rate, which are 0 or undefined on some workloads
GATED = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "sim_rate": "s/s",
         "cert_rate": "1/s", "peak_rss_mb": "MB", "error_rate": "ratio"}

LAYER_UNITS = {
    "cli.import_s": "s", "cli.build_s": "s",
    "simulate.nfev": "count", "simulate.njev": "count", "simulate.nlu": "count",
    "simulate.rk4_steps": "count", "simulate.solver_s": "s",
    "simulate.us_per_rhs": "us", "simulate.post_s": "s",
    "controllers.calls": "count", "controllers.s": "s", "controllers.evals_per_rhs": "ratio",
    "systems.eval_dynamics.calls": "count", "systems.eval_dynamics.s": "s",
    "systems.signals.s": "s",
    "jets.gradient.calls": "count", "jets.gradient.s": "s",
    "jets.smoothmap.calls": "count", "jets.smoothmap.s": "s",
    "jets.mul.calls": "count", "jets.nesting_ratio": "ratio",
    "synthesis.synthesize.s": "s",
    "verify.dissipation_s": "s", "verify.samples_drawn": "count",
    "verify.samples_used": "count", "verify.sample_yield": "ratio",
    "verify.trajectory_s": "s",
}
# counts that must repeat exactly between two runs of the same code and seed
EXACT = ("simulate.nfev", "simulate.njev", "simulate.nlu", "simulate.rk4_steps",
         "verify.samples_drawn", "verify.samples_used", "jets.gradient.calls",
         "jets.mul.calls")

RUN_BUDGET_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 4  # import + build only, so setup_s has samples on every workload
CHILD_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")


@dataclass
class Invocation:
    label: str
    traced: bool
    exit_code: int | None
    wall_s: float
    cpu_s: float
    result: dict | None
    failures: list[str] = field(default_factory=list)


def layout_error(need_reference: bool = True) -> str | None:
    """Why this checkout cannot be benchmarked, or None."""
    needed = [ROOT / "src" / "dads" / "cli.py"] + [REFERENCE] * need_reference
    needed += [ROOT / a for args in WORKLOADS.values() for inv in args for a in inv
               if a.endswith(".scenario")]
    missing = [str(p.relative_to(ROOT)) for p in dict.fromkeys(needed) if not p.is_file()]
    return f"missing {', '.join(missing)}" if missing else None


@dataclass
class Run:
    """Set-up probes, then passes of a workload's invocations."""

    probes: list[Invocation]
    passes: list[list[Invocation]]

    def invocations(self) -> list[Invocation]:
        return self.probes + [i for p in self.passes for i in p]


def run_invocation(args, seed, traced, workdir: Path, tag: str, deadline: float,
                   setup_only: bool = False) -> Invocation:
    res_path = workdir / f"{tag}.json"
    res_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "invoke.py"), "--root", str(ROOT),
           "--result", str(res_path)]
    if traced:
        cmd += ["--trace", "--spans", str(workdir / f"{tag}.spans.npz")]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--", *args, "--seed", str(seed), "--out", str(workdir)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(workdir / f"{tag}.log", "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                env=CHILD_ENV)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    result = None
    if res_path.is_file():
        with open(res_path) as fh:
            result = json.load(fh)
    label = " ".join([args[0]] + [Path(a).stem for a in args if a.endswith(".scenario")])
    return Invocation(label, traced, code, wall, cpu, result)


def judge(inv: Invocation, reference: dict | None, compare: bool, sampled: bool) -> list[str]:
    """Failures of one invocation; compare=False checks exit code and verdicts only."""
    if inv.exit_code != 0:
        return [f"exit code {inv.exit_code}"]
    if inv.result is None:
        return ["no result record"]
    fails = check.verdict_failures(inv.result)
    if compare and reference is None:
        fails.append("no stored reference")
    elif compare:
        fails += check.reference_failures(inv.result, reference, sampled)
    return fails


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def run_workload(name, invocations, seed, seconds, trace, reference, sampled) -> Run:
    """Set-up probes, then passes of one workload until `seconds` have elapsed.

    reference is the workload's list of stored outputs, or None to check exit
    codes and verdicts only.
    """
    compare = reference is not None and (not sampled or seed == check.REFERENCE_SEED)
    workdir = OUT / "work" / name
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    # warm the bytecode and file caches; not measured
    subprocess.run([sys.executable, str(HERE / "invoke.py"), "--root", str(ROOT),
                    "--result", str(workdir / "warmup.json"), "--", "--help"],
                   cwd=ROOT, env=CHILD_ENV, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=60, check=False)
    scenarios = [a for args in invocations for a in args if a.endswith(".scenario")]
    probes = []
    for _ in range(SETUP_PROBES):
        inv = run_invocation(scenarios, seed, False, workdir, "setup", deadline, True)
        ok = inv.exit_code == 0 and inv.result is not None
        inv.failures = [] if ok else [f"set-up probe: exit code {inv.exit_code}"]
        probes.append(inv)
    kinds = (False, True) if trace else (False,)
    passes: list[list[Invocation]] = []
    while True:
        traced = kinds[len(passes) % len(kinds)]
        t_pass = time.monotonic()
        invs = []
        for k, args in enumerate(invocations):
            inv = run_invocation(args, seed, traced, workdir, f"{k}", deadline)
            ref = reference[k] if reference and k < len(reference) else None
            inv.failures = judge(inv, ref, compare, sampled)
            invs.append(inv)
        passes.append(invs)
        now = time.monotonic()
        done = now - start >= seconds and len(passes) >= len(kinds)
        if done or now + (now - t_pass) > deadline:
            return Run(probes, passes)


def _ok(passes, traced):
    return [p for p in passes if p[0].traced == traced and not any(i.failures for i in p)]


def end_to_end(run: Run, sampled) -> dict:
    """{metric: (median, sample count)} over the untraced passes that succeeded."""
    ok = _ok(run.passes, False)
    if not ok:
        return {}
    setup = [i.result["import_s"] + i.result["build_s"]
             for i in run.probes + [i for p in ok for i in p] if not i.failures]
    wall = [sum(i.wall_s for i in p) for p in ok]
    per_pass = {
        "wall_s": wall,
        "cpu_s": [sum(i.cpu_s for i in p) for p in ok],
        "peak_rss_mb": [max(i.result["maxrss_kb"] for i in p) / 1024.0 for p in ok],
    }
    if sampled:
        per_pass["cert_rate"] = [
            sum(r["n_samples"] for i in p for r in i.result["reports"]) / w
            for p, w in zip(ok, wall)]
    else:
        per_pass["sim_rate"] = [
            sum(i.result["sim_seconds"] for i in p) / w for p, w in zip(ok, wall)]
    out = {"setup_s": (statistics.median(setup), len(setup))}
    for key, values in per_pass.items():
        out[key] = (statistics.median(values), len(values))
    untraced = [i for i in run.invocations() if not i.traced]
    failed = sum(1 for i in untraced if i.failures)
    out["error_rate"] = (failed / len(untraced), len(untraced))
    return out


def pass_totals(invs) -> dict:
    totals: dict = {}
    for inv in invs:
        for key, value in inv.result["totals"].items():
            totals[key] = totals.get(key, 0) + value
    return totals


def per_layer(passes) -> tuple[dict, list[dict]]:
    """({metric: (median, n)}, exact counts of each traced pass)."""
    ok = _ok(passes, True)
    derived = [tracing.derive(pass_totals(p)) for p in ok]
    counts = [{k: d[k] for k in EXACT} for d in derived]
    metrics = {k: (statistics.median(d[k] for d in derived), len(derived))
               for k in LAYER_UNITS} if derived else {}
    return metrics, counts


def count_mismatches(name, seed, counts: list[dict]) -> list[str]:
    """Exact counts that differ between traced passes or from an earlier run."""
    if not counts:
        return []
    ledger_path = OUT / "counts.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.is_file() else {}
    key = f"{source_digest()}/{name}/seed{seed}"
    earlier = ledger.setdefault(key, counts[0])
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return [f"{k}: {c[k]} vs {earlier[k]}" for c in counts for k in EXACT
            if c[k] != earlier.get(k, c[k])]


def source_digest() -> str:
    """Hash of the measured code, its inputs and the benchmark itself."""
    h = hashlib.sha256()
    for sub in ("src", "scenarios", "perfbench"):
        for path in sorted((ROOT / sub).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(), "cpu_model": model, "platform": platform.platform(),
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"), "commit": commit,
        "source_sha256": source_digest(),
    }


def write_record(name, seed, seconds, trace, run: Run, metrics, overhead, mismatches):
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": machine(),
        "metrics": {k: {"value": v, "n": n, "unit": UNITS.get(k) or LAYER_UNITS[k]}
                    for k, (v, n) in metrics.items()},
        "tracing_overhead_s": overhead,
        "count_mismatches": mismatches,
        "setup_probes": [_inv_record(i) for i in run.probes],
        "passes": [[_inv_record(i) for i in p] for p in run.passes],
    }
    path = OUT / "records" / f"{record['time_utc']}-{name}-seed{seed}-trace{trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1))
    return path


def _inv_record(i: Invocation) -> dict:
    keys = ("import_s", "build_s", "maxrss_kb", "sim_seconds", "totals", "checks")
    return {"label": i.label, "traced": i.traced, "exit_code": i.exit_code,
            "wall_s": i.wall_s, "cpu_s": i.cpu_s, "failures": i.failures,
            **{k: i.result[k] for k in keys if i.result and k in i.result}}


def tracing_overhead(passes) -> dict | None:
    untraced, traced = _ok(passes, False), _ok(passes, True)
    if not untraced or not traced:
        return None
    u = statistics.median(sum(i.wall_s for i in p) for p in untraced)
    t = statistics.median(sum(i.wall_s for i in p) for p in traced)
    return {"traced_wall_s": t, "untraced_wall_s": u, "overhead_s": t - u}


def measure(name, seed, seconds, trace, reference=None):
    """Run one workload; returns (metrics, run, mismatches, overhead, record path)."""
    if reference is None:
        reference = load_reference()
    run = run_workload(name, WORKLOADS[name], seed, seconds, trace,
                          reference["workloads"].get(name, []), name in SAMPLED)
    mismatches: list[str] = []
    overhead = None
    if trace:
        metrics, counts = per_layer(run.passes)
        mismatches = count_mismatches(name, seed, counts)
        overhead = tracing_overhead(run.passes)
    else:
        metrics = end_to_end(run, name in SAMPLED)
    path = write_record(name, seed, seconds, trace, run, metrics, overhead, mismatches)
    return metrics, run, mismatches, overhead, path


def print_failures(run: Run, mismatches) -> None:
    for inv in run.invocations():
        for f in inv.failures:
            print(f"FAILED {inv.label}: {f}", file=sys.stderr)
    for m in mismatches:
        print(f"COUNT MISMATCH {m}", file=sys.stderr)


def cmd_workload(opts) -> int:
    metrics, run, mismatches, overhead, path = measure(
        opts.workload, opts.seed, opts.seconds, opts.trace)
    print_failures(run, mismatches)
    wanted = LAYER_UNITS if opts.trace else GATED
    for k in wanted:
        if k in metrics:
            v, n = metrics[k]
            print(f"{opts.workload:14s} {k:28s} {v:14.6g} {UNITS.get(k) or LAYER_UNITS[k]:6s} n={n}")
    if overhead:
        print(f"tracing overhead: {overhead['overhead_s']:.3f} s per pass")
    print(f"record: {path.relative_to(ROOT)}")
    attempted = len(run.invocations())
    failed = sum(1 for i in run.invocations() if i.failures)
    failed += sum(len(p) for p in run.passes if p[0].traced) if mismatches else 0
    complete = all(k in metrics for k in wanted)
    result = {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": UNITS.get(k) or LAYER_UNITS[k]}
                    for k in wanted if k in metrics},
    }
    print(json.dumps(result))
    return 0


def cmd_all(opts) -> int:
    """Every end-to-end metric of every workload, with unit and sample count."""
    rows = []
    for name in WORKLOADS:
        metrics, run, _, _, _ = measure(name, opts.seed, opts.seconds, 0)
        print_failures(run, [])
        for k in UNITS:
            v, n = metrics.get(k, (None, 0))
            rows.append((name, k, "n/a" if v is None else f"{v:.6g}", UNITS[k], n))
    print(f"{'workload':14s} {'metric':12s} {'value':>12s} {'unit':6s} n")
    for name, k, v, unit, n in rows:
        print(f"{name:14s} {k:12s} {v:>12s} {unit:6s} {n}")
    return 0


def cmd_baseline(opts) -> int:
    """Regenerate the ROADMAP baseline rows from one traced pass per workload."""
    runs = {}
    for name in WORKLOADS:
        _, run, mismatches, overhead, _ = measure(name, opts.seed, 0, 1)
        print_failures(run, mismatches)
        traced = _ok(run.passes, True)
        if not traced:
            print(f"{name}: no successful traced pass", file=sys.stderr)
            return 1
        runs[name] = (traced[0], overhead)
    stiff, fig4, cert = (runs[n][0] for n in ("stiff-dads", "fig4-compare", "certify"))
    quiet, persistent = (i.result["totals"] for i in stiff)
    cmp_ = fig4[0].result["totals"]
    checks = {c["name"]: c for i in cert for c in i.result["checks"]}
    synth = cert[2].result["totals"]

    def us(t, kind):
        return 1e6 * t[f"simulate.{kind}.rhs_s"] / t[f"simulate.{kind}.rhs_calls"]

    rows = [
        (f"sigma-mod RK4, {FIG4_T_END} s horizon (per loop)",
         f"{cmp_['simulate.rk4.s'] / cmp_['simulate.rk4.calls']:.2f} s, "
         f"{us(cmp_, 'rk4'):.0f} us per rhs, "
         f"{cmp_['controllers.rk4.rhs_evals'] / cmp_['simulate.rk4.rhs_calls']:.1f}"
         " controller evals per rhs"),
    ]
    for label, t in (("quiet", quiet), ("persistent", persistent)):
        rows.append((f"DADS Radau, {label} 10 s",
                     f"{t['simulate.radau.s']:.2f} s, nfev {t['simulate.nfev']}, "
                     f"njev {t['simulate.njev']}, nlu {t['simulate.nlu']}, "
                     f"{us(t, 'radau'):.0f} us per rhs"))
    rows += [
        ("synthesize", f"{synth['synthesis.synthesize.s']:.2f} s"),
        ("wing-rock dissipation check, 1000 samples",
         f"{checks['wingrock dissipation']['s']:.2f} s"),
        ("synthesized final certificate, 500 samples",
         f"{checks['synthesized dissipation']['s']:.2f} s"),
    ]
    for name, (_, overhead) in runs.items():
        rows.append((f"tracing overhead, {name}",
                     f"{overhead['overhead_s']:.2f} s per pass "
                     f"({overhead['untraced_wall_s']:.2f} s untraced)"))
    print("| layer / run | cost (traced) |\n| --- | --- |")
    for label, cost in rows:
        print(f"| {label} | {cost} |")
    return 0


def cmd_self_test(_opts) -> int:
    """The two CLI failure probes must count as failed, with no timing reported."""
    probe_dir = OUT / "selftest"
    probe_dir.mkdir(parents=True, exist_ok=True)
    ineq = (ROOT / "scenarios/ineq34.scenario").read_text() + "corrupt_controller = true\n"
    rk4 = (ROOT / "scenarios/fig4_dads.scenario").read_text().replace(
        "method = radau", "method = rk4")
    (probe_dir / "ineq34_corrupt.scenario").write_text(ineq)
    (probe_dir / "fig4_dads_rk4.scenario").write_text(rk4)
    probes = [["verify", str(probe_dir / "ineq34_corrupt.scenario")],
              ["verify", str(probe_dir / "fig4_dads_rk4.scenario")]]
    run = run_workload("selftest", probes, 0, 0, False, None, False)
    problems = []
    codes = [i.exit_code for i in run.passes[0]]
    if codes != [5, 3]:
        problems.append(f"probe exit codes {codes}, expected [5, 3]")
    if not all(i.failures for i in run.passes[0]):
        problems.append("a probe was not counted as failed")
    if end_to_end(run, False) != {}:
        problems.append("timings were reported for failed invocations")
    # the reference comparison flags a moved margin and survives a bad entry
    entry = load_reference()["workloads"]["certify"][0]
    moved = json.loads(json.dumps(entry))
    moved["reports"][0]["worst_margin"] *= 1.0 + 1e-6
    if check.reference_failures(entry, entry, True):
        problems.append("the reference does not match itself")
    if not check.reference_failures(moved, entry, True):
        problems.append("a moved worst margin was not flagged")
    if not check.reference_failures({"reports": None}, entry, True):
        problems.append("a malformed output was not flagged")
    # BENCHMARK.json names the metrics this file computes
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != {k: UNITS[k] for k in GATED}:
        problems.append("BENCHMARK.json end_to_end differs from GATED")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != LAYER_UNITS:
        problems.append("BENCHMARK.json per_layer differs from LAYER_UNITS")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "passed") +
          f": probe exit codes {codes}, failures "
          f"{[i.failures[:1] for i in run.passes[0]]}")
    return 1 if problems else 0


def cmd_write_reference(_opts) -> int:
    seed = check.REFERENCE_SEED
    out = {"reference_seed": seed, "fig4_t_end": FIG4_T_END, "workloads": {}}
    for name, invocations in WORKLOADS.items():
        run = run_workload(name, invocations, seed, 0, False, None, name in SAMPLED)
        entries = []
        for inv in run.passes[0]:
            fails = judge(inv, None, False, name in SAMPLED)
            if fails:
                print(f"{inv.label}: {fails}", file=sys.stderr)
                return 1
            entries.append(check.reference_entry(inv.result))
        out["workloads"][name] = entries
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--baseline", action="store_true")
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--write-reference", action="store_true")
    opts = ap.parse_args()
    # a terminated run unwinds, so the running invocation is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    missing = layout_error(need_reference=not opts.write_reference)
    if missing:
        print(f"error: not a dads checkout: {missing}", file=sys.stderr)
        return 2
    if opts.all:
        return cmd_all(opts)
    if opts.baseline:
        return cmd_baseline(opts)
    if opts.self_test:
        return cmd_self_test(opts)
    if opts.write_reference:
        return cmd_write_reference(opts)
    if opts.workload is None:
        ap.error("--workload is required")
    return cmd_workload(opts)


if __name__ == "__main__":
    sys.exit(main())
