"""The benchmark harness wraps `dads` functions by name; a traced run of it
fails if one of those names is renamed or removed.  Its set-up probe calls
the scenario build functions of `dads.cli` positionally, so a changed
signature fails the probe.  Its `--self-test` runs the harness's failure
probes, which read the shipped scenarios."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "scenarios").glob("*.scenario"))


def _invoke(tmp_path, mode, args):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "invoke.py"), "--root", str(ROOT),
         "--result", str(tmp_path / "result.json"), mode, "--",
         *args, "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("args", [
    ["verify", "scenarios/ineq34.scenario"],
    ["simulate", "scenarios/fig4_sigma0.scenario", "--t-end", "0.01"],
    ["synthesize", "scenarios/synth_wingrock.scenario"],
    ["simulate", "scenarios/fig1_dads.scenario", "--t-end", "0.01"],
    # compare exits 5 on a failed drift contrast, which passes at t_end = 2
    ["compare", "scenarios/fig4_dads.scenario", "scenarios/fig4_sigma0.scenario",
     "scenarios/fig4_sigma04.scenario", "--t-end", "2"],
])
def test_traced_invocation_exits_zero(tmp_path, args):
    proc = _invoke(tmp_path, "--trace", args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # the harness counts the draws through check_dissipation's per-draw
    # sampler; a check draws exactly its samples and uses every one
    samples = {"verify": 1000, "synthesize": 1100}.get(args[0])
    if samples is not None:
        totals = json.loads((tmp_path / "result.json").read_text())["totals"]
        assert totals["verify.samples_drawn"] == totals["verify.samples_used"] == samples


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_setup_probe_exits_zero(tmp_path, scenario):
    proc = _invoke(tmp_path, "--setup-only", [scenario])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_self_test_passes():
    # its exit-3 probe swaps fig4_dads's `method = radau` for `method = rk4`
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
