"""The benchmark harness wraps `dads` functions by name; a traced run of it
fails if one of those names is renamed or removed.  Its set-up probe calls
the scenario build functions of `dads.cli` positionally, so a changed
signature fails the probe."""

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
    ["compare", "scenarios/fig4_dads.scenario", "scenarios/fig4_sigma0.scenario",
     "scenarios/fig4_sigma04.scenario", "--t-end", "0.01"],
])
def test_traced_invocation_exits_zero(tmp_path, args):
    proc = _invoke(tmp_path, "--trace", args)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_setup_probe_exits_zero(tmp_path, scenario):
    proc = _invoke(tmp_path, "--setup-only", [scenario])
    assert proc.returncode == 0, proc.stdout + proc.stderr
