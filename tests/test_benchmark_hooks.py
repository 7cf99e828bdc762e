"""The benchmark harness wraps `dads` functions by name; a traced run of it
fails if one of those names is renamed or removed."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("args", [
    ["verify", "scenarios/ineq34.scenario"],
    ["simulate", "scenarios/fig4_sigma0.scenario", "--t-end", "0.01"],
    ["synthesize", "scenarios/synth_wingrock.scenario"],
])
def test_traced_invocation_exits_zero(tmp_path, args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "invoke.py"), "--root", str(ROOT),
         "--result", str(tmp_path / "result.json"), "--trace", "--",
         *args, "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
