"""Closed-loop runs shared across test modules, each integrated once per
session, the scenario writer the CLI tests edit shipped scenarios with, and
a fresh interpreter for the import tests."""

import configparser
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dads.controllers import SigmaModController
from dads.simulate import SimConfig, simulate
from dads.systems import DisturbanceProfile, constant_parameter, wingrock


def scenario_text(sections):
    """Scenario file text that parses back to `sections` (a parsed scenario's
    converted values; a list is written comma-separated)."""
    cp = configparser.ConfigParser(interpolation=None)
    for sec, kv in sections.items():
        cp[sec] = {k: ", ".join(map(str, v)) if isinstance(v, list) else str(v)
                   for k, v in kv.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def run_fresh(code, *args):
    """Run code in a fresh interpreter that imports dads from src/ and return
    its stdout; sys.argv[1] is that src/ directory, then come args."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code, src, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def sigma_persistent_run(leak):
    """10 s RK4 run of the leakage baseline under the persistent disturbance."""
    cfg = SimConfig(dt=1e-4, t_end=10.0, method="rk4", log_stride=100)
    return simulate(
        wingrock(), SigmaModController(sigma_leak=leak), [1.0, -0.5, -18.0], [0.0] * 4,
        DisturbanceProfile(2, (20.0, 10.0), (10.0, 20.0)),
        constant_parameter([20.0, 20.0, 2.0, 1.0]), cfg,
    )


@pytest.fixture(scope="session")
def sigma0_persistent():
    return sigma_persistent_run(0.0)


@pytest.fixture(scope="session")
def sigma04_persistent():
    return sigma_persistent_run(0.4)
