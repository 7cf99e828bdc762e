"""Correctness gate: compare an invocation's outputs with the stored reference.

An invocation fails when its exit code is not 0, when any check verdict is
FAIL, or when an output leaves the reference by more than its tolerance.
The simulations do not read the seed, so their outputs are compared on every
seed; the certify sample points move with the seed, so their margins and
witnesses are compared only on the reference seed (on other seeds every
verdict must still PASS).
"""

from __future__ import annotations

import math

REFERENCE_SEED = 0

# Trajectory outputs (check margins and witnesses, trajectory_stats, final
# states).  Radau runs at rtol 1e-10; a change to the step sequence (say an
# exact Jacobian) moves the global error by far more than one step's
# tolerance, so the bound leaves 10^4 of room above rtol.
TRAJECTORY_RTOL, TRAJECTORY_ATOL = 1e-6, 1e-9
# Sampled certificates evaluate the same points; only summation order may
# change, so margins must agree to 1e-9 and witnesses (printed with 9
# significant digits by the CLI) to 1e-8.
MARGIN_RTOL, WITNESS_RTOL, SAMPLED_ATOL = 1e-9, 1e-8, 1e-12


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _compare_values(what: str, got, want, rtol: float, atol: float) -> list[str]:
    if len(got) != len(want):
        return [f"{what}: {len(got)} values, reference has {len(want)}"]
    return [
        f"{what}[{i}]: {g!r} vs reference {w!r}"
        for i, (g, w) in enumerate(zip(got, want))
        if not _close(float(g), float(w), rtol, atol)
    ]


def verdict_failures(result: dict) -> list[str]:
    reports = result.get("reports") or []
    if not reports:
        return ["no check report was produced"]
    return [f"{r['name']}: FAIL (margin {r['worst_margin']:.6g})"
            for r in reports if not r["passed"]]


def reference_failures(result: dict, ref: dict, sampled: bool) -> list[str]:
    """Differences between one invocation's outputs and its reference entry."""
    if sampled:
        m_rtol, w_rtol, atol = MARGIN_RTOL, WITNESS_RTOL, SAMPLED_ATOL
    else:
        m_rtol = w_rtol = TRAJECTORY_RTOL
        atol = TRAJECTORY_ATOL
    try:
        out: list[str] = []
        got, want = result["reports"], ref["reports"]
        if [r["name"] for r in got] != [r["name"] for r in want]:
            return [f"checks {[r['name'] for r in got]} differ from the reference"]
        for g, w in zip(got, want):
            if g["passed"] != w["passed"] or g["n_samples"] != w["n_samples"]:
                out.append(f"{g['name']}: verdict/samples {g['passed']}/{g['n_samples']}"
                           f" vs reference {w['passed']}/{w['n_samples']}")
            out += _compare_values(f"{g['name']} margin", [g["worst_margin"]],
                                   [w["worst_margin"]], m_rtol, atol)
            out += _compare_values(f"{g['name']} witness", g["witness"], w["witness"],
                                   w_rtol, atol)
        for key in ("stats", "final_states"):
            if len(result[key]) != len(ref[key]):
                out.append(f"{key}: {len(result[key])} runs, reference has {len(ref[key])}")
                continue
            for i, (g, w) in enumerate(zip(result[key], ref[key])):
                if isinstance(w, dict):
                    keys = sorted(w)
                    g, w = [g.get(k, math.nan) for k in keys], [w[k] for k in keys]
                out += _compare_values(f"{key}[{i}]", g, w, TRAJECTORY_RTOL, TRAJECTORY_ATOL)
        return out
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output or reference: {exc!r}"]


def reference_entry(result: dict) -> dict:
    return {key: result[key] for key in ("reports", "stats", "final_states")}
