"""Spans and counters recorded around calls into the `dads` modules.

The wrappers are installed from outside the package: each public name is
replaced at the place it is looked up (a module global such as
`dads.simulate.solve_ivp`, or a class attribute such as `SmoothMap.__call__`),
so `src/dads` itself carries no instrumentation.

A span is (name, parent, start, end), kept in typed arrays while the
invocation runs and written out as one `.npz` file when it ends.  Counters
are plain integers for calls too frequent to span (jet products, nested
`SmoothMap` calls).
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

# Span names whose direct children make up one right-hand-side evaluation.
INTEGRATORS = {"simulate.solve_ivp": "radau", "simulate.rk4": "rk4"}
# Span names that make up verify.trajectory_s.
TRAJECTORY_CHECKS = {
    "verify.check_trajectory_estimates",
    "verify.check_drift_contrast",
    "verify.check_sigma_tradeoff",
    "verify.signal_sup",
}


class Tracer:
    """Span recorder for one CLI invocation."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.checks: list[dict] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """Wrap fn so that each call records one span."""
        nid = self._id(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def outermost_span(self, name: str, fn):
        """Count every call and the outermost of nested calls; span the
        outermost ones."""
        spanned = self.span(name, fn)
        counts = self.counts
        depth = [0]
        calls, top = name + ".calls", name + ".top"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            counts[top] += 1
            depth[0] += 1
            try:
                return spanned(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    def counted(self, name: str, fn):
        """Wrap fn so that each call only increments a counter."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def arrays(self):
        n = len(self.start)
        ids = np.frombuffer(self.name_id, dtype=np.uint16, count=n)
        par = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = np.frombuffer(self.end, count=n) - np.frombuffer(self.start, count=n)
        return ids, par, dur

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def layer_totals(self) -> dict:
        """Additive per-invocation totals: counts and busy seconds per layer.

        Ratios (us per rhs, evals per rhs, nesting, sample yield) are formed
        later from these sums, so that invocations of one pass can be added.
        """
        ids, par, dur = self.arrays()
        k = len(self.names)
        count = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = np.bincount(ids, weights=dur - child, minlength=k)
        pname = np.where(has_parent, ids[np.maximum(par, 0)], -1)

        def ids_of(pred):
            return [i for i, nm in enumerate(self.names) if pred(nm)]

        def n(pred):
            return int(count[ids_of(pred)].sum())

        def s(pred):
            return float(total[ids_of(pred)].sum())

        out = {
            "cli.build_s": s(lambda nm: nm == "cli.build"),
            "simulate.solver_s": float(self_time[ids_of(lambda nm: nm in INTEGRATORS)].sum()),
            "controllers.calls": n(lambda nm: nm.startswith("controllers.")),
            "controllers.s": s(lambda nm: nm.startswith("controllers.")),
            "systems.eval_dynamics.calls": n(lambda nm: nm == "systems.eval_dynamics"),
            "systems.eval_dynamics.s": s(lambda nm: nm == "systems.eval_dynamics"),
            "systems.signals.s": s(lambda nm: nm.startswith("systems.signal.")),
            "jets.gradient.calls": n(lambda nm: nm == "jets.gradient"),
            "jets.gradient.s": s(lambda nm: nm == "jets.gradient"),
            "jets.smoothmap.s": s(lambda nm: nm == "jets.smoothmap"),
            "synthesis.synthesize.s": s(lambda nm: nm == "synthesis.synthesize"),
            "verify.dissipation_s": s(lambda nm: nm == "verify.check_dissipation"),
            "verify.trajectory_s": s(lambda nm: nm in TRAJECTORY_CHECKS),
        }

        # post-processing: simulate() minus its integrator child, plus stats
        sim_ids = ids_of(lambda nm: nm == "simulate.simulate")
        integ_ids = ids_of(lambda nm: nm in INTEGRATORS)
        in_sim = np.isin(ids, integ_ids) & np.isin(pname, sim_ids)
        out["simulate.post_s"] = (
            s(lambda nm: nm == "simulate.simulate")
            - float(dur[in_sim].sum())
            + s(lambda nm: nm == "simulate.trajectory_stats")
        )

        # one rhs = the direct children of an integrator span
        ctrl_eval = ids_of(lambda nm: nm in ("controllers.u", "controllers.ctrl_rate"))
        dyn = ids_of(lambda nm: nm == "systems.eval_dynamics")
        for integ, kind in INTEGRATORS.items():
            under = pname == self._ids.get(integ, -2)
            out[f"simulate.{kind}.rhs_calls"] = int(np.isin(ids[under], dyn).sum())
            out[f"simulate.{kind}.rhs_s"] = float(dur[under].sum())
            out[f"simulate.{kind}.s"] = s(lambda nm: nm == integ)
            out[f"simulate.{kind}.calls"] = n(lambda nm: nm == integ)
            out[f"controllers.{kind}.rhs_evals"] = int(np.isin(ids[under], ctrl_eval).sum())

        for key in ("simulate.nfev", "simulate.njev", "simulate.nlu",
                    "simulate.rk4_steps", "verify.samples_drawn",
                    "verify.samples_used", "jets.mul.calls",
                    "jets.smoothmap.calls", "jets.smoothmap.top"):
            out[key] = int(self.counts[key])
        return out


def derive(t: dict) -> dict:
    """The pass totals plus the per-layer ratios formed from them."""
    rhs = t["simulate.radau.rhs_calls"] + t["simulate.rk4.rhs_calls"]
    rhs_s = t["simulate.radau.rhs_s"] + t["simulate.rk4.rhs_s"]
    evals = t["controllers.radau.rhs_evals"] + t["controllers.rk4.rhs_evals"]
    top = t["jets.smoothmap.top"]
    drawn = t["verify.samples_drawn"]
    return {
        **t,
        "simulate.us_per_rhs": 1e6 * rhs_s / rhs if rhs else 0.0,
        "controllers.evals_per_rhs": evals / rhs if rhs else 0.0,
        "jets.nesting_ratio": t["jets.smoothmap.calls"] / top if top else 0.0,
        "verify.sample_yield": t["verify.samples_used"] / drawn if drawn else 0.0,
    }
