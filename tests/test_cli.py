"""End-to-end tests for the command-line interface and scenario files."""

import argparse
import csv
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

from conftest import scenario_text
from dads.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DIVERGENCE,
    EXIT_MAJORANT,
    EXIT_OK,
    EXIT_PARSE,
    ScenarioError,
    build_gains,
    build_sim_config,
    load_scenario,
    main,
    parse_scenario_text,
)
import dads.cli as cli
import dads.simulate
import dads.verify as ver
from dads.controllers import WingRockDadsController
from dads.jets import SmoothMap
from dads.simulate import SimConfig
from dads.systems import BUILTINS

SCEN = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def scen(name):
    return os.path.join(SCEN, name)


def read_csv(path):
    """A trajectory CSV's header names and its rows as floats."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class TestScenarioParsing:
    def test_load_benchmark_scenario(self):
        s = load_scenario(scen("fig1_dads.scenario"))
        assert s.get("system", "name") == "wingrock"
        # each value is converted once, at load
        assert s.get("controller", "gamma") == 20.0
        assert s.get("sim", "x0") == [1.0, -0.5, -18.0]
        assert s.get("sim", "log_stride") == 100
        assert s.get("checks", "names") == ["trajectory"]

    def test_missing_file(self):
        with pytest.raises(ScenarioError):
            load_scenario("/nonexistent/file.scenario")

    def test_malformed_text(self):
        with pytest.raises(ScenarioError):
            parse_scenario_text("this is [not\nvalid ini ==")

    def test_round_trip(self):
        s = load_scenario(scen("fig4_sigma04.scenario"))
        back = parse_scenario_text(scenario_text(s.sections))
        assert back.sections == s.sections

    def test_defaults(self):
        s = parse_scenario_text("[system]\nname = wingrock\n")
        assert s.get("controller", "c", 0.5) == 0.5
        assert s.get("sim", "x0", [0.0]) == [0.0]

    def test_synthesis_gains_default_to_the_controller(self):
        # every key left out of [synthesis] takes the closed-form law's
        # constant, the deadzone level included; no [controller] key leaks in
        law = WingRockDadsController().gains
        for controller in ("", "[controller]\ngamma = 3\nc = 0.75\neps = 0.2\n"):
            gains = build_gains(parse_scenario_text(
                "[system]\nname = wingrock\n" + controller + "[synthesis]\n"))
            assert gains == law
        assert (gains.Gamma, gains.c) == (WingRockDadsController.Gamma, WingRockDadsController.c)
        assert gains.eps_dz == WingRockDadsController.eps_dz
        assert (gains.b, gains.a) == (1.0, 2.0)
        # [synthesis] eps is the deadzone level itself, as in [controller]
        gains = build_gains(parse_scenario_text(
            "[system]\nname = wingrock\n[synthesis]\neps = 5e-05\n"))
        assert gains.eps_dz == 5e-05

    @pytest.mark.parametrize("text, flags, expected", [
        ("", (None, None), SimConfig()),
        ("[sim]\nlog_stride = 7\n", (None, None), SimConfig(log_stride=7)),
        ("[sim]\ndt = 0.01\nmethod = radau\n", (None, 2.0),
         SimConfig(dt=0.01, t_end=2.0, method="radau")),
        ("[sim]\ndt = 0.01\nt_end = 3\n", (0.001, None), SimConfig(dt=0.001, t_end=3.0)),
    ])
    def test_sim_config_keeps_the_defaults_it_is_not_given(self, text, flags, expected):
        scn = parse_scenario_text("[system]\nname = wingrock\n" + text)
        args = argparse.Namespace(dt=flags[0], t_end=flags[1])
        assert build_sim_config(scn, args) == expected


class TestSimulateCommand:
    def test_sigma_scenario_ok(self, tmp_path, capsys):
        code = main(["simulate", scen("fig1_sigma04.scenario"),
                     "--t-end", "0.5", "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "sup|Y| tail" in out
        csv_path = tmp_path / "fig1_sigma04.csv"
        assert csv_path.exists()

    def test_dads_scenario_csv_contents(self, tmp_path):
        code = main(["simulate", scen("fig1_dads.scenario"),
                     "--t-end", "0.2", "--out", str(tmp_path)])
        assert code == EXIT_OK
        header, data = read_csv(tmp_path / "fig1_dads.csv")
        assert header == ["t", "x1", "x2", "x3", "z", "u", "V", "Ynorm"]
        # output norm restricted to (x1, x2): |(1, -0.5)|
        assert data[0, 7] == pytest.approx(1.1180339887498949, rel=1e-12)
        assert data[0, 4] == -2.302585092994046

    def test_missing_scenario_is_parse_error(self, tmp_path):
        assert main(["simulate", "/no/such/file", "--out", str(tmp_path)]) == EXIT_PARSE

    def test_bad_controller_params_parse_error(self, tmp_path):
        bad = tmp_path / "bad.scenario"
        bad.write_text(
            "[system]\nname = wingrock\n[controller]\ntype = dads-wingrock\nc = 0.1\n"
        )
        assert main(["simulate", str(bad), "--out", str(tmp_path)]) == EXIT_PARSE

    @pytest.mark.parametrize("key, value", [
        ("x0", "1.0, -0.5"),
        ("x0", "1.0, a, -18.0"),
        ("ctrl0", "-2.3, 0.0"),
        ("value", "20, 20, 2"),
    ])
    def test_wrong_vector_length_is_parse_error(self, tmp_path, capsys, key, value):
        entries = {"x0": "1.0, -0.5, -18.0", "ctrl0": "-2.3", "value": "20, 20, 2, 1",
                   key: value}
        bad = tmp_path / "shape.scenario"
        bad.write_text(
            "[system]\nname = wingrock\n"
            "[controller]\ntype = dads-wingrock\n"
            f"[sim]\nmethod = radau\nx0 = {entries['x0']}\nctrl0 = {entries['ctrl0']}\n"
            f"[parameter]\nvalue = {entries['value']}\n"
        )
        assert main(["simulate", str(bad), "--out", str(tmp_path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    # an empty list logged |Y| = 0, so `verify fig4_dads` passed its tail
    # output bound with it
    @pytest.mark.parametrize("indices", ["0, 7", "-1", "0.5", "", "1, 1"])
    def test_bad_output_indices_is_parse_error(self, tmp_path, capsys, indices):
        text = Path(scen("fig1_sigma0.scenario")).read_text()
        bad = tmp_path / "indices.scenario"
        bad.write_text(text.replace("output_indices = 0, 1", f"output_indices = {indices}"))
        assert main(["simulate", str(bad), "--t-end", "0.01", "--out", str(tmp_path)]) == EXIT_PARSE
        assert "output_indices" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--t-end", "nan"),
        ("--t-end", "inf"),
        ("--dt", "nan"),
    ])
    def test_non_finite_time_is_parse_error(self, tmp_path, capsys, flag, value):
        code = main(["simulate", scen("fig4_sigma0.scenario"), flag, value,
                     "--out", str(tmp_path)])
        assert code == EXIT_PARSE
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["fig4_sigma0", "fig4_dads"])
    def test_horizon_below_one_step_is_parse_error(self, tmp_path, capsys, name):
        # RK4 would round 0.4 steps to none and log the row at t = 0 alone
        code = main(["simulate", scen(f"{name}.scenario"), "--t-end", "0.00004",
                     "--dt", "1e-4", "--out", str(tmp_path)])
        assert code == EXIT_PARSE
        assert "shorter than one step" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--t-end", "1e300"),
        ("--dt", "1e-12"),
        ("--dt", "1e-310"),  # t_end / dt overflows to inf
    ])
    def test_step_count_cap_is_parse_error(self, tmp_path, capsys, flag, value):
        # rejected before the step arrays are allocated
        code = main(["simulate", scen("fig1_sigma0.scenario"), flag, value,
                     "--out", str(tmp_path)])
        assert code == EXIT_PARSE
        assert "MAX_STEPS" in capsys.readouterr().err

    def test_stiff_log_grid_ends_at_t_end(self, tmp_path):
        # 300 * 1e-4 rounds to 0.030000000000000002 > t_end
        code = main(["simulate", scen("fig1_dads.scenario"), "--t-end", "0.03",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        _, data = read_csv(tmp_path / "fig1_dads.csv")
        assert data[-1, 0] == 0.03 and len(data) == 4

    @staticmethod
    def _high_gain(tmp_path, k):
        # a valid gain (K >= 28 c) far above the shipped k = 14
        text = Path(scen("fig1_dads.scenario")).read_text()
        assert "\nk = 14\n" in text
        path = tmp_path / f"gain_{k}.scenario"
        path.write_text(text.replace("\nk = 14\n", f"\nk = {k}\n"))
        return str(path)

    def test_high_gain_stiff_run_completes(self, tmp_path):
        # the implicit solver this method ran before did not finish in 40 s
        start = time.perf_counter()
        code = main(["simulate", self._high_gain(tmp_path, "1e5"), "--t-end", "0.05",
                     "--out", str(tmp_path)])
        assert time.perf_counter() - start < 10.0
        assert code == EXIT_OK

    def test_stiff_solver_failure_is_bounded(self, tmp_path, capsys):
        # at k = 1e7 LSODA fails its error test at once; the run ends quickly
        # with LSODA's own reason
        start = time.perf_counter()
        code = main(["simulate", self._high_gain(tmp_path, "1e7"), "--t-end", "0.05",
                     "--out", str(tmp_path)])
        assert time.perf_counter() - start < 10.0
        assert code == EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("error: trajectory diverged")
        assert "lsoda: Repeated error test failures" in err
        assert "last finite time t = 0 " in err
        assert len(err.splitlines()) == 1  # no traceback, no printed warning

    def test_stiff_solver_failure_reports_the_last_completed_row(self, tmp_path, capsys):
        # at k = 2e5 on a 1e-6 log grid LSODA completes the rows up to
        # t = 5e-6, then fails its error test before the next one
        path = edited("fig1_dads", tmp_path, {
            ("controller", "k"): "2e5", ("sim", "log_stride"): "1"})
        code = main(["simulate", path, "--t-end", "1e-4", "--dt", "1e-6",
                     "--out", str(tmp_path)])
        assert code == EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert "last finite time t = 5e-06 (lsoda: Repeated error test failures" in err

    def test_stiff_explicit_integration_diverges(self, tmp_path):
        stiff = tmp_path / "stiff.scenario"
        stiff.write_text(
            "[system]\nname = wingrock\n"
            "[controller]\ntype = dads-wingrock\n"
            "[sim]\ndt = 1e-4\nt_end = 1.0\nmethod = rk4\n"
            "x0 = 1.0, -0.5, -18.0\nctrl0 = -2.302585092994046\n"
            "[parameter]\nvalue = 20, 20, 2, 1\n"
        )
        assert main(["simulate", str(stiff), "--out", str(tmp_path)]) == EXIT_DIVERGENCE

    def test_high_adaptation_gain_sigma_mod_runs_on_the_stiff_method(self, tmp_path, capsys):
        # the shipped sigma-mod loop runs LSODA; at gamma = 1e4 RK4 at
        # dt = 1e-4 is explicitly unstable and reports a false divergence
        entries = {("controller", "gamma"): "1e4"}
        args = ["--t-end", "0.05", "--out", str(tmp_path)]
        assert main(["simulate", edited("fig4_sigma0", tmp_path, entries), *args]) == EXIT_OK
        entries["sim", "method"] = "rk4"
        assert main(["simulate", edited("fig4_sigma0", tmp_path, entries), *args]) == EXIT_DIVERGENCE
        assert capsys.readouterr().err == (
            "error: trajectory diverged; last finite time t = 0.0001\n")


class TestVerifyCommand:
    def test_dissipation_check_ok(self, tmp_path, capsys):
        code = main(["verify", scen("ineq34.scenario"), "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out
        assert (tmp_path / "ineq34.checks.csv").exists()

    def test_corrupted_controller_fails_check(self, tmp_path):
        bad = tmp_path / "corrupt.scenario"
        bad.write_text(
            "[system]\nname = wingrock\n"
            "[controller]\ntype = dads-wingrock\n"
            "[checks]\nnames = dissipation-dads\ncorrupt_controller = true\n"
        )
        assert main(["verify", str(bad), "--out", str(tmp_path)]) == EXIT_CHECK_FAILED

    @pytest.mark.parametrize("value, expected", [
        ("yes", EXIT_CHECK_FAILED), ("1", EXIT_CHECK_FAILED), ("On", EXIT_CHECK_FAILED),
        ("no", EXIT_OK), ("0", EXIT_OK), ("off", EXIT_OK),
        ("maybe", EXIT_PARSE), ("", EXIT_PARSE),
    ])
    def test_corrupt_controller_reads_boolean_words(self, tmp_path, capsys, value, expected):
        # any other word ran the unmutated law, and the mutation probe passed
        path = edited("ineq34", tmp_path, {("checks", "corrupt_controller"): value})
        assert main(["verify", path, "--out", str(tmp_path)]) == expected
        if expected == EXIT_PARSE:
            assert capsys.readouterr().err == (
                f"error: [checks] corrupt_controller: not a boolean "
                f"(1/yes/true/on or 0/no/false/off): {value!r}\n")

    @pytest.mark.parametrize("check, ctype", [
        ("dissipation-dads", "sigma-mod"),
        ("sigma-tradeoff", "dads-wingrock"),
        ("dissipation-sigma", "dads-wingrock"),
    ])
    def test_check_on_other_controller_is_parse_error(self, tmp_path, capsys, check, ctype):
        bad = tmp_path / "mismatch.scenario"
        bad.write_text(
            f"[system]\nname = wingrock\n[controller]\ntype = {ctype}\n"
            f"[checks]\nnames = {check}\n"
        )
        assert main(["verify", str(bad), "--out", str(tmp_path)]) == EXIT_PARSE
        assert "needs controller type" in capsys.readouterr().err

    def test_sigma_tradeoff_on_dads_scenario_names_the_envelope(self, tmp_path, capsys, no_work):
        # the check is the W envelope; the line still named a residual bound
        path = edited("fig1_dads", tmp_path, {("checks", "names"): "sigma-tradeoff"})
        assert main(["verify", path, "--out", str(tmp_path / "out")]) == EXIT_PARSE
        assert _one_error_line(capsys) == (
            "error: check 'sigma-tradeoff' evaluates the W = V + E envelope of the "
            "sigma-modification law; it needs controller type 'sigma-mod', got 'dads-wingrock'\n")

    def test_failing_tail_bounds_name_an_unsettled_gain(self, tmp_path, capsys):
        # at eps = 1e-4 the deadzone gain is still rising at 10 s: the tail
        # bounds fail on the horizon, and say so
        path = edited("fig4_dads", tmp_path, {("controller", "eps"): "1e-4"})
        assert main(["verify", path, "--out", str(tmp_path)]) == EXIT_CHECK_FAILED
        lines = capsys.readouterr().out.splitlines()
        for name, note_end in (("tail V bound", "; z still rising at t_end)"),
                               ("tail output bound", " (z still rising at t_end)")):
            (line,) = [line for line in lines if f"] {name}: " in line]
            assert line.startswith("[FAIL]") and line.endswith(note_end)

    def test_failing_tail_V_bound_shows_the_trend(self, tmp_path, capsys):
        # fig4_dads at amplitudes x10: max V/eps falls from window to window
        # back from t_end while the tail bound still fails at 10 s
        path = edited("fig4_dads", tmp_path, {("disturbance", "amplitudes"): "200, 100"})
        assert main(["verify", path, "--t-end", "10", "--out", str(tmp_path)]) == EXIT_CHECK_FAILED
        (line,) = [line for line in capsys.readouterr().out.splitlines()
                   if "] tail V bound: " in line]
        assert line.endswith(" (max V/eps per halving window back from t_end: "
                             "1.84, 2.41, 7.55, 21.4, 33.3; z still rising at t_end)")
        # a note is not in the CSV
        text = (tmp_path / "fig4_dads.checks.csv").read_text()
        assert "V/eps" not in text and "rising" not in text

    def test_trajectory_check_on_sigma_mod_scenario(self, tmp_path, capsys):
        text = Path(scen("fig4_sigma0.scenario")).read_text()
        bad = tmp_path / "traj_sigma.scenario"
        bad.write_text(text.replace("names = sigma-tradeoff", "names = trajectory"))
        assert main(["verify", str(bad), "--out", str(tmp_path)]) == EXIT_PARSE
        assert "deadzone-adapted" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["ineq34", "ineq38"])
    def test_sample_settings_of_an_older_file_exit_2(self, tmp_path, capsys, no_work, name):
        # each check draws the count and judges at the tolerance that
        # dads.verify states; a file of the older format set both in [checks]
        text = Path(scen(f"{name}.scenario")).read_text()
        assert text.rsplit("\n[", 1)[1].startswith("checks]\n")  # the last section
        old = tmp_path / f"{name}.scenario"
        old.write_text(text + "n_samples = 1000\ntol = 1e-6\n")
        assert main(["verify", str(old), "--out", str(tmp_path / "out")]) == EXIT_PARSE
        assert _one_error_line(capsys) == (
            "error: [checks] does not read n_samples; it reads names, corrupt_controller\n")

    def test_fractional_sample_count_is_not_an_integer(self, tmp_path, capsys):
        # the logged sample stride, the one integer a scenario gives
        text = Path(scen("fig1_dads.scenario")).read_text()
        bad = tmp_path / "fraction.scenario"
        bad.write_text(text.replace("log_stride = 100", "log_stride = 1.5"))
        assert main(["simulate", str(bad), "--out", str(tmp_path)]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: [sim] log_stride: not an integer: '1.5'\n")

    def test_unknown_check_is_parse_error(self, tmp_path):
        bad = tmp_path / "unknown.scenario"
        bad.write_text(
            "[system]\nname = wingrock\n[checks]\nnames = no-such-check\n"
        )
        assert main(["verify", str(bad), "--out", str(tmp_path)]) == EXIT_PARSE

    def test_no_checks_is_parse_error(self, tmp_path):
        bad = tmp_path / "empty.scenario"
        bad.write_text("[system]\nname = wingrock\n")
        assert main(["verify", str(bad), "--out", str(tmp_path)]) == EXIT_PARSE


def edited(name, tmp_path, entries):
    """A shipped scenario with {(section, key): value} entries set; a value
    of None removes the key, and a key of None the whole section."""
    scn = load_scenario(scen(f"{name}.scenario"))
    for (section, key), value in entries.items():
        if key is None:
            del scn.sections[section]
            continue
        values = scn.sections.setdefault(section, {})
        if value is None:
            values.pop(key, None)
        else:
            values[key] = value
    path = tmp_path / f"{name}.scenario"
    path.write_text(scenario_text(scn.sections))
    return str(path)


class TestNonFiniteParameters:
    """A nan or inf design parameter is rejected before any check runs."""

    @pytest.mark.parametrize("command, name, section, key, value", [
        ("verify", "ineq34", "controller", "c", "nan"),
        ("verify", "ineq34", "controller", "gamma", "nan"),
        ("verify", "ineq34", "controller", "eps", "nan"),
        ("verify", "ineq34", "controller", "k", "nan"),
        ("verify", "ineq34", "controller", "k", "inf"),
        ("verify", "ineq38", "controller", "sigma", "nan"),
        ("verify", "ineq38", "controller", "sigma", "inf"),
        ("verify", "ineq38", "controller", "gamma", "inf"),
        ("synthesize", "synth_wingrock", "synthesis", "c", "nan"),
        ("synthesize", "synth_wingrock", "synthesis", "gamma", "nan"),
        ("synthesize", "synth_wingrock", "synthesis", "b", "inf"),
    ])
    def test_exits_2(self, tmp_path, capsys, command, name, section, key, value):
        path = edited(name, tmp_path, {(section, key): value})
        assert main([command, path, "--out", str(tmp_path)]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command, name, section, key, value", [
        ("simulate", "fig4_sigma0", "parameter", "value", "nan, 20, 2, 1"),
        ("simulate", "fig4_sigma0", "sim", "x0", "nan, -0.5, -18.0"),
        ("simulate", "fig4_sigma0", "sim", "ctrl0", "0, inf, 0, 0"),
        ("simulate", "fig4_sigma0", "disturbance", "amplitudes", "nan, 10"),
        ("simulate", "fig4_sigma0", "disturbance", "frequencies", "10, -inf"),
        ("simulate", "vanishing", "disturbance", "decay", "nan"),
        ("verify", "ineq38", "parameter", "value", "nan, 20, 2, 1"),
    ])
    def test_plant_input_exits_2(self, tmp_path, capsys, command, name, section, key, value):
        # a non-finite plant input is an input error, not a divergence (3) or
        # a nan margin (5)
        path = edited(name, tmp_path, {(section, key): value})
        assert main([command, path, "--t-end", "0.01", "--out", str(tmp_path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"[{section}] {key}" in err

    def test_negative_decay_exits_2(self, tmp_path, capsys):
        # a disturbance that grows overflowed exp at the first step
        path = edited("fig4_sigma0", tmp_path, {
            ("disturbance", "decay"): "-1e6", ("disturbance", "amplitudes"): "0, 0"})
        assert main(["simulate", path, "--t-end", "0.01", "--out", str(tmp_path)]) == EXIT_PARSE
        assert "[disturbance] decay must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("name, method, t_last", [
        pytest.param("fig4_sigma0", "rk4", "1.797", id="fig4_sigma0-1.797"),
        pytest.param("fig4_sigma0", None, "1.7", id="fig4_sigma0-1.7"),
        pytest.param("vanishing", None, "1.7", id="vanishing-1.7"),
    ])
    def test_overflowing_frequency_diverges(self, tmp_path, capsys, name, method, t_last):
        # w t overflows to inf past t = 1.797, where cos gives nan, not a
        # math domain error; RK4 stops at that step, the stiff solve (every
        # shipped scenario's method) at the last finite logged row (LSODA
        # itself reports success)
        entries = {
            ("disturbance", "decay"): "0", ("disturbance", "amplitudes"): "1e-300, 0",
            ("disturbance", "frequencies"): "1e308, 1"}
        if method:
            entries["sim", "method"] = method
        path = edited(name, tmp_path, entries)
        code = main(["simulate", path, "--t-end", "2.5", "--dt", "1e-3", "--out", str(tmp_path)])
        assert code == EXIT_DIVERGENCE
        assert re.search(rf"last finite time t = {re.escape(t_last)}\b", capsys.readouterr().err)

    def test_huge_amplitude_fails_fast(self, tmp_path, capsys):
        # LSODA rejects the first step; the stiff solve spent its whole rhs
        # budget here (2.5 s) while it ran through scipy's solve_ivp
        path = edited("vanishing", tmp_path, {
            ("disturbance", "amplitudes"): "1e308, 5",
            ("disturbance", "frequencies"): "3, 0", ("disturbance", "decay"): "0"})
        start = time.perf_counter()
        code = main(["simulate", path, "--t-end", "3", "--dt", "0.01", "--out", str(tmp_path)])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("error: trajectory diverged; last finite time t = 0 (lsoda: ")
        assert len(err.splitlines()) == 1

    def test_unintegrable_input_stops_at_the_budget(self, tmp_path, capsys):
        # LSODA crawls at t = 5e-9 without a failure of its own; the budget
        # of 3 units of NFEV_PER_SECOND ends it (300,000 evaluations in
        # about 1.1 s at 10^5 per unit)
        path = edited("vanishing", tmp_path, {
            ("disturbance", "amplitudes"): "20, 5",
            ("disturbance", "frequencies"): "1e308, 0", ("disturbance", "decay"): "0"})
        code = main(["simulate", path, "--t-end", "3", "--dt", "0.01", "--out", str(tmp_path)])
        assert code == EXIT_DIVERGENCE
        assert "budget of 90000 rhs evaluations" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["rk4", None])
    @pytest.mark.parametrize("section, key, value, rates", [
        ("controller", "k", "1e308", "dx3/dt = nan, dz/dt = inf"),
        ("controller", "gamma", "1e308", "dx3/dt = -inf, dz/dt = inf"),
        ("sim", "x0", "1e200, 0, 0", "dx3/dt = nan, dz/dt = inf"),
        ("sim", "ctrl0", "-800", "dz/dt = inf"),
    ], ids=["k", "gamma", "x0", "ctrl0"])
    def test_non_finite_initial_rhs_names_the_rate(self, tmp_path, capsys, section, key, value,
                                                   rates, method):
        # the rhs at the initial state holds a nan or inf, which LSODA would
        # report only as "Illegal input"; the error names each such rate
        entries = {(section, key): value}
        if method:
            entries["sim", "method"] = method
        path = edited("fig1_dads", tmp_path, entries)
        assert main(["simulate", path, "--t-end", "1", "--out", str(tmp_path)]) == EXIT_DIVERGENCE
        assert capsys.readouterr().err == (
            "error: trajectory diverged; last finite time t = 0 (the rhs at the initial state "
            f"is not finite: {rates})\n")

    def test_nan_majorant_exits_4(self, tmp_path, monkeypatch):
        # no scenario value makes a majorant nan; replace every drift
        # majorant r of the shipped pack with one
        def nan_r(arity):
            return SmoothMap(arity, lambda *a: math.nan, name="nan_r")

        def nan_pack(gains):
            pack = majorants(gains)
            return replace(pack, base_r=nan_r(1), levels=tuple(
                replace(lv, r=nan_r(lv.r.arity)) for lv in pack.levels))

        majorants = cli.wingrock_majorants
        monkeypatch.setattr(cli, "wingrock_majorants", nan_pack)
        path = scen("synth_wingrock.scenario")
        assert main(["synthesize", path, "--out", str(tmp_path)]) == EXIT_MAJORANT


class TestRejectedInputs:
    """Inputs that no command can use exit 2 with one error line."""

    @pytest.mark.parametrize("command, names", [
        ("simulate", ["fig4_sigma0"]),
        ("synthesize", ["synth_wingrock"]),
        ("verify", ["ineq34"]),
        ("compare", ["fig4_sigma0", "fig4_sigma04"]),
    ])
    def test_negative_seed(self, tmp_path, capsys, command, names):
        # numpy's generators reject a negative seed with a ValueError
        paths = [scen(f"{name}.scenario") for name in names]
        code = main([command, *paths, "--seed", "-1", "--out", str(tmp_path)])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.endswith("error: argument --seed: must be >= 0, got -1\n")
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_synthesized_controller_type_is_unknown(self, tmp_path, capsys):
        # its feedback is about -3.66e44 near the origin; no run got past t = 0
        bad = tmp_path / "synthesized.scenario"
        bad.write_text(
            "[system]\nname = wingrock\n[controller]\ntype = dads-synthesized\n"
            "[sim]\nmethod = radau\nx0 = 0.01, 0.01, 0.01\n"
        )
        code = main(["simulate", str(bad), "--t-end", "0.01", "--out", str(tmp_path)])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: [controller] type 'dads-synthesized' is not one of dads-wingrock, sigma-mod\n")

    @pytest.mark.parametrize("command, name, key, value", [
        ("simulate", "fig4_sigma0", "eps", "nan"),
        ("simulate", "fig4_sigma0", "gama", "5"),
        ("verify", "ineq34", "sigma", "0.4"),
        ("verify", "ineq38", "eps", "0.01"),
        ("compare", "fig4_dads", "sigma", "0"),
    ])
    def test_unread_controller_key(self, tmp_path, capsys, command, name, key, value):
        # such a key ran silently with the default it meant to replace
        paths = [edited(name, tmp_path, {("controller", key): value})]
        if command == "compare":
            paths.append(scen("fig4_sigma0.scenario"))
        assert main([command, *paths, "--t-end", "0.01", "--out", str(tmp_path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        ctype = load_scenario(scen(f"{name}.scenario")).get("controller", "type")
        if key in cli.SCENARIO_KEYS["controller"]:  # a key of the other type
            reads = ", ".join(("type", *cli._CONTROLLER_FIELDS[ctype][1]))
            assert err == (f"error: [controller] type {ctype!r} does not read {key}; "
                           f"it reads {reads}\n")
        else:  # a key of no type, which the scenario table rejects at load
            assert err == (f"error: [controller] does not read {key}; "
                           "it reads type, c, k, gamma, eps, sigma\n")
        assert len(err.splitlines()) == 1


@pytest.fixture
def no_work(monkeypatch):
    """Make every solve, synthesis and sampled check fail the test if it runs."""
    def work(*args, **kwargs):
        raise AssertionError("the command ran before it rejected its input")

    monkeypatch.setattr(cli, "simulate", work)
    monkeypatch.setattr(cli, "synthesize", work)
    monkeypatch.setattr(ver, "check_dissipation", work)


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    return err


class TestScenarioKeys:
    """Every section and key is in `cli.SCENARIO_KEYS`; any other one, and
    text that fails its key's conversion, exits 2 before any work."""

    @pytest.mark.parametrize("command, name, section, key, typo", [
        ("simulate", "fig4_sigma0", "system", "name", "nmae"),
        ("simulate", "fig4_sigma0", "controller", "sigma", "sigam"),
        ("simulate", "fig1_dads", "sim", "t_end", "t_ned"),
        ("simulate", "fig4_sigma0", "disturbance", "amplitudes", "amplitude"),
        ("verify", "ineq38", "parameter", "value", "valeu"),
        ("verify", "ineq34", "checks", "names", "name"),
        ("synthesize", "synth_wingrock", "synthesis", "gamma", "gamm"),
    ])
    def test_misspelt_key(self, tmp_path, capsys, no_work, command, name, section, key, typo):
        # each ran with the key's default: `amplitude` simulated fig4_sigma0 with d = 0
        text = Path(scen(f"{name}.scenario")).read_text()
        assert f"\n{key} = " in text
        path = tmp_path / f"{name}.scenario"
        path.write_text(text.replace(f"\n{key} = ", f"\n{typo} = "))
        out = tmp_path / "out"
        assert main([command, str(path), "--out", str(out)]) == EXIT_PARSE
        assert _one_error_line(capsys) == (
            f"error: [{section}] does not read {typo}; "
            f"it reads {', '.join(cli.SCENARIO_KEYS[section])}\n")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nk = 1e9\n",  # configparser copied it into every section
        "[output]\ndir = somewhere\n",
        "[Checks]\nn_samples = 5\n",
    ])
    def test_unknown_section(self, tmp_path, capsys, no_work, text):
        path = tmp_path / "ineq34.scenario"
        path.write_text(text + Path(scen("ineq34.scenario")).read_text())
        out = tmp_path / "out"
        assert main(["verify", str(path), "--out", str(out)]) == EXIT_PARSE
        section = text[1:text.index("]")]
        assert _one_error_line(capsys) == (
            f"error: section {section!r} is not one of system, controller, sim, disturbance, "
            "parameter, checks, synthesis\n")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("value", ["1%, 0, 0", "%(foo)s"])
    def test_percent_is_text(self, tmp_path, capsys, value):
        # configparser's interpolation raised a traceback, exit 1
        path = edited("fig4_sigma0", tmp_path, {("sim", "x0"): value})
        assert main(["simulate", path, "--out", str(tmp_path / "out")]) == EXIT_PARSE
        assert _one_error_line(capsys) == (
            f"error: [sim] x0: not a list of finite numbers: {value!r}\n")

    @pytest.mark.parametrize("command, names", [
        ("simulate", ["fig4_sigma0"]),
        ("synthesize", ["synth_wingrock"]),
        ("verify", ["ineq34"]),
        ("compare", ["fig4_sigma0", "fig4_sigma04"]),
    ])
    @pytest.mark.parametrize("under", [False, True])
    def test_out_that_is_a_file(self, tmp_path, capsys, no_work, command, names, under):
        # os.makedirs raised FileExistsError (NotADirectoryError under the
        # file) after all the work was done
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "sub" if under else taken
        paths = [scen(f"{name}.scenario") for name in names]
        assert main([command, *paths, "--out", str(out)]) == EXIT_PARSE
        assert _one_error_line(capsys).startswith(f"error: --out {out}: ")
        assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept\n"

    @pytest.mark.parametrize("name, names, message", [
        ("ineq34", "dissipation-dads, bogus",
         "[checks] names entry 'bogus' is not one of dissipation-dads, trajectory, "
         "dissipation-sigma, sigma-tradeoff, synthesis-certificates\n"),
        ("fig1_dads", "trajectory, dissipation-sigma", "check 'dissipation-sigma' evaluates"),
    ])
    def test_check_names_are_read_before_any_check(self, tmp_path, capsys, no_work,
                                                    name, names, message):
        # each ran the checks before the bad name first: 1,000 samples, or
        # the 10 s stiff solve
        path = edited(name, tmp_path, {("checks", "names"): names})
        assert main(["verify", path, "--out", str(tmp_path / "out")]) == EXIT_PARSE
        assert _one_error_line(capsys).startswith(f"error: {message}")

    @pytest.mark.parametrize("what, table, entries, name", [
        ("section", cli.SCENARIO_KEYS, {("output", "dir"): "somewhere"}, "output"),
        ("[system] name", BUILTINS, {("system", "name"): "bogus"}, "bogus"),
        ("[controller] type", cli._CONTROLLER_FIELDS, {("controller", "type"): "bogus"}, "bogus"),
        ("[checks] names entry", cli.CHECKS, {("checks", "names"): "bogus"}, "bogus"),
    ])
    def test_unknown_names_share_one_message(self, tmp_path, capsys, no_work,
                                             what, table, entries, name):
        # each kind of name had a message of its own, and a controller type's listed no types
        path = edited("ineq34", tmp_path, entries)
        out = tmp_path / "out"
        assert main(["verify", path, "--out", str(out)]) == EXIT_PARSE
        assert _one_error_line(capsys) == (
            f"error: {what} {name!r} is not one of {', '.join(table)}\n")
        assert not any(out.iterdir())

    def test_readme_table_names_every_key(self):
        readme = Path(os.path.join(SCEN, "..", "README.md")).read_text()
        section = readme[readme.index("### Scenario files"):]
        section = section[:section.index("\n## ")]
        rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", section, re.MULTILINE)
        assert sorted(rows) == sorted(
            (sec, key) for sec, keys in cli.SCENARIO_KEYS.items() for key in keys)


class TestBuiltBeforeWork:
    """`build` applies every rule of the whole scenario before a command
    runs anything, whichever sections that command reads itself."""

    @pytest.mark.parametrize("command, name, entries, message", [
        # the 1,000-sample dissipation check ran first
        ("verify", "fig1_dads", {("checks", "names"): "dissipation-dads, trajectory",
                                 ("sim", "x0"): "1, 2"},
         "[sim] x0 has 2 entries, expected 3"),
        # synthesize never built the [controller] law, and exited 0
        ("synthesize", "synth_wingrock", {("controller", "type"): "bogus"},
         "[controller] type 'bogus' is not one of dads-wingrock, sigma-mod"),
        ("synthesize", "synth_wingrock", {("sim", "x0"): "1, 2"},
         "[sim] x0 has 2 entries, expected 3"),
        # a tolerance the file set: the mutation probe passed at tol = 1e300
        # with worst margin -6.3e32, and exited 0
        ("verify", "ineq34", {("checks", "corrupt_controller"): "true",
                              ("checks", "tol"): "1e300"},
         "[checks] does not read tol; it reads names, corrupt_controller"),
        # the message was printed in quotes, as the repr of a KeyError
        ("verify", "ineq34", {("system", "name"): "bogus"},
         "[system] name 'bogus' is not one of wingrock"),
        # a key that no named check reads: neither the certificates nor the
        # trajectory check ran a mutation probe, and each exited 0
        ("verify", "synth_wingrock", {("checks", "corrupt_controller"): "yes"},
         "[checks] names = synthesis-certificates does not read corrupt_controller; "
         "it reads names"),
        ("verify", "fig1_dads", {("checks", "corrupt_controller"): "yes"},
         "[checks] names = trajectory does not read corrupt_controller; it reads names"),
        # the check ran twice, printed its line twice and wrote two CSV rows
        ("verify", "ineq34", {("checks", "names"): "dissipation-dads, dissipation-dads"},
         "[checks] names lists 'dissipation-dads' twice"),
        ("verify", "fig1_dads", {("checks", "names"): "trajectory, trajectory"},
         "[checks] names lists 'trajectory' twice"),
        # the [disturbance] rules: a file of the older format, whose kind
        # line the numbers now say, half a signal, and a decay without one
        ("simulate", "fig1_dads", {("disturbance", "kind"): "zero"},
         "[disturbance] does not read kind; it reads amplitudes, frequencies, decay"),
        ("simulate", "fig1_dads", {("disturbance", "amplitudes"): "20, 10"},
         "[disturbance] disturbance needs 2 amplitudes/frequencies, got 2/0"),
        ("simulate", "vanishing", {("disturbance", "amplitudes"): None,
                                   ("disturbance", "frequencies"): None},
         "[disturbance] a zero disturbance has no decay, got 1.0"),
        ("synthesize", "synth_wingrock", {("disturbance", "decay"): "1"},
         "[disturbance] a zero disturbance has no decay, got 1.0"),
        # a plant the file does not name, with or without its section
        ("simulate", "fig1_dads", {("system", None): None},
         "[system] name None is not one of wingrock"),
        ("verify", "ineq34", {("system", "name"): None},
         "[system] name None is not one of wingrock"),
    ])
    def test_exit_2(self, tmp_path, capsys, no_work, command, name, entries, message):
        out = tmp_path / "out"
        assert main([command, edited(name, tmp_path, entries), "--out", str(out)]) == EXIT_PARSE
        assert _one_error_line(capsys) == f"error: {message}\n"
        assert not any(out.iterdir())

    def test_compare_builds_every_scenario_first(self, tmp_path, capsys, no_work):
        # the two 10 s runs of the first scenarios came before the error
        paths = [scen("fig4_dads.scenario"), scen("fig4_sigma0.scenario"),
                 edited("fig4_sigma04", tmp_path, {("sim", "x0"): "1, 2"})]
        out = tmp_path / "out"
        assert main(["compare", *paths, "--out", str(out)]) == EXIT_PARSE
        assert _one_error_line(capsys) == "error: [sim] x0 has 2 entries, expected 3\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command, names, checks, user", [
        # each integrated the zero state, an equilibrium, for 10 s and exited 0
        ("simulate", ["ineq34"], None, "simulate"),
        ("compare", ["ineq34", "ineq38"], None, "compare"),
        ("compare", ["fig4_dads", "ineq34"], None, "compare"),
        ("verify", ["ineq34"], "dissipation-dads, trajectory", "check 'trajectory'"),
        ("verify", ["ineq38"], "dissipation-sigma, sigma-tradeoff", "check 'sigma-tradeoff'"),
    ])
    def test_a_simulation_needs_a_sim_section(self, tmp_path, capsys, no_work,
                                              command, names, checks, user):
        paths = [edited(name, tmp_path, {("checks", "names"): checks}) if checks
                 else scen(f"{name}.scenario") for name in names]
        out = tmp_path / "out"
        assert main([command, *paths, "--out", str(out)]) == EXIT_PARSE
        path = next(p for p in paths if "[sim]" not in Path(p).read_text())
        assert _one_error_line(capsys) == (
            f"error: {user}: {path} has no [sim] section to simulate the loop with\n")
        assert not any(out.iterdir())


class TestVerifyFuzz:
    """Bounded fuzz of [controller] numbers through `dads verify`, each
    sampled check at the count that `dads.verify` states."""

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        sigma_mod=st.booleans(),
        # keys left out keep the scenario's value or the controller default;
        # st.floats() draws nan, +-inf, 0 and negatives among its values
        overrides=st.dictionaries(
            st.sampled_from(["c", "k", "gamma", "eps", "sigma"]),
            st.floats(allow_nan=True, allow_infinity=True),
            max_size=5,
        ),
    )
    def test_exit_codes(self, tmp_path, sigma_mod, overrides):
        # each law reads the leak or the deadzone level, not both
        unread = "eps" if sigma_mod else "sigma"
        entries = {("controller", k): repr(v) for k, v in overrides.items()}
        path = edited("ineq38" if sigma_mod else "ineq34", tmp_path, entries)
        code = main(["verify", path, "--out", str(tmp_path)])
        event(f"exit {code}")
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_CHECK_FAILED)
        if unread in overrides or not all(math.isfinite(v) for v in overrides.values()):
            assert code == EXIT_PARSE


def _numbers():
    """Finite numbers: plain ones, and zero, negatives and 1e308 as often."""
    return st.one_of(st.sampled_from([0.0, -1.0, 1e308, -1e308]), st.floats(-1e3, 1e3))


@st.composite
def _horizons(draw):
    """--t-end in [0.01, 3] and a --dt that makes at most 300 steps of it."""
    t_end = draw(st.floats(0.01, 3.0))
    return t_end, draw(st.floats(t_end / 300.0, t_end))


class TestDisturbanceFuzz:
    """Bounded fuzz of the [disturbance] section through `dads simulate`.

    A section of finite numbers, with at most one entry replaced by a
    malformed text: nan, inf, a wrong length (the wing-rock plant takes two
    entries) or not a number.  Its keys are the three it reads, the decay
    alone, or any drawn subset of those and the `kind` line of an older file.
    """

    # the malformed texts that convert to a vector, by its length
    VECTOR_LENGTHS = {"": 0, "1, 2, 3": 3}

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        name=st.sampled_from(["fig4_sigma0", "vanishing"]),
        kind=st.sampled_from(["zero", "sinusoid-bank", "vanishing"]),
        # a decay alone, which a zero disturbance may not have, is its own
        # alternative: as one of the 16 subsets it was rarely drawn
        present=st.one_of(st.none(), st.just({"decay"}), st.sets(
            st.sampled_from(["kind", "amplitudes", "frequencies", "decay"]))),
        amplitudes=st.lists(_numbers(), min_size=2, max_size=2),
        frequencies=st.lists(_numbers(), min_size=2, max_size=2),
        decay=_numbers(),
        malformed=st.one_of(st.none(), st.tuples(
            st.sampled_from(["kind", "amplitudes", "frequencies", "decay"]),
            st.sampled_from(["nan", "-inf", "inf, 1", "1, 2, 3", "", "x"]))),
        horizon=_horizons(),
    )
    # with the alternative alone, 3 of 10 seeds drew it only with a decay <= 0
    @example(name="vanishing", kind="zero", present={"decay"}, amplitudes=[1.0, 1.0],
             frequencies=[1.0, 1.0], decay=1.0, malformed=None, horizon=(0.01, 0.01))
    def test_exit_codes(self, tmp_path, name, kind, present, amplitudes, frequencies, decay,
                        malformed, horizon):
        section = {"kind": kind, "amplitudes": ", ".join(map(repr, amplitudes)),
                   "frequencies": ", ".join(map(repr, frequencies)), "decay": repr(decay)}
        if present is None:
            present = {"amplitudes", "frequencies", "decay"}
        if malformed:  # a malformed entry is written
            section[malformed[0]] = malformed[1]
            present = present | {malformed[0]}

        def entries(key):  # how many a vector key gives; None if it does not convert
            if key not in present:
                return 0
            if malformed and malformed[0] == key:
                return self.VECTOR_LENGTHS.get(malformed[1])
            return 2
        a, w = entries("amplitudes"), entries("frequencies")
        # a key absent from the section is removed from the shipped file
        path = edited(name, tmp_path, {("disturbance", k): v if k in present else None
                                       for k, v in section.items()})
        t_end, dt = horizon
        code = main(["simulate", path, "--t-end", repr(t_end), "--dt", repr(dt),
                     "--out", str(tmp_path)])
        event(f"exit {code}")
        # input errors: the kind line, a vector that does not convert, half a
        # signal or one of the wrong length, any malformed decay (nan and
        # -inf convert and fail the range), a decay that grows, and a nonzero
        # decay without amplitudes
        rejected = "kind" in present or None in (a, w) or a != w or a not in (0, 2) \
            or ("decay" in present and (malformed is not None and malformed[0] == "decay"
                                        or decay < 0 or (a == 0 and decay != 0)))
        assert code in ((EXIT_PARSE,) if rejected else (EXIT_OK, EXIT_DIVERGENCE))
        if code == EXIT_OK:  # a run that ends normally logs finite states
            _, data = read_csv(tmp_path / f"{name}.csv")
            assert np.all(np.isfinite(data[:, 1:-3]))  # the states x and ctrl


SHIPPED = sorted(os.path.splitext(f)[0] for f in os.listdir(SCEN) if f.endswith(".scenario"))
KEY_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789_"


@st.composite
def _unknown_keys(draw):
    """A shipped scenario, one of its sections and a key that section does not
    read: one edit away from one of its keys, or any identifier."""
    name = draw(st.sampled_from(SHIPPED))
    section = draw(st.sampled_from(sorted(load_scenario(scen(f"{name}.scenario")).sections)))
    keys = cli.SCENARIO_KEYS[section]
    real = draw(st.sampled_from(sorted(keys)))
    i = draw(st.integers(0, len(real) - 1))
    c = draw(st.sampled_from(KEY_ALPHABET))
    near = draw(st.sampled_from([
        real[:i] + real[i + 1:],  # a letter dropped
        real[:i] + c + real[i:],  # one added
        real[:i] + c + real[i + 1:],  # one replaced
        real[:i] + real[i + 1:i + 2] + real[i] + real[i + 2:],  # two swapped
    ]))
    unknown = draw(st.from_regex(r"[a-z_][a-z0-9_]{0,15}", fullmatch=True))
    key = draw(st.sampled_from([near, unknown]))
    assume(key and key not in keys)
    return name, section, key


def _compare(name, path):
    """compare on the shipped fig1 (or else fig4) triple, with `path` in the
    slot of the shipped scenario `name`'s law, so that the cross-scenario
    rules apply to it."""
    law = load_scenario(scen(f"{name}.scenario")).sections.get("controller", {})
    slot = ("dads" if law.get("type", "dads-wingrock") == "dads-wingrock"
            else "sigma0" if law.get("sigma") == 0.0 else "sigma04")
    family = "fig1" if name.startswith("fig1") else "fig4"
    return ["compare", *(path if s == slot else scen(f"{family}_{s}.scenario")
                         for s in ("dads", "sigma0", "sigma04"))]


def _commands(name, path):
    """Every command that takes the shipped scenario `name`, on `path`."""
    sections = load_scenario(scen(f"{name}.scenario")).sections
    commands = [["simulate", path], _compare(name, path)] if "sim" in sections else []
    commands += [["verify", path]] if "checks" in sections else []
    return commands + ([["synthesize", path]] if "synthesis" in sections else [])


def _documented_exit(capsys, argv):
    """Run one command in process within 5 s: a documented exit code, one
    error line for 2, 3 and 4, and nothing on stderr otherwise."""
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 5.0
    event(f"{argv[0]} exit {code}")
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_DIVERGENCE, EXIT_MAJORANT, EXIT_CHECK_FAILED)
    err = capsys.readouterr().err
    if code in (EXIT_PARSE, EXIT_DIVERGENCE, EXIT_MAJORANT):
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    else:
        assert err == ""


class TestKeyFuzz:
    """Bounded fuzz of key names: a key a section does not read, added to a
    shipped scenario, makes every command that takes the scenario exit 2
    before any work, with one error line and nothing written."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn=_unknown_keys())
    def test_exit_2(self, tmp_path, capsys, no_work, drawn):
        name, section, key = drawn
        path = edited(name, tmp_path, {(section, key): "1"})
        for command in _commands(name, path):
            out = tempfile.mkdtemp(dir=tmp_path)
            code = main([*command, "--t-end", "0.05", "--out", out])
            assert code == EXIT_PARSE
            assert _one_error_line(capsys).startswith(f"error: [{section}] does not read {key}; ")
            assert os.listdir(out) == []


# value texts: usable ones, the extremes of each range, and text that is not
# a number of the key's kind
_DT = ("1e-4", "1e-3", "0.05", "1e-300", "0", "-1e-4", "nan", "inf", "1e300", "x", "")
_T_END = ("0.05", "0.01", "1e-5", "0", "-1", "nan", "inf", "1e300", "x")
_STRIDE = ("1", "7", "100", "10000000000", "0", "-1", "1.5", "x")
_GAIN = ("0.5", "2", "20", "5", "1e4", "0", "-1", "1e-300", "1e308", "nan", "inf", "x")
# a vector of 0 to 5 numbers (the plant takes 3 states and 4 parameters, the
# laws 1 or 4 states), or text that is not one
_VECTOR_TEXT = st.one_of(st.lists(_numbers(), max_size=5).map(lambda v: ", ".join(map(repr, v))),
                         st.sampled_from(["nan, 0, 0", "1, x, 2", "1; 2; 3"]))
_VALUES = {
    ("sim", "dt"): st.sampled_from(_DT),
    ("sim", "log_stride"): st.sampled_from(_STRIDE),
    ("sim", "x0"): _VECTOR_TEXT,
    ("sim", "ctrl0"): _VECTOR_TEXT,
    ("sim", "output_indices"): st.one_of(
        st.lists(st.integers(-1, 3), max_size=3).map(lambda v: ", ".join(map(str, v))),
        st.just("0.5")),
    ("parameter", "value"): _VECTOR_TEXT,
    **{("synthesis", key): st.sampled_from(_GAIN) for key in cli.SCENARIO_KEYS["synthesis"]},
}


def _too_long(dt, t_end):
    """Whether a run of these texts would be accepted and take more than
    10^4 steps or 0.05 time units."""
    try:
        SimConfig(dt=float(dt), t_end=float(t_end))
    except ValueError:  # not a number, or rejected before any step
        return False
    return float(t_end) > 0.05 or float(t_end) / float(dt) > 1e4


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@st.composite
def _value_edits(draw):
    """A shipped scenario, --t-end (or none) and up to three drawn values of
    [sim], [parameter] and [synthesis]; without --t-end, [sim] t_end is drawn."""
    name = draw(st.sampled_from(SHIPPED))
    flag = draw(st.sampled_from([None, "0.05", "0.01", "1e-3"]))
    keys = draw(st.lists(st.sampled_from(sorted(_VALUES)), max_size=3, unique=True))
    edits = {key: draw(_VALUES[key]) for key in keys}
    if flag is None:
        edits[("sim", "t_end")] = draw(st.sampled_from(_T_END))
    sim = load_scenario(scen(f"{name}.scenario")).sections.get("sim", {})
    dt = edits.get(("sim", "dt"), repr(sim.get("dt", SimConfig.dt)))
    assume(not _too_long(dt, flag or edits[("sim", "t_end")]))
    return name, flag, edits


class TestValueFuzz:
    """Bounded fuzz of [sim], [parameter] value and [synthesis] values through
    every command that takes the scenario: a documented exit code, one error
    line for 2, 3 and 4, no traceback, and each run short."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn=_value_edits())
    def test_exit_codes(self, tmp_path, capsys, drawn):
        name, flag, edits = drawn
        path = edited(name, tmp_path, edits)
        for command in _commands(name, path):
            t_end = flag
            if t_end is None and command[0] == "compare":
                # the drawn horizon for all three files of the triple (else
                # they differ and compare exits 2 before any solve); a text
                # float() rejects stays in the edited file, whose load exits 2
                t_end = edits[("sim", "t_end")]
                t_end = t_end if _is_float(t_end) else None
            _documented_exit(capsys, [*command, *(["--t-end", t_end] if t_end else []),
                                      "--out", tempfile.mkdtemp(dir=tmp_path)])


def _mostly(usable, other):
    """One of the texts, a usable one three times as often as another."""
    return st.sampled_from(usable * (3 * len(other)) + other * len(usable))


# values of the [system], [controller] and [checks] choices: usable ones, and
# names of nothing or text not of the key's kind; the usable check names are
# the sampled checks, the DADS one of which reads corrupt_controller, and the
# leak is a number only the sigma-mod law reads
_SECTION_VALUES = {
    ("system", "name"): _mostly(["wingrock"], ["WingRock", ""]),
    ("controller", "type"): _mostly(["dads-wingrock", "sigma-mod"],
                                    ["dads-synthesized", "bogus"]),
    ("checks", "names"): _mostly(
        ["dissipation-dads", "dissipation-sigma", "dissipation-dads, trajectory",
         "dissipation-sigma, sigma-tradeoff"],
        ["", "trajectory", "sigma-tradeoff", "synthesis-certificates", "bogus"]),
    ("controller", "sigma"): _mostly(["0", "0.4"], ["-1", "nan", "x"]),
    ("checks", "corrupt_controller"): _mostly(["yes", "no"], ["maybe"]),
}


@st.composite
def _section_edits(draw):
    """A shipped scenario and drawn values of two or three keys of
    _SECTION_VALUES, in at least two sections."""
    name = draw(st.sampled_from(SHIPPED))
    keys = draw(st.lists(st.sampled_from(sorted(_SECTION_VALUES)), min_size=2, max_size=3,
                         unique=True))
    assume(len({section for section, _ in keys}) >= 2)
    return name, {key: draw(_SECTION_VALUES[key]) for key in keys}


class TestSectionFuzz:
    """Bounded fuzz of several sections at once: the system, the controller
    type and leak, and the [checks] choices of a shipped scenario, through all
    four commands over a short horizon, in process."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn=_section_edits())
    def test_exit_codes(self, tmp_path, capsys, drawn):
        name, edits = drawn
        path = edited(name, tmp_path, edits)
        for command in (["simulate", path], _compare(name, path), ["verify", path],
                        ["synthesize", path]):
            _documented_exit(capsys, [*command, "--t-end", "0.05",
                                      "--out", tempfile.mkdtemp(dir=tmp_path)])


class TestNoShippedRk4:
    """No command on a shipped scenario reaches the RK4 loop: every shipped
    closed loop runs the stiff method, named or by default."""

    def test_every_command_runs_without_rk4(self, tmp_path, capsys, monkeypatch):
        reached = []

        def rk4(*args):
            reached.append(args)
            raise AssertionError("the RK4 loop was reached")

        monkeypatch.setattr(dads.simulate, "_integrate_rk4", rk4)
        # simulate takes every scenario; the check-only ones have no [sim]
        commands = [["simulate", scen(f"{name}.scenario")] for name in SHIPPED]
        commands += [["verify", scen(f"{name}.scenario")] for name in SHIPPED
                     if "checks" in load_scenario(scen(f"{name}.scenario")).sections]
        commands += [["synthesize", scen("synth_wingrock.scenario")]]
        commands += [["compare", *(scen(f"{family}_{law}.scenario")
                                   for law in ("dads", "sigma0", "sigma04"))]
                     for family in ("fig1", "fig4")]
        commands += [["compare", scen("ineq34.scenario"), scen("ineq38.scenario")]]
        codes = {}
        for command in commands:
            name = os.path.basename(command[1]).removesuffix(".scenario")
            codes[command[0], name] = main([*command, "--t-end", "0.05",
                                            "--out", tempfile.mkdtemp(dir=tmp_path)])
        assert reached == []
        # the exit codes these commands give unstubbed: over 0.05 s the DADS
        # tail bounds fail, and so does the drift contrast of each triple (the
        # DADS gain has not plateaued); a scenario without [sim] is not simulated
        failing = {("verify", "fig1_dads"), ("verify", "fig4_dads"), ("verify", "vanishing"),
                   ("compare", "fig1_dads"), ("compare", "fig4_dads")}
        unsimulated = {("simulate", "ineq34"), ("simulate", "ineq38"),
                       ("simulate", "synth_wingrock"), ("compare", "ineq34")}
        assert len(codes) == 24
        assert codes == {key: EXIT_CHECK_FAILED if key in failing else
                         EXIT_PARSE if key in unsimulated else EXIT_OK for key in codes}


class TestShippedScenariosPass:
    """Every shipped scenario passes its own checks at its own horizon."""

    def test_verify_exits_zero(self, tmp_path, capsys):
        names = [name for name in SHIPPED
                 if "checks" in load_scenario(scen(f"{name}.scenario")).sections]
        assert len(names) == 10
        codes = {name: main(["verify", scen(f"{name}.scenario"), "--out", str(tmp_path)])
                 for name in names}
        assert codes == dict.fromkeys(names, EXIT_OK), capsys.readouterr().out
        # the sigma-mod W envelope margins and where they are least
        # (integrator tolerance: rtol 1e-6)
        for name, margin, t in [("fig1_sigma0", 50.069807786070676, 0.01),
                                ("fig1_sigma04", 10.157746437520448, 8.95),
                                ("fig4_sigma0", 53.844555125707998, 0.01),
                                ("fig4_sigma04", 53.629929849556561, 0.01)]:
            with open(tmp_path / f"{name}.checks.csv") as fh:
                (row,) = csv.DictReader(fh)
            assert row["name"] == "sigma-mod W envelope"
            assert float(row["worst_margin"]) == pytest.approx(margin, rel=1e-6)
            assert float(row["witness"].split(";")[0]) == t

    def test_fig4_compare_exits_zero(self, tmp_path, capsys):
        paths = [scen(f"fig4_{law}.scenario") for law in ("dads", "sigma0", "sigma04")]
        assert main(["compare", *paths, "--t-end", "2", "--out", str(tmp_path)]) == EXIT_OK
        assert "[PASS] drift contrast" in capsys.readouterr().out


class TestSynthesizeCommand:
    def test_wingrock_synthesis_ok(self, tmp_path, capsys):
        code = main(["synthesize", scen("synth_wingrock.scenario"),
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "stage 3" in out
        assert (tmp_path / "synth_wingrock.report.txt").exists()

    def test_undersized_majorant_exits_4(self, tmp_path, capsys):
        # the shipped majorants do not bound the stage growth of these gains
        for key, value in (("gamma", "1e4"), ("c", "5")):
            path = edited("synth_wingrock", tmp_path, {("synthesis", key): value})
            assert main(["synthesize", path, "--out", str(tmp_path)]) == EXIT_MAJORANT
            assert _one_error_line(capsys).startswith("error: majorant 'R (stage growth)' ")


def _closed_stdout_run(argv, unbuffered):
    """Run `python -m dads.cli argv` with its stdout closed before it prints
    anything: (exit code, stderr bytes)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen([sys.executable, "-m", "dads.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        return proc.wait(timeout=120), err


class TestClosedStdout:
    """A reader that closes stdout ends the output, not the command: the
    files are written, stderr stays empty and the exit code is the command's."""

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("command, name, code, written", [
        ("synthesize", "synth_wingrock", EXIT_OK, "synth_wingrock.report.txt"),
        # the mutation probe's failed check
        ("verify", "ineq34", EXIT_CHECK_FAILED, "ineq34.checks.csv"),
    ])
    def test_exit_code_is_the_commands(self, tmp_path, unbuffered, command, name, code,
                                       written):
        # print raised BrokenPipeError: a traceback and exit 1 when unbuffered,
        # "Exception ignored" and exit 120 at the final flush when buffered
        path = edited(name, tmp_path, {("checks", "corrupt_controller"): "true"}
                      if command == "verify" else {})
        out = tmp_path / "out"
        assert _closed_stdout_run([command, path, "--out", str(out)], unbuffered) == (code, b"")
        assert [p.name for p in out.iterdir()] == [written]

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help(self, unbuffered, argv):
        # "Exception ignored ... BrokenPipeError" and exit 120 when buffered
        assert _closed_stdout_run(argv, unbuffered) == (EXIT_OK, b"")


class TestPinnedMargins:
    """Seed-0 worst margins of the certificate checks, to the last bit.

    A refactor of the synthesis or the sampled checks that keeps these floats
    keeps the certificates byte-identical.  `verify synth_wingrock` runs the
    same synthesis and reports as `synthesize synth_wingrock`.
    """

    @pytest.mark.parametrize("name, expected", [
        ("ineq34", {"wingrock dissipation": 309556.3525262382}),
        ("ineq38", {"sigma-mod dissipation (leak=0.4)": 27.768993637238523}),
        ("synth_wingrock", {
            "stage 1 certificate": 1.716688547575939,
            "stage 2 certificate": 1209.2922235876483,
            "stage 3 certificate": 3.186570947238913e+45,
            "synthesized dissipation": 2.789723145695987e+43,
        }),
    ])
    def test_worst_margins(self, tmp_path, name, expected):
        code = main(["verify", scen(f"{name}.scenario"), "--seed", "0",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        with open(tmp_path / f"{name}.checks.csv") as fh:
            rows = list(csv.DictReader(fh))
        # the CSV writes each margin with 17 significant digits, which round-trip
        assert {r["name"]: float(r["worst_margin"]) for r in rows} == expected


class TestCompareCommand:
    def test_needs_two_scenarios(self):
        assert main(["compare", scen("fig1_dads.scenario")]) == EXIT_PARSE

    def test_two_sigma_scenarios(self, tmp_path, capsys):
        code = main([
            "compare", scen("fig1_sigma0.scenario"), scen("fig1_sigma04.scenario"),
            "--t-end", "0.5", "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "sigma-mod(0)" in out
        assert "sigma-mod(0.4)" in out
        assert (tmp_path / "compare.txt").exists()

    def test_reads_each_scenario_once(self, monkeypatch):
        loaded, drift = [], []

        def counting_load(path):
            loaded.append(path)
            return load_scenario(path)

        def contrast(*logs, expect_drift):
            drift.append(expect_drift)
            return check_drift_contrast(*logs, expect_drift=expect_drift)

        check_drift_contrast = ver.check_drift_contrast
        monkeypatch.setattr(cli, "load_scenario", counting_load)
        monkeypatch.setattr(ver, "check_drift_contrast", contrast)
        paths = [scen(f"fig4_{s}.scenario") for s in ("dads", "sigma0", "sigma04")]
        # over 0.1 s the DADS gain has not plateaued: the contrast fails
        assert main(["compare", *paths, "--t-end", "0.1"]) == EXIT_CHECK_FAILED
        assert loaded == paths
        # the persistent disturbance is read from those parses
        assert drift == [True]

    def test_drift_is_expected_of_the_sigma0_scenario_alone(self, capsys):
        # the persistent disturbance of fig4_sigma04, outside the contrast,
        # demanded drift of the undisturbed fig1_sigma0: "[FAIL] drift
        # contrast: worst margin -0.0733637", exit 5
        paths = [scen(f"{n}.scenario")
                 for n in ("fig1_dads", "fig1_sigma0", "fig1_sigma04", "fig4_sigma04")]
        assert main(["compare", *paths, "--t-end", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS] drift contrast: worst margin 0.00416874 over 201 samples (tol 0)\n" in out
        assert "flagged: drift" not in out

    @staticmethod
    def _fig4_with(tmp_path, disturbance):
        """The fig4 triple with its [disturbance] entries set."""
        entries = {("disturbance", k): v for k, v in disturbance.items()}
        paths = []
        for s in ("dads", "sigma0", "sigma04"):
            os.makedirs(tmp_path / s, exist_ok=True)
            paths.append(edited(f"fig4_{s}", tmp_path / s, entries))
        return paths

    @pytest.mark.parametrize("disturbance, expected", [
        ({"decay": "0"}, True),
        ({"decay": "1.0"}, False),
        ({"decay": "1e-300"}, False),
        ({"amplitudes": None, "frequencies": None}, False),
    ])
    def test_drift_is_expected_of_a_persistent_disturbance(self, tmp_path, monkeypatch,
                                                           disturbance, expected):
        drift = []

        def contrast(*logs, expect_drift):
            drift.append(expect_drift)
            return check_drift_contrast(*logs, expect_drift=expect_drift)

        check_drift_contrast = ver.check_drift_contrast
        monkeypatch.setattr(ver, "check_drift_contrast", contrast)
        paths = self._fig4_with(tmp_path, disturbance)
        # over 0.1 s the DADS gain has not plateaued: the contrast fails
        assert main(["compare", *paths, "--t-end", "0.1"]) == EXIT_CHECK_FAILED
        assert drift == [expected]

    def test_decaying_disturbance_passes_the_contrast(self, tmp_path, capsys):
        # with drift expected of a decaying disturbance the report read
        # "[FAIL] drift contrast: worst margin -0.0823164"
        paths = self._fig4_with(tmp_path, {"decay": "1.0"})
        assert main(["compare", *paths, "--t-end", "4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS] drift contrast: worst margin 0.01 over 401 samples" in out
        assert "flagged: drift" not in out

    def test_horizon_mismatch_is_parse_error(self, tmp_path):
        a = tmp_path / "a.scenario"
        b = tmp_path / "b.scenario"
        def text(t_end):
            return (
                "[system]\nname = wingrock\n"
                "[controller]\ntype = sigma-mod\n"
                f"[sim]\ndt = 1e-3\nt_end = {t_end}\nmethod = rk4\nlog_stride = 10\n"
                "x0 = 1.0, -0.5, -18.0\n"
                "[parameter]\nvalue = 20, 20, 2, 1\n"
            )

        a.write_text(text(0.2))
        b.write_text(text(0.4))
        assert main(["compare", str(a), str(b)]) == EXIT_PARSE

    def test_horizon_mismatch_exits_before_any_solve(self, tmp_path, capsys, no_work):
        # both scenarios were simulated, the 10 s one in full, before the error
        short = edited("fig4_sigma0", tmp_path, {("sim", "t_end"): "0.2"})
        assert main(["compare", scen("fig4_sigma0.scenario"), short]) == EXIT_PARSE
        assert _one_error_line(capsys) == "error: scenarios have different horizons\n"

    @pytest.mark.parametrize("entries", [{("sim", "log_stride"): "50"},
                                         {("sim", "dt"): "2e-4"}])
    def test_drift_contrast_grid_mismatch_exits_before_any_solve(self, tmp_path, capsys,
                                                                 no_work, entries):
        # all three were simulated, then check_drift_contrast raised a
        # "logs must share the time grid" traceback
        paths = [scen("fig4_dads.scenario"), edited("fig4_sigma0", tmp_path, entries),
                 scen("fig4_sigma04.scenario")]
        out = tmp_path / "out"
        assert main(["compare", *paths, "--t-end", "2", "--out", str(out)]) == EXIT_PARSE
        assert _one_error_line(capsys) == (
            "error: the drift contrast's scenarios have different log grids\n")
        assert not any(out.iterdir())

    def test_mixed_grids_without_the_triple(self, tmp_path, capsys):
        # no drift contrast runs, so the grids need not agree
        paths = [scen("fig4_dads.scenario"),
                 edited("fig4_sigma0", tmp_path, {("sim", "log_stride"): "50"})]
        assert main(["compare", *paths, "--t-end", "0.05"]) == EXIT_OK
        assert "drift contrast" not in capsys.readouterr().out


class TestArgumentParsing:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_PARSE

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
