"""End-to-end tests for the command-line interface and scenario files."""

import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from dads.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DIVERGENCE,
    EXIT_MAJORANT,
    EXIT_OK,
    EXIT_PARSE,
    ScenarioError,
    build_gains,
    load_scenario,
    main,
    parse_scenario_text,
)
from dads.controllers import WingRockDadsController
from dads.simulate import TrajectoryLog

SCEN = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def scen(name):
    return os.path.join(SCEN, name)


class TestScenarioParsing:
    def test_load_benchmark_scenario(self):
        s = load_scenario(scen("fig1_dads.scenario"))
        assert s.get("system", "name") == "wingrock"
        assert s.getfloat("controller", "gamma") == 20.0
        assert s.getvector("sim", "x0") == [1.0, -0.5, -18.0]
        assert s.getint("sim", "log_stride") == 100

    def test_missing_file(self):
        with pytest.raises(ScenarioError):
            load_scenario("/nonexistent/file.scenario")

    def test_malformed_text(self):
        with pytest.raises(ScenarioError):
            parse_scenario_text("this is [not\nvalid ini ==")

    def test_round_trip(self):
        s = load_scenario(scen("fig4_sigma04.scenario"))
        back = parse_scenario_text(s.serialize())
        assert back.sections == s.sections

    def test_defaults(self):
        s = parse_scenario_text("[system]\nname = wingrock\n")
        assert s.getfloat("controller", "c", 0.5) == 0.5
        assert s.getvector("sim", "x0", [0.0]) == [0.0]

    def test_synthesis_gains_default_to_the_controller(self):
        # gamma and c set in neither [synthesis] nor [controller] take the
        # closed-form controller's defaults
        gains = build_gains(parse_scenario_text("[system]\nname = wingrock\n[synthesis]\nb = 1.0\n"))
        assert gains.Gamma == WingRockDadsController.Gamma
        assert gains.c == WingRockDadsController.c


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
        log = TrajectoryLog.from_csv(str(tmp_path / "fig1_dads.csv"))
        # output norm restricted to (x1, x2): |(1, -0.5)|
        assert log.Ynorm[0] == pytest.approx(1.1180339887498949, rel=1e-12)
        assert log.ctrl_names == ("z",)
        assert log.ctrl[0, 0] == pytest.approx(-2.302585092994046, rel=1e-12)

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

    @pytest.mark.parametrize("indices", ["0, 7", "-1", "0.5"])
    def test_bad_output_indices_is_parse_error(self, tmp_path, capsys, indices):
        text = open(scen("fig1_sigma0.scenario")).read()
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
            "[checks]\nnames = dissipation-dads\nn_samples = 200\n"
            "corrupt_controller = true\n"
        )
        assert main(["verify", str(bad), "--out", str(tmp_path)]) == EXIT_CHECK_FAILED

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

    def test_trajectory_check_on_sigma_mod_scenario(self, tmp_path, capsys):
        text = open(scen("fig4_sigma0.scenario")).read()
        bad = tmp_path / "traj_sigma.scenario"
        bad.write_text(text.replace("names = sigma-tradeoff", "names = trajectory"))
        assert main(["verify", str(bad), "--out", str(tmp_path)]) == EXIT_PARSE
        assert "deadzone-adapted" in capsys.readouterr().err

    @pytest.mark.parametrize("n_samples", ["0", "-3"])
    def test_no_samples_is_parse_error(self, tmp_path, capsys, n_samples):
        text = open(scen("ineq34.scenario")).read()
        bad = tmp_path / "nosamples.scenario"
        bad.write_text(text.replace("n_samples = 1000", f"n_samples = {n_samples}"))
        assert main(["verify", str(bad), "--out", str(tmp_path)]) == EXIT_PARSE
        assert "n_samples" in capsys.readouterr().err

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
    """A shipped scenario with {(section, key): value} entries set."""
    scn = load_scenario(scen(f"{name}.scenario"))
    for (section, key), value in entries.items():
        scn.sections.setdefault(section, {})[key] = value
    path = tmp_path / f"{name}.scenario"
    path.write_text(scn.serialize())
    return str(path)


class TestNonFiniteParameters:
    """A nan or inf design parameter or check tolerance is rejected before
    any check runs."""

    @pytest.mark.parametrize("command, name, section, key, value", [
        ("verify", "ineq34", "controller", "c", "nan"),
        ("verify", "ineq34", "controller", "gamma", "nan"),
        ("verify", "ineq34", "controller", "eps", "nan"),
        ("verify", "ineq34", "controller", "k", "nan"),
        ("verify", "ineq34", "controller", "k", "inf"),
        ("verify", "ineq38", "controller", "sigma", "nan"),
        ("verify", "ineq34", "checks", "tol", "inf"),
        ("verify", "ineq34", "checks", "tol", "nan"),
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

    def test_nan_majorant_exits_4(self, tmp_path):
        path = edited("synth_wingrock", tmp_path, {("synthesis", "override_base_r"): "nan"})
        assert main(["synthesize", path, "--out", str(tmp_path)]) == EXIT_MAJORANT


class TestVerifyFuzz:
    """Bounded fuzz of [controller] numbers through `dads verify`."""

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
        n_samples=st.integers(1, 20),
    )
    def test_exit_codes(self, tmp_path, sigma_mod, overrides, n_samples):
        # only the keys the controller reads: the leak or the deadzone level
        unread = "eps" if sigma_mod else "sigma"
        values = {k: v for k, v in overrides.items() if k != unread}
        entries = {("controller", k): repr(v) for k, v in values.items()}
        entries[("checks", "n_samples")] = str(n_samples)
        path = edited("ineq38" if sigma_mod else "ineq34", tmp_path, entries)
        code = main(["verify", path, "--out", str(tmp_path)])
        event(f"exit {code}")
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_CHECK_FAILED)
        if not all(math.isfinite(v) for v in values.values()):
            assert code == EXIT_PARSE


class TestSynthesizeCommand:
    def test_wingrock_synthesis_ok(self, tmp_path, capsys):
        code = main(["synthesize", scen("synth_wingrock.scenario"),
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "stage 3" in out
        assert (tmp_path / "synth_wingrock.report.txt").exists()

    def test_undersized_majorant_exits_4(self, tmp_path):
        bad = tmp_path / "badmaj.scenario"
        bad.write_text(
            "[system]\nname = wingrock\n"
            "[synthesis]\nb = 1.0\na = 2.0\nc = 0.5\ngamma = 20\neps = 0.01\n"
            "override_base_r = 0.001\n"
        )
        assert main(["synthesize", str(bad), "--out", str(tmp_path)]) == EXIT_MAJORANT


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


class TestArgumentParsing:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_PARSE

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
