import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetstress.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_PASS,
    build_config,
    emit_report,
    load_config_file,
    main,
    report_to_dict,
)
from jetstress.scenarios import (
    REGISTRY,
    Check,
    ConfigError,
    Report,
    ScenarioConfig,
    UnknownScenarioError,
    run_scenario,
)

# smallest configs that still reach each scenario's layers
TINY = {
    "stokes": {"d": 1, "count": 2},
    "exterior_jet_identity": {"d": 1, "m": 1, "count": 2, "samples": 3},
    "divergence_identity": {"d": 1, "m": 1, "count": 2, "samples": 3},
    "weak_strong": {"d": 1, "m": 1, "count": 2},
    "null_stress": {"d": 1, "m": 1, "count": 1, "samples": 3},
    "hyperelastic_1d_bar": {"samples": 3},
    "energy_variation": {"count": 2},
    "equilibrated_translations": {"d": 1, "m": 1},
    "maxwell_vacuum": {"samples": 3},
    "pform_leibniz": {"q": 2, "samples": 3},
}

# the step floor: h = eps/2 leaves the coordinate 1.0 in place, the next float moves it
STALLED_STEP = 2.0 ** -53
SMALLEST_STEP = math.nextafter(STALLED_STEP, 1.0)


def write_config(tmp_path, values: dict) -> str:
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(path)


def reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in report")


def strip_seconds(payload: dict) -> dict:
    out = dict(payload)
    out["checks"] = [{k: v for k, v in c.items() if k != "seconds"}
                     for c in payload["checks"]]
    return out


class TestConfig:
    def test_build_minimal(self):
        cfg = build_config({"scenario": "stokes"})
        assert cfg.scenario == "stokes"
        assert cfg.seed == 0

    def test_missing_scenario(self):
        with pytest.raises(ConfigError):
            build_config({"seed": 3})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_config({"scenario": "stokes", "bogus": 1})

    def test_tolerance_prefix_collected(self):
        cfg = build_config({"scenario": "stokes", "tolerance.residual_0": 1e-5})
        assert cfg.tolerances == {"residual_0": 1e-5}

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig("stokes", tolerances={"default": 0.0})

    @pytest.mark.parametrize("values", [
        {"tolerance.default": float("inf")},
        {"tolerance.default": float("nan")},
        {"tolerance.pair_00": -1e-6},
        {"count": -1},
        {"count": 0},
        {"samples": 0},
        {"samples": 1},
        {"fd_step": 0.3},
        {"fd_step": 0.25},
        {"fd_step": 0.0},
        {"fd_step": 0.5, "fd_order": 2},
        {"fd_step": STALLED_STEP},
        {"fd_step": 5e-324},
        {"seed": -1},
        {"d": 0},
        {"m": 0},
    ], ids=repr)
    def test_bad_config_rejected(self, values):
        with pytest.raises(ConfigError):
            build_config({"scenario": "divergence_identity", **values})

    @pytest.mark.parametrize("values", [
        {"count": 1, "samples": 2},
        {"fd_step": 0.2, "fd_order": 4},
        {"fd_step": 0.45, "fd_order": 2},
        {"fd_step": SMALLEST_STEP},
    ], ids=repr)
    def test_edge_configs_accepted(self, values):
        build_config({"scenario": "divergence_identity", **values})

    @pytest.mark.parametrize("fd_order", [2, 4])
    @pytest.mark.parametrize("scenario", sorted(REGISTRY))
    def test_smallest_step_runs_without_warnings(self, scenario, fd_order, tmp_path, capsys,
                                                 recwarn):
        path = write_config(tmp_path, {"scenario": scenario, **TINY[scenario],
                                       "fd_step": repr(SMALLEST_STEP), "fd_order": fd_order})
        assert main(["--config", path]) in (EXIT_PASS, EXIT_FAIL)
        assert json.loads(capsys.readouterr().out, parse_constant=reject_constant)["checks"]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# residual sweep\n"
            "scenario = weak_strong\n"
            "seed = 12   # override later if needed\n"
            "q = 6\n"
            "fd_step = 1e-2\n"
            "tolerance.default = 1e-5\n")
        values = load_config_file(str(path))
        cfg = build_config(values)
        assert cfg.scenario == "weak_strong"
        assert cfg.seed == 12
        assert cfg.q == 6
        assert cfg.fd_step == 1e-2
        assert cfg.tolerances["default"] == 1e-5

    def test_config_file_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("scenario weak_strong\n")
        with pytest.raises(ConfigError):
            load_config_file(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config_file("/nonexistent/run.cfg")


class TestScenarioRunner:
    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenarioError):
            run_scenario(ScenarioConfig("not_a_scenario"))

    def test_deterministic_given_config_and_seed(self):
        cfg1 = ScenarioConfig("stokes", seed=5)
        cfg2 = ScenarioConfig("stokes", seed=5)
        r1 = run_scenario(cfg1)
        r2 = run_scenario(cfg2)
        assert strip_seconds(report_to_dict(r1)) == strip_seconds(report_to_dict(r2))

    def test_seed_changes_values(self):
        v1 = [c.value for c in run_scenario(ScenarioConfig("stokes", seed=0)).checks]
        v2 = [c.value for c in run_scenario(ScenarioConfig("stokes", seed=1)).checks]
        assert v1 != v2

    def test_config_echoed_in_report(self):
        r = run_scenario(ScenarioConfig("stokes", seed=2, q=6))
        assert r.config["seed"] == 2
        assert r.config["q"] == 6
        assert r.scenario == "stokes"

    def test_echo_is_effective_config(self):
        r = run_scenario(ScenarioConfig("divergence_identity", count=1, samples=3))
        echoed = {k: r.config[k] for k in ("d", "m", "count", "samples")}
        assert echoed == {"d": 2, "m": 2, "count": 1, "samples": 3}

    def test_maxwell_runs_requested_samples(self, monkeypatch):
        import jetstress.forms as forms_mod

        seen = []

        def check(*args):
            seen.append(args[-1])
            return 0.0, 0.0

        def norm(a, dom, samples):
            seen.append(samples)
            return 0.0

        monkeypatch.setattr(forms_mod, "maxwell_vacuum_check", check)
        monkeypatch.setattr(forms_mod, "form_sup_norm", norm)
        r = run_scenario(ScenarioConfig("maxwell_vacuum", samples=17))
        assert seen == [17, 17, 17]
        assert r.config["samples"] == 17

    def test_tolerance_override_fails_run(self):
        r = run_scenario(ScenarioConfig("stokes", tolerances={"default": 1e-300}))
        assert not r.passed

    def test_echo_is_the_quadrature_that_ran(self):
        r = run_scenario(ScenarioConfig("null_stress", d=1, m=1, count=1, q=2))
        assert (r.config["q"], r.config["panels"]) == (8, 4)
        r = run_scenario(ScenarioConfig("pform_leibniz", q=2, samples=3))
        assert (r.config["q"], r.config["panels"]) == (2, 2)

    @pytest.mark.parametrize("scenario, values", [
        ("maxwell_vacuum", {"d": 7}),
        ("maxwell_vacuum", {"m": 5, "count": 3}),
        ("hyperelastic_1d_bar", {"d": 1}),
        ("stokes", {"samples": 5}),
        ("equilibrated_translations", {"count": 2}),
    ], ids=repr)
    def test_unread_key_rejected(self, scenario, values):
        with pytest.raises(ConfigError):
            run_scenario(ScenarioConfig(scenario, **values))

    def test_report_without_checks_fails(self, monkeypatch):
        monkeypatch.setitem(REGISTRY, "empty", (lambda cfg, run: None, {}, None))
        r = run_scenario(ScenarioConfig("empty"))
        assert r.checks == [] and not r.passed

    @pytest.mark.parametrize("value, comparator", [
        (float("nan"), "le"), (float("nan"), "ge"), (float("inf"), "ge"), (float("-inf"), "le"),
    ])
    def test_non_finite_value_fails(self, monkeypatch, value, comparator):
        monkeypatch.setitem(REGISTRY, "probe", (
            lambda cfg, run: run.add("probe", value, 1.0, comparator), {}, None))
        r = run_scenario(ScenarioConfig("probe"))
        assert not r.checks[0].passed and not r.passed


class TestEmit:
    def sample_report(self):
        checks = [Check("residual", 1.0 / 3.0, 1e-6, "le", True, 0.125),
                  Check("magnitude", 0.7, 0.1, "ge", True, 0.5)]
        return Report("demo", {"seed": 4, "fd_step": 1e-3}, checks, True)

    def test_json_round_trip_is_exact(self):
        r = self.sample_report()
        parsed = json.loads(emit_report(r, "json"))
        assert parsed == report_to_dict(r)
        assert parsed["checks"][0]["value"] == 1.0 / 3.0
        assert parsed["config"]["fd_step"] == 1e-3

    def test_json_schema_keys(self):
        parsed = json.loads(emit_report(self.sample_report(), "json"))
        assert set(parsed) == {"scenario", "config", "checks", "pass"}
        assert set(parsed["checks"][0]) == {"name", "value", "tolerance",
                                            "comparator", "pass", "seconds"}

    def test_empty_checks(self):
        parsed = json.loads(emit_report(Report("demo", {}, [], True), "json"))
        assert parsed["checks"] == []

    def test_text_format(self):
        out = emit_report(self.sample_report(), "text")
        assert out.startswith("scenario: demo\n")
        assert "[pass] residual" in out
        assert out.rstrip().endswith("overall: pass")

    def test_text_marks_failure(self):
        r = Report("demo", {}, [Check("residual", 1.0, 1e-6, "le", False, 0.1)], False)
        out = emit_report(r, "text")
        assert "[FAIL] residual" in out
        assert "overall: FAIL" in out

    def test_unknown_format(self):
        with pytest.raises(ConfigError):
            emit_report(self.sample_report(), "yaml")


class TestMain:
    def test_pass_exit_code(self, capsys):
        assert main(["--scenario", "stokes", "--seed", "1"]) == EXIT_PASS
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["pass"] is True

    def test_fail_exit_code(self, capsys):
        code = main(["--scenario", "stokes", "--tolerance", "default=1e-300"])
        assert code == EXIT_FAIL
        assert json.loads(capsys.readouterr().out)["pass"] is False

    def test_config_error_exit_code(self, capsys):
        assert main(["--scenario", "no_such_scenario"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_bad_tolerance_spec(self, capsys):
        assert main(["--scenario", "stokes", "--tolerance", "oops"]) == EXIT_CONFIG

    def test_oversized_fd_step_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("scenario = weak_strong\nfd_step = 0.3\n")
        assert main(["--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unsupported_dimension_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": "pform_leibniz", "d": 2})
        assert main(["--config", path]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", sorted(REGISTRY))
    def test_every_scenario_reports_strict_json(self, scenario, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": scenario, **TINY[scenario]})
        assert main(["--config", path, "--seed", "3"]) in (EXIT_PASS, EXIT_FAIL)
        report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert report["checks"]
        assert {k: report["config"][k] for k in TINY[scenario]} == TINY[scenario]

    def test_unread_key_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": "maxwell_vacuum", "d": 7})
        assert main(["--config", path]) == EXIT_CONFIG
        assert "does not read d" in capsys.readouterr().err

    def test_non_finite_value_is_null_in_strict_json(self, monkeypatch, capsys):
        monkeypatch.setitem(REGISTRY, "probe", (
            lambda cfg, run: run.add("probe", float("nan"), 1.0), {}, None))
        assert main(["--scenario", "probe"]) == EXIT_FAIL
        report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert report["checks"][0]["value"] is None
        assert report["checks"][0]["pass"] is False and report["pass"] is False

    def test_internal_error_exit_code(self, monkeypatch, capsys):
        import jetstress.cli as cli_mod

        def boom(cfg):
            raise RuntimeError("solver blew up")

        monkeypatch.setattr(cli_mod, "run_scenario", boom)
        assert main(["--scenario", "stokes"]) == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["--scenario", "stokes", "--out", str(out)]) == EXIT_PASS
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["scenario"] == "stokes"

    def test_flags_override_config_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("scenario = stokes\nseed = 1\n")
        assert main(["--config", str(path), "--seed", "9"]) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 9

    def test_calls_share_no_tolerance_or_seed(self, capsys):
        # one parser serves every call; nothing of one call's flags reaches the next
        assert main(["--scenario", "stokes", "--seed", "4",
                     "--tolerance", "default=1e-300"]) == EXIT_FAIL
        first = json.loads(capsys.readouterr().out)
        assert main(["--scenario", "stokes"]) == EXIT_PASS
        second = json.loads(capsys.readouterr().out)
        assert (first["config"]["seed"], first["config"]["tolerances"]) == (4, {"default": 1e-300})
        assert (second["config"]["seed"], second["config"]["tolerances"]) == (0, {})

    @pytest.mark.parametrize("bad", [
        ["--scenario", "stokes", "--tolerance", "default=1e-300", "--tolerance", "oops"],
        ["--scenario", "stokes", "--tolerance", "default=1e-300", "--seed", "x"],
    ])
    def test_a_config_error_then_a_good_call_behave_like_fresh_calls(self, bad, capsys):
        good = ["--scenario", "stokes", "--seed", "2", "--format", "text"]

        def fresh(argv):
            proc = subprocess.run([sys.executable, "-m", "jetstress", *argv],
                                  capture_output=True, text=True)
            return proc.returncode, proc.stdout, proc.stderr

        try:
            code = main(bad)
        except SystemExit as exc:  # argparse's own usage errors exit
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == fresh(bad) and code == EXIT_CONFIG
        code = main(good)
        out, err = capsys.readouterr()
        strip = [line.rsplit("  (", 1)[0] for line in out.splitlines()]
        fresh_code, fresh_out, fresh_err = fresh(good)
        assert (code, err) == (fresh_code, fresh_err) == (EXIT_PASS, "")
        assert strip == [line.rsplit("  (", 1)[0] for line in fresh_out.splitlines()]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "jetstress", "--scenario", "stokes", "--format", "text"],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_PASS
    assert proc.stdout.startswith("scenario: stokes")


@st.composite
def small_configs(draw) -> dict:
    """Any scenario at a small config: every key its registry row lists is
    set small, and the FD step ranges over the whole unit box."""
    scenario = draw(st.sampled_from(sorted(REGISTRY)))
    values = {"scenario": scenario,
              "seed": draw(st.integers(0, 3)),
              "q": draw(st.integers(1, 4)),
              "panels": draw(st.integers(1, 2)),
              "fd_order": draw(st.sampled_from([2, 4])),
              "fd_step": draw(st.floats(0.0, 0.25, exclude_min=True, exclude_max=True))}
    ranges = {"d": (2, 3) if scenario == "pform_leibniz" else (1, 2), "m": (1, 2),
              "count": (1, 2), "samples": (2, 5)}
    for key in REGISTRY[scenario][1]:
        values[key] = draw(st.integers(*ranges[key]))
    return values


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(small_configs())
def test_any_config_exits_0_1_or_2_with_strict_json(values):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "report.json"
        cfg.write_text("".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                               for k, v in values.items()))
        code = main(["--config", str(cfg), "--out", str(out)])
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_CONFIG)
        if code != EXIT_CONFIG:
            report = json.loads(out.read_text(), parse_constant=reject_constant)
            assert report["checks"] and report["pass"] == (code == EXIT_PASS)
