import json
import math
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetstress import cli, fields, forms, scenarios, stress
from jetstress.chart import BoundaryFace
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

    def test_non_utf8_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes("scenario = stokes  # caf\u00e9\n".encode("latin-1"))
        assert main(["--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and f"cannot read config file {path}: " in captured.err


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

    def test_default_tolerance_leaves_negative_controls_alone(self):
        # lowering a `ge` bar would pass it on noise, raising it would fail a
        # correct control; a `ge` check moves only when it is named
        def tolerances(scenario, **overrides):
            r = run_scenario(ScenarioConfig(scenario, tolerances=overrides))
            return {c.name: c.tolerance for c in r.checks}

        bar = tolerances("hyperelastic_1d_bar", default=1e-300)
        assert bar == {"interior": 1e-300, "boundary": 1e-300, "sensitivity": 5e-3}
        assert tolerances("maxwell_vacuum", default=1e3)["non_null_J"] == 0.1
        named = tolerances("hyperelastic_1d_bar", default=1e-300, sensitivity=1e-2)
        assert named["sensitivity"] == 1e-2

    def test_d_differs_from_m(self):
        # every registry default has d = m, which hides a swapped d and m or a
        # transposed (i, a) index; these configs expose them
        triples, pairs = [f"triple_{k:02d}" for k in range(10)], ["pair_00", "pair_01"]
        runs = [("energy_variation", {"d": 1, "m": 2}, triples),
                ("energy_variation", {"d": 2, "m": 1}, triples),
                ("equilibrated_translations", {"d": 2, "m": 3},
                 ["translation_0", "translation_1", "translation_2"]),
                ("equilibrated_translations", {"d": 3, "m": 2}, ["translation_0", "translation_1"]),
                ("weak_strong", {"d": 2, "m": 3, "count": 2}, ["case_00", "case_01"]),
                ("exterior_jet_identity", {"d": 2, "m": 3, "count": 2}, pairs),
                ("divergence_identity", {"d": 2, "m": 3, "count": 2}, pairs),
                ("null_stress", {"d": 2, "m": 3, "count": 1},
                 ["power_00", "magnitude_00", "divergence_00"])]
        for scenario, values, names in runs:
            r = run_scenario(ScenarioConfig(scenario, **values))
            assert [c.name for c in r.checks] == names and r.passed, (scenario, values)

    def test_echo_is_the_quadrature_that_ran(self):
        r = run_scenario(ScenarioConfig("null_stress", d=1, m=1, count=1, samples=3))
        assert (r.config["q"], r.config["panels"]) == (8, 4)
        r = run_scenario(ScenarioConfig("pform_leibniz", samples=3))
        assert (r.config["q"], r.config["panels"]) == (8, 2)
        # a quadrature the scenario cannot integrate exactly is rejected, not replaced
        for scenario, values in [("null_stress", {"q": 2}), ("null_stress", {"panels": 3}),
                                 ("pform_leibniz", {"panels": 1})]:
            with pytest.raises(ConfigError):
                run_scenario(ScenarioConfig(scenario, **values))

    @pytest.mark.parametrize("scenario, values", [
        ("maxwell_vacuum", {"d": 7}),
        ("maxwell_vacuum", {"m": 5, "count": 3}),
        ("hyperelastic_1d_bar", {"d": 1}),
        ("stokes", {"samples": 5}),
        ("equilibrated_translations", {"count": 2}),
        ("exterior_jet_identity", {"q": 4}),
        ("divergence_identity", {"panels": 2}),
        ("hyperelastic_1d_bar", {"q": 8}),
        ("maxwell_vacuum", {"panels": 1}),
    ], ids=repr)
    def test_unread_key_rejected(self, scenario, values):
        with pytest.raises(ConfigError):
            run_scenario(ScenarioConfig(scenario, **values))

    @pytest.mark.parametrize("scenario", sorted(REGISTRY))
    def test_runner_reads_exactly_its_row_keys(self, scenario, monkeypatch):
        assert scenarios._ROW_KEYS == ("d", "m", "q", "panels", "samples", "count")
        reads: set[str] = set()

        class RecordingConfig(ScenarioConfig):
            def __getattribute__(self, name):
                reads.add(name)
                return object.__getattribute__(self, name)

        runner, defaults, allowed_d = REGISTRY[scenario]
        read_by_runner: set[str] = set()

        def recorded(cfg):
            reads.clear()  # run_scenario itself reads every key to fill the row
            yield from runner(cfg)
            read_by_runner.update(reads & set(scenarios._ROW_KEYS))

        monkeypatch.setitem(REGISTRY, scenario, (recorded, defaults, allowed_d))
        run_scenario(RecordingConfig(scenario, **TINY[scenario]))
        assert read_by_runner == set(defaults)

    def test_report_without_checks_fails(self, monkeypatch):
        monkeypatch.setitem(REGISTRY, "empty", (lambda cfg: iter(()), {}, None))
        r = run_scenario(ScenarioConfig("empty"))
        assert r.checks == [] and not r.passed

    @pytest.mark.parametrize("value, comparator", [
        (float("nan"), "le"), (float("nan"), "ge"), (float("inf"), "ge"), (float("-inf"), "le"),
    ])
    def test_non_finite_value_fails(self, monkeypatch, value, comparator):
        monkeypatch.setitem(REGISTRY, "probe", (
            lambda cfg: iter([("probe", value, 1.0, comparator)]), {}, None))
        r = run_scenario(ScenarioConfig("probe"))
        assert not r.checks[0].passed and not r.passed


class TestNanInOnePieceFailsItsCheck:
    """A check folded over several pieces (faces, stress rows, form indices)
    reads NaN when one piece other than the first is NaN, and fails whatever
    its comparator."""

    @staticmethod
    def nan_checks(report) -> dict[str, str]:
        failed = {c.name: c.comparator for c in report.checks if math.isnan(c.value)}
        assert not any(c.passed for c in report.checks if c.name in failed)
        assert not report.passed
        return failed

    @staticmethod
    def with_nan_at(form, position):
        key = list(form.components)[position]
        return replace(form, components={**form.components, key: fields.constant_field(np.nan)})

    def test_upper_face_loading(self, monkeypatch):
        dom, L, body, surf = scenarios._bar_setup()
        assert list(dom.faces())[-1] == BoundaryFace(0, "upper")
        nan_surf = {**surf, BoundaryFace(0, "upper"): ((lambda X, x: np.nan),)}
        monkeypatch.setattr(scenarios, "_bar_setup", lambda: (dom, L, body, nan_surf))
        r = run_scenario(ScenarioConfig("hyperelastic_1d_bar", **TINY["hyperelastic_1d_bar"]))
        assert self.nan_checks(r) == {"boundary": "le"}

    def test_one_mixed_stress_row(self, monkeypatch):
        exterior_jet = stress.exterior_jet

        def nan_last_row(tau, dom, scheme):
            s = exterior_jet(tau, dom, scheme)
            last = tuple(fields.constant_field(np.nan) for _ in s.s_mixed[-1])
            return replace(s, s_mixed=s.s_mixed[:-1] + (last,))

        monkeypatch.setattr(stress, "exterior_jet", nan_last_row)
        r = run_scenario(ScenarioConfig("null_stress", d=1, m=2, count=1, samples=3))
        assert self.nan_checks(r)["magnitude_00"] == "ge"

    def test_one_form_index_of_the_source(self, monkeypatch):
        maxwell_fields = forms.maxwell_fields

        def nan_second_index(A, metric, dom, scheme):
            F, J = maxwell_fields(A, metric, dom, scheme)
            return F, self.with_nan_at(J, 1)

        monkeypatch.setattr(forms, "maxwell_fields", nan_second_index)
        r = run_scenario(ScenarioConfig("maxwell_vacuum", **TINY["maxwell_vacuum"]))
        assert self.nan_checks(r) == {"null_wave_J": "le", "non_null_J": "ge"}

    def test_one_form_index_of_a_wedge(self, monkeypatch):
        wedge = forms.wedge

        def nan_last_index(a, b):
            # only the 2-forms a^b and b^a; the closed-box power wedges to 3-forms
            out = wedge(a, b)
            return self.with_nan_at(out, -1) if out.degree == 2 else out

        monkeypatch.setattr(forms, "wedge", nan_last_index)
        r = run_scenario(ScenarioConfig("pform_leibniz", samples=3))
        assert self.nan_checks(r) == {"leibniz": "le", "anticommute": "le"}


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
            lambda cfg: iter([("probe", float("nan"), 1.0, "le")]), {}, None))
        assert main(["--scenario", "probe"]) == EXIT_FAIL
        report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert report["checks"][0]["value"] is None
        assert report["checks"][0]["pass"] is False and report["pass"] is False

    def test_internal_error_exit_code(self, monkeypatch, capsys):
        def boom(cfg):
            raise RuntimeError("solver blew up")

        monkeypatch.setattr(cli, "run_scenario", boom)
        assert main(["--scenario", "stokes"]) == EXIT_INTERNAL
        assert "internal error" in capsys.readouterr().err

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["--scenario", "stokes", "--out", str(out)]) == EXIT_PASS
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["scenario"] == "stokes"

    def test_unwritable_out_is_config_error(self, tmp_path, capsys, monkeypatch):
        # the directory is checked before the scenario runs
        ran = []
        monkeypatch.setattr(cli, "run_scenario", ran.append)
        out = tmp_path / "no" / "such" / "r.json"
        assert main(["--scenario", "hyperelastic_1d_bar", "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and f"cannot write report to {out}: " in captured.err
        assert ran == []

    def test_out_naming_a_directory_is_config_error(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "run_scenario", ran.append)
        assert main(["--scenario", "hyperelastic_1d_bar", "--out", str(tmp_path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot write report to {tmp_path}: it is a directory" in captured.err
        assert ran == []

    def test_out_of_memory_is_config_error(self, monkeypatch, capsys):
        def too_large(cfg):
            raise MemoryError

        monkeypatch.setattr(cli, "run_scenario", too_large)
        assert main(["--scenario", "maxwell_vacuum"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("config error: ")
        assert "too large for this machine" in captured.err

    @pytest.mark.parametrize("line, flags, message", [
        ("d = two", [], "bad value for d: 'two'"),
        ("", ["--tolerance", "stokes_00=abc"], "bad value for tolerance.stokes_00: 'abc'"),
        ("fd_order = 3", [], "fd_order must be 2 or 4"),
        ("q = 0", [], "q must be at least 1, got 0"),
    ], ids=repr)
    def test_bad_value_is_config_error(self, line, flags, message, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(f"scenario = stokes\n{line}\n")
        assert main(["--config", str(path), *flags]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and f"config error: {message}" in captured.err

    def test_flags_override_config_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("scenario = stokes\nseed = 1\n")
        assert main(["--config", str(path), "--seed", "9"]) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 9

    def test_duplicated_config_key_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("scenario = stokes\nd = 2\n# a comment\nd = 3\n")
        assert main(["--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{path}:4: d already set on line 2" in err

    def test_duplicated_tolerance_flag_is_config_error(self, tmp_path, capsys):
        argv = ["--scenario", "hyperelastic_1d_bar", "--tolerance", "interior=1e-3"]
        assert main(argv + ["--tolerance", " interior=1e-9"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "--tolerance interior given twice" in captured.err
        # a flag still overrides the file's value of the same tolerance
        path = tmp_path / "run.cfg"
        path.write_text("tolerance.interior = 1e-9\n")
        assert main(["--config", str(path)] + argv) == EXIT_PASS
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["tolerance"] for c in checks if c["name"] == "interior"] == [1e-3]

    @pytest.mark.parametrize("argv, message", [
        (["--scenario", "stokes", "--seed", "1", "--seed", "2"], "--seed given twice"),
        (["--scenario", "stokes", "--scenario", "hyperelastic_1d_bar"], "--scenario given twice"),
    ], ids=repr)
    def test_duplicated_flag_is_config_error(self, argv, message, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "run_scenario", ran.append)
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and f"config error: {message}" in captured.err
        assert ran == []

    def test_tolerance_matching_no_check_is_config_error(self, capsys):
        argv = ["--scenario", "hyperelastic_1d_bar"]
        assert main(argv + ["--tolerance", "interiour=1e-3"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "interiour" in captured.err
        assert "interior, boundary, sensitivity" in captured.err
        assert main(argv + ["--tolerance", "interior=1e-3"]) == EXIT_PASS
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["tolerance"] for c in checks if c["name"] == "interior"] == [1e-3]

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


# a check each scenario reports at any count
FIRST_CHECK = {
    "stokes": "stokes_00", "exterior_jet_identity": "pair_00", "divergence_identity": "pair_00",
    "weak_strong": "case_00", "null_stress": "power_00", "hyperelastic_1d_bar": "interior",
    "energy_variation": "triple_00", "equilibrated_translations": "translation_0",
    "maxwell_vacuum": "null_wave_dF", "pform_leibniz": "leibniz",
}


@st.composite
def small_run(draw, scenario: str) -> tuple[dict, list[str], str, bool]:
    """One run of `scenario` at a small config, as config file values, CLI
    flags, the config file's text and whether that text is malformed.  Every
    key its registry row lists is set small (null_stress's quadrature to one
    that integrates its bumps exactly, pform_leibniz mostly in its one
    dimension and on enough panels), the FD step mostly moves the coordinate
    1.0 but may be any step inside the unit box, the format is JSON or text,
    and tolerance overrides name `default`, a check of the scenario or no
    check, in the file or as a flag.  The file carries comments (some holding
    an `=`), trailing comments and blank lines, and one draw in four also a
    duplicated key or a line with no `=`."""
    any_step = draw(st.integers(0, 3)) == 3
    values = {"scenario": scenario,
              "seed": draw(st.integers(0, 3)),
              "fd_order": draw(st.sampled_from([2, 4])),
              "fd_step": draw(st.floats(0.0, 0.25, exclude_min=True, exclude_max=True)
                              if any_step else st.floats(1e-4, 0.25, exclude_max=True))}
    null, pform = scenario == "null_stress", scenario == "pform_leibniz"
    keys = {"d": st.sampled_from([3, 3, 2]) if pform else st.integers(1, 2),
            "m": st.integers(1, 2), "count": st.integers(1, 2),
            "samples": st.integers(2, 4) if scenario == "maxwell_vacuum" else st.integers(2, 5),
            "q": st.integers(8, 9) if null else st.integers(1, 4),
            "panels": st.sampled_from([4, 8]) if null else st.sampled_from([2, 3, 1]) if pform
            else st.integers(1, 2)}
    for key in REGISTRY[scenario][1]:
        values[key] = draw(keys[key])
    flags = ["--format", draw(st.sampled_from(["json", "text"]))]
    names = st.sampled_from(["default", FIRST_CHECK[scenario], "no_such_check"])
    for name in draw(st.lists(names, max_size=2, unique=True)):
        tol = draw(st.sampled_from([1e-300, 1e-6, 1e3]))
        if draw(st.booleans()):
            flags += ["--tolerance", f"{name}={tol!r}"]
        else:
            values[f"tolerance.{name}"] = tol
    keyed = [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}" for k, v in values.items()]
    lines = [line + draw(st.sampled_from(["", "  # note", "\t# d = 9"])) for line in keyed]
    extras = st.sampled_from(["", "   ", "# comment", "# seed = x", "  # scenario = stokes"])
    fault = draw(st.sampled_from(["duplicate", "no_equals"])) if draw(st.integers(0, 3)) == 3 else ""
    if fault == "duplicate":
        extras = st.just(draw(st.sampled_from(keyed)))
    elif fault == "no_equals":
        extras = st.sampled_from(["fd_step 1e-3", "oops  # d = 2", scenario])
    for extra in draw(st.lists(extras, min_size=1 if fault else 0, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return values, flags, "".join(f"{line}\n" for line in lines), bool(fault)


# each example runs every scenario once, so that every scenario is reached
@settings(max_examples=6, derandomize=True, deadline=None, database=None)
@given(st.tuples(*(small_run(scenario) for scenario in sorted(REGISTRY))))
def test_any_config_exits_0_1_or_2_with_strict_json(runs):
    with tempfile.TemporaryDirectory() as tmp:
        for values, flags, text, malformed in runs:
            cfg = Path(tmp) / "run.cfg"
            out = Path(tmp) / f"{values['scenario']}.json"
            cfg.write_text(text)
            code = main(["--config", str(cfg), "--out", str(out), *flags])
            assert code in (EXIT_PASS, EXIT_FAIL, EXIT_CONFIG)
            if malformed or any("no_such_check" in entry for entry in [*values, *flags]):
                assert code == EXIT_CONFIG
            if code == EXIT_CONFIG:
                assert not out.exists()
            elif "text" in flags:
                lines = out.read_text().splitlines()
                verdict = "pass" if code == EXIT_PASS else "FAIL"
                assert len(lines) > 2 and lines[-1] == f"overall: {verdict}"
            else:
                report = json.loads(out.read_text(), parse_constant=reject_constant)
                assert report["checks"] and report["pass"] == (code == EXIT_PASS)
