"""Command-line runner: load a scenario config, run it, emit a report.

Config files are flat `key = value` text with `#` comments; CLI flags
override file values.  Exit codes: 0 all checks pass, 1 a check failed,
2 config error, 3 internal error.

JSON reports use a stable schema (keys: scenario, config, checks[], pass);
floats are written as their shortest round-trip repr, so parsing reproduces
every numeric field exactly.  A non-finite check value (which always fails)
is written as null, so the report stays strict JSON.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields as dc_fields
from typing import Any

from .scenarios import ConfigError, Report, ScenarioConfig, run_scenario

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

_INT_KEYS = {"seed", "d", "m", "q", "panels", "fd_order", "samples", "count"}
_FLOAT_KEYS = {"fd_step"}


def _parse_value(key: str, raw: str) -> Any:
    raw = raw.strip()
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS or key.startswith("tolerance."):
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return raw


def load_config_file(path: str) -> dict[str, Any]:
    values: dict[str, Any] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = line.split("=", 1)
                values[key.strip()] = _parse_value(key.strip(), raw)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def build_config(values: dict[str, Any]) -> ScenarioConfig:
    tolerances = {}
    plain = {}
    for key, val in values.items():
        if key.startswith("tolerance."):
            tolerances[key[len("tolerance."):]] = float(val)
        else:
            plain[key] = val
    known = {f.name for f in dc_fields(ScenarioConfig)} - {"tolerances"}
    unknown = set(plain) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "scenario" not in plain:
        raise ConfigError("no scenario selected (use --scenario or a config file)")
    try:
        return ScenarioConfig(tolerances=tolerances, **plain)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def report_to_dict(report: Report) -> dict[str, Any]:
    return {
        "scenario": report.scenario,
        "config": report.config,
        "checks": [
            {"name": c.name, "value": c.value if math.isfinite(c.value) else None,
             "tolerance": c.tolerance,
             "comparator": c.comparator, "pass": c.passed, "seconds": c.seconds}
            for c in report.checks
        ],
        "pass": report.passed,
    }


def emit_report(report: Report, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(report_to_dict(report), allow_nan=False) + "\n"
    if fmt == "text":
        lines = [f"scenario: {report.scenario}"]
        for c in report.checks:
            op = "<=" if c.comparator == "le" else ">="
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name}: {c.value:.6e} {op} {c.tolerance:.3e}"
                         f"  ({c.seconds:.3f}s)")
        lines.append(f"overall: {'pass' if report.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown format {fmt!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetstress",
        description="Run seeded numerical verification scenarios and report residuals.")
    parser.add_argument("--scenario", help="scenario id from the registry")
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="seed for randomized field coefficients")
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--tolerance", action="append", default=[],
                        metavar="NAME=VALUE", help="override a check tolerance")
    return parser


# parsing keeps no state in the parser, so one serves every call of main
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        values: dict[str, Any] = {}
        if args.config:
            values.update(load_config_file(args.config))
        if args.scenario:
            values["scenario"] = args.scenario
        if args.seed is not None:
            values["seed"] = args.seed
        for spec in args.tolerance:
            if "=" not in spec:
                raise ConfigError(f"--tolerance expects NAME=VALUE, got {spec!r}")
            name, raw = spec.split("=", 1)
            try:
                values[f"tolerance.{name.strip()}"] = float(raw)
            except ValueError as exc:
                raise ConfigError(f"bad tolerance value {raw!r}") from exc
        cfg = build_config(values)
        report = run_scenario(cfg)
        payload = emit_report(report, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - runner boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_PASS if report.passed else EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
