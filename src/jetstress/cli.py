"""Command-line runner: load a scenario config, run it, emit a report.

Config files are flat `key = value` text with `#` comments; CLI flags
override file values, each key once.  Exit codes: 0 all checks pass, 1 a
check failed, 2 config error, unwritable --out or out of memory, 3 internal
error.

JSON reports use a stable schema (keys: scenario, config, checks[], pass);
floats are written as their shortest round-trip repr, so parsing reproduces
every numeric field exactly.  A non-finite check value (which always fails)
is written as null, so the report stays strict JSON.
"""
from __future__ import annotations

import argparse
import json
import math
import os
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
    first: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = line.split("=", 1)
                key = key.strip()
                if key in first:
                    raise ConfigError(f"{path}:{lineno}: {key} already set on line {first[key]}")
                first[key] = lineno
                values[key] = _parse_value(key, raw)
    except (OSError, UnicodeDecodeError) as exc:
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


def emit_report(report: Report, fmt: str) -> str:
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
    # a key flag may repeat here; main rejects the repeat with a message
    parser.add_argument("--scenario", action="append", default=[], help="registry scenario id")
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", action="append", default=[], help="seed of the field data")
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
        values = load_config_file(args.config) if args.config else {}
        # (flag, key, raw value) per flag; a flag overrides the file's value of
        # its key, but a key is set once on the command line
        entries = [("--scenario", "scenario", raw) for raw in args.scenario]
        entries += [("--seed", "seed", raw) for raw in args.seed]
        for spec in args.tolerance:
            if "=" not in spec:
                raise ConfigError(f"--tolerance expects NAME=VALUE, got {spec!r}")
            name, raw = map(str.strip, spec.split("=", 1))
            entries.append((f"--tolerance {name}", f"tolerance.{name}", raw))
        flagged: set[str] = set()
        for flag, key, raw in entries:
            if key in flagged:
                raise ConfigError(f"{flag} given twice")
            flagged.add(key)
            values[key] = _parse_value(key, raw)
        cfg = build_config(values)
        if args.out:
            # a typo in the path should not cost a whole run
            folder = os.path.dirname(os.path.abspath(args.out))
            if os.path.isdir(args.out):
                raise ConfigError(f"cannot write report to {args.out}: it is a directory")
            if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
                raise ConfigError(f"cannot write report to {args.out}: "
                                  f"{folder} is not a writable directory")
        report = run_scenario(cfg)
        payload = emit_report(report, args.format)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(payload)
            except OSError as exc:
                raise ConfigError(f"cannot write report to {args.out}: {exc}") from exc
        else:
            sys.stdout.write(payload)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""  # numpy's text names the array and its size
        print(f"config error: the config is too large for this machine's memory{detail}",
              file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - runner boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_PASS if report.passed else EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
