"""jetstress benchmark: time one workload end to end, or trace its layers.

    python3 perfbench/run.py --workload maxwell-4d --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; jetstress is imported from `src/`
and driven in-process through `jetstress.cli.main`, one call per scenario,
from a single thread.  Every report is checked (exit code, strict JSON,
verdicts, check names).  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
from a separate traced pass.  The line before it records the machine and the
traffic; both are also written to `perfbench/results/`.  NOTES.md explains
the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, expected_checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_REPEATS = 7
CALIBRATION_SECONDS = 1.5

# A fresh interpreter imports jetstress and parses the workload's configs;
# it prints the seconds that took.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import jetstress.cli
for path in sys.argv[2:]:
    jetstress.cli.build_config(jetstress.cli.load_config_file(path))
print(time.perf_counter() - t0)
"""


def write_configs(workload: str, runs, tag: str) -> list[Path]:
    """One `key = value` file per scenario run; the CLI takes d, m, count and
    samples only from a config file."""
    folder = RESULTS / "configs" / f"{workload}-{tag}"
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, (scenario, config) in enumerate(runs):
        path = folder / f"{i}-{scenario}.cfg"
        lines = [f"scenario = {scenario}"] + [f"{k} = {v}" for k, v in config.items()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def measure_setup(paths: list[Path]) -> float:
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, paths)],
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_pass(cli, argvs: list[list[str]]) -> tuple[float, float, list[tuple[int, str]]]:
    """Run every scenario of the workload once; return wall seconds, CPU
    seconds (user + sys, children included) and each (exit code, stdout)."""
    outputs = []
    c0, t0 = _cpu_seconds(), time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        outputs.append((code, out.getvalue()))
    wall = time.perf_counter() - t0
    return wall, _cpu_seconds() - c0, outputs


def _cpu_seconds() -> float:
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in report")


def check_report(scenario: str, config: dict, code: int, text: str) -> tuple[int, int]:
    """(expected checks, failed checks) for one scenario report.

    Every expected check fails when the CLI exits non-zero, the report is
    not strict JSON, or its check names differ from the expected ones.
    Otherwise a check fails when its verdict says so or disagrees with its
    own value, tolerance and comparator.
    """
    expected = expected_checks(scenario, config)
    try:
        report = json.loads(text, parse_constant=_reject_constant)
        checks = report["checks"]
        if code != 0 or report["scenario"] != scenario \
                or [c["name"] for c in checks] != expected:
            return len(expected), len(expected)
        failed = 0
        for c in checks:
            value, tol = float(c["value"]), float(c["tolerance"])
            holds = value <= tol if c["comparator"] == "le" else value >= tol
            failed += not (c["pass"] is True and holds)
        if report["pass"] is not True:
            failed = max(failed, 1)
    except (ValueError, KeyError, TypeError):
        return len(expected), len(expected)
    return len(expected), failed


def check_outputs(runs, passes: list[list[tuple[int, str]]]) -> tuple[int, int, int]:
    """(attempted, failed, checks reported) over every pass of a workload."""
    attempted = failed = reported = 0
    for outputs in passes:
        for (scenario, config), (code, text) in zip(runs, outputs):
            n, bad = check_report(scenario, config, code, text)
            attempted += n
            failed += bad
            reported += n - bad
    return attempted, failed, reported


def machine() -> dict:
    import numpy
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model or "unknown", "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Measure one workload; return (result, record).  `tiny` runs the
    workload's smallest configs, for the benchmark's own tests."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    runs = WORKLOADS[workload].tiny if tiny else WORKLOADS[workload].full
    paths = write_configs(workload, runs, "tiny" if tiny else "full")
    argvs = [["--config", str(p), "--seed", str(seed)] for p in paths]
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "tiny": tiny, "scenarios": [{"scenario": s, **c} for s, c in runs],
              "machine": machine()}

    if trace:
        metrics, passes = _traced(workload, argvs, seed)
    else:
        setups = [measure_setup(paths) for _ in range(setup_repeats)]
        import jetstress.cli as cli
        # The first pass warms up and is checked but not timed; the medians
        # are over every later pass, at least one.
        start = time.perf_counter()
        passes = [run_pass(cli, argvs)[2]]
        walls, cpus = [], []
        while not walls or time.perf_counter() - start < seconds:
            wall, cpu, outputs = run_pass(cli, argvs)
            passes.append(outputs)
            walls.append(wall)
            cpus.append(cpu)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (rss_mib, "MiB"),
        }
        record.update(passes=len(walls), wall_s=walls, cpu_s=cpus, setup_s=setups)

    attempted, failed, reported = check_outputs(runs, passes)
    if trace:
        metrics["scenarios.checks"] = (reported, "count")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, record


def _traced(workload: str, argvs: list[list[str]], seed: int):
    """Per-layer metrics from one traced pass.  The tracing overhead is
    measured on the workload's tiny configs, alternating untraced and traced
    passes so that both see the same machine load."""
    import jetstress.cli as cli
    from tracer import Tracer

    tiny_argvs = [["--config", str(p), "--seed", str(seed)]
                  for p in write_configs(workload, WORKLOADS[workload].tiny, "tiny")]
    run_pass(cli, tiny_argvs)
    plain = traced = 0.0
    while min(plain, traced) < CALIBRATION_SECONDS:
        plain += run_pass(cli, tiny_argvs)[0]
        with Tracer():
            traced += run_pass(cli, tiny_argvs)[0]

    with Tracer() as tracer:
        wall, _, outputs = run_pass(cli, argvs)
    metrics = tracer.metrics()
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    return metrics, [outputs]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="repeat whole passes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jetstress" / "cli.py").is_file():
        print(f"error: no jetstress sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n",
                                encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
