"""Benchmark entry point for latticecount: one workload, one seed, one JSON result.

Run from the root of a source checkout:

    python3 bench/run.py --workload triangle_wide --seed 1 --seconds 20 --trace 0

Every measured phase runs in a fresh interpreter (`worker.py`), so the
library's caches and the peak RSS start from zero.  The caller is a closed
loop: one op in flight, no threads.

--trace 0  reports the end-to-end metrics.  `setup_s` is the median over
           several fresh processes of the time from spawning the process to
           its first timed op, less the benchmark's own input generation.
--trace 1  runs the workload untraced for --seconds, then replays the same
           cycles in a fresh process with spans at the library's
           cross-module call sites, and reports the per-layer metrics and
           the tracing overhead.  Spans go to .bench_out/.

Results are checked against independent references after the timed
phases.  The last line of stdout is the JSON result; earlier lines are for
people.  The exit code is 0 when a result was printed, 2 when the checkout
has no library to measure, and 1 when a workload process failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 10  # setup-only processes per untraced run, besides the measured one
RUN_BUDGET_S = 170  # everything, checks included, must end within this

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# metric -> (unit, how it is read from the traced phase)
PER_LAYER = {
    "recursion.calls": ("count/op", ("layer_calls", "recursion")),
    "recursion.self_s": ("s/op", ("layer_self", "recursion")),
    "reduction.calls": ("count/op", ("layer_calls", "reduction")),
    "reduction.self_s": ("s/op", ("layer_self", "reduction")),
    "reduction.cache_hit_ratio": ("fraction", ("cache_ratio", "reduction")),
    "quasipoly.calls": ("count/op", ("layer_calls", "quasipoly")),
    "quasipoly.self_s": ("s/op", ("layer_self", "quasipoly")),
    "quasipoly.samples": ("count/op", ("name_calls", "quasipoly.sample")),
    "dedekind.calls": ("count/op", ("layer_calls", "dedekind")),
    "dedekind.self_s": ("s/op", ("layer_self", "dedekind")),
    "dedekind.cache_hit_ratio": ("fraction", ("cache_ratio", "dedekind")),
    "dedekind.cache_entries": ("count/op", ("counter", "cache.dedekind.entries")),
    "dedekind.loop_terms": ("count/op", ("counter", "dedekind.loop_terms")),
    "triangle.calls": ("count/op", ("layer_calls", "triangle")),
    "triangle.self_s": ("s/op", ("layer_self", "triangle")),
    "triangle.cache_hit_ratio": ("fraction", ("cache_ratio", "triangle")),
    "polygon.spec_s": ("s/op", ("layer_self", "polygon.spec")),
    "polygon.calls": ("count/op", ("layer_calls", "polygon")),
    "polygon.self_s": ("s/op", ("layer_self", "polygon")),
    "polygon.pieces": ("count/op", ("name_calls", "polygon.count_closure_triangle")),
    "polygon.segment_calls": ("count/op", ("layer_calls", "polygon.segment")),
    "polygon.segment_s": ("s/op", ("layer_self", "polygon.segment")),
    "polygon.cache_hit_ratio": ("fraction", ("cache_ratio", "polygon")),
    "oracle.calls": ("count/op", ("layer_calls", "oracle")),
    "oracle.self_s": ("s/op", ("layer_self", "oracle")),
    "cli.import_s": ("s/op", ("counter", "cli.import_s")),
    "cli.self_s": ("s/op", ("layer_self", "cli")),
    "cli.process_s": ("s/op", ("layer_self", "cli.process")),
}


class WorkerError(Exception):
    """A workload process failed or printed no report."""


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def spawn(root: str, cfg: dict, deadline: float) -> dict:
    """Run one workload process to completion and return its report."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cfg = dict(cfg, deadline_s=max(1.0, deadline - monotonic() - 15))
    before = speed.calibrate_process()
    started = monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
            capture_output=True,
            text=True,
            env=env,
            cwd=root,
            timeout=max(1.0, deadline - monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"workload process timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"workload process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    report["setup_wall_s"] = report["first_op_at"] - started - report["gen_s"]
    # Setup is mostly interpreter start and imports, so it is scaled by
    # process calibrations taken just before and after.
    after = speed.calibrate_process()
    report["setup_s"] = report["setup_wall_s"] * speed.PROCESS_REFERENCE_S * 2 / (before + after)
    return report


def layer_value(trace: dict, how: tuple[str, str]) -> float:
    kind, key = how
    if kind == "layer_calls":
        return trace["layers"].get(key, [0, 0.0])[0]
    if kind == "layer_self":
        return trace["layers"].get(key, [0, 0.0])[1]
    if kind == "name_calls":
        return trace["names"].get(key, [0, 0.0])[0]
    if kind == "counter":
        return trace["counters"].get(key, 0)
    hits = trace["counters"].get(f"cache.{key}.hits", 0)
    misses = trace["counters"].get(f"cache.{key}.misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def end_to_end(report: dict, setup_samples: list[float], failed: int, key: str = "scaled") -> dict[str, float]:
    """The end-to-end metrics from the latencies under `key` ("scaled" or "latencies" for wall)."""
    lat = report[key]
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": (len(lat) - failed) / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * percentile(lat, 90),
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
    }


def per_layer(untraced: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics of the traced phase.

    Counts and times are per op, because the traced phase replays as many
    cycles as the untraced phase managed, which depends on the speed of the
    code.  Times are scaled to reference speed like the end-to-end ones.
    """
    trace = traced["trace"]
    ops = len(traced["latencies"])
    factor = sum(traced["scaled"]) / sum(traced["latencies"])
    out = {}
    for name, (unit, how) in PER_LAYER.items():
        value = float(layer_value(trace, how))
        if unit == "s/op":
            value *= factor
        out[name] = value / ops if unit.endswith("/op") else value
    n = min(len(untraced["scaled"]), len(traced["scaled"]))
    out["trace_overhead_frac"] = sum(traced["scaled"][:n]) / sum(untraced["scaled"][:n]) - 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "latticecount", "__init__.py")):
        print("error: no src/latticecount here; run from the root of a latticecount checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import latticecount

    deadline = monotonic() + RUN_BUDGET_S
    base = {"workload": args.workload, "seed": args.seed}
    try:
        if args.trace:
            phases = [spawn(root, dict(base, seconds=args.seconds), deadline)]
            trace_out = os.path.join(root, ".bench_out", f"trace-{args.workload}-seed{args.seed}.jsonl")
            cfg = dict(base, cycles=len(phases[0]["cycles"]), trace=1, trace_out=trace_out)
            phases.append(spawn(root, cfg, deadline))
        else:
            setups = [spawn(root, dict(base, setup_only=True), deadline) for _ in range(SETUP_REPEATS)]
            phases = [spawn(root, dict(base, seconds=args.seconds), deadline)]
            setups.append(phases[0])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # The untraced phase is checked against the references; the traced
    # phase replays its cycles and must reproduce its results exactly.
    first = phases[0]
    failed = len(checks.failed_ops(latticecount, args.workload, first["cycles"], first["results"]))
    attempted = sum(len(report["latencies"]) for report in phases)
    if args.trace:
        replay = phases[1]["results"]
        failed += sum(a != b for a, b in zip(first["results"], replay)) + abs(len(replay) - len(first["results"]))
        metrics = per_layer(*phases)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()} | {"trace_overhead_frac": "fraction"}
    else:
        metrics = end_to_end(first, [r["setup_s"] for r in setups], failed)
        wall = end_to_end(first, [r["setup_wall_s"] for r in setups], failed, key="latencies")
        units = END_TO_END

    main_report = phases[-1]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    print(
        f"ops={len(main_report['latencies'])} cycles={len(main_report['cycles'])} "
        f"timed_wall_s={sum(main_report['latencies']):.3f} error_rate={failed / max(1, attempted):.4f}"
    )
    if not args.trace:
        print("unscaled wall-clock values: " + ", ".join(f"{k}={v:.6g}" for k, v in wall.items()))
        if len(first["latencies"]) < 100:
            print("note: fewer than 100 ops, so latency_p90_ms has fewer than 10 samples beyond it")
    else:
        trace = main_report["trace"]
        self_total = sum(self_s for _, self_s in trace["layers"].values())
        print(f"spans={trace['spans']} span_self_over_latency={self_total / sum(main_report['latencies']):.4f}")
        if trace["absent"]:
            print("absent (reported as 0): " + ", ".join(trace["absent"]))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
