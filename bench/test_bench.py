"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import latticecount  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    cycle, warmup = workloads.CYCLES[workload]
    assert cycle(7, 0) == cycle(7, 0)
    assert cycle(7, 3) == cycle(7, 3)
    assert warmup(7) == warmup(7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_or_cycle_other_inputs(workload):
    cycle, warmup = workloads.CYCLES[workload]
    assert cycle(7, 0) != cycle(8, 0)
    assert cycle(7, 0) != cycle(7, 1)
    assert warmup(7) != cycle(7, 0)[:1]


def test_metric_names_and_spec_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == {name: unit for name, (unit, _) in run.PER_LAYER.items()} | {"trace_overhead_frac": "fraction"}
    for name in [*e2e, *layers, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name) and len(name) <= 64
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _library_results(workload: str, item: dict) -> list:
    """The op results of one item, computed untraced in this process."""
    if workload == "cli_oneshot":
        ops = worker.CliOps(None)(None, item, _workdir())
    else:
        build = {"simplex_dilate": worker.simplex_ops, "triangle_wide": worker.triangle_ops, "polygon_star": worker.polygon_ops}
        ops = build[workload](worker.Api(latticecount, None), item, "")
    return [post(fn()) for fn, post in ops]


def _workdir() -> str:
    path = os.path.join(ROOT, ".bench_out", "test-workdir")
    os.makedirs(path, exist_ok=True)
    return path


def _bump(value, delta):
    """The result with its first count moved by delta."""
    if isinstance(value, int):
        return value + delta
    if isinstance(value, list):
        return [value[0] + delta, *value[1:]]
    if "stdout" in value:
        out = re.sub(r"(?m)^(count|signed_closure)=(-?\d+)$", lambda m: f"{m[1]}={int(m[2]) + delta}", value["stdout"], count=1)
        return dict(value, stdout=out)
    # a serialized quasipolynomial: shift the constant term of every class
    return {r: [[e, str(latticecount.Rational(c) + delta) if e == 0 else c] for e, c in terms] for r, terms in value.items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checkers_accept_library_and_flag_off_by_one(workload):
    cycle = workloads.CYCLES[workload][0]
    items = cycle(11, 0)
    if workload == "simplex_dilate":
        items = [min(items, key=lambda it: (it["n"], it["s"]))]  # one cheap 2-D system
    elif workload == "cli_oneshot":
        items = [it for it in items if it["kind"] in ("count_auto", "reciprocity", "triangle", "polygon")]
    else:
        items = items[:3]
    check = checks.CHECKS[workload]
    try:
        for item in items:
            results = _library_results(workload, item)
            assert check(latticecount, item, results) == []
            for pos in range(len(results)):
                for delta in (1, -1):
                    perturbed = list(results)
                    perturbed[pos] = _bump(results[pos], delta)
                    assert pos in check(latticecount, item, perturbed), (item, pos, delta)
    finally:
        shutil.rmtree(_workdir(), ignore_errors=True)


def test_cli_checker_flags_nonzero_exit():
    item = next(it for it in workloads.cli_cycle(3, 0) if it["kind"] == "polygon")
    assert checks.check_cli(latticecount, item, [{"code": 4, "stdout": "", "stderr": ""}]) == [0]


def test_raised_op_fails_its_whole_item():
    items = workloads.triangle_cycle(5, 0)
    results = [0] * (2 * len(items))
    results[1] = {"error": "ValueError()"}
    bad = checks.failed_ops(latticecount, "triangle_wide", [items], results)
    assert {0, 1} <= set(bad)


def test_column_scan_on_known_shapes():
    from fractions import Fraction as F

    square = [(0, 0), (2, 0), (2, 2), (0, 2)]
    assert checks.column_scan([(F(x), F(y)) for x, y in square]) == (9, 1, 8)
    arrow = [(0, 0), (4, 0), (4, 4), (2, 2), (0, 4)]
    assert checks.column_scan([(F(x), F(y)) for x, y in arrow]) == (21, 5, 16)  # Pick: 12 = 5 + 16/2 - 1


def _run(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.END_TO_END if trace == "0" else {**dict.fromkeys(run.PER_LAYER), "trace_overhead_frac": None}
    assert set(result["metrics"]) == set(expected)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "triangle_wide", "--seed", "1", "--seconds", "1", "--trace", "0"], str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
