"""One workload process: set up, run timed cycles, print one JSON line.

Started by `run.py` in a fresh interpreter for every measured phase, with
PYTHONPATH pointing at the checkout's `src`:

    python3 bench/worker.py '<json config>'

Config keys: workload, seed, seconds (run whole cycles until this much op
time has passed) or cycles (run exactly this many), setup_only, trace,
trace_out, deadline_s.  A calibration loop runs after every op, outside
its timed region, so that run.py can scale latencies to reference speed.  The process is a closed loop with one caller: each op starts
when the previous one has returned.  Only the library calls of an op are
inside its timed region; generating a cycle's inputs, building the library
objects they need (outside `polygon_star`, where building `PolygonSpec` is
part of the op) and converting results for the report happen between ops.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
from time import monotonic, perf_counter

import speed
import tracing
import workloads
from cli_launcher import TRACE_MARK

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCHER = os.path.join(HERE, "cli_launcher.py")
CLI_TIMEOUT_S = 60
# Peak RSS is read after this many cycles, so that it measures a fixed
# amount of work: the library's caches grow with every distinct input, and
# a faster library runs more inputs in the same time.
RSS_CYCLES = 8


def _identity(value):
    return value


def _serialize_quasipolynomial(q) -> dict[str, list[list]]:
    """residue -> [[exponent, "p/q"], ...] for a one-variable quasipolynomial."""
    return {
        str(residue[0]): [[exps[0], str(coeff)] for exps, coeff in sorted(poly.items())]
        for residue, poly in q.table.items()
    }


class Api:
    """The library's public calls, wrapped in spans when a tracer is given."""

    PUBLIC = (
        ("count_closure", "recursion"),
        ("count_interior", "recursion"),
        ("interpolate", "quasipoly"),
        ("count_closure_triangle", "triangle"),
        ("count_interior_triangle", "triangle"),
        ("PolygonSpec", "polygon.spec"),
        ("count_closure_polygon", "polygon"),
        ("count_interior_polygon", "polygon"),
    )

    def __init__(self, lib, tracer: tracing.Tracer | None):
        self.lib = lib
        self.tracer = tracer
        for name, layer in self.PUBLIC:
            fn = getattr(lib, name)
            setattr(self, name, tracer.wrap(fn, name, layer) if tracer else fn)

    def dilation_counter(self, system, base):
        """The `interpolate` counter s -> count_closure(system, s*base)."""
        count = self.lib.count_closure
        if self.tracer:
            count = self.tracer.wrap(count, "quasipoly.sample", "recursion")

        def counter(svec):
            return count(system, tuple(svec[0] * b for b in base))

        return counter


# --- per-workload op builders: item -> [(fn, post)] ---------------------------


def simplex_ops(api: Api, item: dict, workdir: str):
    lib = api.lib
    system = lib.SimplexSystem(item["a"], item["b"])
    counter = api.dilation_counter(system, item["b"])
    ops = [
        (
            lambda: api.interpolate(counter, 1, (item["period"],), item["n"]),
            _serialize_quasipolynomial,
        )
    ]
    for s in item["s"]:
        t = tuple(s * b for b in item["b"])
        ops.append((lambda t=t: api.count_closure(system, t), _identity))
        ops.append((lambda t=t: api.count_interior(system, t), _identity))
    return ops


def triangle_ops(api: Api, item: dict, workdir: str):
    lib = api.lib
    spec = lib.TriangleSpec(item["a1"], item["a2"], item["c1"], item["c2"])
    dil = lib.TriangleDilation(*item["t"])
    return [
        (lambda: api.count_closure_triangle(spec, dil), _identity),
        (lambda: api.count_interior_triangle(spec, dil), _identity),
    ]


def polygon_ops(api: Api, item: dict, workdir: str):
    vertices = item["vertices"]

    def op():
        poly = api.PolygonSpec(vertices)
        return [api.count_closure_polygon(poly), api.count_interior_polygon(poly)]

    return [(op, _identity)]


def simplex_file(a, t) -> str:
    rows = "\n".join(" ".join(map(str, row)) for row in a)
    return f"simplex n={len(a) - 1}\n{rows}\nt: {' '.join(map(str, t))}\n"


def polygon_file(vertices) -> str:
    return "polygon\n" + "".join(f"{x} {y}\n" for x, y in vertices)


def cli_args(item: dict, path: str) -> list[str]:
    """latticecount arguments for one generated CLI item (file already at `path`)."""
    kind = item["kind"]
    if kind == "count_auto":
        return ["count", path, "--engine", "auto", "--machine"]
    if kind == "count_interior":
        return ["count", path, "--mode", "interior", "--machine"]
    if kind == "reciprocity":
        return ["reciprocity", path, "--machine"]
    if kind == "polygon":
        return ["polygon", path, "--machine"]
    if kind == "interpolate":
        return ["interpolate", path, "--period", str(item["period"]), "--machine"]
    t1, t2, t3 = item["t"]
    flags = dict(a1=item["a1"], a2=item["a2"], c1=item["c1"], c2=item["c2"], t1=t1, t2=t2, t3=t3)
    return ["triangle", *(f"--{k}={v}" for k, v in flags.items()), "--check-oracle", "--machine"]


class CliOps:
    """Builds `cli_oneshot` ops: one launcher process each, problem files in `workdir`."""

    def __init__(self, tracer: tracing.Tracer | None):
        self.tracer = tracer
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def __call__(self, api, item: dict, workdir: str):
        self.count += 1
        path = os.path.join(workdir, f"p{self.count}.txt")
        if item["kind"] == "polygon":
            text = polygon_file(item["vertices"])
        elif item["kind"] != "triangle":
            text = simplex_file(item["a"], item["t"])
        else:
            text = None
        if text is not None:
            with open(path, "w", encoding="utf-8") as out:
                out.write(text)
        argv = [sys.executable, LAUNCHER] + (["--trace"] if self.tracer else []) + cli_args(item, path)
        return [(lambda: self._run(argv), _identity)]

    def _run(self, argv: list[str]) -> dict:
        start = perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=self.env, timeout=CLI_TIMEOUT_S)
        end = perf_counter()
        stderr = proc.stderr
        if self.tracer and TRACE_MARK in stderr:
            stderr = self._absorb(stderr, start, end)
        return {"code": proc.returncode, "stdout": proc.stdout, "stderr": stderr[-2000:]}

    def _absorb(self, stderr: str, start: float, end: float) -> str:
        """Add one process's spans under a `cli.process` span of this op."""
        head, _, payload = stderr.rpartition(TRACE_MARK)
        record = json.loads(payload)
        tracer = self.tracer
        base = len(tracer.spans)
        tracer.spans.append([tracer.op, base, -1, "cli.process", "cli.process", start, end])
        for op, idx, parent, name, layer, s0, s1 in record["spans"]:
            tracer.spans.append([tracer.op, base + 1 + idx, base if parent < 0 else base + 1 + parent, name, layer, s0, s1])
        tracer.counters["cli.import_s"] += record["import_s"]
        tracer.counters.update(record["counters"])
        for label, (hits, misses, entries) in record["caches"].items():
            total = tracer.counters
            total[f"cache.{label}.hits"] += hits
            total[f"cache.{label}.misses"] += misses
            total[f"cache.{label}.entries"] = max(total[f"cache.{label}.entries"], entries)
        for name in record["absent"]:
            if name not in tracer.absent:
                tracer.absent.append(name)
        return head


def main() -> int:
    cfg = json.loads(sys.argv[1])
    workload, seed, tracing_on = cfg["workload"], cfg["seed"], bool(cfg.get("trace"))
    cycle_fn, warm_fn = workloads.CYCLES[workload]
    workdir = os.path.join(ROOT, ".bench_out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return run(cfg, workload, seed, tracing_on, cycle_fn, warm_fn, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(cfg, workload, seed, tracing_on, cycle_fn, warm_fn, workdir) -> int:
    t = perf_counter()
    items = cycle_fn(seed, 0)
    warm_items = warm_fn(seed)
    gen_s = perf_counter() - t

    tracer = tracing.Tracer() if tracing_on else None
    if workload == "cli_oneshot":
        api = None
        build = CliOps(tracer)
    else:
        import latticecount

        if tracer:
            tracing.install_boundaries(tracer)
        api = Api(latticecount, tracer)
        build = {"simplex_dilate": simplex_ops, "triangle_wide": triangle_ops, "polygon_star": polygon_ops}[workload]

    def ops_of(batch):
        return [op for item in batch for op in build(api, item, workdir)]

    for fn, _ in ops_of(warm_items):
        fn()
    ops = ops_of(items)
    if tracer:
        tracer.reset()
    caches_before = tracing.cache_snapshot() if tracer and api else {}
    first_op_at = monotonic()
    if cfg.get("setup_only"):
        print(json.dumps({"first_op_at": first_op_at, "gen_s": gen_s}))
        return 0

    bound_cycles = cfg.get("cycles")
    usage = resource.RUSAGE_CHILDREN if workload == "cli_oneshot" else resource.RUSAGE_SELF
    deadline = monotonic() + cfg["deadline_s"]
    latencies: list[float] = []
    calibrate = speed.calibrate_process if workload == "cli_oneshot" else speed.calibrate
    calibrations = [(0, calibrate())]
    since_calibration = 0.0
    results: list = []
    cycles: list[list[dict]] = [items]
    while True:
        raw = []
        for fn, post in ops:
            if tracer:
                tracer.op += 1
            t0 = perf_counter()
            try:
                value = fn()
            except Exception as exc:  # an op that raises is a failed op, not a crash
                value = exc
            latencies.append(perf_counter() - t0)
            since_calibration += latencies[-1]
            if since_calibration >= speed.INTERVAL_S:
                calibrations.append((len(latencies), calibrate()))
                since_calibration = 0.0
            raw.append((value, post))
        results.extend({"error": repr(v)} if isinstance(v, Exception) else post(v) for v, post in raw)
        if len(cycles) <= RSS_CYCLES:
            peak_rss_kb = resource.getrusage(usage).ru_maxrss
        if bound_cycles is not None:
            if len(cycles) >= bound_cycles:
                break
        elif sum(latencies) >= cfg["seconds"]:
            break
        if monotonic() > deadline:
            break
        cycles.append(cycle_fn(seed, len(cycles)))
        ops = ops_of(cycles[-1])
    calibrations.append((len(latencies), calibrate()))

    report = {
        "first_op_at": first_op_at,
        "gen_s": gen_s,
        "cycles": cycles,
        "latencies": latencies,
        "scaled": speed.scaled(
            latencies, calibrations, speed.PROCESS_REFERENCE_S if workload == "cli_oneshot" else speed.REFERENCE_S
        ),
        "results": results,
        "peak_rss_kb": peak_rss_kb,
    }
    if tracer:
        counters = tracer.counters
        if api:
            for label, (hits, misses, entries) in tracing.cache_delta(
                caches_before, tracing.cache_snapshot(tracer.absent)
            ).items():
                counters[f"cache.{label}.hits"] = hits
                counters[f"cache.{label}.misses"] = misses
                counters[f"cache.{label}.entries"] = entries
        report["trace"] = {
            **tracing.summarize(tracer.spans),
            "counters": dict(counters),
            "absent": tracer.absent,
            "spans": len(tracer.spans),
        }
        if cfg.get("trace_out"):
            tracing.write_spans(cfg["trace_out"], tracer.spans)
    print(json.dumps(report, default=str))  # Fractions in the inputs as "p/q"
    return 0


if __name__ == "__main__":
    sys.exit(main())
