"""In-memory spans at the library's cross-module call sites, and their totals.

A `Tracer` hands out wrappers.  Each call through a wrapper appends one span
record `[op, span, parent, name, layer, start, end]`; spans opened while
another is open name it as parent, and all spans of one benchmark op share
the op id.  Nothing is written until the run ends (`write_spans`).

`install_boundaries` replaces the library's module-level names that other
library modules call through, so the library itself is unchanged on disk
and in untraced runs.  A name a later version of the library no longer has
is recorded in `Tracer.absent` instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import Counter
from time import perf_counter

# (module, attribute, layer) for the calls that cross a module boundary.
BOUNDARIES = (
    ("latticecount.recursion", "unimodular_reduce", "reduction"),
    ("latticecount.triangle", "dedekind_rademacher_sum", "dedekind"),
    ("latticecount.polygon", "count_closure_triangle", "triangle"),
    ("latticecount.polygon", "segment_lattice_count", "polygon.segment"),
)

# Names the CLI module imports from the library, and the layer each belongs to.
CLI_NAMES = (
    ("count_closure", "recursion"),
    ("count_interior", "recursion"),
    ("reciprocity_check", "recursion"),
    ("count_closure_triangle", "triangle"),
    ("count_closure_polygon", "polygon"),
    ("count_interior_polygon", "polygon"),
    ("count_closure_bruteforce", "oracle"),
    ("count_interior_bruteforce", "oracle"),
    ("interpolate", "quasipoly"),
)

# label -> (module, attribute) of an lru_cache whose hit ratio is reported.
CACHES = {
    "reduction": ("latticecount.recursion", "_level"),
    "dedekind": ("latticecount.dedekind", "_dr_sum_cached"),
    "triangle": ("latticecount.triangle", "_nu_parts"),
    "polygon": ("latticecount.polygon", "_triangulation"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.counters: Counter = Counter()
        self.absent: list[str] = []

    def reset(self) -> None:
        """Drop everything recorded so far (used after the warm-up)."""
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()

    def wrap(self, fn, name: str, layer: str):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [self.op, idx, stack[-1] if stack else -1, name, layer, perf_counter(), 0.0]
            spans.append(rec)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[6] = perf_counter()
                stack.pop()

        return traced


def _resolve(module: str, attr: str):
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        return None


def install_boundaries(tracer: Tracer) -> None:
    """Wrap the cross-module call sites in BOUNDARIES."""
    for module, attr, layer in BOUNDARIES:
        fn = _resolve(module, attr)
        if fn is None:
            tracer.absent.append(f"{module}.{attr}")
            continue
        wrapped = tracer.wrap(fn, f"{module.rsplit('.', 1)[1]}.{attr}", layer)
        if attr == "dedekind_rademacher_sum":
            wrapped = _count_loop_terms(tracer, wrapped)
        setattr(importlib.import_module(module), attr, wrapped)


def _count_loop_terms(tracer: Tracer, fn):
    """Add the modulus c of every Dedekind-Rademacher call that missed the cache.

    The seed's sum loops over k = 0..c-1 on a miss, so the total is the
    number of loop terms evaluated.
    """
    cached = _resolve(*CACHES["dedekind"])
    if cached is None or not hasattr(cached, "cache_info"):
        tracer.absent.append("dedekind.loop_terms")
        return fn

    def counted(c, *args, **kwargs):
        before = cached.cache_info().misses
        try:
            return fn(c, *args, **kwargs)
        finally:
            if cached.cache_info().misses != before:
                tracer.counters["dedekind.loop_terms"] += c

    return counted


def install_cli_names(tracer: Tracer, cli_module) -> None:
    for attr, layer in CLI_NAMES:
        fn = getattr(cli_module, attr, None)
        if fn is None:
            tracer.absent.append(f"latticecount.cli.{attr}")
            continue
        setattr(cli_module, attr, tracer.wrap(fn, f"cli.{attr}", layer))


def cache_snapshot(absent: list[str] | None = None) -> dict[str, list[int]]:
    """label -> [hits, misses, entries] for every cache that exists."""
    out = {}
    for label, (module, attr) in CACHES.items():
        fn = _resolve(module, attr)
        if fn is None or not hasattr(fn, "cache_info"):
            if absent is not None:
                absent.append(f"{module}.{attr}")
            continue
        info = fn.cache_info()
        out[label] = [info.hits, info.misses, info.currsize]
    return out


def cache_delta(before: dict, after: dict) -> dict[str, list[int]]:
    """Hits and misses between two snapshots, entries at the second."""
    return {
        label: [after[label][0] - before[label][0], after[label][1] - before[label][1], after[label][2]]
        for label in after
        if label in before
    }


def summarize(spans: list[list]) -> dict:
    """Per layer: span count and self time; per span name: count and total time."""
    child_time = [0.0] * len(spans)
    for _, _, parent, _, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers: dict[str, list[float]] = {}
    names: dict[str, list[float]] = {}
    for i, (_, _, _, name, layer, start, end) in enumerate(spans):
        entry = layers.setdefault(layer, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - child_time[i]
        entry = names.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += end - start
    return {"layers": layers, "names": names}


def write_spans(path: str, spans: list[list]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    keys = ("op", "span", "parent", "name", "layer", "start", "end")
    with open(path, "w", encoding="utf-8") as out:
        for rec in spans:
            out.write(json.dumps(dict(zip(keys, rec))) + "\n")
