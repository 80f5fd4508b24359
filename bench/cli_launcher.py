"""Run `latticecount.cli.main` in a fresh interpreter, optionally traced.

The package is not installed in a source checkout, so the benchmark starts
this file with PYTHONPATH pointing at `src`:

    python3 bench/cli_launcher.py [--trace] <latticecount arguments>

Untraced, it behaves like the `latticecount` console script.  With
`--trace`, it times the import of the CLI module, wraps the library names
the CLI module calls (and the library's cross-module call sites), and
writes one JSON line to stderr, after the CLI's own output, marked with
`TRACE_MARK`.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

TRACE_MARK = "@@bench-trace "


def main(argv: list[str]) -> int:
    if not argv or argv[0] != "--trace":
        from latticecount.cli import main as cli_main

        return cli_main(argv)

    t0 = perf_counter()
    import latticecount.cli as cli

    import_s = perf_counter() - t0
    import tracing

    tracer = tracing.Tracer()
    tracing.install_boundaries(tracer)
    tracing.install_cli_names(tracer, cli)
    before = tracing.cache_snapshot(tracer.absent)
    code = tracer.wrap(cli.main, "cli.main", "cli")(argv[1:])
    record = {
        "import_s": import_s,
        "spans": tracer.spans,
        "counters": dict(tracer.counters),
        "caches": tracing.cache_delta(before, tracing.cache_snapshot()),
        "absent": tracer.absent,
    }
    sys.stdout.flush()
    sys.stderr.write(TRACE_MARK + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
