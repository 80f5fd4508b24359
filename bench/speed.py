"""Machine-speed calibration for the benchmark's time metrics.

On a shared two-core machine the interpreter's speed drifts by 10-20 %
within seconds, and the drift is the same for every kind of interpreted
work.  A fixed calibration loop run between ops tracks it: scaling each
op's wall time by REFERENCE_S / (time of the nearby calibration loops)
turns a window-to-window spread of about 14 % into about 2 % (measured on
the library's Dedekind-Rademacher loop and on polygon counts).  Scaled
times are reported in "reference milliseconds": the wall time the op would
take on a machine where `calibrate()` takes exactly REFERENCE_S.  The loop
uses no library code, so a change to the library cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.001
PROCESS_REFERENCE_S = 0.06
WINDOW = 3  # calibrations on each side of an op that set its scale
INTERVAL_S = 0.02  # op time between calibrations

_LOOP = """
def loop():
    total = Fraction(0)
    table = {}
    for k in range(1, 200):
        total += Fraction(k, 97) * Fraction(3, k + 1)
        table[k] = (k * 7) % 13
"""
_namespace = {"Fraction": Fraction}
exec(_LOOP, _namespace)


def calibrate() -> float:
    """Wall time of one fixed pass of rational and dict arithmetic (about 1 ms)."""
    t0 = perf_counter()
    _namespace["loop"]()
    return perf_counter() - t0


def calibrate_process() -> float:
    """Wall time of a fresh interpreter that runs the same loop (about 60 ms).

    Ops that start processes spend most of their time in interpreter start
    and imports, which the in-process loop tracks less well.
    """
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", f"from fractions import Fraction\n{_LOOP}\nloop()"], check=True)
    return perf_counter() - t0


def scaled(latencies: list[float], calibrations: list[tuple[int, float]], reference: float = REFERENCE_S) -> list[float]:
    """Latencies in reference seconds.

    `calibrations` holds (ops done before it, seconds) in run order.  Op i
    is scaled by the median of the WINDOW calibrations on each side of it,
    which ignores a single calibration hit by a garbage collection.
    """
    positions = [pos for pos, _ in calibrations]
    out = []
    for i, latency in enumerate(latencies):
        j = bisect.bisect_right(positions, i)  # first calibration after op i
        near = [value for _, value in calibrations[max(0, j - WINDOW) : j + WINDOW]]
        out.append(latency * reference / statistics.median(near))
    return out
