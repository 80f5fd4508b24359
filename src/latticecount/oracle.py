"""Brute-force lattice-point enumeration, the ground truth for everything else.

Counts are obtained by walking the integer bounding box of the vertex set and
testing each point against all facet inequalities in exact integer
arithmetic.  This is deliberately naive: it exists so the closed forms and
the inductive counter have an independent, obviously-correct reference at
desk scale.  A cell budget guards against accidentally huge boxes.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .core import (
    InvalidDilationError,
    LatticeCountError,
    Point,
    SimplexSystem,
    check_dilation,
    validate_dilation,
)

DEFAULT_CELL_BUDGET = 10**8


class CellBudgetExceededError(LatticeCountError):
    """The bounding box has more cells than the enumeration budget allows."""


def _bounding_box(verts: Sequence[Point]) -> tuple[list[range], int]:
    """(Per-axis integer ranges, cell count) of the bounding box of the
    vertices of a nonempty dilation, as listed by its `ValidityReport`."""
    ranges = [range(math.ceil(min(c)), math.floor(max(c)) + 1) for c in zip(*verts)]
    return ranges, math.prod(len(r) for r in ranges)


def _count(
    system: SimplexSystem, t: Sequence[int], strict: bool, cell_budget: int | None
) -> int:
    vec = check_dilation(system, t)
    budget = DEFAULT_CELL_BUDGET if cell_budget is None else cell_budget
    report = validate_dilation(system, vec)
    if not report.nonempty:
        raise InvalidDilationError("region is empty; nothing to enumerate")
    ranges, cells = _bounding_box(report.vertices)
    if cells > budget:
        raise CellBudgetExceededError(
            f"bounding box has {cells} cells, budget is {budget}"
        )
    rows = system.a_matrix
    count = 0
    for point in itertools.product(*ranges):
        ok = True
        for row, ti in zip(rows, vec):
            s = 0
            for a, x in zip(row, point):
                s += a * x
            if (s >= ti) if strict else (s > ti):
                ok = False
                break
        if ok:
            count += 1
    return count


def count_closure_bruteforce(
    system: SimplexSystem, t: Sequence[int], cell_budget: int | None = None
) -> int:
    """Exact cardinality of {m in Z^n : A m <= t} by box enumeration."""
    return _count(system, t, strict=False, cell_budget=cell_budget)


def count_interior_bruteforce(
    system: SimplexSystem, t: Sequence[int], cell_budget: int | None = None
) -> int:
    """Exact cardinality of {m in Z^n : A m < t} (all inequalities strict)."""
    return _count(system, t, strict=True, cell_budget=cell_budget)
