"""Counting lattice points in arbitrary simple rational polygons.

Any simple polygon with rational vertices is counted edge by edge: the
column trapezoid under each edge is one floor sum over its integer columns,
and exact segment counts restore the boundary points the trapezoids miss.
For integer vertices, Pick's theorem gives an independent sanity check:
Area = Interior + Boundary/2 - 1.
"""

from fractions import Fraction

from latticecount import (
    PolygonSpec,
    boundary_lattice_count,
    count_closure_polygon,
    count_interior_polygon,
    picks_check,
    segment_lattice_count,
)

half = Fraction(5, 2)
shapes = {
    "unit square": PolygonSpec([(0, 0), (1, 0), (1, 1), (0, 1)]),
    "5/2 right triangle": PolygonSpec([(0, 0), (half, 0), (0, half)]),
    "arrowhead (nonconvex)": PolygonSpec([(0, 0), (4, 0), (4, 4), (2, 2), (0, 4)]),
    "thin sliver": PolygonSpec(
        [(0, 0), (3, Fraction(1, 4)), (6, 1), (3, Fraction(3, 4))]
    ),
}

for name, poly in shapes.items():
    closure = count_closure_polygon(poly)
    interior = count_interior_polygon(poly)
    boundary = boundary_lattice_count(poly)
    print(f"{name:24s} closure {closure:3d}  interior {interior:3d}  boundary {boundary:3d}")

print("\nPick's theorem on integer-vertex shapes:")
staircase = PolygonSpec([(0, 0), (3, 0), (3, 1), (5, 1), (5, 4), (0, 4)])
print("  staircase polygon:", picks_check(staircase))
print("  arrowhead:        ", picks_check(shapes["arrowhead (nonconvex)"]))

print("\nsegment counts behind the boundary bookkeeping:")
print("  (0,0)-(3,3) closed:    ", segment_lattice_count((0, 0), (3, 3)))
print("  (0,0)-(3,3) half-open: ", segment_lattice_count((0, 0), (3, 3), True))
print("  (1/2,0)-(5/2,0) closed:", segment_lattice_count((Fraction(1, 2), 0), (half, 0)))
