"""Metric-graph skeleta: refinements, retractions and their composition
law, finite-tower separation of points, and ordered subdivision sets with
formal completion.

Run with:  python3 demos/04_skeleton_towers.py
"""

from fractions import Fraction

from nonarch import (GraphPoint, Refinement, SkeletonGraph, SkeletonTower,
                     SubdivisionSet, compose, compose_check, retract,
                     subdivision_union, tower_separation)
from nonarch.errors import NotSeparatedError

# --- a three-level tower ----------------------------------------------------
# level 0: a single edge a--b of length 2
# level 1: the edge subdivided at its midpoint m
# level 2: a further subdivision plus a hanging tree at m
g0 = SkeletonGraph.build(["a", "b"], [("e", "a", "b", Fraction(2))])
g1 = SkeletonGraph.build(["a", "m", "b"],
                         [("e1", "a", "m", 1), ("e2", "m", "b", 1)])
g2 = SkeletonGraph.build(
    ["a", "c", "m", "b", "t1", "t2"],
    [("f1", "a", "c", Fraction(1, 2)), ("f2", "c", "m", Fraction(1, 2)),
     ("f3", "m", "b", 1), ("h1", "m", "t1", 2), ("h2", "t1", "t2", 1)])

r01 = Refinement(g0, g1, {"a": "a", "b": "b"},
                 {"e": [("e1", 1), ("e2", 1)]})
r12 = Refinement(g1, g2, {"a": "a", "m": "m", "b": "b"},
                 {"e1": [("f1", 1), ("f2", 1)], "e2": [("f3", 1)]})
tower = SkeletonTower((g0, g1, g2), (r01, r12))

# --- retraction --------------------------------------------------------------
# Image points keep their arclength position; hanging trees collapse to
# their attachment point.
pt = GraphPoint.on_edge("f2", Fraction(1, 4))
print("retract f2@1/4 to level 1:", retract(pt, r12))
hang = GraphPoint.on_edge("h2", Fraction(1, 3))
print("retract a hanging point:", retract(hang, r12))

# --- composition law ----------------------------------------------------------
# Retracting level 2 -> level 1 -> level 0 agrees with the composite
# retraction level 2 -> level 0 everywhere.
r02 = compose(r12, r01)
print("\ncomposite path of edge e:", r02.edge_paths["e"])
report = compose_check(r12, r01)
print("composition law on every point:", "ok" if report.ok else report.message)

# --- separation ----------------------------------------------------------------
# Distinct points are told apart at the first level whose retractions
# differ; points on the same hanging tree may legitimately not separate.
x = GraphPoint.on_edge("f1", Fraction(1, 4))
y = GraphPoint.on_edge("f3", Fraction(1, 4))
print("\nseparation level of f1@1/4 vs f3@1/4:", tower_separation(tower, x, y))
u = GraphPoint.at_vertex("t1")
v = GraphPoint.at_vertex("t2")
try:
    tower_separation(tower, u, v)
except NotSeparatedError as exc:
    print("t1 vs t2:", exc)

# --- subdivision sets ------------------------------------------------------------
# Nested cut sets on an edge merge into one ordered set; the formal
# endpoints complete it and reversal flips the orientation.
s = SubdivisionSet(Fraction(2), ((Fraction(1),),
                                 (Fraction(1, 2), Fraction(1), Fraction(3, 2))))
comp = subdivision_union(s)
print("\ncompleted subdivision:", comp.points)
print("reversal of 1/2:", comp.reversal(Fraction(1, 2)))
print("reversal twice is the identity:",
      [comp.reversal(comp.reversal(t)) for t in comp.points] == list(comp.points))
