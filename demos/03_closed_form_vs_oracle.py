"""The closed-form case table against the partition oracle.

For two-distance spaces the distance to any simplex reduces to a case
split on m against two graph invariants of the minimal-distance graph:
k (connected components) and theta (clique covering number).  Every
value is a maximum of affine functions of lambda, so the whole lambda
sweep is an exact piecewise-linear curve.  The partition oracle computes
the same quantity on any finite space, from the extreme (separation,
diameter) pairs of its m-block partitions, found with threshold graphs
and clique covers; the two must and do agree.
"""

from fractions import Fraction

from ghsimplex import (
    cycle_graph,
    gh_curve,
    gh_oracle,
    gh_two_distance,
    graph_invariants,
    min_distance_graph,
    two_distance_space_from_graph,
)

# 5 points at mutual distances 1 (cycle neighbours) and 3/2 (the rest).
tds = two_distance_space_from_graph(cycle_graph(5), Fraction(1), Fraction(3, 2))
g = min_distance_graph(tds)
k, theta = graph_invariants(g)
print(f"n = {tds.n}, a = {tds.a}, b = {tds.b}, k = {k}, theta = {theta}")

lam = Fraction(1)
print(f"\n2*d_GH(simplex_m with side {lam}, X) for m = 1..7:")
for m in range(1, 8):
    gv = gh_two_distance(tds, m, lam)
    oracle = gh_oracle(tds.base, m, lam)
    mark = "ok" if gv.value == oracle else "MISMATCH"
    print(f"  m={m}: closed = {gv.value}  oracle = {oracle}  [{gv.case.tag.value}] {mark}")

# The exact lambda sweep for m = 3: breakpoints, slopes, intercepts.
curve = gh_curve(tds, 3)
print(f"\nlambda sweep at m=3 ({curve.case.tag.value}):")
for seg in curve.segments:
    print(f"  ({seg.lo}, {seg.hi}]  value = {seg.slope} * lambda + {seg.intercept}")
print("curve(2) =", curve.evaluate(2), " closed(2) =", gh_two_distance(tds, 3, 2).value)

# The oracle also covers spaces with many distance values, where no
# closed form applies.
from ghsimplex import validate_metric

general = validate_metric(
    ["a", "b", "c", "d"],
    [[0, 1, "3/2", 2], [1, 0, 1, "3/2"], ["3/2", 1, 0, 1], [2, "3/2", 1, 0]],
)
for m in range(1, 5):
    print(f"general 4-point space, m={m}: 2*d_GH =", gh_oracle(general, m, Fraction(1)))
