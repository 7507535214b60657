"""The generalized Borsuk question: splitting into parts of smaller diameter.

Can a space be partitioned into m pieces, each of strictly smaller
diameter than the whole?  A piece is below the diameter exactly when it
is a clique of the graph joining the pairs closer than the diameter, so
the answer flips from "no" to "yes" at the clique covering number of
that graph, and a witness partition into cliques exists from that point
on.  For a two-distance space the graph is the minimal-distance graph.
"""

from fractions import Fraction

from ghsimplex import (
    borsuk_feasible,
    cycle_graph,
    graph_invariants,
    min_distance_graph,
    partition_diameter,
    two_distance_space_from_graph,
    validate_metric,
)

tds = two_distance_space_from_graph(cycle_graph(5), Fraction(1), Fraction(3, 2))
space = tds.base
theta = graph_invariants(min_distance_graph(tds))[1]
print(f"5 points, distances {{1, 3/2}}, theta = {theta}")

for m in range(1, 6):
    feasible, witness = borsuk_feasible(space, m)
    if witness is None:
        print(f"  m={m}: infeasible")
    else:
        blocks = " | ".join(" ".join(space.points[i] for i in blk) for blk in witness.blocks)
        print(f"  m={m}: feasible, witness {blocks} (diam {partition_diameter(space, witness)})")

# An equilateral triangle plus a remote point: the pairs closer than the
# diameter 2 form the triangle, one clique, so two parts already suffice.
general = validate_metric(
    ["p", "q", "r", "far"],
    [[0, 1, 1, 2], [1, 0, 1, 2], [1, 1, 0, 2], [2, 2, 2, 0]],
)
for m in range(1, 5):
    feasible, witness = borsuk_feasible(general, m)
    print(f"general space, m={m}: {'feasible' if feasible else 'infeasible'}",
          f"witness={witness.blocks if witness else None}")
