"""Closed-form distances to simplexes for two-distance spaces.

For a two-distance space X with values a < b on n points, let G be its
minimal-distance graph, k the number of connected components of G and
theta its clique covering number.  Twice the Gromov-Hausdorff distance
between the m-point simplex of side lambda and X is then given by a
nine-way case split on (m, n, k, theta).  Each case names one extreme
(alpha, diam) pair, and its value is the general formula with that pair
alone: max(b - lambda, max(diam, lambda - alpha)).  The pair makes one
exact piecewise-linear curve per space and m, built on first use by the
builder the partition oracle also uses and kept on the space;
:func:`gh_two_distance` reads its value off that curve.  It is the
r = 2 instance of the oracle's curve: the tests hold the case's pair to
the threshold table's corners and the two curves equal segment for
segment.

Run in reverse over a space built from a graph, the table recovers the
clique covering number and the chromatic number of that graph.

The same clique-cover argument decides the generalized Borsuk problem
(can X be split into m parts of strictly smaller diameter?) for every
finite space: a part is below diam X exactly when it is a clique of
G_{<diam X}, the graph of the pairs closer than diam X, so the answer is
m >= theta(G_{<diam X}).  For a two-distance space that graph is G.
Points pairwise at diam X need a part each, so more than m of them
answer "no" at once: the decision first asks the greedy clique of the
diameter pairs, and computes theta only when that clique is too small.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .curves import PiecewiseLinearCurve, curve_from_pairs
from .errors import BadParameters, DegenerateGraph, SinglePoint
from .graphs import (
    SimpleGraph,
    chromatic_number,
    complement,
    connected_components,
)
from .metric import (
    ADPoint,
    FiniteMetricSpace,
    TwoDistanceSpace,
    min_distance_graph,
    two_distance_space_from_graph,
)
from .partitions import Partition, partition_from_blocks
from .rationals import INF, check_int, check_m, exact


class GHCaseTag(enum.Enum):
    M_EQ_1 = "M_EQ_1"
    M_LT_K = "M_LT_K"
    M_EQ_K_EQ_THETA = "M_EQ_K_EQ_THETA"
    K_EQ_THETA_LT_M_LT_N = "K_EQ_THETA_LT_M_LT_N"
    M_LE_K_LT_THETA = "M_LE_K_LT_THETA"
    K_LT_M_LT_THETA = "K_LT_M_LT_THETA"
    THETA_LE_M_LT_N = "THETA_LE_M_LT_N"
    M_EQ_N = "M_EQ_N"
    M_GT_N = "M_GT_N"


@dataclass(frozen=True)
class GHCase:
    tag: GHCaseTag
    m: int
    n: int
    k: int
    theta: int


@dataclass(frozen=True)
class GHValue:
    """Twice the distance, together with the case that produced it."""

    value: Fraction
    case: GHCase


def classify_case_from_params(m: int, n: int, k: int, theta: int) -> GHCaseTag:
    """The unique case tag for the parameter combination.

    Checked in a fixed order (m = 1 first, then the outer regimes), so
    exactly one tag applies to every admissible combination.
    """
    for value, what in ((n, "n"), (k, "k"), (theta, "theta")):
        check_int(value, what)
    if not (1 <= k <= theta <= n - 1):
        raise ValueError(f"need 1 <= k <= theta <= n-1, got k={k}, theta={theta}, n={n}")
    check_m(m, None)
    if m == 1:
        return GHCaseTag.M_EQ_1
    if m > n:
        return GHCaseTag.M_GT_N
    if m == n:
        return GHCaseTag.M_EQ_N
    if k == theta:
        if m < k:
            return GHCaseTag.M_LT_K
        if m == k:
            return GHCaseTag.M_EQ_K_EQ_THETA
        return GHCaseTag.K_EQ_THETA_LT_M_LT_N
    if m <= k:
        return GHCaseTag.M_LE_K_LT_THETA
    if m < theta:
        return GHCaseTag.K_LT_M_LT_THETA
    return GHCaseTag.THETA_LE_M_LT_N


# theta is the expensive ingredient.  The graph keeps its components and
# the coloring of its complement, so every m of a sweep, and a *_via_gh
# route on a graph already colored, reads both without a second search.
def graph_invariants(g: SimpleGraph) -> tuple[int, int]:
    """(number of components, clique covering number) of ``g``."""
    k, _ = connected_components(g)
    # theta(G) = chi(complement of G); no cover witness is needed here.
    theta, _ = chromatic_number(complement(g))
    return k, theta


def classify_case(tds: TwoDistanceSpace, m: int) -> GHCase:
    g = min_distance_graph(tds)
    k, theta = graph_invariants(g)
    tag = classify_case_from_params(m, tds.n, k, theta)
    return GHCase(tag, m, tds.n, k, theta)


def _case_pair(tag: GHCaseTag, a: Fraction, b: Fraction) -> ADPoint:
    """The case's one extreme (alpha, diam) pair: the case formula is
    max(b - lambda, max(diam, lambda - alpha))."""
    if tag is GHCaseTag.M_EQ_1:
        return ADPoint(INF, b)
    if tag in (GHCaseTag.M_LT_K, GHCaseTag.M_LE_K_LT_THETA):
        return ADPoint(b, b)
    if tag is GHCaseTag.M_EQ_K_EQ_THETA:
        return ADPoint(b, a)
    if tag is GHCaseTag.K_LT_M_LT_THETA:
        return ADPoint(a, b)
    if tag in (GHCaseTag.K_EQ_THETA_LT_M_LT_N, GHCaseTag.THETA_LE_M_LT_N):
        return ADPoint(a, a)
    if tag is GHCaseTag.M_EQ_N:
        return ADPoint(a, Fraction(0))
    assert tag is GHCaseTag.M_GT_N
    return ADPoint(Fraction(0), Fraction(0))


def gh_two_distance(
    tds: TwoDistanceSpace, m: int, lam: Union[Fraction, int, str]
) -> GHValue:
    """Twice the Gromov-Hausdorff distance to the m-point simplex of side ``lam``."""
    curve = gh_curve(tds, m)
    return GHValue(curve.evaluate(lam), curve.case)


def gh_curve(tds: TwoDistanceSpace, m: int) -> PiecewiseLinearCurve:
    """Exact lambda sweep of the case formula as a piecewise-linear curve,
    built on the first query for each m and kept on the space: the curve
    of the case's one extreme pair."""
    # Checked before the lookup: True and 2.0 hash as the ints 1 and 2.
    check_m(m, None)
    got = tds.cases.get(m)
    if got is None:
        case = classify_case(tds, m)
        got = tds.cases[m] = curve_from_pairs(tds.b, (_case_pair(case.tag, tds.a, tds.b),), case)
    return got


def _split_to_m_blocks(blocks: Sequence[Sequence[int]], m: int, n: int) -> Partition:
    """Refine a partition until it has m blocks by peeling singletons off."""
    work = [list(b) for b in blocks]
    while len(work) < m:
        donor = next(blk for blk in work if len(blk) > 1)
        work.append([donor.pop()])
    return partition_from_blocks(work, n)


def borsuk_feasible(
    space: FiniteMetricSpace, m: int
) -> tuple[bool, Optional[Partition]]:
    """Can the space be split into m parts of strictly smaller diameter?

    A part has diameter below diam X exactly when it is a clique of
    G_{<diam X}, the graph joining the pairs closer than diam X.  So the
    split exists iff m >= theta(G_{<diam X}); the witness is a minimum
    clique cover refined to m blocks.  For a two-distance space this graph
    is the minimal-distance graph and the rule is the paper's m >= theta.
    The cover is the space's threshold-table cell at separation v_0 and
    diameter v_{r-2}, the largest distance below diam X, so it is
    computed once per space.  Before it, the cell's greedy clique (the
    coloring kernel's own lower bound, points pairwise at diam X) answers
    "no" with no coloring search when it has more than m points; a
    feasible answer always comes from the exact cover.
    """
    n = space.n
    if n < 2:
        raise SinglePoint("the Borsuk question needs at least two points")
    check_m(m, n)
    table, j = space.thresholds, len(space.steps) - 2
    if table.refutes(0, j, m):
        return False, None
    cover = table.cover(0, j)
    if m < cover.size:
        return False, None
    return True, _split_to_m_blocks(cover.blocks, m, n)


def _checked_graph_params(g: SimpleGraph, a: Fraction, b: Fraction) -> None:
    if not (0 < a < b):
        raise BadParameters(f"need 0 < a < b, got a={a}, b={b}")
    if b > 2 * a:
        raise BadParameters(f"need b <= 2a, got a={a}, b={b}")
    if g.n < 2 or g.is_complete() or g.is_edgeless():
        raise DegenerateGraph(
            "complete or edgeless graphs collapse to a one-distance space; "
            "use the direct solvers instead"
        )


def _sweep_first_drop(tds: TwoDistanceSpace, lam: Fraction, b: Fraction) -> int:
    """Smallest m whose distance value falls below b.  The value is b at
    m = 1, below b at m = n (case M_EQ_N) and non-increasing in m, so a
    bisection over [1, n] finds the drop from O(log n) curves."""
    lo, hi = 1, tds.n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if gh_two_distance(tds, mid, lam).value == b:
            lo = mid
        else:
            hi = mid
    return hi


def clique_cover_via_gh(g: SimpleGraph, a: Fraction, b: Fraction) -> int:
    """Clique covering number recovered from distances to simplexes.

    Builds the space on the vertices with distance ``a`` exactly between
    adjacent pairs, then finds the greatest m with
    2 d_GH(a simplex_m, V) = b; the answer is that m plus one.
    """
    a, b = exact(a, "a"), exact(b, "b")
    _checked_graph_params(g, a, b)
    tds = two_distance_space_from_graph(g, a, b)
    return _sweep_first_drop(tds, a, b)


def chromatic_via_gh(g: SimpleGraph, a: Fraction, b: Fraction) -> int:
    """Chromatic number recovered the same way, with distance ``b`` between
    adjacent pairs (the minimal-distance graph becomes the complement)."""
    a, b = exact(a, "a"), exact(b, "b")
    _checked_graph_params(g, a, b)
    tds = two_distance_space_from_graph(complement(g), a, b)
    return _sweep_first_drop(tds, a, b)
