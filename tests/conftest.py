"""Shared fixtures and random-instance generators.

Two reference spaces recur everywhere:

* E1: 4 points, distances {1, 2}, minimal-distance graph = two disjoint
  edges (k = theta = 2).
* E2: 5 points, distances {1, 3/2}, minimal-distance graph = C5
  (k = 1, theta = 3).

All randomness is seeded per test, so the suite is deterministic.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from ghsimplex import (
    FiniteMetricSpace,
    SimpleGraph,
    TwoDistanceSpace,
    ad_set,
    cycle_graph,
    diameter,
    h_value,
    two_distance_space_from_graph,
    validate_metric,
)

E1_POINTS = ["x1", "x2", "x3", "x4"]
E1_MATRIX = [
    [0, 1, 2, 2],
    [1, 0, 2, 2],
    [2, 2, 0, 1],
    [2, 2, 1, 0],
]


@pytest.fixture(scope="session")
def e1_space() -> FiniteMetricSpace:
    return validate_metric(E1_POINTS, E1_MATRIX)


@pytest.fixture(scope="session")
def e1_tds(e1_space) -> TwoDistanceSpace:
    from ghsimplex import as_two_distance

    return as_two_distance(e1_space)


@pytest.fixture(scope="session")
def e2_tds() -> TwoDistanceSpace:
    return two_distance_space_from_graph(cycle_graph(5), Fraction(1), Fraction(3, 2))


@pytest.fixture(scope="session")
def e2_space(e2_tds) -> FiniteMetricSpace:
    return e2_tds.base


@pytest.fixture
def color_searches(monkeypatch) -> list:
    """The node limit of every coloring search run during the test."""
    import ghsimplex.graphs as graphs

    searches = []
    real = graphs._color

    def counting(g, node_limit):
        searches.append(node_limit)
        return real(g, node_limit)

    monkeypatch.setattr(graphs, "_color", counting)
    return searches


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> SimpleGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return SimpleGraph(n, frozenset(edges))


def random_usable_graph(rng: random.Random, n: int, p: float = 0.5) -> SimpleGraph:
    """Random graph that is neither complete nor edgeless (needs n >= 3)."""
    while True:
        g = random_graph(rng, n, p)
        if not g.is_complete() and not g.is_edgeless():
            return g


def random_ab(rng: random.Random) -> tuple[Fraction, Fraction]:
    """Random exact pair with a < b <= 2a, so any graph yields a metric."""
    a = Fraction(rng.randint(1, 8), rng.randint(1, 8))
    q = rng.randint(1, 6)
    b = a + a * Fraction(rng.randint(1, q), q)
    return a, b


def random_two_distance(
    rng: random.Random, n_min: int = 3, n_max: int = 8
) -> TwoDistanceSpace:
    n = rng.randint(n_min, n_max)
    g = random_usable_graph(rng, n)
    a, b = random_ab(rng)
    return two_distance_space_from_graph(g, a, b)


def random_cluster_two_distance(
    rng: random.Random, n_min: int = 4, n_max: int = 8
) -> TwoDistanceSpace:
    """Two-distance space with b > 2a; the minimal-distance graph must then
    be a disjoint union of cliques for the triangle inequality to hold."""
    n = rng.randint(n_min, n_max)
    while True:
        order = list(range(n))
        rng.shuffle(order)
        blocks = []
        while order:
            take = rng.randint(1, len(order))
            blocks.append(order[:take])
            order = order[take:]
        if len(blocks) >= 2 and any(len(blk) >= 2 for blk in blocks):
            break
    edges = frozenset(
        (min(u, v), max(u, v))
        for blk in blocks
        for u, v in itertools.combinations(blk, 2)
    )
    g = SimpleGraph(n, edges)
    a = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    b = 2 * a + a * Fraction(rng.randint(1, 4), 4)
    return two_distance_space_from_graph(g, a, b)


PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def coprime_matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    """A metric with entries in [1, 2] on pairwise-coprime denominators:
    its scale, the lcm of the denominators, runs to tens of bits."""
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q = rng.choice(PRIMES)
            matrix[i][j] = matrix[j][i] = Fraction(rng.randint(q, 2 * q), q)
    return matrix


def random_metric_space(
    rng: random.Random, n: int, denominator: int = 10
) -> FiniteMetricSpace:
    """Random exact metric with values in [1, 2] on a grid of step
    1/denominator; the triangle inequality holds automatically because
    2 <= 1 + 1.  A coarse grid makes the diameter repeat across many pairs."""
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = Fraction(rng.randint(denominator, 2 * denominator), denominator)
            matrix[i][j] = matrix[j][i] = d
    return validate_metric([f"p{i}" for i in range(n)], matrix)


def enumerated_oracle(space: FiniteMetricSpace, m: int, lam: Fraction) -> Fraction:
    """``gh_oracle``'s value from the enumeration route: the minimum over
    every (alpha, diam) pair of the m-block partitions (``ad_set``), the
    reference that the threshold route is held to."""
    diam = diameter(space)
    if m > space.n:
        return max(diam - lam, lam)
    return max(diam - lam, min(h_value(p, lam) for p in ad_set(space, m)))


def pointwise_oracle(space: FiniteMetricSpace, m: int, lam: Fraction) -> Fraction:
    """The distance formula evaluated at one lambda over the threshold
    table's corners, the reference that the oracle curve is held to."""
    diam = diameter(space)
    if m > space.n:
        return max(diam - lam, lam)
    return max(diam - lam, min(h_value(p, lam) for p in space.thresholds.corners(m)))


def all_graphs(n: int):
    """Every simple graph on n vertices, by edge-subset enumeration."""
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(slots)):
        edges = frozenset(slots[t] for t in range(len(slots)) if (mask >> t) & 1)
        yield SimpleGraph(n, edges)


def stirling2(n: int, m: int) -> int:
    """Stirling numbers of the second kind by the standard recurrence."""
    if n == 0:
        return 1 if m == 0 else 0
    if m == 0 or m > n:
        return 0
    row = [0] * (m + 1)
    row[0] = 1
    for i in range(1, n + 1):
        new = [0] * (m + 1)
        for k in range(1, min(i, m) + 1):
            new[k] = k * row[k] + row[k - 1]
        new[0] = 1 if i == 0 else 0
        row = new
    return row[m]
