"""Finite metric spaces with exact rational distances.

A :class:`FiniteMetricSpace` is an ordered list of opaque point ids plus a
validated symmetric distance matrix of ``Fraction`` entries.  A
:class:`TwoDistanceSpace` specializes it to spaces whose off-diagonal
distances take exactly two values ``a < b``; for those the graph of
minimal distances drives everything downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    Asymmetric,
    EmptySubset,
    NonPositiveOffDiagonal,
    NonZeroDiagonal,
    NotTwoDistance,
    TriangleViolation,
)
from .graphs import SimpleGraph
from .rationals import exact


@dataclass(frozen=True)
class FiniteMetricSpace:
    points: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.points)

    def distance(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def index_of(self, point_id: str) -> int:
        return self.points.index(point_id)

    def off_diagonal_values(self) -> frozenset[Fraction]:
        n = self.n
        return frozenset(self.dist[i][j] for i in range(n) for j in range(i + 1, n))


@dataclass(frozen=True)
class TwoDistanceSpace:
    base: FiniteMetricSpace
    a: Fraction
    b: Fraction

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def points(self) -> tuple[str, ...]:
        return self.base.points


def validate_metric(
    points: Sequence[str], matrix: Sequence[Sequence[Union[Fraction, int, str]]]
) -> FiniteMetricSpace:
    """Check every metric axiom and return the validated space.

    Raises :class:`NonZeroDiagonal`, :class:`Asymmetric`,
    :class:`NonPositiveOffDiagonal` or :class:`TriangleViolation`, each
    naming the offending indices.
    """
    ids = tuple(str(p) for p in points)
    n = len(ids)
    if n < 1:
        raise ValueError("a metric space needs at least one point")
    if len(set(ids)) != n:
        raise ValueError("point ids must be unique")
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"matrix must be {n}x{n} to match the point list")

    dist = tuple(
        tuple(exact(matrix[i][j], f"dist[{i}][{j}]") for j in range(n))
        for i in range(n)
    )
    for i in range(n):
        if dist[i][i] != 0:
            raise NonZeroDiagonal(i)
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i][j] != dist[j][i]:
                raise Asymmetric(i, j)
            if dist[i][j] <= 0:
                raise NonPositiveOffDiagonal(i, j)
    for i in range(n):
        for j in range(i + 1, n):
            bound = dist[i][j]
            for k in range(n):
                if k != i and k != j and bound > dist[i][k] + dist[k][j]:
                    raise TriangleViolation(i, j, k)
    return FiniteMetricSpace(ids, dist)


def diameter(space: FiniteMetricSpace) -> Fraction:
    """Largest distance in the space; 0 for a single point."""
    best = Fraction(0)
    n = space.n
    for i in range(n):
        for j in range(i + 1, n):
            if space.dist[i][j] > best:
                best = space.dist[i][j]
    return best


def as_two_distance(space: FiniteMetricSpace) -> TwoDistanceSpace:
    """View ``space`` as a two-distance space, or raise :class:`NotTwoDistance`.

    When exactly two off-diagonal values occur, every structural invariant
    (n >= 3, diameter = b, minimal-distance graph neither edgeless nor
    complete) holds automatically.
    """
    values = sorted(space.off_diagonal_values())
    if len(values) != 2:
        raise NotTwoDistance(len(values))
    return TwoDistanceSpace(space, values[0], values[1])


def hausdorff_distance(
    space: FiniteMetricSpace, subset_a: Iterable[int], subset_b: Iterable[int]
) -> Fraction:
    """max over each subset of the distance to the nearest point of the other."""
    sa = sorted(set(subset_a))
    sb = sorted(set(subset_b))
    if not sa or not sb:
        raise EmptySubset("Hausdorff distance needs two non-empty subsets")
    dist = space.dist

    def one_sided(src: list[int], dst: list[int]) -> Fraction:
        return max(min(dist[i][j] for j in dst) for i in src)

    return max(one_sided(sa, sb), one_sided(sb, sa))


def min_distance_graph(tds: TwoDistanceSpace) -> SimpleGraph:
    """Graph on the points with edges exactly the pairs at the smaller distance."""
    n = tds.n
    dist = tds.base.dist
    edges = frozenset(
        (i, j) for i in range(n) for j in range(i + 1, n) if dist[i][j] == tds.a
    )
    return SimpleGraph(n, edges)


def two_distance_space_from_graph(
    g: SimpleGraph,
    a: Fraction,
    b: Fraction,
    labels: Optional[Sequence[str]] = None,
) -> TwoDistanceSpace:
    """Metric space on the vertices: distance ``a`` iff adjacent, else ``b``.

    The matrix goes through full validation, so a choice of ``a``/``b``
    that breaks the triangle inequality (``b > 2a`` with a non-cluster
    graph) is rejected rather than silently accepted.
    """
    n = g.n
    ids = tuple(labels) if labels is not None else tuple(f"v{i}" for i in range(n))
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = a if g.has_edge(i, j) else b
            matrix[i][j] = matrix[j][i] = d
    return as_two_distance(validate_metric(ids, matrix))
