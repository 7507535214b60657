"""Finite metric spaces with exact rational distances.

A :class:`FiniteMetricSpace` is an ordered list of opaque point ids plus
one validated symmetric int matrix: every distance times ``scale``, the
least common multiple of the denominators.  Ints order and add exactly
as the distances do, so :func:`validate_metric` checks every axiom on
that matrix in int arithmetic, and the threshold table, the enumeration
scan and the minimal-distance graph compare its entries.  The triangle
scan meets third points only for the pairs farther apart than twice the
smallest distance, since no other pair can break the inequality.  A
:class:`TwoDistanceSpace` specializes it to spaces whose off-diagonal
distances take exactly two values ``a < b``; for those the graph of
minimal distances drives everything downstream.

A space computes, once and on first use, ``steps`` (its sorted distinct
off-diagonal ints) and its :class:`ThresholdTable`, kept on the immutable
space, so a lambda sweep, an extreme-set query or the Borsuk decisions
for every m pay for them once.  Every search reads ``steps``; a
``Fraction`` is built only for a value the library returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from operator import add
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import (
    Asymmetric,
    EmptySubset,
    NonPositiveOffDiagonal,
    NonZeroDiagonal,
    NotTwoDistance,
    TriangleViolation,
)
from .curves import PiecewiseLinearCurve, curve_from_pairs
from . import graphs
from .graphs import CliqueCover, SimpleGraph, complement
from .rationals import INF, RationalOrInf, check_int, check_m, exact


class ADPoint(NamedTuple):
    """The separation and diameter of a partition; alpha is INF for one block."""

    alpha: RationalOrInf
    d: Fraction


def _scaled_ints(matrix: Sequence[Sequence[object]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The least common multiple of the entries' denominators, and every
    entry times it: an int matrix that orders and adds exactly as the
    entries do.  :func:`exact` names the first entry it rejects."""
    # Entries repeat (a two-distance space holds three objects), so each
    # distinct object is converted and scaled once, keyed by id (far
    # cheaper than hashing a Fraction; ``rows`` keeps them alive) in row
    # order, so a rejected one is named where it first appears.
    rows = tuple(map(tuple, matrix))
    objects = {id(d): d for row in rows for d in row}
    exacts = {}
    for k, d in objects.items():
        try:
            exacts[k] = exact(d, "")
        except (TypeError, ValueError):
            i, j = next((i, j) for i, row in enumerate(rows) for j, e in enumerate(row) if e is d)
            exact(d, f"dist[{i}][{j}]")
    scale = math.lcm(*{d.denominator for d in exacts.values()})
    scaled = {k: d.numerator * (scale // d.denominator) for k, d in exacts.items()}
    return scale, tuple(tuple(map(scaled.__getitem__, map(id, row))) for row in rows)


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Point ids and one int matrix, ``ints[i][j] = d(i, j) * scale`` with
    ``scale`` the lcm of the denominators: equal spaces have equal fields.
    ``distances`` and ``dist`` are ``Fraction`` views of ``steps`` and ``ints``."""

    points: tuple[str, ...]
    scale: int
    ints: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.points)

    def distance(self, i: int, j: int) -> Fraction:
        return Fraction(self.ints[i][j], self.scale)

    @cached_property
    def steps(self) -> tuple[int, ...]:
        """The distinct off-diagonal entries of ``ints``, ascending."""
        return tuple(sorted(set().union(*(row[i + 1 :] for i, row in enumerate(self.ints)))))

    @cached_property
    def distances(self) -> tuple[Fraction, ...]:
        """The distinct off-diagonal distances, ascending: ``steps`` over ``scale``."""
        scale = self.scale
        return tuple(Fraction(d, scale) for d in self.steps)

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distances as ``Fraction`` entries, one object per distinct value."""
        values = dict(zip(self.steps, self.distances))
        values[0] = Fraction(0)
        return tuple(tuple(map(values.__getitem__, row)) for row in self.ints)

    @cached_property
    def thresholds(self) -> ThresholdTable:
        """The threshold-graph structure the partition oracle, the
        extreme-set query and the Borsuk decision read."""
        return ThresholdTable(self.ints, self.scale, self.steps)


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

    @cached_property
    def graph(self) -> SimpleGraph:
        """The minimal-distance graph: edges exactly the pairs at distance ``a``."""
        n = self.n
        ints = self.base.ints
        low = self.base.steps[0]
        return SimpleGraph(
            n, frozenset((i, j) for i in range(n) for j in range(i + 1, n) if ints[i][j] == low)
        )

    @cached_property
    def cases(self) -> dict:
        """The closed form's curve per m, which carries its case; filled on
        first use by :mod:`ghsimplex.closed_form`."""
        return {}


class ThresholdTable:
    """The lambda-free structure of one space: one clique-cover reduction
    answers the partition oracle, the extreme-set query and Borsuk.

    Write ``v_0 < ... < v_{r-1}`` for the space's ``steps`` and index a
    separation bound ``at = v_i`` by ``i`` and a diameter bound ``dt = v_j``
    by ``j``, with ``j = -1`` standing for ``dt = 0``.  The table compares
    the int matrix against the steps; only corners and curves divide by
    ``scale``.  It keeps no reference to the space.  An m-block
    partition with ``alpha >= at`` and ``diam <= dt`` exists iff

    * every component of ``G_{<at}`` (the pairs closer than ``at``) has
      diameter at most ``dt``;
    * theta of the compatibility graph on those components is at most m,
      two components being compatible when every distance between them is
      at most ``dt``;
    * m is at most the number of components.

    A partition with ``alpha >= at`` is a partition into unions of those
    components, and one with ``diam <= dt`` uses only compatible ones; a
    clique cover of the compatibility graph refines to every block count
    up to the number of components.  All three conditions only weaken as
    ``at`` falls or ``dt`` rises, so the feasible bounds form a staircase
    whose corners are the extreme ``(alpha, diam)`` pairs.  At ``i = 0``
    every point is its own component, the int matrix gives their cross
    distances, and cell ``(0, r-2)`` covers the graph of the pairs closer
    than the diameter: the Borsuk graph.  A level floods the components
    of ``G_{<v_i}`` with the graph kernel, from one bitmask per row of the
    int matrix, and a cell colors the complement of its graph, its clash
    masks, one bitmask per ``cross`` row; neither builds a graph object.
    A cell's greedy clique, the bound the coloring kernel starts from,
    can refute an m-block cover without a search (:meth:`refutes`).
    ``corners`` and ``curve`` take m through the one block-count guard.
    Levels (per ``i > 0``), clash masks and minimum covers (per
    ``(i, j)``) and the lambda-curves the corners fix (per m) are
    computed on first use and kept.
    """

    def __init__(self, ints: Sequence[Sequence[int]], scale: int, steps: Sequence[int]) -> None:
        self._ints = ints
        self._scale = scale
        # v_j, then 0 for ``j = -1``.
        self._steps = (*steps, 0)
        self._levels: dict[int, tuple[int, int, Sequence[Sequence[int]]]] = {}
        self._clashes: dict[tuple[int, int], tuple[int, ...]] = {}
        self._covers: dict[tuple[int, int], CliqueCover] = {}
        self._curves: dict[int, PiecewiseLinearCurve] = {}

    def _level(self, i: int) -> tuple[int, int, Sequence[Sequence[int]]]:
        """Components of ``G_{<v_i}``: their number, the largest int distance
        inside one (0 when all are single points) and the largest int
        distance between each pair of them.  Bit ``w`` of row ``u``'s mask
        is set when ``ints[u][w] < v_i``; the graph flood reads the masks."""
        ints = self._ints
        n = len(ints)
        if i == 0:  # nothing is closer than v_0: the points and their matrix
            return n, 0, ints
        got = self._levels.get(i)
        if got is None:
            below = self._steps[i]
            bits = [1 << w for w in range(n)]
            k, label = graphs._components(
                tuple(sum(compress(bits, map(below.__gt__, row))) for row in ints)
            )
            cross = [[0] * k for _ in range(k)]
            for u in range(n):
                far = cross[label[u]]
                for c, d in zip(label, ints[u]):
                    if d > far[c]:
                        far[c] = d
            # The diagonal holds each component's own diameter; move it out.
            inner = 0
            for c, row in enumerate(cross):
                inner, row[c] = max(inner, row[c]), 0
            got = self._levels[i] = (k, inner, cross)
        return got

    def _clash(self, i: int, j: int) -> tuple[int, ...]:
        """The complement of the compatibility graph at ``(v_i, v_j)``, one
        bitmask per component of ``G_{<v_i}``: bit ``d`` of row ``c`` is
        set when ``cross[c][d]`` exceeds ``v_j``."""
        got = self._clashes.get((i, j))
        if got is None:
            k, _, cross = self._level(i)
            top = self._steps[j]
            bits = [1 << d for d in range(k)]
            got = self._clashes[(i, j)] = tuple(
                sum(compress(bits, map(top.__lt__, row))) for row in cross
            )
        return got

    def cover(self, i: int, j: int) -> CliqueCover:
        """A minimum clique cover of the compatibility graph at ``(v_i, v_j)``,
        on the components of ``G_{<v_i}`` numbered by their smallest point:
        the color classes of its complement, the cell's clash masks."""
        got = self._covers.get((i, j))
        if got is None:
            _, coloring = graphs._color(self._clash(i, j), None)
            got = self._covers[(i, j)] = CliqueCover(graphs._blocks_from_assignment(coloring))
        return got

    def refutes(self, i: int, j: int, m: int) -> bool:
        """Is an m-block cover of the cell ruled out without a search?

        With the cell's minimum cover kept, its size answers exactly.
        Otherwise the greedy clique the coloring kernel starts from, grown
        on the clash masks, answers when it has more than m members:
        components pairwise too far apart to share a block.  False leaves
        the question open.
        """
        got = self._covers.get((i, j))
        if got is not None:
            return got.size > m
        return len(graphs._greedy_clique(self._clash(i, j))) > m

    def feasible(self, i: int, j: int, m: int) -> bool:
        """Is there an m-block partition with ``alpha >= v_i`` and ``diam <= v_j``?"""
        k, inner, _ = self._level(i)
        return m <= k and inner <= self._steps[j] and self.cover(i, j).size <= m

    def _value(self, j: int) -> Fraction:
        return Fraction(self._steps[j], self._scale)

    def corners(self, m: int) -> frozenset[ADPoint]:
        """The extreme ``(alpha, diam)`` pairs of the m-block partitions,
        for ``1 <= m <= n``; the one block of m = 1 has alpha = INF.  Read
        off the kept levels and covers; :meth:`curve` keeps its result."""
        check_m(m, len(self._ints))
        r = len(self._steps) - 1
        if m == 1:
            return frozenset((ADPoint(INF, self._value(r - 1)),))
        # Two pointers: for each diameter bound, from the smallest up, push
        # the separation bound as far as it stays feasible.  A corner is
        # where that largest separation bound rises.
        out: list[tuple[int, int]] = []
        i = 0
        for j in range(-1, r):
            if not self.feasible(i, j, m):
                continue
            while i + 1 < r and self.feasible(i + 1, j, m):
                i += 1
            if not out or out[-1][0] < i:
                out.append((i, j))
            if i + 1 == r or self._level(i + 1)[0] < m:
                break
        return frozenset(ADPoint(self._value(i), self._value(j)) for i, j in out)

    def curve(self, m: int) -> PiecewiseLinearCurve:
        """2 d_GH(lambda simplex_m, X) as a function of lambda, for m >= 1:
        the curve of :meth:`corners`, and of the one pair (0, 0) for every
        m > n, where R = lambda."""
        check_m(m, None)
        n = len(self._ints)
        m = min(m, n + 1)
        got = self._curves.get(m)
        if got is None:
            pairs = self.corners(m) if m <= n else (ADPoint(Fraction(0), Fraction(0)),)
            got = self._curves[m] = curve_from_pairs(self._value(len(self._steps) - 2), pairs, None)
        return got


def validate_metric(
    points: Sequence[str], matrix: Sequence[Sequence[Union[Fraction, int, str]]]
) -> FiniteMetricSpace:
    """Check every metric axiom and return the validated space.

    The axioms are checked on one int matrix, each entry times the least
    common multiple of all denominators, so every sum and comparison is
    exact int arithmetic.  The space keeps that matrix and its scale as
    its one distance representation; ``dist`` is a ``Fraction`` view of
    it, built on first use.

    Validation is full, but the triangle scan skips the pairs that cannot
    break it: a violation ``d_ij > d_ik + d_kj`` needs ``d_ij`` above twice
    the smallest distance, so only those pairs meet the third points.  On
    a two-distance space with ``b <= 2a`` no pair does, and the check is
    quadratic.

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

    scale, ints = _scaled_ints(matrix)
    for i in range(n):
        if ints[i][i] != 0:
            raise NonZeroDiagonal(i)
    for i in range(n):
        row = ints[i]
        for j in range(i + 1, n):
            if row[j] != ints[j][i]:
                raise Asymmetric(i, j)
            if row[j] <= 0:
                raise NonPositiveOffDiagonal(i, j)
    # With a zero diagonal and symmetry, the terms k = i and k = j of
    # min_k (d_ik + d_jk) are d_ij itself, so the minimum over every k is
    # below d_ij exactly when some third point breaks the inequality; a
    # third point adds two positive distances, so a pair at most twice
    # the smallest one never does.
    cut = 2 * min((min(ints[i][i + 1 :]) for i in range(n - 1)), default=0)
    for i in range(n):
        row_i = ints[i]
        for j in range(i + 1, n):
            bound = row_i[j]
            if bound > cut:
                row_j = ints[j]
                if bound > min(map(add, row_i, row_j)):
                    k = next(k for k in range(n) if bound > row_i[k] + row_j[k])
                    raise TriangleViolation(i, j, k)
    return FiniteMetricSpace(ids, scale, ints)


def diameter(space: FiniteMetricSpace) -> Fraction:
    """Largest distance in the space; 0 for a single point."""
    steps = space.steps
    return Fraction(steps[-1] if steps else 0, space.scale)


def as_two_distance(space: FiniteMetricSpace) -> TwoDistanceSpace:
    """View ``space`` as a two-distance space, or raise :class:`NotTwoDistance`.

    When exactly two off-diagonal values occur, every structural invariant
    (n >= 3, diameter = b, minimal-distance graph neither edgeless nor
    complete) holds automatically.
    """
    if len(space.steps) != 2:
        raise NotTwoDistance(len(space.steps))
    return TwoDistanceSpace(space, *space.distances)


def hausdorff_distance(
    space: FiniteMetricSpace, subset_a: Iterable[int], subset_b: Iterable[int]
) -> Fraction:
    """max over each subset of the distance to the nearest point of the other."""
    sa, sb = list(subset_a), list(subset_b)
    if not sa or not sb:
        raise EmptySubset("Hausdorff distance needs two non-empty subsets")
    for v in sa + sb:
        if not 0 <= check_int(v, "point index") < space.n:
            raise ValueError(f"index {v!r} is not a point of 0..{space.n - 1}")
    ints = space.ints

    def one_sided(src: list[int], dst: list[int]) -> int:
        return max(min(ints[i][j] for j in dst) for i in src)

    return Fraction(max(one_sided(sa, sb), one_sided(sb, sa)), space.scale)


def min_distance_graph(tds: TwoDistanceSpace) -> SimpleGraph:
    """Graph on the points with edges exactly the pairs at the smaller distance."""
    return tds.graph


def two_distance_space_from_graph(
    g: SimpleGraph,
    a: Fraction,
    b: Fraction,
    labels: Optional[Sequence[str]] = None,
) -> TwoDistanceSpace:
    """Metric space on the vertices: distance ``a`` iff adjacent, else ``b``.

    The matrix goes through full validation, so a choice of ``a``/``b``
    that breaks the triangle inequality (``b > 2a`` with a non-cluster
    graph) is rejected rather than silently accepted.  For ``b <= 2a``
    no pair can break it, so the check skips every third point and the
    space costs O(n^2); it keeps the checked int matrix as its one
    distance representation.  The space's minimal-distance graph is ``g``
    itself (its complement when ``a > b``), equal by construction, so
    answers kept on ``g`` serve the space.
    """
    a, b = exact(a, "a"), exact(b, "b")
    n = g.n
    ids = tuple(labels) if labels is not None else tuple(f"v{i}" for i in range(n))
    if len(ids) != n:
        raise ValueError(f"labels must name the {n} vertices, got {len(ids)} labels")
    # Row i spells out i's neighbourhood mask, bit j first: a for a
    # neighbour, b otherwise.
    pick = {"1": a, "0": b}.__getitem__
    zero = Fraction(0)
    matrix = []
    for i, bits in enumerate(g.adjacency_bits):
        row = list(map(pick, f"{bits:0{n}b}"[::-1]))
        row[i] = zero
        matrix.append(row)
    tds = as_two_distance(validate_metric(ids, matrix))
    # Seeds the cached ``graph`` property.
    tds.__dict__["graph"] = g if a < b else complement(g)
    return tds
