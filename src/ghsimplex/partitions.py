"""Partition machinery behind the general distance formula.

For a finite metric space X and 1 <= m <= #X, every partition D of X
into m non-empty blocks has a separation alpha(D) and a diameter
diam D, and

    2 d_GH(lambda simplex_m, X)
        = max( diam X - lambda,  min over extreme (alpha, d) of
               max(d, lambda - alpha) )

where the extreme pairs are the non-dominated ones; the m > #X regime
is max(diam X - lambda, lambda).

:func:`gh_oracle` takes the extreme pairs from the threshold route: an
m-block partition with alpha >= at and diam <= dt exists iff the
components of G_{<at} are no wider than dt and the graph of compatible
components has a small enough clique cover
(:class:`~ghsimplex.metric.ThresholdTable`).  Sorted by diam, the
extreme pairs also rise in alpha, so the minimum is a staircase of flat
and rising pieces, and the whole formula is an exact piecewise-linear
curve in lambda (:func:`gh_oracle_curve`), built from the pairs by
:func:`~ghsimplex.curves.curve_from_pairs` as the closed form's one pair
per case is.  Corners and curve depend on neither lambda nor the query,
so they are kept on the space: a lambda sweep pays for them once, and
each value is one binary search.

The enumeration route stays as the independent reference:
:func:`enumerate_partitions` streams the partitions in lexicographic
restricted-growth-string order, and :func:`ad_set` collects every
(alpha, diam) pair with the statistics carried incrementally down the
recursion over the space's int distance matrix.  The recursion places
the free elements in order of their smallest distance to any other point
and cuts a subtree as soon as no pair still to be placed can lower its
separation or raise its diameter: the whole subtree then has one pair,
and a complete partition is the subtree with nothing left to place.  A
scan may be restricted to the subtree under a fixed assignment of the
first elements.  :func:`scan_prefixes` takes those assignments from the
one enumerator, and :func:`ad_set_parallel` runs :func:`ad_set` on each
across processes; the union is the sequential scan's set.  The tests
hold the threshold route to this one, and this one to
:func:`partition_alpha` and :func:`partition_diameter` over
:func:`enumerate_partitions`.

Every entry takes m through :func:`~ghsimplex.rationals.check_m`, and
the distance entries take lambda through
:meth:`~ghsimplex.curves.PiecewiseLinearCurve.evaluate`, so m is checked
first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .curves import PiecewiseLinearCurve
from .errors import EmptyInput
from .metric import ADPoint, FiniteMetricSpace
from .rationals import INF, RationalOrInf, check_int, check_lambda, check_m, exact


class Partition(NamedTuple):
    """Blocks in canonical form: each sorted, ordered by smallest element."""

    blocks: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.blocks)

    def assignment(self) -> tuple[int, ...]:
        size = sum(len(b) for b in self.blocks)
        assign = [0] * size
        for bi, block in enumerate(self.blocks):
            for v in block:
                assign[v] = bi
        return tuple(assign)


def partition_from_blocks(blocks: Iterable[Iterable[int]], n: int) -> Partition:
    """Canonicalize and validate a partition of ``range(n)``."""
    norm = tuple(map(tuple, blocks))
    _check_partition(norm, check_int(n, "n"))
    return Partition(tuple(sorted(map(tuple, map(sorted, norm)), key=lambda b: b[0])))


def enumerate_partitions(n: int, m: int) -> Iterator[Partition]:
    """All partitions of ``range(n)`` into exactly ``m`` non-empty blocks.

    Yields in lexicographic order of the restricted growth string; the
    count is the Stirling number of the second kind S(n, m).
    """
    if check_int(n, "n") < 1:
        raise ValueError("n must be at least 1")
    check_m(m, n)
    return _restricted_growth(n, m)


def _restricted_growth(n: int, m: int) -> Iterator[Partition]:
    """Iterative successor loop (Knuth, TAOCP 4A, 7.2.1.5, Algorithm H)
    over the strings with exactly m distinct values.

    ``assign[p]`` is the block of element p and ``used[p]`` the number of
    blocks among elements 0..p.  Blocks are kept as lists; the elements a
    step changes are always the largest ones, so they sit at the ends.
    """
    assign = [0] * n
    used = [1] * n
    blocks: list[list[int]] = [[0]] + [[] for _ in range(m - 1)]
    start, c = 1, 1
    last = n - 1
    while True:
        # Smallest completion: join block 0 while the remaining elements
        # can still open the missing blocks, else open the next one.
        for p in range(start, n):
            if c + (n - p - 1) >= m:
                v = 0
            else:
                v = c
                c += 1
            assign[p] = v
            used[p] = c
            blocks[v].append(p)
        yield Partition(tuple(map(tuple, blocks)))
        if last:
            # The last element runs through its remaining blocks first.
            v = assign[last]
            top = min(used[last - 1], m - 1)
            while v < top:
                blocks[v].pop()
                v += 1
                blocks[v].append(last)
                yield Partition(tuple(map(tuple, blocks)))
            assign[last] = v
        # The rightmost element that can move to the next block.  A valid
        # string can always be completed after such a move.
        p = last
        while p > 0:
            v = assign[p]
            blocks[v].pop()
            if v < used[p - 1] and v + 1 < m:
                break
            p -= 1
        else:
            return
        v += 1
        c = max(used[p - 1], v + 1)
        assign[p] = v
        used[p] = c
        blocks[v].append(p)
        start = p + 1


def _check_partition(blocks: Sequence[Sequence[int]], n: int) -> None:
    """Non-empty blocks of int point indices that hold 0..n-1 once each."""
    flat: list[int] = []
    for block in blocks:
        if not block:
            raise ValueError("partition blocks must be non-empty")
        flat.extend(check_int(v, "partition member") for v in block)
    if sorted(flat) != list(range(n)):
        raise ValueError(f"blocks must partition 0..{n - 1} exactly")


def partition_diameter(space: FiniteMetricSpace, part: Partition) -> Fraction:
    """Largest block diameter; 0 when every block is a singleton."""
    _check_partition(part.blocks, space.n)
    dist = space.dist
    best = Fraction(0)
    for block in part.blocks:
        for x, i in enumerate(block):
            for j in block[x + 1 :]:
                if dist[i][j] > best:
                    best = dist[i][j]
    return best


def partition_alpha(space: FiniteMetricSpace, part: Partition) -> RationalOrInf:
    """Smallest distance between two distinct blocks; INF for one block."""
    _check_partition(part.blocks, space.n)
    if part.m == 1:
        return INF
    assign = part.assignment()
    dist = space.dist
    best: Optional[Fraction] = None
    n = space.n
    for i in range(n):
        for j in range(i + 1, n):
            if assign[i] != assign[j] and (best is None or dist[i][j] < best):
                best = dist[i][j]
    assert best is not None
    return best


def _prefix_state(
    prefix: Sequence[int], ints: Sequence[Sequence[int]], m: int, n: int, big: int
) -> tuple[int, int, int]:
    """used blocks, diameter and separation (as ints) of a partial assignment."""
    if not prefix:
        raise ValueError("a scan prefix must start with block 0")
    if len(prefix) > n:
        raise ValueError(f"prefix is longer than the n={n} points")
    used = 0
    for v in prefix:
        if not 0 <= check_int(v, "prefix entry") <= used:
            raise ValueError("prefix is not a restricted growth string")
        if v >= m:
            raise ValueError(f"prefix uses more than m={m} blocks")
        used = max(used, v + 1)
    d_cur = 0
    a_cur = big
    for i in range(len(prefix)):
        for j in range(i):
            d = ints[i][j]
            if prefix[i] == prefix[j]:
                if d > d_cur:
                    d_cur = d
            elif d < a_cur:
                a_cur = d
    if used + (n - len(prefix)) < m:
        raise ValueError("prefix cannot be completed to m blocks")
    return used, d_cur, a_cur


def _scan_pairs(
    ints: Sequence[Sequence[int]],
    n: int,
    m: int,
    prefix: Optional[Sequence[int]] = None,
) -> set[tuple[int, int]]:
    """Set of (separation, diameter) over the scanned partitions, as
    entries of the int distance matrix ``ints``.

    An all-singleton diameter is 0, the diagonal; the empty separation
    infimum (+infinity, one block only) is the largest entry plus one.

    The free elements (those after the prefix) are scanned in order of
    their smallest distance to any other point, ties by index.  The set of
    pairs does not depend on labels, and the prefix elements keep their
    places, so a prefix names the same partitions as before.
    A node whose separation is already at most every distance still to
    be placed, and whose diameter is already at least every such one,
    yields its pair without descending: every node has a completion, and
    none can lower the one or raise the other.  Nothing is left to place
    at ``i = n``, so that cut is also where every complete partition
    yields its pair.
    """
    big = max(map(max, ints)) + 1
    out: set[tuple[int, int]] = set()
    if prefix is None:
        prefix = (0,)
    used0, d0, a0 = _prefix_state(prefix, ints, m, n, big)
    start = len(prefix)
    order = list(range(start)) + sorted(
        range(start, n), key=lambda v: min(ints[v][:v] + ints[v][v + 1 :])
    )
    ints = [[ints[u][v] for v in order] for u in order]
    # floor[i] / ceil[i]: smallest / largest distance of a pair whose
    # larger element is >= i, that is, of a pair not yet placed at node i.
    floor = [big] * (n + 1)
    ceil = [0] * (n + 1)
    lo, hi = big, 0
    for i in range(n - 1, 0, -1):
        row = ints[i][:i]
        lo = min(lo, min(row))
        hi = max(hi, max(row))
        floor[i] = lo
        ceil[i] = hi
    assign = list(prefix) + [0] * (n - start)

    def rec(i: int, used: int, d_cur: int, a_cur: int) -> None:
        if a_cur <= floor[i] and d_cur >= ceil[i]:
            out.add((a_cur, d_cur))
            return
        row = ints[i]
        bmax = [0] * used
        bmin = [big] * used
        for j in range(i):
            v = assign[j]
            d = row[j]
            if d > bmax[v]:
                bmax[v] = d
            if d < bmin[v]:
                bmin[v] = d
        # Two smallest per-block minima give min-over-other-blocks in O(1).
        m1 = big
        m2 = big
        arg1 = -1
        for v in range(used):
            bv = bmin[v]
            if bv < m1:
                m2 = m1
                m1 = bv
                arg1 = v
            elif bv < m2:
                m2 = bv
        if used + (n - i - 1) >= m:
            for v in range(used):
                d2 = bmax[v]
                if d2 < d_cur:
                    d2 = d_cur
                oth = m2 if v == arg1 else m1
                a2 = oth if oth < a_cur else a_cur
                assign[i] = v
                rec(i + 1, used, d2, a2)
        if used < m:
            a2 = m1 if m1 < a_cur else a_cur
            assign[i] = used
            rec(i + 1, used + 1, d_cur, a2)

    try:
        rec(start, used0, d0, a0)
    finally:
        rec = None  # break the closure's cycle through itself
    return out


def _pairs_to_points(
    pairs: Iterable[tuple[int, int]], space: FiniteMetricSpace
) -> frozenset[ADPoint]:
    # Each int distance as its ``distances`` entry, and 0 for an
    # all-singleton diameter; only the empty separation is missing.
    value = dict(zip(space.steps, space.distances))
    value[0] = Fraction(0)
    return frozenset(ADPoint(value.get(a, INF), value[d]) for a, d in pairs)


def ad_set(
    space: FiniteMetricSpace, m: int, prefix: Optional[Sequence[int]] = None
) -> frozenset[ADPoint]:
    """The set of (alpha(D), diam D) pairs over all m-block partitions.

    A depth-first scan over restricted growth strings; a subtree in which
    neither statistic can change any more yields its one pair without
    being enumerated.  ``prefix`` restricts the scan to partitions
    extending that restricted growth string; a full scan uses no prefix.
    """
    n = space.n
    check_m(m, n)
    return _pairs_to_points(_scan_pairs(space.ints, n, m, prefix), space)


def scan_prefixes(n: int, m: int, depth: int) -> tuple[tuple[int, ...], ...]:
    """Feasible restricted-growth prefixes of the given length, in scan order.

    A prefix is the restricted growth string of a partition of its
    ``depth`` elements into j blocks, and it is feasible when the
    ``n - depth`` elements after it can open the other m - j blocks: the
    strings of :func:`enumerate_partitions` for each such j, sorted.
    Every m-block partition of ``range(n)`` extends exactly one of them,
    so per-prefix scans split the work without overlap.
    """
    if check_int(n, "n") < 1:
        raise ValueError("n must be at least 1")
    check_m(m, n)
    depth = max(1, min(check_int(depth, "prefix depth"), n))
    return tuple(
        sorted(
            p.assignment()
            for j in range(max(1, m - (n - depth)), min(depth, m) + 1)
            for p in enumerate_partitions(depth, j)
        )
    )


def ad_set_parallel(
    space: FiniteMetricSpace,
    m: int,
    prefix_depth: int = 3,
    max_workers: Optional[int] = None,
) -> frozenset[ADPoint]:
    """:func:`ad_set` once per prefix of :func:`scan_prefixes`, across
    processes; the union of the sets equals the full scan's.  One worker
    scans in-process; ``max_workers`` None lets the pool choose."""
    prefixes = scan_prefixes(space.n, m, prefix_depth)
    if max_workers is not None and check_int(max_workers, "max_workers") < 1:
        raise ValueError(f"max_workers must be at least 1, got {max_workers}")
    worker = partial(ad_set, space, m)
    if max_workers == 1:
        return frozenset().union(*map(worker, prefixes))
    # Imported here: the pool machinery (multiprocessing) costs every
    # CLI call its import time, and only this function needs it.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        chunks = pool.map(worker, prefixes, chunksize=max(1, len(prefixes) // 16))
        return frozenset().union(*chunks)


def extreme_points(ad: Iterable[Union[ADPoint, tuple]]) -> frozenset[ADPoint]:
    """Non-dominated subset: keep (alpha, d) unless some other point has
    alpha' >= alpha and d' <= d.  Each coordinate goes through
    :func:`~ghsimplex.rationals.exact`; alpha may also be ``INF``."""
    pts = {ADPoint(a if a == INF else exact(a, "alpha"), exact(d, "d")) for a, d in ad}
    if not pts:
        raise EmptyInput("cannot take extreme points of an empty set")
    keep = [
        p
        for p in pts
        if not any(q != p and q.alpha >= p.alpha and q.d <= p.d for q in pts)
    ]
    return frozenset(keep)


def h_value(point: ADPoint, lam: Union[Fraction, int, str]) -> Fraction:
    """max(d, lambda - alpha); the alpha = INF convention makes this d.
    lambda goes through :func:`~ghsimplex.rationals.check_lambda`."""
    lam = check_lambda(lam)
    if point.alpha == INF:
        return point.d
    return max(point.d, lam - point.alpha)


def gh_oracle(space: FiniteMetricSpace, m: int, lam: Union[Fraction, int, str]) -> Fraction:
    """Twice the Gromov-Hausdorff distance from the m-point simplex with
    side ``lam`` to ``space``, minimized over the extreme (alpha, diam)
    pairs of its m-block partitions.

    The value is read off :func:`gh_oracle_curve`, which the space keeps,
    so a lambda sweep builds the curve once per m.
    """
    return gh_oracle_curve(space, m).evaluate(lam)


def gh_oracle_curve(space: FiniteMetricSpace, m: int) -> PiecewiseLinearCurve:
    """The exact lambda-sweep of :func:`gh_oracle` on any finite space.

    The curve is max(diam X - lambda, R), where R is the minimum over the
    extreme pairs of max(d, lambda - alpha): the corners of the space's
    threshold table fix it, so it is computed on the first query for each
    m and kept on the space.  Its ``case`` is None.
    """
    return space.thresholds.curve(m)
