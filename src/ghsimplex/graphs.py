"""Simple undirected graphs and exact solvers for their covering numbers.

The two optimization routines here are deliberately independent of each
other: ``chromatic_number`` is a DSATUR-ordered branch-and-bound colorer,
while ``clique_cover_direct`` branches over clique partitions without ever
touching a coloring.  ``clique_cover_number`` ties them together through
the complement-graph identity theta(H) = gamma(H'), and the test suite
holds the two routes to exact agreement.

The colorer (Brélaz's DSATUR order, CACM 1979) works on neighborhood
bitmasks: a graph's ``adjacency_bits`` or a threshold-table cell's rows.
It branches on the uncolored vertex of largest ``(saturation, degree,
-v)``, one packed int per vertex, and tries its colors in ascending
order; one mask per color holds the vertices that color forbids, so a
node costs one ``max`` and a step for each key that moves.  The tests
hold the search, node for node, to a per-node tuple scan.

Components come from one flood over the same masks: a graph's
``adjacency_bits`` for :func:`connected_components`, and one mask per
point of the pairs closer than a bound for a threshold-table level.

Solvers are exact and deterministic (ties always break toward the lowest
vertex index); they are sized for desk-scale instances, roughly n <= 40.

A graph keeps its exact answers: :func:`complement` builds the
complement once and keeps it, and an unbudgeted :func:`chromatic_number`
keeps its ``(chi, coloring)``.  So a graph is colored at most once,
whichever route asks, and theta of a graph is read off the coloring
kept on its complement.  The complement links back to its graph weakly,
so it gives that same graph for as long as the graph lives, the pair
forms no reference cycle, and both are freed with the graph.  A search
under a ``node_limit`` reads and keeps nothing, so it runs, and aborts,
exactly as on a fresh graph.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from .errors import EmptySubset, NodeLimitExceeded, SelfLoop, VertexOutOfRange


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices ``0..n-1``.

    ``edges`` may be given as any iterable of vertex pairs; it is
    normalized to a frozenset of ``(u, v)`` tuples with ``u < v``.
    Instances are immutable and hashable.
    """

    n: int
    edges: frozenset[tuple[int, int]] = frozenset()
    # The answers kept on the graph: its components, its exact coloring
    # and its complement (the graph itself, or a weak link on the
    # complement that :func:`complement` built).
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.n) is not int:
            raise TypeError(f"n must be an int, got {type(self.n).__name__} {self.n!r}")
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        normalized = set()
        for pair in self.edges:
            u, v = pair
            if u == v:
                raise SelfLoop(u)
            for w in (u, v):
                if not isinstance(w, int) or isinstance(w, bool) or not 0 <= w < self.n:
                    raise VertexOutOfRange(w, self.n)
            normalized.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", frozenset(normalized))

    @cached_property
    def adjacency_bits(self) -> tuple[int, ...]:
        """Neighborhoods as bitmasks: bit ``w`` of entry ``v`` is set when
        ``v`` and ``w`` are adjacent.  Every routine here reads these."""
        bits = [0] * self.n
        for u, v in self.edges:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        return tuple(bits)

    def __reduce__(self):
        # A copy rebuilds its kept answers on demand; a weak link cannot
        # be pickled.
        return type(self), (self.n, self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    def degree(self, v: int) -> int:
        return self.adjacency_bits[v].bit_count()

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2

    def is_edgeless(self) -> bool:
        return self.edge_count == 0


@dataclass(frozen=True)
class CliqueCover:
    """A partition of the vertex set into cliques, blocks sorted by smallest member."""

    blocks: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.blocks)


def graph_from_edges(n: int, edges: Iterable[Iterable[int]]) -> SimpleGraph:
    return SimpleGraph(n, frozenset(tuple(e) for e in edges))


def connected_components(g: SimpleGraph) -> tuple[int, tuple[int, ...]]:
    """Number of components and a vertex -> component-id labeling.

    Component ids are assigned in order of each component's smallest
    vertex.  The answer is kept on the graph.
    """
    got = g._memo.get("components")
    if got is None:
        got = g._memo["components"] = _components(g.adjacency_bits)
    return got


def _components(adj: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The flood behind :func:`connected_components`; ``adj[v]`` is the
    neighborhood bitmask of vertex ``v`` (its own bit may be set)."""
    n = len(adj)
    labels = [-1] * n
    k = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        # Flood from ``start``; ``todo`` holds reached, unexpanded vertices.
        comp = todo = 1 << start
        while todo:
            low = todo & -todo
            todo ^= low
            new = adj[low.bit_length() - 1] & ~comp
            comp |= new
            todo |= new
        for v in range(start, n):
            if comp >> v & 1:
                labels[v] = k
        k += 1
    return k, tuple(labels)


def complement(g: SimpleGraph) -> SimpleGraph:
    """The complement graph, built once and kept on ``g``.

    The complement keeps a weak link back, so the complement of the
    complement is ``g`` itself for as long as ``g`` lives.
    """
    link = g._memo.get("complement")
    h = link() if isinstance(link, weakref.ref) else link
    if h is None:
        adj = g.adjacency_bits
        edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not adj[u] >> v & 1]
        h = SimpleGraph(g.n, frozenset(edges))
        g._memo["complement"] = h
        h._memo["complement"] = weakref.ref(g)
    return h


def is_clique(g: SimpleGraph, s: Iterable[int]) -> bool:
    """True iff every pair in ``s`` is adjacent; singletons count as cliques."""
    members = list(s)
    if not members:
        raise EmptySubset("a clique candidate must be non-empty")
    for v in members:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < g.n:
            raise VertexOutOfRange(v, g.n)
    adj = g.adjacency_bits
    mask = sum(1 << v for v in set(members))
    return all(mask & ~adj[v] == 1 << v for v in members)


def is_cluster_graph(g: SimpleGraph) -> bool:
    """True iff every connected component induces a complete subgraph."""
    k, labels = connected_components(g)
    return all(is_clique(g, [v for v, c in enumerate(labels) if c == b]) for b in range(k))


def _dsatur_keys(adj: tuple[int, ...]) -> tuple[list[int], int]:
    """Static DSATUR keys and the step that adds one to a saturation.

    A key packs ``(saturation, degree, n - v)`` into one int, each field
    wide enough for its largest value (``n``, ``n - 1`` and ``n``), so
    comparing keys compares those tuples.  ``n - v`` is distinct per
    vertex and breaks ties toward the lowest index.
    """
    n = len(adj)
    width = n.bit_length()
    keys = [(bits.bit_count() << width) | (n - v) for v, bits in enumerate(adj)]
    return keys, 1 << (2 * width)


def _dsatur_greedy(adj: tuple[int, ...]) -> list[int]:
    """Greedy DSATUR coloring; an upper bound and the initial incumbent."""
    n = len(adj)
    colors = [-1] * n
    # forb[c]: the vertices with a neighbor of color c.
    forb = [0] * n
    key, step = _dsatur_keys(adj)
    uncolored = set(range(n))
    while uncolored:
        v = max(uncolored, key=key.__getitem__)
        uncolored.remove(v)
        c = 0
        while forb[c] >> v & 1:
            c += 1
        colors[v] = c
        gain = adj[v] & ~forb[c]
        forb[c] |= gain
        while gain:
            low = gain & -gain
            key[low.bit_length() - 1] += step
            gain ^= low
    return colors


def _greedy_clique(adj: tuple[int, ...]) -> list[int]:
    """A maximal clique grown greedily by descending degree; a lower bound for coloring."""
    key, _ = _dsatur_keys(adj)
    clique: list[int] = []
    clique_mask = 0
    for v in sorted(range(len(adj)), key=key.__getitem__, reverse=True):
        if clique_mask & ~adj[v] == 0:
            clique.append(v)
            clique_mask |= 1 << v
    return sorted(clique)


def _normalize_coloring(colors: list[int]) -> tuple[int, tuple[int, ...]]:
    relabel: dict[int, int] = {}
    out = []
    for c in colors:
        if c not in relabel:
            relabel[c] = len(relabel)
        out.append(relabel[c])
    return len(relabel), tuple(out)


class _Done(Exception):
    """Unwinds the coloring search once it meets the clique lower bound."""


def chromatic_number(
    g: SimpleGraph, node_limit: Optional[int] = None
) -> tuple[int, tuple[int, ...]]:
    """Exact chromatic number with a proper coloring witness.

    Without ``node_limit`` the answer is kept on ``g`` and later calls
    read it.  ``node_limit`` bounds the number of branching decisions;
    exceeding it raises :class:`NodeLimitExceeded` instead of returning
    an approximation.  A call with a limit always searches and keeps
    nothing, so it gives the same answer, or aborts after the same
    number of nodes, however often ``g`` was colored before.
    """
    if node_limit is not None:
        return _color(g.adjacency_bits, node_limit)
    # The kernel is deterministic: two threads that both miss keep the
    # same answer.
    got = g._memo.get("chromatic")
    if got is None:
        got = g._memo["chromatic"] = _color(g.adjacency_bits, None)
    return got


def _color(adj: tuple[int, ...], node_limit: Optional[int]) -> tuple[int, tuple[int, ...]]:
    """The coloring search behind :func:`chromatic_number`; ``adj[v]`` is
    the neighborhood bitmask of vertex ``v``.

    DSATUR-ordered branch-and-bound seeded with a greedy upper bound and a
    greedy-clique lower bound.  The clique vertices are pre-colored, which
    breaks color symmetry without affecting exactness.  Each node branches
    on the uncolored vertex of largest ``(saturation, degree, -v)``, one
    packed int per vertex (see :func:`_dsatur_keys`), then tries its free
    colors in ascending order.  ``forb[c]`` holds the vertices with a
    neighbor of color c, so when ``v`` takes c the keys that rise by one
    step are the bits of ``adj[v] & uncolored & ~forb[c]``.
    """
    n = len(adj)
    if n < 1:
        raise ValueError("chromatic number needs at least one vertex")
    if not any(adj):
        return 1, (0,) * n

    incumbent = _dsatur_greedy(adj)
    best_k, best = _normalize_coloring(incumbent)
    clique = _greedy_clique(adj)
    lower = len(clique)
    if lower == best_k:
        return best_k, best

    colors = [-1] * n
    forb = [0] * n
    clique_mask = 0
    for c, v in enumerate(clique):
        colors[v] = c
        forb[c] = adj[v]
        clique_mask |= 1 << v
    key, step = _dsatur_keys(adj)
    for v in range(n):
        key[v] += (adj[v] & clique_mask).bit_count() * step
    uncolored = set(range(n)).difference(clique)
    free = ((1 << n) - 1) ^ clique_mask
    by_key = key.__getitem__
    nodes = 0

    def search(colored: int, used: int):
        nonlocal best_k, best, nodes, free
        if used >= best_k:
            return
        if colored == n:
            best_k, best = _normalize_coloring(colors)
            if best_k == lower:
                raise _Done
            return
        if node_limit is not None:
            if nodes >= node_limit:
                raise NodeLimitExceeded(node_limit, nodes)
            nodes += 1
        v = max(uncolored, key=by_key)
        uncolored.remove(v)
        bit = 1 << v
        free ^= bit
        reach = adj[v] & free
        for c in range(min(used + 1, best_k - 1)):
            was = forb[c]
            if was & bit:
                continue
            colors[v] = c
            gain = reach & ~was
            forb[c] = was | gain
            rest = gain
            while rest:
                low = rest & -rest
                key[low.bit_length() - 1] += step
                rest ^= low
            search(colored + 1, max(used, c + 1))
            forb[c] = was
            while gain:
                low = gain & -gain
                key[low.bit_length() - 1] -= step
                gain ^= low
        colors[v] = -1
        uncolored.add(v)
        free |= bit

    try:
        search(len(clique), lower)
    except _Done:
        pass
    return best_k, best


def _greedy_clique_partition(g: SimpleGraph) -> list[int]:
    """First-fit clique partition in vertex order; an upper bound."""
    adj = g.adjacency_bits
    block_masks: list[int] = []
    assign = [0] * g.n
    for v in range(g.n):
        for i, mask in enumerate(block_masks):
            if mask & ~adj[v] == 0:
                block_masks[i] |= 1 << v
                assign[v] = i
                break
        else:
            assign[v] = len(block_masks)
            block_masks.append(1 << v)
    return assign


def _blocks_from_assignment(assign: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    groups: dict[int, list[int]] = {}
    for v, b in enumerate(assign):
        groups.setdefault(b, []).append(v)
    blocks = sorted((tuple(sorted(ms)) for ms in groups.values()), key=lambda t: t[0])
    return tuple(blocks)


def clique_cover_direct(
    g: SimpleGraph, node_limit: Optional[int] = None
) -> tuple[int, CliqueCover]:
    """Minimum clique partition by direct branch-and-bound.

    Never consults the coloring solver; this is the independent second
    route for the theta(H) = gamma(H') cross-check.
    """
    n = g.n
    if n < 1:
        raise ValueError("clique cover needs at least one vertex")
    adj = g.adjacency_bits
    greedy = _greedy_clique_partition(g)
    best_count = max(greedy) + 1
    best = list(greedy)
    if best_count > 1:
        assign = [-1] * n
        nodes = 0

        def search(v: int, block_masks: list[int]):
            nonlocal best_count, best, nodes
            if len(block_masks) >= best_count:
                return
            if v == n:
                best_count = len(block_masks)
                best = assign[:]
                return
            if node_limit is not None:
                if nodes >= node_limit:
                    raise NodeLimitExceeded(node_limit, nodes)
                nodes += 1
            av = adj[v]
            bit = 1 << v
            for i, mask in enumerate(block_masks):
                if mask & ~av == 0:
                    assign[v] = i
                    block_masks[i] |= bit
                    search(v + 1, block_masks)
                    block_masks[i] = mask
            if len(block_masks) + 1 < best_count:
                assign[v] = len(block_masks)
                block_masks.append(bit)
                search(v + 1, block_masks)
                block_masks.pop()
            assign[v] = -1

        search(0, [])
    cover = CliqueCover(_blocks_from_assignment(best))
    return cover.size, cover


def clique_cover_number(
    g: SimpleGraph, node_limit: Optional[int] = None
) -> tuple[int, CliqueCover]:
    """Minimum clique partition via coloring the complement graph.

    Color classes of the complement are independent there, hence cliques
    here; the witness is rebuilt in terms of the original graph.  The
    complement and its coloring are kept, so a second call does not
    search again.
    """
    theta, coloring = chromatic_number(complement(g), node_limit=node_limit)
    cover = CliqueCover(_blocks_from_assignment(coloring))
    return theta, cover


def cover_is_valid(g: SimpleGraph, cover: CliqueCover) -> bool:
    seen: set[int] = set()
    for block in cover.blocks:
        if not block or not is_clique(g, block):
            return False
        if seen & set(block):
            return False
        seen |= set(block)
    return seen == set(range(g.n))


def coloring_is_proper(g: SimpleGraph, coloring: tuple[int, ...]) -> bool:
    if len(coloring) != g.n:
        return False
    return all(coloring[u] != coloring[v] for u, v in g.edges)


# Named graphs used throughout the tests and demos.

def empty_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n)


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return SimpleGraph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def complete_bipartite_graph(p: int, q: int) -> SimpleGraph:
    return SimpleGraph(p + q, frozenset((u, p + v) for u in range(p) for v in range(q)))


def petersen_graph() -> SimpleGraph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = set()
    for i in range(5):
        edges.add((i, (i + 1) % 5))
        edges.add((5 + i, 5 + (i + 2) % 5))
        edges.add((i, 5 + i))
    return SimpleGraph(10, frozenset(edges))
