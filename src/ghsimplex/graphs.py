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
-v)`` and tries its colors in ascending order.  The vertices are
renumbered once by ``(degree, -v)``, and saturation is kept bit-sliced
(after San Segundo et al.'s bitboard colorers): plane p is the mask of
vertices whose count has bit p set.  So the branch vertex is a few mask
operations, the planes narrowed from the top and then the lowest bit,
and placing a color adds one to every newly saturated vertex with one
ripple carry.  The tests hold the search, node for node, to a per-node
tuple scan.  Its lower bound, a clique grown greedily in the same static
order, is taken on the masks as given (:func:`_greedy_clique`), so a
caller that needs only the bound, such as a Borsuk refutation, pays for
no renumbering.

Components come from one flood over the same masks: a graph's
``adjacency_bits`` for :func:`connected_components`, and one mask per
point of the pairs closer than a bound for a threshold-table level.

Solvers are exact and deterministic (ties always break toward the lowest
vertex index); they are sized for desk-scale instances, roughly n <= 40.

A graph's neighborhood masks are filled in the one walk that checks
and normalizes its edges.  :func:`complement` builds the complement
from them, each mask flipped, and reads its edges off the new masks, so
no edge is checked twice or walked again.

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
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import EmptySubset, NodeLimitExceeded, SelfLoop, VertexOutOfRange
from .rationals import check_int


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices ``0..n-1``.

    ``edges`` may be given as any iterable of vertex pairs; it is
    normalized to a frozenset of ``(u, v)`` tuples with ``u < v``.  An
    edge that is not a pair raises ``ValueError``, an endpoint that is
    not an int ``TypeError``, then a loop :class:`SelfLoop` and an
    endpoint outside ``0..n-1`` :class:`VertexOutOfRange`.
    Instances are immutable and hashable.
    """

    n: int
    edges: frozenset[tuple[int, int]] = frozenset()
    # Neighborhoods as bitmasks: bit ``w`` of entry ``v`` is set when
    # ``v`` and ``w`` are adjacent.  Every routine here reads these; they
    # are filled with the edges, in one walk.
    adjacency_bits: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # The answers kept on the graph: its components, its exact coloring
    # and its complement (the graph itself, or a weak link on the
    # complement that :func:`complement` built).
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        if check_int(n, "n") < 0:
            raise ValueError("vertex count must be non-negative")
        normalized = set()
        bits = [0] * n
        for pair in self.edges:
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise ValueError(f"edge {pair!r} is not a pair of vertices") from None
            if check_int(u, "vertex") == check_int(v, "vertex"):
                raise SelfLoop(u)
            for w in (u, v):
                if not 0 <= w < n:
                    raise VertexOutOfRange(w, n)
            normalized.add((u, v) if u < v else (v, u))
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        object.__setattr__(self, "edges", frozenset(normalized))
        object.__setattr__(self, "adjacency_bits", tuple(bits))

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
    return SimpleGraph(n, edges)


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
        full = (1 << g.n) - 1
        adj = g.adjacency_bits
        h = _graph_from_masks(tuple(full ^ adj[v] ^ (1 << v) for v in range(g.n)))
        g._memo["complement"] = h
        h._memo["complement"] = weakref.ref(g)
    return h


def _graph_from_masks(adj: tuple[int, ...]) -> SimpleGraph:
    """The graph whose neighborhood masks are ``adj``, which must be
    symmetric with no vertex's own bit set.  The masks are kept as given
    and the edges read off them, so no edge is checked: the public
    constructor checks every edge it is handed."""
    edges = []
    for u, bits in enumerate(adj):
        bits >>= u + 1
        while bits:
            low = bits & -bits
            bits ^= low
            edges.append((u, u + low.bit_length()))
    g = object.__new__(SimpleGraph)
    object.__setattr__(g, "n", len(adj))
    object.__setattr__(g, "edges", frozenset(edges))
    object.__setattr__(g, "adjacency_bits", adj)
    object.__setattr__(g, "_memo", {})
    return g


def is_clique(g: SimpleGraph, s: Iterable[int]) -> bool:
    """True iff every pair in ``s`` is adjacent; singletons count as cliques."""
    members = list(s)
    if not members:
        raise EmptySubset("a clique candidate must be non-empty")
    for v in members:
        if not 0 <= check_int(v, "vertex") < g.n:
            raise VertexOutOfRange(v, g.n)
    adj = g.adjacency_bits
    mask = sum(1 << v for v in set(members))
    return all(mask & ~adj[v] == 1 << v for v in members)


def is_cluster_graph(g: SimpleGraph) -> bool:
    """True iff every connected component induces a complete subgraph."""
    k, labels = connected_components(g)
    return all(is_clique(g, [v for v, c in enumerate(labels) if c == b]) for b in range(k))


def _dsatur_order(adj: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The vertices renumbered by descending degree, ties toward the lowest
    index: ``place[v]`` is the new number of vertex ``v``, and entry
    ``place[v]`` of the second list its neighborhood in new numbers.

    This is the static part ``(degree, -v)`` of the DSATUR key, so in the
    new numbering the lowest number wins every tie of saturation.  One
    ``itemgetter`` call permutes a row's binary digits (after a leading
    ``1`` that fixes their width).
    """
    n = len(adj)
    # A stable sort keeps ties in ascending order, also with reverse=True.
    order = sorted(range(n), key=list(map(int.bit_count, adj)).__getitem__, reverse=True)
    place = sorted(range(n), key=order.__getitem__)
    digits = itemgetter(*[n + 2 - v for v in reversed(order)])
    top = 1 << n
    return place, [int("".join(digits(bin(top | adj[v]))), 2) for v in order]


def _pick(free: int, sat: list[int]) -> int:
    """The DSATUR branch vertex as a one-bit mask: of the vertices in
    ``free``, those of largest saturation, narrowed through the counter
    planes from the top, then the lowest (in static order) of them."""
    for plane in reversed(sat):
        most = free & plane
        if most:
            free = most
    return free & -free


def _increment(sat: list[int], gain: int) -> None:
    """Add one to the saturation of every vertex in ``gain``: a ripple
    carry through the planes, ``sat[p]`` holding bit p of each count."""
    for p, plane in enumerate(sat):
        sat[p] = plane ^ gain
        gain &= plane
        if not gain:
            return


def _first_fit(adj: list[int]) -> list[int]:
    """Greedy DSATUR on renumbered ``adj``: each vertex :func:`_pick`
    names takes its smallest free color.  Colors by place."""
    n = len(adj)
    colors = [0] * n
    # forb[c]: the uncolored vertices with a neighbor of color c.
    forb = [0] * n
    # No saturation exceeds the largest degree, that of vertex 0.
    sat = [0] * adj[0].bit_count().bit_length()
    free = (1 << n) - 1
    while free:
        bit = _pick(free, sat)
        free ^= bit
        v = bit.bit_length() - 1
        c = 0
        while forb[c] & bit:
            c += 1
        colors[v] = c
        gain = adj[v] & free & ~forb[c]
        if gain:
            forb[c] |= gain
            _increment(sat, gain)
    return colors


def _greedy_clique(adj: Sequence[int]) -> list[int]:
    """A maximal clique grown first-fit by descending degree, ties toward
    the lowest index; its members in ascending order.  It is the lower
    bound :func:`_color` starts from, grown in the static DSATUR order on
    the masks as given, so a caller that wants only the bound pays for no
    renumbering."""
    # ``common``: the vertices adjacent to every member so far.
    common = -1
    members = []
    for v in sorted(range(len(adj)), key=list(map(int.bit_count, adj)).__getitem__, reverse=True):
        if common >> v & 1:
            common &= adj[v]
            members.append(v)
            if not common:
                break
    members.sort()
    return members


def _normalize_coloring(colors: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    relabel: dict[int, int] = {}
    out = []
    for c in colors:
        if c not in relabel:
            relabel[c] = len(relabel)
        out.append(relabel[c])
    return len(relabel), tuple(out)


def _check_budget(node_limit: Optional[int]) -> Optional[int]:
    """``node_limit`` if it is None (no budget) or an int of at least 0."""
    if node_limit is not None and check_int(node_limit, "node_limit") < 0:
        raise ValueError(f"node_limit must be non-negative, got {node_limit}")
    return node_limit


class _Done(Exception):
    """Unwinds the coloring search once it meets the clique lower bound."""


def chromatic_number(
    g: SimpleGraph, node_limit: Optional[int] = None
) -> tuple[int, tuple[int, ...]]:
    """Exact chromatic number with a proper coloring witness.

    Without ``node_limit`` the answer is kept on ``g`` and later calls
    read it.  ``node_limit``, an int of at least 0, bounds the number of
    branching decisions; exceeding it raises :class:`NodeLimitExceeded`
    instead of returning an approximation.  A call with a limit always
    searches and keeps nothing, so it gives the same answer, or aborts
    after the same number of nodes, however often ``g`` was colored
    before.
    """
    if _check_budget(node_limit) is not None:
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

    DSATUR-ordered branch-and-bound seeded with a greedy upper bound and
    the lower bound of :func:`_greedy_clique`, mapped into the search's
    numbering.  The clique vertices are pre-colored, which
    breaks color symmetry without affecting exactness.  Each node branches
    on the uncolored vertex of largest ``(saturation, degree, -v)``, then
    tries its free colors in ascending order.  The search runs on the
    numbering of :func:`_dsatur_order`, so :func:`_pick` finds that vertex
    from the saturation planes alone; each incumbent is mapped back to
    the original labels before it is normalized.  ``forb[c]`` holds the
    vertices with a neighbor of color c, so when ``v`` takes c the
    saturations that rise by one are the bits of
    ``adj[v] & free & ~forb[c]``; a node restores the planes it saved.
    """
    n = len(adj)
    if n < 1:
        raise ValueError("chromatic number needs at least one vertex")
    if not any(adj):
        return 1, (0,) * n

    clique = _greedy_clique(adj)
    place, adj = _dsatur_order(adj)
    best_k, best = _normalize_coloring(map(_first_fit(adj).__getitem__, place))
    lower = len(clique)
    if lower == best_k:
        return best_k, best

    clique = [place[v] for v in clique]
    colors = [0] * n
    forb = [0] * n
    free = ((1 << n) - 1) ^ sum(1 << i for i in clique)
    # No saturation reaches best_k: every color is below best_k - 1.
    sat = [0] * (best_k - 1).bit_length()
    # The clique takes colors 0, 1, ... in ascending original label.
    for c, i in enumerate(clique):
        colors[i] = c
        forb[c] = adj[i]
        _increment(sat, adj[i] & free)
    nodes = 0

    def search(used: int):
        nonlocal best_k, best, nodes, free
        if used >= best_k:
            return
        if not free:
            best_k, best = _normalize_coloring(map(colors.__getitem__, place))
            if best_k == lower:
                raise _Done
            return
        if node_limit is not None:
            if nodes >= node_limit:
                raise NodeLimitExceeded(node_limit, nodes)
            nodes += 1
        bit = _pick(free, sat)
        v = bit.bit_length() - 1
        free ^= bit
        reach = adj[v] & free
        saved = sat[:]
        for c in range(used + 1 if used + 1 < best_k else best_k - 1):
            was = forb[c]
            if was & bit:
                continue
            colors[v] = c
            gain = reach & ~was
            forb[c] = was | gain
            _increment(sat, gain)
            search(used if c < used else c + 1)
            forb[c] = was
            sat[:] = saved
        free |= bit

    try:
        search(lower)
    except _Done:
        pass
    finally:
        search = None  # break the closure's cycle through itself
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
    _check_budget(node_limit)
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

        try:
            search(0, [])
        finally:
            search = None  # break the closure's cycle through itself
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
    _check_budget(node_limit)
    if g.n < 1:
        raise ValueError("clique cover needs at least one vertex")
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
    check_int(n, "n")
    return SimpleGraph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def cycle_graph(n: int) -> SimpleGraph:
    if check_int(n, "n") < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return SimpleGraph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def complete_bipartite_graph(p: int, q: int) -> SimpleGraph:
    check_int(p, "p")
    check_int(q, "q")
    return SimpleGraph(p + q, frozenset((u, p + v) for u in range(p) for v in range(q)))


def petersen_graph() -> SimpleGraph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = set()
    for i in range(5):
        edges.add((i, (i + 1) % 5))
        edges.add((5 + i, 5 + (i + 2) % 5))
        edges.add((i, 5 + i))
    return SimpleGraph(10, frozenset(edges))
