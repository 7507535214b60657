import copy
import itertools
import pickle
import random
import weakref

import pytest

from ghsimplex import (
    EmptySubset,
    NodeLimitExceeded,
    SelfLoop,
    SimpleGraph,
    VertexOutOfRange,
    chromatic_number,
    clique_cover_direct,
    clique_cover_number,
    coloring_is_proper,
    complement,
    complete_graph,
    connected_components,
    cover_is_valid,
    cycle_graph,
    empty_graph,
    graph_invariants,
    is_clique,
    is_cluster_graph,
    min_distance_graph,
    petersen_graph,
)
from conftest import all_graphs, random_graph, random_two_distance

TWO_EDGES = SimpleGraph(4, frozenset([(0, 1), (2, 3)]))


class TestSimpleGraph:
    def test_edges_normalized(self):
        g = SimpleGraph(3, frozenset([(2, 0), (0, 1)]))
        assert sorted(g.edges) == [(0, 1), (0, 2)]

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            SimpleGraph(3, frozenset([(1, 1)]))

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            SimpleGraph(3, frozenset([(0, 3)]))

    @pytest.mark.parametrize("n", [2.5, 2.0, True])
    def test_vertex_count_must_be_int(self, n):
        """One TypeError naming n, not a crash in the first search."""
        with pytest.raises(TypeError, match="n must be an int"):
            chromatic_number(SimpleGraph(n))


class TestComponents:
    def test_two_disjoint_edges(self):
        assert connected_components(TWO_EDGES) == (2, (0, 0, 1, 1))

    def test_cycle_is_connected(self):
        assert connected_components(cycle_graph(5))[0] == 1

    def test_edgeless(self):
        k, labels = connected_components(empty_graph(4))
        assert k == 4
        assert labels == (0, 1, 2, 3)


class TestComplement:
    def test_involution_on_random_graphs(self):
        rng = random.Random(3)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 9))
            assert complement(complement(g)) == g

    def test_complement_of_c5_is_c5(self):
        # Explicit relabeling i -> 2i mod 5 maps the complement back onto C5.
        comp = complement(cycle_graph(5))
        relabeled = frozenset(
            tuple(sorted(((2 * u) % 5, (2 * v) % 5))) for u, v in comp.edges
        )
        assert relabeled == cycle_graph(5).edges

    def test_complement_of_complete_is_edgeless(self):
        assert complement(complete_graph(6)) == empty_graph(6)


class TestCliquePredicates:
    def test_singleton_is_clique(self):
        assert is_clique(TWO_EDGES, [2])

    def test_edge_is_clique(self):
        assert is_clique(TWO_EDGES, [0, 1])

    def test_non_adjacent_pair_is_not(self):
        assert not is_clique(TWO_EDGES, [0, 2])

    def test_empty_subset_rejected(self):
        with pytest.raises(EmptySubset):
            is_clique(TWO_EDGES, [])

    def test_non_vertex_members_rejected(self):
        """True would read vertex 1 and 1.5 is no vertex; both are named."""
        for bad in (True, 1.5, -1, TWO_EDGES.n):
            for members in ([bad], [bad, 0], [2, bad]):
                with pytest.raises(VertexOutOfRange) as err:
                    is_clique(TWO_EDGES, members)
                assert err.value.vertex is bad

    def test_cluster_graph_examples(self):
        assert is_cluster_graph(TWO_EDGES)
        assert is_cluster_graph(complete_graph(4))
        assert not is_cluster_graph(cycle_graph(5))


def _exhaustive_colorable(g: SimpleGraph, k: int) -> bool:
    """Brute-force check independent of the solver: try all k^n assignments."""
    for assignment in itertools.product(range(k), repeat=g.n):
        if all(assignment[u] != assignment[v] for u, v in g.edges):
            return True
    return False


class TestChromaticNumber:
    def test_edgeless(self):
        gamma, coloring = chromatic_number(empty_graph(5))
        assert gamma == 1 and set(coloring) == {0}

    def test_c5_needs_three_colors(self):
        g = cycle_graph(5)
        assert not _exhaustive_colorable(g, 2)
        explicit = (0, 1, 0, 1, 2)
        assert coloring_is_proper(g, explicit)
        gamma, coloring = chromatic_number(g)
        assert gamma == 3
        assert coloring_is_proper(g, coloring)
        assert (gamma, coloring) == (3, (0, 1, 0, 1, 2))  # the README's witness

    def test_petersen_needs_three_colors(self):
        g = petersen_graph()
        assert not _exhaustive_colorable(g, 2)
        gamma, coloring = chromatic_number(g)
        assert gamma == 3
        assert coloring_is_proper(g, coloring)

    def test_complete(self):
        assert chromatic_number(complete_graph(6))[0] == 6

    def test_petersen_witnesses_pinned(self):
        """The coloring and the cover ``demos/05_graph_numbers.py`` prints."""
        g = petersen_graph()
        assert chromatic_number(g) == (3, (0, 1, 0, 1, 2, 1, 0, 2, 2, 1))
        theta, cover = clique_cover_number(g)
        assert (theta, cover.blocks) == (5, ((0, 4), (1, 6), (2, 3), (5, 8), (7, 9)))

    def test_witness_uses_exactly_gamma_colors(self):
        rng = random.Random(4)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 9))
            gamma, coloring = chromatic_number(g)
            assert coloring_is_proper(g, coloring)
            assert len(set(coloring)) == gamma

    def test_deterministic(self):
        rng = random.Random(5)
        g = random_graph(rng, 9)
        assert chromatic_number(g) == chromatic_number(g)

    def test_matches_exhaustive_search_small(self):
        rng = random.Random(6)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 6))
            gamma, _ = chromatic_number(g)
            assert _exhaustive_colorable(g, gamma)
            assert gamma == 1 or not _exhaustive_colorable(g, gamma - 1)

    def test_node_limit_aborts(self):
        g = complement(petersen_graph())
        for limit in (1, 3):
            with pytest.raises(NodeLimitExceeded) as err:
                chromatic_number(g, node_limit=limit)
            assert (err.value.limit, err.value.nodes) == (limit, limit)
            assert str(err.value) == f"exceeded node limit {limit} after {limit} nodes"


# A DSATUR kernel that scans every vertex's (saturation, degree, -v) tuple
# at each node, with its greedy bounds: the reference ``chromatic_number``
# must match node for node (same vertex choice, same color order, same
# incumbents), whatever it does to make a node cheaper.


def _reference_dsatur_greedy(g: SimpleGraph) -> list[int]:
    n = g.n
    adj = g.adjacency_bits
    colors = [-1] * n
    sat_masks = [0] * n
    degrees = [adj[v].bit_count() for v in range(n)]
    for _ in range(n):
        best_v = -1
        best_key = (-1, -1, 1)
        for v in range(n):
            if colors[v] != -1:
                continue
            key = (sat_masks[v].bit_count(), degrees[v], -v)
            if key > best_key:
                best_key = key
                best_v = v
        c = 0
        while (sat_masks[best_v] >> c) & 1:
            c += 1
        colors[best_v] = c
        mask = adj[best_v]
        while mask:
            w = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            sat_masks[w] |= 1 << c
    return colors


def _reference_greedy_clique(g: SimpleGraph) -> list[int]:
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    clique: list[int] = []
    clique_mask = 0
    adj = g.adjacency_bits
    for v in order:
        if clique_mask & ~adj[v] == 0:
            clique.append(v)
            clique_mask |= 1 << v
    return sorted(clique)


def _reference_normalize(colors: list[int]) -> tuple[int, tuple[int, ...]]:
    relabel: dict[int, int] = {}
    out = []
    for c in colors:
        if c not in relabel:
            relabel[c] = len(relabel)
        out.append(relabel[c])
    return len(relabel), tuple(out)


def _reference_chromatic(g: SimpleGraph, node_limit=None):
    n = g.n
    if n < 1:
        raise ValueError("chromatic number needs at least one vertex")
    if g.is_edgeless():
        return 1, (0,) * n
    adj = g.adjacency_bits
    degrees = [adj[v].bit_count() for v in range(n)]

    incumbent = _reference_dsatur_greedy(g)
    best_k, best = _reference_normalize(incumbent)
    clique = _reference_greedy_clique(g)
    lower = len(clique)
    if lower == best_k:
        return best_k, best

    colors = [-1] * n
    sat_masks = [0] * n
    for c, v in enumerate(clique):
        colors[v] = c
        mask = adj[v]
        while mask:
            w = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            sat_masks[w] |= 1 << c
    nodes = 0

    class _Done(Exception):
        pass

    def search(colored: int, used: int):
        nonlocal best_k, best, nodes
        if used >= best_k:
            return
        if colored == n:
            best_k, best = _reference_normalize(colors)
            if best_k == lower:
                raise _Done
            return
        if node_limit is not None:
            if nodes >= node_limit:
                raise NodeLimitExceeded(node_limit, nodes)
            nodes += 1
        v = -1
        v_key = (-1, -1, 1)
        for u in range(n):
            if colors[u] == -1:
                key = (sat_masks[u].bit_count(), degrees[u], -u)
                if key > v_key:
                    v_key = key
                    v = u
        limit = min(used + 1, best_k - 1)
        for c in range(limit):
            if (sat_masks[v] >> c) & 1:
                continue
            colors[v] = c
            touched = []
            bit = 1 << c
            mask = adj[v]
            while mask:
                w = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                if colors[w] == -1 and not sat_masks[w] & bit:
                    sat_masks[w] |= bit
                    touched.append(w)
            search(colored + 1, max(used, c + 1))
            colors[v] = -1
            for w in touched:
                sat_masks[w] &= ~bit

    try:
        search(len(clique), lower)
    except _Done:
        pass
    return best_k, best


def _queen_graph(k: int) -> SimpleGraph:
    cells = [(r, c) for r in range(k) for c in range(k)]
    return SimpleGraph(
        k * k,
        frozenset(
            (i, j)
            for i, (r1, c1) in enumerate(cells)
            for j, (r2, c2) in enumerate(cells)
            if i < j and (r1 == r2 or c1 == c2 or abs(r1 - r2) == abs(c1 - c2))
        ),
    )


def _mycielski_graph(k: int) -> SimpleGraph:
    """M_k (M_2 = K_2): triangle-free with chromatic number k."""
    n, edges = 2, [(0, 1)]
    for _ in range(k - 2):
        grown = list(edges)
        for u, v in edges:
            grown += [(u, n + v), (v, n + u)]
        grown += [(n + i, 2 * n) for i in range(n)]
        n, edges = 2 * n + 1, grown
    return SimpleGraph(n, frozenset(edges))


def _same_tree_graphs() -> list[SimpleGraph]:
    """Seeded G(n, p) and their complements (n = 16 and 32 fill every bit
    of the ``n - v`` field), plus named graphs; most need a real search."""
    rng = random.Random(61)
    graphs = []
    for n in (16, 20, 24, 28, 32):
        for p in (0.3, 0.5, 0.7):
            g = random_graph(rng, n, p)
            graphs += [g, complement(g)]
    named = [complement(petersen_graph()), _queen_graph(5), _queen_graph(6), _mycielski_graph(4)]
    return graphs + named


def _outcome(solver, g, limit):
    try:
        return solver(g, node_limit=limit)
    except NodeLimitExceeded as err:
        return (err.limit, err.nodes)


def _total_nodes(solver, g) -> int:
    """The smallest node limit at which ``solver`` completes on ``g``."""
    hi = 1
    while isinstance(_outcome(solver, g, hi)[1], int):
        hi *= 2
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if isinstance(_outcome(solver, g, mid)[1], int):
            lo = mid + 1
        else:
            hi = mid
    return lo


class TestSameSearchTree:
    """The kernel explores exactly the reference's search tree."""

    @pytest.mark.parametrize("g", _same_tree_graphs(), ids=lambda g: f"n{g.n}e{g.edge_count}")
    def test_matches_reference(self, g):
        from ghsimplex.graphs import _dsatur_greedy, _greedy_clique

        assert _dsatur_greedy(g.adjacency_bits) == _reference_dsatur_greedy(g)
        assert _greedy_clique(g.adjacency_bits) == _reference_greedy_clique(g)
        assert chromatic_number(g) == _reference_chromatic(g)
        for limit in (1, 2, 5, 17):
            assert _outcome(chromatic_number, g, limit) == _outcome(_reference_chromatic, g, limit)
        total = _total_nodes(_reference_chromatic, g)
        assert chromatic_number(g, node_limit=total) == _reference_chromatic(g)
        if total:
            with pytest.raises(NodeLimitExceeded) as err:
                chromatic_number(g, node_limit=total - 1)
            assert (err.value.limit, err.value.nodes) == (total - 1, total - 1)

    def test_searches_are_long_enough_to_tell(self):
        """A changed vertex choice shows up as a changed node count only
        where there is a search; most graphs above need one."""
        totals = [_total_nodes(_reference_chromatic, g) for g in _same_tree_graphs()]
        assert sum(t > 10 for t in totals) * 2 >= len(totals)


class TestKeptAnswers:
    """A graph keeps its complement and its exact coloring; a budgeted
    search and a copy see none of it."""

    @staticmethod
    def _assert_copies_equal(g):
        for x in (g, complement(g)):
            for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
                assert y == x and complement(y) == complement(x)

    def test_complement_of_complement_is_the_graph_while_it_lives(self):
        g = random_graph(random.Random(4), 9)
        h = complement(g)
        assert complement(g) is h and complement(h) is g
        edges, ref = g.edges, weakref.ref(g)
        del g
        assert ref() is None
        # The weak link died with g: h builds an equal graph and keeps it.
        again = complement(h)
        assert again.edges == edges and complement(h) is again and complement(again) is h

    @pytest.mark.parametrize("seed", [62, 63, 64])
    def test_budget_ignores_kept_answers(self, seed, color_searches):
        g = random_graph(random.Random(seed), 24, 0.5)
        reference = _reference_chromatic(g)
        total = _total_nodes(_reference_chromatic, g)
        assert total > 0
        on_fresh = _outcome(chromatic_number, SimpleGraph(g.n, g.edges), total - 1)
        assert on_fresh == (total - 1, total - 1)

        # An aborted search keeps nothing: the next unbudgeted call searches.
        assert _outcome(chromatic_number, g, total - 1) == on_fresh
        self._assert_copies_equal(g)
        color_searches.clear()
        assert chromatic_number(g) == reference
        assert color_searches == [None]
        self._assert_copies_equal(g)

        # With the answer kept, a budgeted call still searches, and aborts
        # after the same nodes or finishes with the same answer.
        assert _outcome(chromatic_number, g, total - 1) == on_fresh
        assert chromatic_number(g, node_limit=total) == reference
        assert chromatic_number(g) == reference
        assert color_searches == [None, total - 1, total]
        self._assert_copies_equal(g)

        cover_limit = _total_nodes(clique_cover_number, SimpleGraph(g.n, g.edges))
        theta, cover = clique_cover_number(g)
        assert theta == clique_cover_direct(g)[0] and cover_is_valid(g, cover)
        self._assert_copies_equal(g)
        if cover_limit:
            assert _outcome(clique_cover_number, g, cover_limit - 1) == (
                cover_limit - 1,
                cover_limit - 1,
            )
        assert clique_cover_number(g, node_limit=cover_limit) == (theta, cover)
        assert graph_invariants(g)[1] == theta
        self._assert_copies_equal(g)


class TestCliqueCover:
    def test_complete_graph_needs_one(self):
        theta, cover = clique_cover_number(complete_graph(5))
        assert theta == 1 and cover.blocks == ((0, 1, 2, 3, 4),)

    def test_c5_needs_three(self):
        g = cycle_graph(5)
        for solver in (clique_cover_number, clique_cover_direct):
            theta, cover = solver(g)
            assert theta == 3
            assert cover_is_valid(g, cover)

    def test_petersen_needs_five(self):
        g = petersen_graph()
        # Triangle-free, checked mechanically, so cliques have at most two
        # vertices and ceil(10 / 2) = 5 is a lower bound; the spokes give
        # an explicit 5-block cover as the matching upper bound.
        for u, v, w in itertools.combinations(range(10), 3):
            assert not (g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(u, w))
        from ghsimplex import CliqueCover

        spokes = CliqueCover(tuple((i, i + 5) for i in range(5)))
        assert cover_is_valid(g, spokes)
        for solver in (clique_cover_number, clique_cover_direct):
            theta, cover = solver(g)
            assert theta == 5
            assert cover_is_valid(g, cover)

    def test_two_solvers_agree_exhaustively_small(self):
        for n in (1, 2, 3, 4):
            for g in all_graphs(n):
                assert clique_cover_number(g)[0] == clique_cover_direct(g)[0]

    def test_two_solvers_agree_random(self):
        rng = random.Random(9)
        for _ in range(50):
            g = random_graph(rng, rng.randint(5, 10))
            t1, c1 = clique_cover_number(g)
            t2, c2 = clique_cover_direct(g)
            assert t1 == t2
            assert cover_is_valid(g, c1) and cover_is_valid(g, c2)

    def test_node_limit_aborts(self):
        for limit in (1, 3):
            with pytest.raises(NodeLimitExceeded) as err:
                clique_cover_direct(petersen_graph(), node_limit=limit)
            assert (err.value.limit, err.value.nodes) == (limit, limit)
            assert str(err.value) == f"exceeded node limit {limit} after {limit} nodes"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_components_vs_cover_exhaustive(n):
    """k(H) <= theta(H), with equality exactly for cluster graphs."""
    for g in all_graphs(n):
        k, _ = connected_components(g)
        theta, _ = clique_cover_number(g)
        assert k <= theta
        assert (k == theta) == is_cluster_graph(g)


def test_min_distance_graph_invariant_bounds():
    """1 <= k(G) <= theta(G) <= n-1 for minimal-distance graphs."""
    rng = random.Random(11)
    for _ in range(30):
        tds = random_two_distance(rng)
        g = min_distance_graph(tds)
        k, theta = graph_invariants(g)
        assert 1 <= k <= theta <= g.n - 1
