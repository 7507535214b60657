import itertools
import random

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

    def test_petersen_needs_three_colors(self):
        g = petersen_graph()
        assert not _exhaustive_colorable(g, 2)
        gamma, coloring = chromatic_number(g)
        assert gamma == 3
        assert coloring_is_proper(g, coloring)

    def test_complete(self):
        assert chromatic_number(complete_graph(6))[0] == 6

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
