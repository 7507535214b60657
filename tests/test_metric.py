import random
from fractions import Fraction as F

import pytest

from ghsimplex import (
    Asymmetric,
    EmptySubset,
    NonPositiveOffDiagonal,
    NonZeroDiagonal,
    NotTwoDistance,
    TriangleViolation,
    as_two_distance,
    cycle_graph,
    diameter,
    hausdorff_distance,
    is_cluster_graph,
    min_distance_graph,
    two_distance_space_from_graph,
    validate_metric,
)
from conftest import random_metric_space, random_two_distance, all_graphs


class TestValidateMetric:
    def test_equilateral_triangle_is_valid(self):
        space = validate_metric(["p", "q", "r"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert space.n == 3
        assert space.distance(0, 2) == 1

    def test_asymmetric(self):
        with pytest.raises(Asymmetric) as err:
            validate_metric(["p", "q"], [[0, 1], [2, 0]])
        assert err.value.indices == (0, 1)

    def test_triangle_violation_names_indices(self):
        with pytest.raises(TriangleViolation) as err:
            validate_metric(["p", "q", "r"], [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        assert err.value.indices == (0, 2, 1)

    def test_nonzero_diagonal(self):
        with pytest.raises(NonZeroDiagonal):
            validate_metric(["p", "q"], [[1, 1], [1, 0]])

    def test_nonpositive_off_diagonal(self):
        with pytest.raises(NonPositiveOffDiagonal):
            validate_metric(["p", "q"], [[0, 0], [0, 0]])
        with pytest.raises(NonPositiveOffDiagonal):
            validate_metric(["p", "q"], [[0, -1], [-1, 0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            validate_metric(["p", "q"], [[0, 1, 1], [1, 0, 1]])

    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            validate_metric(["p", "p"], [[0, 1], [1, 0]])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            validate_metric(["p", "q"], [[0, 0.5], [0.5, 0]])

    def test_bools_rejected(self):
        with pytest.raises(TypeError):
            validate_metric(["p", "q"], [[0, True], [True, 0]])

    @pytest.mark.parametrize("a, b, name", [(0.5, 1, "a"), (F(1), 1.5, "b"), (1, True, "b")])
    def test_graph_space_names_the_inexact_parameter(self, a, b, name):
        with pytest.raises(TypeError, match=rf"^{name} must be exact"):
            two_distance_space_from_graph(cycle_graph(5), a, b)

    def test_string_entries_parse_exactly(self):
        space = validate_metric(["p", "q"], [["0", "3/2"], ["1.5", "0"]])
        assert space.distance(0, 1) == F(3, 2)


class TestTwoDistance:
    def test_e1(self, e1_space):
        tds = as_two_distance(e1_space)
        assert (tds.a, tds.b) == (F(1), F(2))

    def test_one_value_rejected(self):
        space = validate_metric(["p", "q", "r"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        with pytest.raises(NotTwoDistance) as err:
            as_two_distance(space)
        assert err.value.count == 1

    def test_three_values_rejected(self):
        space = validate_metric(
            ["p", "q", "r", "s"],
            [
                [0, 1, 2, 2],
                [1, 0, "3/2", 2],
                [2, "3/2", 0, 1],
                [2, 2, 1, 0],
            ],
        )
        with pytest.raises(NotTwoDistance) as err:
            as_two_distance(space)
        assert err.value.count == 3

    def test_diameter_is_b_on_random_instances(self):
        rng = random.Random(100)
        for _ in range(30):
            tds = random_two_distance(rng)
            assert diameter(tds.base) == tds.b


class TestDiameter:
    def test_single_point(self):
        assert diameter(validate_metric(["p"], [[0]])) == 0

    def test_e1(self, e1_space):
        assert diameter(e1_space) == 2

    def test_e2(self, e2_space):
        assert diameter(e2_space) == F(3, 2)


class TestHausdorff:
    def test_equal_subsets_give_zero(self, e1_space):
        assert hausdorff_distance(e1_space, {0, 2}, {0, 2}) == 0

    def test_e1_singleton_vs_pair(self, e1_space):
        assert hausdorff_distance(e1_space, {0}, {2, 3}) == 2

    def test_e1_overlapping_pairs(self, e1_space):
        # Independent evaluation of max/min over the 4-point matrix:
        # side A->B: max(min(d(x1,x1), d(x1,x3)), min(d(x2,x1), d(x2,x3)))
        #          = max(0, 1) = 1
        # side B->A: max(0, min(d(x3,x1), d(x3,x2))) = max(0, 2) = 2
        a, b = [0, 1], [0, 2]
        dist = e1_space.dist
        side_ab = max(min(dist[i][j] for j in b) for i in a)
        side_ba = max(min(dist[j][i] for i in a) for j in b)
        assert (side_ab, side_ba) == (1, 2)
        assert hausdorff_distance(e1_space, a, b) == 2

    def test_empty_subset(self, e1_space):
        with pytest.raises(EmptySubset):
            hausdorff_distance(e1_space, [], [0])

    def test_symmetry_and_zero_iff_equal(self):
        rng = random.Random(7)
        for _ in range(20):
            space = random_metric_space(rng, rng.randint(2, 8))
            idx = range(space.n)
            a = {i for i in idx if rng.random() < 0.5} or {0}
            b = {i for i in idx if rng.random() < 0.5} or {space.n - 1}
            d_ab = hausdorff_distance(space, a, b)
            assert d_ab == hausdorff_distance(space, b, a)
            assert (d_ab == 0) == (a == b)

    def test_triangle_inequality_over_subsets(self):
        rng = random.Random(8)
        for _ in range(25):
            space = random_metric_space(rng, rng.randint(3, 8))
            idx = range(space.n)
            subsets = []
            while len(subsets) < 3:
                s = {i for i in idx if rng.random() < 0.5}
                if s:
                    subsets.append(s)
            a, b, c = subsets
            assert hausdorff_distance(space, a, c) <= hausdorff_distance(
                space, a, b
            ) + hausdorff_distance(space, b, c)


class TestMinDistanceGraph:
    def test_e1_two_disjoint_edges(self, e1_tds):
        g = min_distance_graph(e1_tds)
        assert sorted(g.edges) == [(0, 1), (2, 3)]

    def test_e2_five_cycle(self, e2_tds):
        g = min_distance_graph(e2_tds)
        assert sorted(g.edges) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]

    def test_edge_count_strictly_between_bounds(self):
        rng = random.Random(15)
        for _ in range(30):
            tds = random_two_distance(rng)
            g = min_distance_graph(tds)
            assert 0 < g.edge_count < g.n * (g.n - 1) // 2


def _two_valued_matrix(g, a, b):
    n = g.n
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = a if g.has_edge(i, j) else b
    return rows


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_realizability_iff_cluster_or_small_gap(n):
    """A symmetric {a, b} matrix is a metric iff b <= 2a or the a-edge
    graph is a disjoint union of cliques; both directions, exhaustively."""
    ids = [f"p{i}" for i in range(n)]
    for g in all_graphs(n):
        if g.is_complete() or g.is_edgeless():
            continue
        # b <= 2a: always a metric
        validate_metric(ids, _two_valued_matrix(g, 1, 2))
        # b > 2a: a metric exactly when the graph is a cluster graph
        wide = _two_valued_matrix(g, 1, 3)
        if is_cluster_graph(g):
            validate_metric(ids, wide)
        else:
            with pytest.raises(TriangleViolation):
                validate_metric(ids, wide)
