import copy as copy_module
import pickle
import random
from fractions import Fraction as F

import pytest

from ghsimplex import (
    Asymmetric,
    EmptySubset,
    FiniteMetricSpace,
    MetricError,
    NonPositiveOffDiagonal,
    NonZeroDiagonal,
    NotTwoDistance,
    SimpleGraph,
    TriangleViolation,
    as_two_distance,
    borsuk_feasible,
    chromatic_number,
    chromatic_via_gh,
    clique_cover_number,
    clique_cover_via_gh,
    complement,
    complete_graph,
    cycle_graph,
    diameter,
    gh_oracle,
    hausdorff_distance,
    is_cluster_graph,
    min_distance_graph,
    petersen_graph,
    two_distance_space_from_graph,
    validate_metric,
)
from ghsimplex.rationals import exact
from conftest import (
    all_graphs,
    coprime_matrix,
    random_cluster_two_distance,
    random_graph,
    random_metric_space,
    random_two_distance,
    random_usable_graph,
)


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

    @pytest.mark.parametrize("count", [1, 4, 6])
    def test_graph_space_labels_one_per_vertex(self, count):
        """A label list of the wrong length is named before any matrix is built."""
        labels = [f"q{i}" for i in range(count)]
        with pytest.raises(ValueError, match=rf"^labels must name the 5 vertices, got {count}"):
            two_distance_space_from_graph(cycle_graph(5), 1, F(3, 2), labels)

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

    def test_index_out_of_range(self, e1_space):
        """-1 would read the last point, 4 the end of a row, True point 1 and
        1.5 no point at all; each is rejected by name, in either subset:
        an int out of range by ``ValueError``, a non-int by ``TypeError``."""
        for bad, error, what in (
            (-1, ValueError, "index -1 is not a point of 0..3"),
            (4, ValueError, "index 4 is not a point of 0..3"),
            (True, TypeError, "point index must be an int, got bool True"),
            (1.5, TypeError, "point index must be an int, got float 1.5"),
        ):
            for a, b in (([bad], [0]), ([0, 1], [2, bad])):
                with pytest.raises(error, match=what):
                    hausdorff_distance(e1_space, a, b)

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

    def test_graph_space_has_the_graph_it_was_built_from(self):
        """The space built from a graph has that graph (its complement when
        a > b) as its minimal-distance graph, equal to the graph its
        ``dist`` gives; b > 2a on a non-cluster graph still fails
        validation."""
        rng = random.Random(16)
        for _ in range(40):
            n = rng.randint(3, 12)
            g = random_usable_graph(rng, n)
            labels = [f"q{i}" for i in range(n)] if rng.random() < 0.5 else None
            ids = labels or [f"v{i}" for i in range(n)]
            for a, b in ((F(1), F(3, 2)), (F(3, 2), F(1)), (F(2, 3), F(4, 3))):
                tds = two_distance_space_from_graph(g, a, b, labels)
                dist = tds.base.dist
                low = min(a, b)
                rebuilt = SimpleGraph(
                    n,
                    frozenset((i, j) for i in range(n) for j in range(i + 1, n) if dist[i][j] == low),
                )
                assert tds.graph == rebuilt
                assert tds.graph is (g if a < b else complement(g))
                assert list(tds.points) == ids
            if not is_cluster_graph(g):
                want = _outcome(_reference_validate, _two_valued_matrix(g, 1, 3))
                assert want[0] is TriangleViolation
                with pytest.raises(TriangleViolation) as err:
                    two_distance_space_from_graph(g, 1, 3, ids)
                assert err.value.indices == want[1]["indices"]


def _two_valued_matrix(g, a, b):
    n = g.n
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = a if g.has_edge(i, j) else b
    return rows


def _graph_space_outcome(build, g, a, b, labels=None):
    """What ``build(g, a, b, labels)`` returns, as the fields of the space,
    or the class, message and attributes of the error it raises."""
    try:
        tds = build(g, a, b, labels)
    except (MetricError, NotTwoDistance, ValueError) as exc:
        return type(exc), str(exc), vars(exc)
    space = tds.base
    return space.points, space.scale, space.ints, space.steps, tds.a, tds.b


def _reference_graph_space(g, a, b, labels=None):
    """The graph space through ``validate_metric`` on a ``Fraction`` matrix."""
    a, b, n = F(a), F(b), g.n
    ids = labels if labels is not None else [f"v{i}" for i in range(n)]
    matrix = [[F(0) if i == j else a if g.has_edge(i, j) else b for j in range(n)] for i in range(n)]
    return as_two_distance(validate_metric(ids, matrix))


class TestGraphSpaceMatchesReference:
    """The graph space built in ints from the masks against the space
    ``validate_metric`` builds from the ``Fraction`` matrix: the same
    fields on accepted parameters, the same error on rejected ones."""

    # Denominators 1, 2, 3, 7 and 1000, b = 2a, and a > b.
    PAIRS = [
        (1, 2),
        (F(1), F(3, 2)),
        (F(2, 3), F(1)),
        (F(1, 3), F(1, 2)),
        (F(3, 7), F(5, 7)),
        (F(2, 7), F(1, 3)),
        (F(999, 1000), F(3, 2)),
        (F(1, 1000), F(1, 500)),
        (F(3, 2), F(1)),
        (F(5, 7), F(2, 3)),
        (F(1001, 1000), F(1)),
    ]

    def _assert_same(self, g, a, b, labels=None):
        got = _graph_space_outcome(two_distance_space_from_graph, g, a, b, labels)
        assert got == _graph_space_outcome(_reference_graph_space, g, a, b, labels)
        return got

    def test_accepted_spaces_field_for_field(self):
        rng = random.Random(211)
        for n in range(3, 13):
            for _ in range(3):
                g = random_usable_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
                labels = [f"q{i}" for i in range(n)] if rng.random() < 0.5 else None
                for a, b in self.PAIRS:
                    got = self._assert_same(g, a, b, labels)
                    assert type(got[0]) is tuple and all(type(d) is int for d in got[3])
        for g in (cycle_graph(5), petersen_graph(), complement(petersen_graph())):
            for a, b in self.PAIRS:
                self._assert_same(g, a, b)

    def test_rejections_alike(self):
        rng = random.Random(223)
        kinds = set()
        wide = [(1, 3), (F(1, 7), F(3, 7)), (F(2, 3), F(1999, 1000))]
        for n in range(3, 11):
            for _ in range(4):
                g = random_usable_graph(rng, n)
                pairs = [(0, 1), (F(-1, 2), 1), (1, 0), (F(1, 3), F(-2, 7))]
                if not is_cluster_graph(g):
                    pairs += wide
                for a, b in pairs:
                    kinds.add(self._assert_same(g, a, b)[0])
                duplicate = [f"q{i}" for i in range(n - 1)] + ["q0"]
                kinds.add(self._assert_same(g, 1, F(3, 2), duplicate)[0])
        for g in (SimpleGraph(0), SimpleGraph(1), SimpleGraph(2), complete_graph(4), SimpleGraph(4)):
            for labels in (None, [f"q{i}" for i in range(g.n)]):
                kinds.add(self._assert_same(g, 1, F(3, 2), labels)[0])
        kinds.add(self._assert_same(cycle_graph(5), F(3, 2), F(3, 2))[0])
        assert kinds == {NonPositiveOffDiagonal, TriangleViolation, ValueError, NotTwoDistance}


def test_graph_routes_skip_the_fraction_pass(monkeypatch):
    """A graph space is built in ints from the graph's masks: with the
    scaling pass over a ``Fraction`` matrix made to raise, both
    ``*_via_gh`` routes still answer on G(40, 1/2), and
    ``validate_metric`` still takes that pass."""
    import ghsimplex.metric as metric

    def refusing(matrix):
        raise AssertionError("a matrix went through _scaled_ints")

    g = random_graph(random.Random(227), 40, 0.5)
    chi, theta = chromatic_number(g)[0], clique_cover_number(g)[0]
    monkeypatch.setattr(metric, "_scaled_ints", refusing)
    tds = two_distance_space_from_graph(g, 1, F(3, 2))
    assert tds.graph is g and tds.base.scale == 2
    assert chromatic_via_gh(g, 1, F(3, 2)) == chi
    assert clique_cover_via_gh(g, 1, F(3, 2)) == theta
    with pytest.raises(AssertionError, match="went through _scaled_ints"):
        validate_metric(["p", "q"], [[0, 1], [1, 0]])


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


def _reference_validate(points, matrix):
    """The plain ``Fraction`` triple loop: the reference that
    ``validate_metric``'s int check is held to.  Returns ``(points, dist)``."""
    ids = tuple(str(p) for p in points)
    n = len(ids)
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
            for k in range(n):
                if k != i and k != j and dist[i][j] > dist[i][k] + dist[k][j]:
                    raise TriangleViolation(i, j, k)
    return ids, dist


def _outcome(validate, matrix):
    """What ``validate`` returns, or the class and attributes
    (``indices`` or ``index``) of the metric error it raises."""
    try:
        return validate([f"p{i}" for i in range(len(matrix))], matrix)
    except MetricError as exc:
        return type(exc), vars(exc)


def _assert_same_as_reference(matrix):
    """The outcome of ``validate_metric``, after checking that it equals
    the reference's: the same ``(points, dist)`` or the same error."""
    got = _outcome(validate_metric, matrix)
    want = _outcome(_reference_validate, matrix)
    if isinstance(got, FiniteMetricSpace):
        assert (got.points, got.dist) == want
    else:
        assert got == want
    return got


def _set(matrix, i, j, value):
    matrix[i][j] = matrix[j][i] = value


def _tightest(matrix, i, j):
    """min over third points k of d(i, k) + d(k, j)."""
    return min(matrix[i][k] + matrix[k][j] for k in range(len(matrix)) if k not in (i, j))


class TestIntCheckMatchesReference:
    """``validate_metric`` against the ``Fraction`` triple loop: equal
    spaces on accepted matrices, and the same error class and indices on
    rejected ones, whichever axioms a matrix breaks."""

    @pytest.mark.parametrize("denominator", [2, 10])
    def test_random_spaces_with_one_broken_entry(self, denominator):
        rng = random.Random(500 + denominator)
        step = F(1, denominator)
        kinds = set()
        for n in range(2, 10):
            for _ in range(12):
                base = [list(row) for row in random_metric_space(rng, n, denominator).dist]
                assert isinstance(_assert_same_as_reference(base), FiniteMetricSpace)
                i, j = sorted(rng.sample(range(n), 2))
                variants = [F(0), -rng.randint(1, 3) * step]
                if n >= 3:
                    variants += [_tightest(base, i, j), _tightest(base, i, j) + step]
                for value in variants:
                    matrix = [row[:] for row in base]
                    _set(matrix, i, j, value)
                    got = _assert_same_as_reference(matrix)
                    kinds.add(got[0] if isinstance(got, tuple) else "ok")
        assert kinds == {"ok", NonPositiveOffDiagonal, TriangleViolation}

    def test_asymmetric_precedence(self):
        rng = random.Random(31)
        fixed = [
            # asymmetric at (1, 2) and a triangle violation at (0, 2)
            [[0, 1, 5], [1, 0, 1], [5, 2, 0]],
            # nonpositive at (0, 1) precedes asymmetric at (0, 2)
            [[0, 0, 1], [0, 0, 1], [2, 1, 0]],
            # asymmetric at (0, 1) precedes nonpositive at (1, 2)
            [[0, 1, 1], [2, 0, -1], [1, -1, 0]],
            # a nonzero diagonal at the last point precedes all of those
            [[0, 1, 5], [2, 0, 0], [5, 0, 1]],
        ]
        for matrix in fixed:
            _assert_same_as_reference(matrix)
        for _ in range(60):
            n = rng.randint(3, 9)
            matrix = [list(row) for row in random_metric_space(rng, n).dist]
            i, j = sorted(rng.sample(range(n), 2))
            u, v = sorted(rng.sample(range(n), 2))
            _set(matrix, u, v, _tightest(matrix, u, v) + F(1, 10))
            matrix[i][j] += F(rng.choice([-1, 1]), 10)
            assert _assert_same_as_reference(matrix)[0] is Asymmetric

    def test_coprime_denominators(self):
        rng = random.Random(37)
        for _ in range(40):
            n = rng.randint(3, 10)
            matrix = coprime_matrix(rng, n)
            assert isinstance(_assert_same_as_reference(matrix), FiniteMetricSpace)
            i, j = sorted(rng.sample(range(n), 2))
            tight = _tightest(matrix, i, j)
            _set(matrix, i, j, tight)
            assert isinstance(_assert_same_as_reference(matrix), FiniteMetricSpace)
            _set(matrix, i, j, tight + F(1, 53 * 59))
            assert _assert_same_as_reference(matrix)[0] is TriangleViolation

    def test_str_and_int_entries(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(3, 8)
            matrix = [list(row) for row in random_metric_space(rng, n).dist]
            if rng.random() < 0.5:
                i, j = sorted(rng.sample(range(n), 2))
                _set(matrix, i, j, _tightest(matrix, i, j) + F(1, 10))
            as_int = [[int(10 * d) for d in row] for row in matrix]
            as_str = [
                [str(d) if rng.random() < 0.5 else f"{t // 10}.{t % 10}" for d, t in zip(row, ints)]
                for row, ints in zip(matrix, as_int)
            ]
            assert _assert_same_as_reference(as_str) == _assert_same_as_reference(matrix)
            _assert_same_as_reference(as_int)

    def test_collinear_triple_is_accepted(self):
        for matrix in (
            [[0, 1, 3], [1, 0, 2], [3, 2, 0]],
            [[0, F(1, 3), F(5, 6)], [F(1, 3), 0, F(1, 2)], [F(5, 6), F(1, 2), 0]],
            [["0", "1/7", "8/77"], ["1/7", "0", "3/77"], ["8/77", "3/77", "0"]],
        ):
            space = _assert_same_as_reference(matrix)
            assert isinstance(space, FiniteMetricSpace)

    def test_wide_two_distance_spaces_from_graphs(self):
        rng = random.Random(43)
        a = F(2, 3)
        for n, p in [(4, 0.5), (6, 0.5), (9, 0.3), (16, 0.5), (25, 0.2), (45, 0.5), (45, 0.1)]:
            g = random_usable_graph(rng, n, p)
            while is_cluster_graph(g):
                g = random_usable_graph(rng, n, p)
            ids = [f"p{i}" for i in range(n)]
            # b > 2a on a non-cluster graph breaks the triangle inequality; b <= 2a never does
            wide = _two_valued_matrix(g, a, F(3, 2))
            want = _outcome(_reference_validate, wide)
            assert want[0] is TriangleViolation
            with pytest.raises(TriangleViolation) as err:
                two_distance_space_from_graph(g, a, F(3, 2), ids)
            assert err.value.indices == want[1]["indices"]
            tds = two_distance_space_from_graph(g, a, F(4, 3), ids)
            want = _reference_validate(ids, _two_valued_matrix(g, a, F(4, 3)))
            assert (tds.base.points, tds.base.dist) == want

    def test_cluster_spaces_with_one_broken_pair(self):
        """b > 2a: every cross pair meets the third points.  Joining two
        clusters by one close pair, or parting one cluster by one far
        pair, breaks the inequality exactly where the reference says."""
        rng = random.Random(53)
        kinds = set()
        for _ in range(60):
            tds = random_cluster_two_distance(rng, 4, 10)
            base = [list(row) for row in tds.base.dist]
            assert isinstance(_assert_same_as_reference(base), FiniteMetricSpace)
            n = tds.n
            i, j = sorted(rng.sample(range(n), 2))
            matrix = [row[:] for row in base]
            _set(matrix, i, j, tds.a if matrix[i][j] == tds.b else tds.b)
            got = _assert_same_as_reference(matrix)
            kinds.add(got[0] if isinstance(got, tuple) else "ok")
        assert kinds == {"ok", TriangleViolation}

    def test_pair_at_exactly_twice_the_smallest_is_accepted(self):
        """d_ij = 2 min with d_ik = d_kj = min is a collinear triple: the
        pruned scan skips the pair, and the reference accepts it too."""
        rng = random.Random(59)
        for _ in range(40):
            n = rng.randint(3, 10)
            low = F(rng.randint(1, 9), rng.choice([1, 2, 10, 1000]))
            matrix = [[F(0)] * n for _ in range(n)]
            for u in range(n):
                for v in range(u + 1, n):
                    _set(matrix, u, v, low * F(rng.randint(1000, 2000), 1000))
            i, j, k = rng.sample(range(n), 3)
            _set(matrix, i, k, low)
            _set(matrix, j, k, low)
            _set(matrix, i, j, 2 * low)
            assert isinstance(_assert_same_as_reference(matrix), FiniteMetricSpace)

    def test_violators_just_above_twice_the_smallest(self):
        """The smallest distance sits on a pair apart from the violator,
        which exceeds twice it by three grid steps, the least it can when
        its two other sides are each a step above the smallest.  Entries
        up to 2 min break nothing, so the violator is the only pair the
        scan must reach, and the reference names the same triple."""
        rng = random.Random(61)
        for _ in range(60):
            n = rng.randint(4, 12)
            grid = rng.choice([10, 1000])
            step = F(1, grid)
            low = F(rng.randint(1, 3))
            matrix = [[F(0)] * n for _ in range(n)]
            for u in range(n):
                for v in range(u + 1, n):
                    _set(matrix, u, v, low + step * rng.randint(1, int(low * grid)))
            i, j, u, v = rng.sample(range(n), 4)
            _set(matrix, u, v, low)
            close = low + step
            for w in rng.sample([w for w in range(n) if w not in (i, j)], rng.randint(1, 2)):
                _set(matrix, i, w, close)
                _set(matrix, j, w, close)
            _set(matrix, i, j, 2 * close + step)
            got = _assert_same_as_reference(matrix)
            assert got[0] is TriangleViolation
            assert matrix[i][j] > 2 * low


def test_pruned_scan_meets_no_third_point_for_b_at_most_2a(monkeypatch):
    """The triangle scan adds nothing for a graph space with b <= 2a: no
    pair is farther apart than twice the smallest distance.  With b > 2a
    on a cluster graph the far pairs are scanned."""
    import ghsimplex.metric as metric

    sums = []

    def counting(x, y):
        sums.append(1)
        return x + y

    monkeypatch.setattr(metric, "add", counting)
    g = random_graph(random.Random(67), 45, 0.5)
    tds = two_distance_space_from_graph(g, 1, F(3, 2))
    assert sums == []
    assert tds.graph is g
    cluster = random_cluster_two_distance(random.Random(71), 8, 12)
    two_distance_space_from_graph(cluster.graph, 1, 3)
    assert sums


def test_searches_build_no_fraction_matrix(monkeypatch):
    """The checks and searches read the int matrix: neither
    ``validate_metric``, nor the spaces that both ``*_via_gh`` routes
    build, nor a ``gh_oracle`` sweep makes the ``Fraction`` view ``dist``;
    a Borsuk decision for every m builds no ``Fraction`` at all."""
    import ghsimplex.closed_form as closed_form

    built = []
    real = closed_form.two_distance_space_from_graph

    def keeping(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(closed_form, "two_distance_space_from_graph", keeping)
    g = random_usable_graph(random.Random(97), 14)
    assert clique_cover_via_gh(g, 1, F(3, 2)) == clique_cover_number(g)[0]
    assert chromatic_via_gh(g, 1, F(3, 2)) == chromatic_number(g)[0]
    assert len(built) == 2
    assert all("dist" not in vars(tds.base) for tds in built)
    space = validate_metric([f"p{i}" for i in range(8)], coprime_matrix(random.Random(101), 8))
    assert "dist" not in vars(space)
    for m in range(1, 10):
        for lam in (F(1, 2), F(1), *space.distances, F(7, 2)):
            gh_oracle(space, m, lam)
    assert "dist" not in vars(space)
    rng = random.Random(103)
    spaces = [validate_metric([f"p{i}" for i in range(n)], coprime_matrix(rng, n)) for n in range(6, 12)]

    def no_fractions(*_):
        raise AssertionError("Fraction built by a Borsuk decision")

    monkeypatch.setattr(F, "__new__", no_fractions)
    for space in spaces:
        for m in range(1, space.n + 1):
            feasible, witness = borsuk_feasible(space, m)
            assert feasible == (witness is not None)
    monkeypatch.undo()
    for space in spaces:
        assert "distances" not in vars(space)
        assert "dist" not in vars(space)


def _reference_distances(matrix):
    """Sorted distinct off-diagonal entries, keyed by their ``Fraction`` values."""
    return tuple(sorted({F(d) for i, row in enumerate(matrix) for d in row[i + 1 :]}))


def _assert_matches_input(space, matrix):
    """``dist`` is the input as ``Fraction`` entries, and ``distances``
    equals the ``Fraction``-keyed reference."""
    assert space.dist == tuple(tuple(F(d) for d in row) for row in matrix)
    assert all(type(d) is F for row in space.dist for d in row)
    assert space.distances == _reference_distances(matrix)
    assert all(type(d) is F for d in space.distances)


class TestIntDistancesAndRanks:
    """``distances`` and the ``dist`` view come from the kept int matrix;
    they must equal the input and the ``Fraction``-keyed reference on
    every kind of space."""

    @pytest.mark.parametrize("denominator", [2, 10, 1000])
    def test_random_spaces(self, denominator):
        rng = random.Random(73 + denominator)
        for n in range(1, 14):
            matrix = [list(row) for row in random_metric_space(rng, n, denominator).dist]
            _assert_matches_input(validate_metric([f"p{i}" for i in range(n)], matrix), matrix)

    def test_int_str_and_fraction_inputs(self):
        rng = random.Random(79)
        for _ in range(30):
            n = rng.randint(2, 9)
            matrix = [list(row) for row in random_metric_space(rng, n, 4).dist]
            ids = [f"p{i}" for i in range(n)]
            as_int = [[int(4 * d) for d in row] for row in matrix]
            as_str = [[str(d) for d in row] for row in matrix]
            spaces = [validate_metric(ids, m) for m in (matrix, as_int, as_str)]
            for space, m in zip(spaces, (matrix, as_int, as_str)):
                _assert_matches_input(space, m)
            assert spaces[0] == spaces[2]
            assert hash(spaces[0]) == hash(spaces[2])
            assert spaces[0].ints == spaces[2].ints
            assert spaces[1].distances == tuple(4 * d for d in spaces[0].distances)

    def test_pickle_and_deepcopy_round_trips(self):
        rng = random.Random(89)
        fractions = [list(row) for row in random_metric_space(rng, 9, 1000).dist]
        tds = random_two_distance(rng, 5, 12)
        matrices = [
            fractions,
            [[int(1000 * d) for d in row] for row in fractions],
            [[str(d) for d in row] for row in fractions],
        ]
        spaces = [validate_metric([f"p{i}" for i in range(9)], m) for m in matrices]
        matrices.append(
            [
                [0 if i == j else tds.a if tds.graph.has_edge(i, j) else tds.b for j in range(tds.n)]
                for i in range(tds.n)
            ]
        )
        spaces.append(tds.base)
        for space, given in zip(spaces, matrices):
            for copy in (pickle.loads(pickle.dumps(space)), copy_module.deepcopy(space)):
                assert copy == space
                _assert_matches_input(copy, given)
            space.thresholds.corners(2)
            assert "dist" not in vars(space)
            _assert_matches_input(space, given)
            for copy in (pickle.loads(pickle.dumps(space)), copy_module.deepcopy(space)):
                assert copy == space
                assert hash(copy) == hash(space)
                _assert_matches_input(copy, given)


def test_int_check_adds_no_fractions(monkeypatch):
    """Every axiom is checked in int arithmetic: a 20-point space with mixed
    denominators validates with ``Fraction`` addition switched off."""
    matrix = coprime_matrix(random.Random(47), 20)
    ids = [f"p{i}" for i in range(20)]

    def no_adding(*_):
        raise AssertionError("Fraction addition in validate_metric")

    monkeypatch.setattr(F, "__add__", no_adding)
    monkeypatch.setattr(F, "__radd__", no_adding)
    space = validate_metric(ids, matrix)
    monkeypatch.undo()
    assert (space.points, space.dist) == _reference_validate(ids, matrix)
