import gc
import math
import random
import re
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import pytest

from ghsimplex import (
    ADPoint,
    BadParameters,
    DegenerateGraph,
    GHCaseTag,
    INF,
    InvalidM,
    NonPositiveLambda,
    SimpleGraph,
    SinglePoint,
    ad_set,
    ad_set_parallel,
    borsuk_feasible,
    chromatic_number,
    chromatic_via_gh,
    classify_case,
    classify_case_from_params,
    clique_cover_direct,
    clique_cover_number,
    clique_cover_via_gh,
    complement,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    diameter,
    empty_graph,
    enumerate_partitions,
    extreme_points,
    gh_curve,
    gh_oracle,
    gh_oracle_curve,
    gh_two_distance,
    graph_invariants,
    h_value,
    is_clique,
    min_distance_graph,
    partition_diameter,
    petersen_graph,
    scan_prefixes,
    two_distance_space_from_graph,
    validate_metric,
)
from ghsimplex import graphs
from ghsimplex.closed_form import _case_pair
from conftest import (
    all_graphs,
    random_cluster_two_distance,
    random_graph,
    random_metric_space,
    random_two_distance,
    random_usable_graph,
)

TWO_EDGES_GRAPH_EDGES = [(0, 1), (2, 3)]


class TestClassification:
    def test_e1_m2(self, e1_tds):
        case = classify_case(e1_tds, 2)
        assert case.tag is GHCaseTag.M_EQ_K_EQ_THETA
        assert (case.k, case.theta, case.n) == (2, 2, 4)

    def test_e2_m2(self, e2_tds):
        case = classify_case(e2_tds, 2)
        assert case.tag is GHCaseTag.K_LT_M_LT_THETA
        assert (case.k, case.theta, case.n) == (1, 3, 5)

    def test_m_above_n(self, e2_tds):
        assert classify_case(e2_tds, 7).tag is GHCaseTag.M_GT_N

    def test_sweep_yields_exactly_one_tag(self):
        """The nine case regions tile every (m, n, k, theta) combination."""
        for n in range(2, 21):
            for k in range(1, n):
                for theta in range(k, n):
                    for m in range(1, n + 3):
                        regions = {
                            GHCaseTag.M_EQ_1: m == 1,
                            GHCaseTag.M_GT_N: 1 < m and m > n,
                            GHCaseTag.M_EQ_N: 1 < m == n,
                            GHCaseTag.M_LT_K: k == theta and 1 < m < k,
                            GHCaseTag.M_EQ_K_EQ_THETA: k == theta
                            and 1 < m < n
                            and m == k,
                            GHCaseTag.K_EQ_THETA_LT_M_LT_N: k == theta
                            and k < m < n,
                            GHCaseTag.M_LE_K_LT_THETA: k < theta and 1 < m <= k,
                            GHCaseTag.K_LT_M_LT_THETA: k < theta
                            and k < m < theta,
                            GHCaseTag.THETA_LE_M_LT_N: k < theta
                            and theta <= m < n,
                        }
                        matches = [tag for tag, hit in regions.items() if hit]
                        assert len(matches) == 1, (m, n, k, theta, matches)
                        assert classify_case_from_params(m, n, k, theta) is matches[0]

    def test_rejects_impossible_parameters(self):
        with pytest.raises(ValueError):
            classify_case_from_params(2, 4, 2, 4)
        with pytest.raises(InvalidM):
            classify_case_from_params(0, 4, 1, 2)


class TestTwoDistanceFormula:
    def test_e1_table(self, e1_tds):
        # (m, lambda) -> 2*d_GH, straight from the case formulas.
        table = [
            (1, F(1), F(2)),
            (1, F(99), F(2)),
            (2, F(1), F(1)),
            (3, F(1), F(1)),
            (4, F(5, 2), F(3, 2)),
            (5, F(1), F(1)),
        ]
        for m, lam, want in table:
            assert gh_two_distance(e1_tds, m, lam).value == want

    def test_e2_table(self, e2_tds):
        table = [(2, F(1), F(3, 2)), (3, F(1), F(1)), (5, F(1), F(1, 2))]
        for m, lam, want in table:
            assert gh_two_distance(e2_tds, m, lam).value == want

    def test_value_dominates_diameter_gap(self):
        rng = random.Random(40)
        for _ in range(20):
            tds = random_two_distance(rng)
            m = rng.randint(1, tds.n + 2)
            lam = F(rng.randint(1, 50), 10)
            gv = gh_two_distance(tds, m, lam)
            assert gv.value >= 0
            assert gv.value >= tds.b - lam

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(41)
        for _ in range(25):
            tds = random_two_distance(rng, 3, 7)
            a, b = tds.a, tds.b
            for m in range(1, tds.n + 3):
                for lam in {a / 2, a, (a + b) / 2, b, 2 * b, a + b}:
                    closed = gh_two_distance(tds, m, lam).value
                    assert closed == gh_oracle(tds.base, m, lam)

    def test_lambda_positive_required(self, e1_tds):
        with pytest.raises(NonPositiveLambda):
            gh_two_distance(e1_tds, 2, F(-1))

    def test_memo_safe_under_threads(self, e2_tds):
        expected = gh_two_distance(e2_tds, 3, F(1)).value
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(lambda _: gh_two_distance(e2_tds, 3, F(1)).value, range(32))
            )
        assert all(v == expected for v in results)

    def test_memo_is_freed_with_the_graph(self):
        """The answers kept on a graph and on its complement hold no
        strong link back to the graph, and no module memo holds either:
        both die with the last reference, without the cycle collector."""
        rng = random.Random(37)
        gc.disable()
        try:
            for _ in range(5):
                g = random_usable_graph(rng, 7)
                chromatic_number(g)
                clique_cover_number(g)
                _, theta = graph_invariants(g)
                assert theta == clique_cover_direct(g)[0]
                chromatic_via_gh(g, F(1), F(3, 2))
                clique_cover_via_gh(g, F(1), F(3, 2))
                refs = weakref.ref(g), weakref.ref(complement(g))
                del g
                assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


def _assert_within_diameter_bounds(value, space, m, lam):
    diam = diameter(space)
    if m == 1:
        assert value == diam
    else:
        assert abs(diam - lam) <= value <= max(diam, lam), (space.dist, m, lam)


def _bound_lambdas(space):
    lams = {F(1, 7), 2 * diameter(space) + 1}
    for d in space.distances:
        lams |= {d / 2, d, 3 * d / 2, 3 * d}
    return sorted(lams)


class TestDiameterBounds:
    """|diam X - lambda| <= 2 d_GH <= max(diam X, lambda) for m >= 2, and
    2 d_GH = diam X for the one-point simplex, on both routes."""

    @pytest.mark.parametrize("denominator", [2, 10])
    def test_oracle_on_general_spaces(self, denominator):
        rng = random.Random(47 + denominator)
        for n in range(1, 10):
            for _ in range(8):
                space = random_metric_space(rng, n, denominator)
                for m in range(1, n + 2):
                    for lam in _bound_lambdas(space):
                        _assert_within_diameter_bounds(gh_oracle(space, m, lam), space, m, lam)

    @pytest.mark.parametrize("generator", [random_two_distance, random_cluster_two_distance])
    def test_both_routes_on_two_distance_spaces(self, generator):
        rng = random.Random(49)
        for _ in range(20):
            tds = generator(rng, 4, 12)
            space = tds.base
            for m in range(1, tds.n + 2):
                for lam in _bound_lambdas(space):
                    closed = gh_two_distance(tds, m, lam).value
                    _assert_within_diameter_bounds(closed, space, m, lam)
                    assert gh_oracle(space, m, lam) == closed


class TestCurve:
    def test_e1_m2_segments(self, e1_tds):
        curve = gh_curve(e1_tds, 2)
        got = [(s.lo, s.hi, s.slope, s.intercept) for s in curve.segments]
        assert got == [
            (F(0), F(1), -1, F(2)),
            (F(1), F(3), 0, F(1)),
            (F(3), INF, 1, F(-2)),
        ]

    def test_m1_is_constant(self, e2_tds):
        curve = gh_curve(e2_tds, 1)
        assert [(s.lo, s.hi, s.slope, s.intercept) for s in curve.segments] == [
            (F(0), INF, 0, F(3, 2))
        ]

    def test_curve_matches_pointwise_formula(self):
        """The built curve against the formula of its case's pair, at every
        m, so the pairs (a, 0) of m = n and (0, 0) of m > n are always met."""
        rng = random.Random(42)
        for _ in range(6):
            tds = random_two_distance(rng, 3, 7)
            for m in range(1, tds.n + 3):
                curve = gh_curve(tds, m)
                pair = _case_pair(classify_case(tds, m).tag, tds.a, tds.b)
                for _ in range(100):
                    lam = F(rng.randint(1, 400), rng.randint(1, 40))
                    expected = max(tds.b - lam, h_value(pair, lam))
                    assert curve.evaluate(lam) == expected
                    assert gh_two_distance(tds, m, lam).value == expected

    def test_case_table_is_the_corner_curve_at_r2(self, e1_tds, e2_tds):
        """The paper's theorem is the two-distance instance of the corner
        formula: each case's one pair is the r = 2 table's only corner at
        every m <= n, the two curves agree segment for segment at every m,
        and the case table's k and theta read off the table: theta is the
        cover size of cell (0, 0), the graph of the pairs closer than b,
        and k the most blocks with separation and diameter at most a."""
        rng = random.Random(44)
        spaces = [e1_tds, e2_tds]
        spaces += [random_two_distance(rng, 3, 10) for _ in range(40)]
        spaces += [random_cluster_two_distance(rng, 4, 10) for _ in range(40)]
        for tds in spaces:
            table = tds.base.thresholds
            for m in range(1, tds.n + 1):
                tag = classify_case(tds, m).tag
                assert table.corners(m) == {_case_pair(tag, tds.a, tds.b)}, (tag, m)
            for m in range(1, tds.n + 2):
                assert gh_curve(tds, m).segments == gh_oracle_curve(tds.base, m).segments
            k = max(m for m in range(1, tds.n + 1) if table.feasible(1, 1, m))
            assert (k, table.cover(0, 0).size) == graph_invariants(tds.graph)

    def test_segments_cover_and_stay_continuous_convex(self):
        rng = random.Random(43)
        for _ in range(15):
            tds = random_two_distance(rng)
            m = rng.randint(1, tds.n + 2)
            segs = gh_curve(tds, m).segments
            assert segs[0].lo == 0
            assert segs[-1].hi == INF
            for left, right in zip(segs, segs[1:]):
                assert left.hi == right.lo
                join = left.hi
                assert left.slope * join + left.intercept == (
                    right.slope * join + right.intercept
                )
                assert left.slope < right.slope  # convex, strictly by merging
            assert all(s.slope in (-1, 0, 1) for s in segs)

    def test_evaluate_rejects_nonpositive(self, e1_tds):
        with pytest.raises(NonPositiveLambda):
            gh_curve(e1_tds, 2).evaluate(0)

    def test_intercepts_are_fractions_in_every_case(self):
        graphs = [
            SimpleGraph(4, frozenset([(0, 1), (2, 3)])),
            SimpleGraph(6, frozenset([(0, 1), (2, 3), (4, 5)])),
            cycle_graph(5),
            SimpleGraph(7, cycle_graph(5).edges | {(5, 6)}),
        ]
        tags = set()
        for g in graphs:
            tds = two_distance_space_from_graph(g, F(1), F(3, 2))
            for m in range(1, tds.n + 2):
                curve = gh_curve(tds, m)
                tags.add(curve.case.tag)
                for seg in curve.segments:
                    assert type(seg.intercept) is F, (curve.case.tag, seg)
        assert tags == set(GHCaseTag)


INEXACT = [0.5, True]

# Every public entry that takes a block count m, called on e1 (n = 4).
M_ENTRIES = {
    "gh_two_distance": lambda tds, m: gh_two_distance(tds, m, 1),
    "gh_curve": gh_curve,
    "classify_case": classify_case,
    "classify_case_from_params": lambda tds, m: classify_case_from_params(m, 4, 2, 2),
    "gh_oracle": lambda tds, m: gh_oracle(tds.base, m, 1),
    "gh_oracle_curve": lambda tds, m: gh_oracle_curve(tds.base, m),
    "borsuk_feasible": lambda tds, m: borsuk_feasible(tds.base, m),
    "ad_set": lambda tds, m: ad_set(tds.base, m),
    "ad_set_parallel": lambda tds, m: ad_set_parallel(tds.base, m, max_workers=1),
    "scan_prefixes": lambda tds, m: scan_prefixes(4, m, 2),
    "enumerate_partitions": lambda tds, m: list(enumerate_partitions(4, m)),
    "corners": lambda tds, m: tds.base.thresholds.corners(m),
    "curve": lambda tds, m: tds.base.thresholds.curve(m),
}


class TestExactInputs:
    @pytest.mark.parametrize("lam", INEXACT)
    def test_gh_two_distance(self, e1_tds, lam):
        with pytest.raises(TypeError):
            gh_two_distance(e1_tds, 2, lam)

    @pytest.mark.parametrize("lam", INEXACT)
    def test_curve_evaluate(self, e1_tds, lam):
        with pytest.raises(TypeError):
            gh_curve(e1_tds, 2).evaluate(lam)

    @pytest.mark.parametrize("lam", INEXACT)
    def test_gh_oracle(self, e1_space, lam):
        with pytest.raises(TypeError):
            gh_oracle(e1_space, 2, lam)

    @pytest.mark.parametrize("lam", INEXACT)
    def test_h_value(self, lam):
        with pytest.raises(TypeError, match="lambda must be exact"):
            h_value(ADPoint(F(1), F(1)), lam)

    @pytest.mark.parametrize("lam", [0, -5, F(-1, 2)])
    def test_h_value_rejects_nonpositive(self, lam):
        for point in (ADPoint(F(1), F(1)), ADPoint(INF, F(1))):
            with pytest.raises(NonPositiveLambda):
                h_value(point, lam)

    @pytest.mark.parametrize("x", INEXACT)
    def test_extreme_points(self, x):
        with pytest.raises(TypeError, match="alpha must be exact"):
            extreme_points([(x, F(2)), (F(1), F(3))])
        with pytest.raises(TypeError, match="d must be exact"):
            extreme_points([(INF, x)])

    @pytest.mark.parametrize("m", [2.5, 2.0, True])
    @pytest.mark.parametrize("entry", M_ENTRIES.values(), ids=M_ENTRIES.keys())
    def test_block_count(self, e1_tds, entry, m):
        """One TypeError naming m, also once the answers for m = 1 and 2,
        which ``True`` and ``2.0`` equal and hash as, are kept."""
        entry(e1_tds, 1)
        entry(e1_tds, 2)
        with pytest.raises(TypeError, match="m must be an int"):
            entry(e1_tds, m)

    @pytest.mark.parametrize("via_gh", [clique_cover_via_gh, chromatic_via_gh])
    @pytest.mark.parametrize(
        "a, b", [(1.0, F(3, 2)), (F(1), 1.5), (True, F(3, 2)), (F(1), True)]
    )
    def test_graph_numbers_via_gh(self, via_gh, a, b):
        with pytest.raises(TypeError):
            via_gh(cycle_graph(5), a, b)

    @pytest.mark.parametrize("text", ["abc", "1/0", "1/2/3", ""])
    def test_malformed_strings(self, e1_tds, text):
        """One ValueError naming the input and its text, at every entry:
        neither a bare ``ZeroDivisionError`` nor an anonymous message."""
        calls = [
            ("lambda", lambda: gh_two_distance(e1_tds, 2, text)),
            ("lambda", lambda: gh_curve(e1_tds, 2).evaluate(text)),
            ("lambda", lambda: gh_oracle(e1_tds.base, 2, text)),
            ("lambda", lambda: h_value(ADPoint(F(1), F(1)), text)),
            ("alpha", lambda: extreme_points([(text, F(1))])),
            ("d", lambda: extreme_points([(INF, text)])),
            ("a", lambda: clique_cover_via_gh(cycle_graph(5), text, 2)),
            ("dist[0][2]", lambda: validate_metric("pqr", [[0, 1, text], [1, 0, 1], [text, 1, 0]])),
            ("dist[2][2]", lambda: validate_metric("pqr", [[0, 1, 1], [1, 0, 1], [1, 1, text]])),
        ]
        for what, call in calls:
            with pytest.raises(ValueError, match=re.escape(f"{what} is not a rational: {text!r}")):
                call()

    @pytest.mark.parametrize("bad", [None, [1], {"d": 1}], ids=["none", "list", "dict"])
    def test_non_numbers(self, e1_tds, bad):
        """One TypeError naming the input at every entry, not the anonymous
        one ``Fraction`` raises for a type it cannot take."""
        calls = [
            ("lambda", lambda: gh_two_distance(e1_tds, 2, bad)),
            ("lambda", lambda: gh_curve(e1_tds, 2).evaluate(bad)),
            ("lambda", lambda: gh_oracle(e1_tds.base, 2, bad)),
            ("lambda", lambda: h_value(ADPoint(F(1), F(1)), bad)),
            ("alpha", lambda: extreme_points([(bad, F(1))])),
            ("d", lambda: extreme_points([(INF, bad)])),
            ("a", lambda: two_distance_space_from_graph(cycle_graph(5), bad, 2)),
            ("b", lambda: two_distance_space_from_graph(cycle_graph(5), 1, bad)),
            ("dist[0][1]", lambda: validate_metric(["a", "b"], [[0, bad], [bad, 0]])),
        ]
        for what, call in calls:
            with pytest.raises(TypeError, match=re.escape(f"{what} must be exact")):
                call()


class TestBorsuk:
    def test_e2_two_parts_infeasible(self, e2_space):
        assert borsuk_feasible(e2_space, 2) == (False, None)

    def test_e2_three_parts_feasible_with_clique_witness(self, e2_tds):
        feasible, witness = borsuk_feasible(e2_tds.base, 3)
        assert feasible
        assert witness.m == 3
        g = min_distance_graph(e2_tds)
        assert all(is_clique(g, blk) for blk in witness.blocks)
        assert partition_diameter(e2_tds.base, witness) < e2_tds.b

    def test_e1_two_parts_feasible_via_a_edges(self, e1_space):
        feasible, witness = borsuk_feasible(e1_space, 2)
        assert feasible
        assert witness.blocks == ((0, 1), (2, 3))

    def test_demo_witnesses_pinned(self, e2_space):
        """The witnesses ``demos/04_borsuk.py`` prints."""
        general = validate_metric(
            ["p", "q", "r", "far"],
            [[0, 1, 1, 2], [1, 0, 1, 2], [1, 1, 0, 2], [2, 2, 2, 0]],
        )
        expected = [
            (e2_space, 3, ((0, 1), (2, 3), (4,))),
            (e2_space, 4, ((0,), (1,), (2, 3), (4,))),
            (e2_space, 5, ((0,), (1,), (2,), (3,), (4,))),
            (general, 2, ((0, 1, 2), (3,))),
            (general, 3, ((0, 1), (2,), (3,))),
            (general, 4, ((0,), (1,), (2,), (3,))),
        ]
        assert borsuk_feasible(general, 1) == (False, None)
        for space, m, blocks in expected:
            assert borsuk_feasible(space, m)[1].blocks == blocks

    def test_general_space_direct_route(self):
        # An equilateral simplex is not two-distance: no pair is closer than
        # the diameter, so G_{<diam X} is edgeless and theta = n.
        space = validate_metric(["p", "q", "r"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert borsuk_feasible(space, 2) == (False, None)
        feasible, witness = borsuk_feasible(space, 3)
        assert feasible and witness.blocks == ((0,), (1,), (2,))

    def test_general_route_on_random_spaces(self):
        rng = random.Random(44)
        for _ in range(8):
            space = random_metric_space(rng, rng.randint(3, 6))
            for m in range(1, space.n + 1):
                feasible, witness = borsuk_feasible(space, m)
                if witness is not None:
                    assert partition_diameter(space, witness) < max(
                        space.distances
                    )
                assert feasible == (witness is not None)

    def test_single_point_rejected(self):
        space = validate_metric(["p"], [[0]])
        with pytest.raises(SinglePoint):
            borsuk_feasible(space, 1)

    def test_invalid_m(self, e1_space):
        with pytest.raises(InvalidM):
            borsuk_feasible(e1_space, 0)
        with pytest.raises(InvalidM):
            borsuk_feasible(e1_space, 5)

    def test_decisions_share_one_cover_per_space(self, color_searches):
        calls = color_searches
        space = random_metric_space(random.Random(46), 8, 2)
        first = [borsuk_feasible(space, m) for m in range(1, 9)]
        assert len(calls) == 1
        assert [borsuk_feasible(space, m) for m in range(1, 9)] == first
        assert len(calls) == 1
        # An equal but separate space object pays for its own cover.
        copy = validate_metric(space.points, space.dist)
        assert [borsuk_feasible(copy, m) for m in range(1, 9)] == first
        assert len(calls) == 2

    @staticmethod
    def _planted_clique_space(rng: random.Random, n: int, q: int):
        """Distances in [1, 2) off the diameter pairs; the diameter 2 on the
        pairs of points 0..q-1 and on random pairs of the n - q < q others.
        Every planted point is farther than the diameter from more points
        than any other point, so the greedy clique is the planted one."""
        matrix = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                planted = j < q or (i >= q and rng.random() < 0.5)
                d = F(2) if planted else F(rng.randint(10, 19), 10)
                matrix[i][j] = matrix[j][i] = d
        return validate_metric([f"p{i}" for i in range(n)], matrix)

    def test_planted_clique_refutes_without_a_search(self, color_searches):
        rng = random.Random(47)
        for _ in range(12):
            n = rng.randint(6, 11)
            q = rng.randint(n // 2 + 1, n)
            space = self._planted_clique_space(rng, n, q)
            for m in range(1, q):
                assert borsuk_feasible(space, m) == (False, None)
            assert color_searches == []
            # theta is q: the q planted points need a block each, and the
            # others fewer than q blocks.
            feasible, witness = borsuk_feasible(space, q)
            assert feasible and partition_diameter(space, witness) < 2
            assert len(color_searches) == 1
            color_searches.clear()

    def test_refuting_clique_is_pairwise_at_the_diameter(self):
        rng = random.Random(49)
        refuted = 0
        for _ in range(40):
            space = random_metric_space(rng, rng.randint(2, 9), 4)
            table, j = space.thresholds, len(space.steps) - 2
            clique = graphs._greedy_clique(table._clash(0, j))
            top = space.steps[-1]
            assert all(space.ints[u][v] == top for u in clique for v in clique if u != v)
            for m in range(1, space.n + 1):
                if table.refutes(0, j, m):
                    refuted += 1
                    assert len(clique) > m and borsuk_feasible(space, m) == (False, None)
        assert refuted > 40

    def test_an_unrefuted_infeasible_decision_searches_once(self, color_searches):
        """The diameter pairs of this space form a 5-cycle: its greedy
        clique has 2 points, but theta of the graph of the closer pairs
        (the complementary 5-cycle) is 3."""
        space = two_distance_space_from_graph(cycle_graph(5), F(1), F(3, 2)).base
        table, j = space.thresholds, len(space.steps) - 2
        assert borsuk_feasible(space, 1) == (False, None)
        assert color_searches == []
        assert not table.refutes(0, j, 2)
        assert borsuk_feasible(space, 2) == (False, None)
        assert color_searches == [None]
        # With the cover kept, the table refutes m = 2 by its size.
        assert table.refutes(0, j, 2) and not table.refutes(0, j, 3)
        assert borsuk_feasible(space, 3)[0]
        assert color_searches == [None]

    def test_duality_matches_theta_and_oracle(self):
        rng = random.Random(45)
        for _ in range(10):
            tds = random_two_distance(rng, 3, 6)
            g = min_distance_graph(tds)
            _, theta = graph_invariants(g)
            for m in range(1, tds.n + 1):
                feasible, _ = borsuk_feasible(tds.base, m)
                assert feasible == (m >= theta)
                assert feasible == (gh_oracle(tds.base, m, F(tds.b, 2)) < tds.b)


class TestGraphNumbersViaGH:
    def test_c5_sweep_values_then_theta(self):
        g = cycle_graph(5)
        tds = two_distance_space_from_graph(g, F(1), F(3, 2))
        values = [gh_two_distance(tds, m, F(1)).value for m in (1, 2, 3)]
        assert values == [F(3, 2), F(3, 2), F(1)]
        assert clique_cover_via_gh(g, F(1), F(3, 2)) == 3
        assert clique_cover_number(g)[0] == 3

    def test_two_disjoint_edges(self):
        from ghsimplex import SimpleGraph

        g = SimpleGraph(4, frozenset(TWO_EDGES_GRAPH_EDGES))
        assert clique_cover_via_gh(g, F(1), F(2)) == 2
        assert clique_cover_number(g)[0] == 2

    def test_petersen(self):
        g = petersen_graph()
        assert clique_cover_via_gh(g, F(1), F(2)) == 5
        assert chromatic_via_gh(g, F(1), F(2)) == 3

    def test_chromatic_c5_and_k33(self):
        assert chromatic_via_gh(cycle_graph(5), F(1), F(3, 2)) == 3
        assert chromatic_via_gh(complete_bipartite_graph(3, 3), F(1), F(2)) == 2
        assert chromatic_number(complete_bipartite_graph(3, 3))[0] == 2

    def test_agreement_with_direct_solvers_random(self):
        rng = random.Random(46)
        for _ in range(15):
            g = random_usable_graph(rng, rng.randint(3, 8))
            assert clique_cover_via_gh(g, F(2), F(3)) == clique_cover_direct(g)[0]
            assert chromatic_via_gh(g, F(2), F(3)) == chromatic_number(g)[0]

    def test_each_graph_is_colored_once(self, color_searches):
        """The four questions of a graph's report color it and its
        complement once each; a sweep over every m colors once."""
        rng = random.Random(48)
        g = random_graph(rng, 20, 0.5)
        answers = (
            chromatic_number(g)[0],
            clique_cover_number(g)[0],
            chromatic_via_gh(g, F(1), F(3, 2)),
            clique_cover_via_gh(g, F(1), F(3, 2)),
        )
        assert len(color_searches) == 2
        direct_theta = clique_cover_direct(g)[0]
        direct_chi = clique_cover_direct(complement(g))[0]
        assert answers == (direct_chi, direct_theta, direct_chi, direct_theta)

        color_searches.clear()
        h = random_graph(rng, 20, 0.5)
        tds = two_distance_space_from_graph(h, F(1), F(3, 2))
        thetas = {gh_curve(tds, m).case.theta for m in range(1, h.n + 2)}
        assert len(color_searches) == 1
        assert thetas == {clique_cover_direct(h)[0]}

    def test_bisected_drop_matches_the_direct_solvers(self):
        """Every graph of order 5 that the routes accept, and seeded
        G(n, p) up to n = 40: the drop the bisection finds is theta, and
        chi on the complement's side."""
        graphs = [g for g in all_graphs(5) if not (g.is_complete() or g.is_edgeless())]
        rng = random.Random(52)
        graphs += [
            random_usable_graph(rng, n, p) for n in (6, 11, 17, 24, 32, 40) for p in (0.2, 0.5, 0.8)
        ]
        for g in graphs:
            for a, b in ((F(1), F(3, 2)), (F(2), F(3)), (F(1, 3), F(2, 3))):
                assert clique_cover_via_gh(g, a, b) == clique_cover_number(g)[0]
                assert chromatic_via_gh(g, a, b) == chromatic_number(g)[0]

    def test_drop_takes_logarithmically_many_curves(self, monkeypatch):
        """A route asks for at most ceil(log2 n) + 1 distance values; a
        scan upward from m = 1 asks for theta of them."""
        import ghsimplex.closed_form as closed_form

        asked = []
        real = closed_form.gh_two_distance

        def counting(tds, m, lam):
            asked.append(m)
            return real(tds, m, lam)

        monkeypatch.setattr(closed_form, "gh_two_distance", counting)
        g = random_graph(random.Random(54), 40, 0.2)
        theta = clique_cover_number(g)[0]
        assert theta >= 8
        bound = math.ceil(math.log2(g.n)) + 1
        assert clique_cover_via_gh(g, F(1), F(3, 2)) == theta
        assert len(asked) <= bound
        asked.clear()
        assert chromatic_via_gh(complement(g), F(1), F(3, 2)) == theta
        assert len(asked) <= bound

    def test_bad_parameters(self):
        g = cycle_graph(5)
        with pytest.raises(BadParameters):
            clique_cover_via_gh(g, F(2), F(1))
        with pytest.raises(BadParameters):
            clique_cover_via_gh(g, F(1), F(5, 2))
        with pytest.raises(BadParameters):
            chromatic_via_gh(g, F(0), F(1))

    def test_degenerate_graphs_rejected(self):
        for g in (complete_graph(4), empty_graph(4)):
            with pytest.raises(DegenerateGraph):
                clique_cover_via_gh(g, F(1), F(2))
            with pytest.raises(DegenerateGraph):
                chromatic_via_gh(g, F(1), F(2))

    def test_value_non_increasing_up_to_theta(self):
        rng = random.Random(47)
        for _ in range(15):
            tds = random_two_distance(rng)
            _, theta = graph_invariants(min_distance_graph(tds))
            values = [
                gh_two_distance(tds, m, tds.a).value for m in range(1, theta + 1)
            ]
            assert all(x >= y for x, y in zip(values, values[1:]))
