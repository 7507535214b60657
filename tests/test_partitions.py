import ast
import itertools
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from ghsimplex import (
    ADPoint,
    EmptyInput,
    INF,
    InvalidM,
    NonPositiveLambda,
    Partition,
    SimpleGraph,
    ad_set,
    ad_set_parallel,
    borsuk_feasible,
    chromatic_number,
    classify_case_from_params,
    clique_cover_direct,
    clique_cover_number,
    complete_bipartite_graph,
    complete_graph,
    connected_components,
    cover_is_valid,
    cycle_graph,
    diameter,
    enumerate_partitions,
    extreme_points,
    gh_oracle,
    gh_oracle_curve,
    gh_two_distance,
    h_value,
    hausdorff_distance,
    is_clique,
    min_distance_graph,
    partition_alpha,
    partition_diameter,
    partition_from_blocks,
    petersen_graph,
    scan_prefixes,
    validate_metric,
)
from ghsimplex import graphs
from conftest import (
    coprime_matrix,
    enumerated_oracle,
    pointwise_oracle,
    random_metric_space,
    random_two_distance,
    stirling2,
)


class TestEnumeration:
    def test_three_into_two(self):
        got = [p.blocks for p in enumerate_partitions(3, 2)]
        assert got == [((0, 1), (2,)), ((0, 2), (1,)), ((0,), (1, 2))]

    def test_four_into_two_lexicographic(self):
        # Restricted growth strings 0001, 0010, 0011, 0100, 0101, 0110, 0111.
        got = [p.blocks for p in enumerate_partitions(4, 2)]
        assert got == [
            ((0, 1, 2), (3,)),
            ((0, 1, 3), (2,)),
            ((0, 1), (2, 3)),
            ((0, 2, 3), (1,)),
            ((0, 2), (1, 3)),
            ((0, 3), (1, 2)),
            ((0,), (1, 2, 3)),
        ]

    def test_all_singletons_unique(self):
        assert list(enumerate_partitions(5, 5)) == [
            Partition(((0,), (1,), (2,), (3,), (4,)))
        ]

    def test_single_point(self):
        assert list(enumerate_partitions(1, 1)) == [Partition(((0,),))]

    def test_invalid_m(self):
        with pytest.raises(InvalidM):
            list(enumerate_partitions(4, 0))
        with pytest.raises(InvalidM):
            list(enumerate_partitions(4, 5))

    def test_no_duplicates(self):
        for n in range(1, 8):
            for m in range(1, n + 1):
                parts = list(enumerate_partitions(n, m))
                assert len(parts) == len(set(parts))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_counts_match_stirling(self, n):
        for m in range(1, n + 1):
            count = sum(1 for _ in enumerate_partitions(n, m))
            assert count == stirling2(n, m)

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_counts_match_stirling_large(self, n):
        for m in range(1, n + 1):
            count = sum(1 for _ in enumerate_partitions(n, m))
            assert count == stirling2(n, m)


class TestPartitionStatistics:
    def test_from_blocks_canonicalizes(self):
        p = partition_from_blocks([[3, 1], [2, 0]], 4)
        assert p.blocks == ((0, 2), (1, 3))

    def test_from_blocks_rejects_bad_cover(self):
        with pytest.raises(ValueError):
            partition_from_blocks([[0, 1], [1, 2]], 3)

    @pytest.mark.parametrize("member", [True, 1.0, None, "1"])
    def test_non_index_members_rejected(self, e1_space, member):
        """``True == 1.0 == 1``, so only a type check tells them from point 1."""
        named = re.escape(f"partition member must be an int, got {type(member).__name__} {member!r}")
        with pytest.raises(TypeError, match=named):
            partition_from_blocks([[0, member], [2, 3]], 4)
        for stat in (partition_diameter, partition_alpha):
            with pytest.raises(TypeError, match=named):
                stat(e1_space, Partition(((0, member), (2, 3))))

    def test_all_singletons_diameter_zero(self, e1_space):
        p = partition_from_blocks([[0], [1], [2], [3]], 4)
        assert partition_diameter(e1_space, p) == 0

    def test_e1_clique_partition(self, e1_space):
        p = partition_from_blocks([[0, 1], [2, 3]], 4)
        assert partition_diameter(e1_space, p) == 1
        assert partition_alpha(e1_space, p) == 2

    def test_e1_cross_partition(self, e1_space):
        p = partition_from_blocks([[0, 2], [1, 3]], 4)
        assert partition_diameter(e1_space, p) == 2

    def test_e1_singleton_split(self, e1_space):
        p = partition_from_blocks([[0], [1, 2, 3]], 4)
        assert partition_alpha(e1_space, p) == 1

    def test_single_block_alpha_is_infinite(self, e1_space):
        p = partition_from_blocks([[0, 1, 2, 3]], 4)
        assert partition_alpha(e1_space, p) == INF


class TestADSet:
    def test_e1_m2(self, e1_space):
        assert ad_set(e1_space, 2) == frozenset(
            {ADPoint(F(2), F(1)), ADPoint(F(1), F(2))}
        )

    def test_e2_m2(self, e2_space):
        assert ad_set(e2_space, 2) == frozenset({ADPoint(F(1), F(3, 2))})

    def test_m_equals_n_is_min_distance_and_zero(self):
        rng = random.Random(21)
        for _ in range(10):
            space = random_metric_space(rng, rng.randint(2, 7))
            values = sorted(space.distances)
            assert ad_set(space, space.n) == frozenset({ADPoint(values[0], F(0))})

    def test_m1_is_infinite_alpha_and_diameter(self, e2_space):
        assert ad_set(e2_space, 1) == frozenset({ADPoint(INF, F(3, 2))})

    def test_matches_per_partition_recomputation(self):
        rng = random.Random(22)
        for _ in range(8):
            space = random_metric_space(rng, rng.randint(2, 6))
            for m in range(1, space.n + 1):
                expected = frozenset(
                    ADPoint(
                        partition_alpha(space, p), partition_diameter(space, p)
                    )
                    for p in enumerate_partitions(space.n, m)
                )
                assert ad_set(space, m) == expected

    def test_invalid_m(self, e1_space):
        with pytest.raises(InvalidM):
            ad_set(e1_space, 0)
        with pytest.raises(InvalidM):
            ad_set(e1_space, 5)


def _enumerated_pairs(space, m):
    """(assignment, (alpha, diam)) of every m-block partition, by brute force."""
    return [
        (p.assignment(), ADPoint(partition_alpha(space, p), partition_diameter(space, p)))
        for p in enumerate_partitions(space.n, m)
    ]


def _repeated_diameter_space(rng, n):
    """Distances in {2, 3, 4}, mostly 4: every such matrix is a metric
    (2 + 2 >= 4), and the diameter is taken by many pairs."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice((2, 3, 4, 4, 4))
    return validate_metric([f"p{i}" for i in range(n)], rows)


def _random_space(rng, n, denominator):
    """``random_metric_space``; with ``denominator=None``, a metric on
    pairwise-coprime denominators, whose scale runs to tens of bits."""
    if denominator is None:
        return validate_metric([f"p{i}" for i in range(n)], coprime_matrix(rng, n))
    return random_metric_space(rng, n, denominator)


COPRIME = pytest.param(None, id="coprime")


class TestScanAgainstBruteForce:
    """``ad_set`` against ``partition_alpha`` / ``partition_diameter`` over
    ``enumerate_partitions``: neither the saturation cut nor the order of
    the free elements may change a single pair."""

    @pytest.mark.parametrize("denominator", [2, 10, COPRIME])
    def test_random_spaces_every_m(self, denominator):
        rng = random.Random(40 + (denominator or 0))
        for n in range(1, 9):
            for _ in range(3):
                space = _random_space(rng, n, denominator)
                for m in range(1, n + 1):
                    expected = frozenset(pt for _, pt in _enumerated_pairs(space, m))
                    assert ad_set(space, m) == expected, (space.dist, m)

    def test_repeated_diameter_every_m(self):
        rng = random.Random(43)
        for n in range(2, 9):
            for _ in range(4):
                space = _repeated_diameter_space(rng, n)
                for m in range(1, n + 1):
                    expected = frozenset(pt for _, pt in _enumerated_pairs(space, m))
                    assert ad_set(space, m) == expected, (space.dist, m)

    def test_every_prefix_of_depth_one_to_three(self):
        rng = random.Random(44)
        spaces = [random_metric_space(rng, n, den) for n in (4, 6, 8) for den in (2, 10)]
        spaces += [_repeated_diameter_space(rng, n) for n in (5, 7, 8)]
        for space in spaces:
            for m in range(1, space.n + 1):
                enumerated = _enumerated_pairs(space, m)
                for depth in (1, 2, 3):
                    for pfx in scan_prefixes(space.n, m, depth):
                        expected = frozenset(
                            pt for assign, pt in enumerated if assign[: len(pfx)] == pfx
                        )
                        assert ad_set(space, m, prefix=pfx) == expected, (space.dist, m, pfx)

    def test_point_order_does_not_change_the_set(self):
        rng = random.Random(45)
        for n in range(2, 10):
            for space in (random_metric_space(rng, n, 10), _repeated_diameter_space(rng, n)):
                order = list(range(n))
                rng.shuffle(order)
                other = _permuted(space, order)
                for m in range(1, n + 1):
                    assert ad_set(other, m) == ad_set(space, m), (space.dist, order, m)


_PIN_SCRIPT = """
from fractions import Fraction as F
from ghsimplex import ad_set, validate_metric

n = 40
rows = [
    [0 if i == j else F(1) if {i, j} == {5, 31} else F(3, 2) for j in range(n)]
    for i in range(n)
]
space = validate_metric([f"p{i}" for i in range(n)], rows)
ms = (2, 3, 20, 38, 39, 40)
print({m: sorted((str(p.alpha), str(p.d)) for p in ad_set(space, m)) for m in ms})
"""


def test_cut_and_order_finish_n40_scan():
    """Points 5 and 31 at distance 1, every other pair at 3/2.  With m < 39
    some block holds a 3/2 pair, so diam = 3/2, and alpha is 1 or 3/2 as 5
    and 31 are split or joined.  At m = 39 the one pair block is {5, 31}
    (alpha 3/2, diam 1) or not (alpha 1, diam 3/2); m = 40 is all
    singletons.  S(40, 3) is about 2e18, so a scan that cannot cut, or cuts
    only once 5 and 31 are both placed, runs out the timeout instead."""
    root = Path(__file__).resolve().parent.parent
    try:
        done = subprocess.run(
            [sys.executable, "-c", _PIN_SCRIPT],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("ad_set on the n = 40 space did not finish in 60 s")
    assert done.returncode == 0, done.stderr
    split, joined = ("1", "3/2"), ("3/2", "3/2")
    assert ast.literal_eval(done.stdout) == {
        2: [split, joined],
        3: [split, joined],
        20: [split, joined],
        38: [split, joined],
        39: [split, ("3/2", "1")],
        40: [("1", "0")],
    }


class TestScanSplit:
    def test_prefixes_partition_the_scan(self):
        n, m, depth = 6, 3, 3
        prefixes = scan_prefixes(n, m, depth)
        assert len(set(prefixes)) == len(prefixes)
        seen = {pfx: 0 for pfx in prefixes}
        for p in enumerate_partitions(n, m):
            head = p.assignment()[:depth]
            assert head in seen
            seen[head] += 1
        assert all(count > 0 for count in seen.values())
        assert sum(seen.values()) == stirling2(n, m)

    def test_prefixes_against_brute_force(self):
        """The restricted growth strings of the prefix length that the
        elements after it can still complete to m blocks, filtered from a
        product of value ranges (entry p of such a string is at most p) in
        lexicographic order, which is scan order."""
        for n in range(1, 9):
            for m in range(1, n + 1):
                for depth in range(1, n + 2):
                    size = min(depth, n)
                    expected = tuple(
                        t
                        for t in itertools.product(*(range(min(p + 1, m)) for p in range(size)))
                        if all(t[p] <= max(t[:p]) + 1 for p in range(1, size))
                        and len(set(t)) + (n - size) >= m
                    )
                    assert scan_prefixes(n, m, depth) == expected, (n, m, depth)

    def test_prefix_restricted_union_equals_full(self):
        rng = random.Random(23)
        space = random_metric_space(rng, 8)
        full = ad_set(space, 3)
        merged = set()
        for pfx in scan_prefixes(8, 3, 3):
            merged |= ad_set(space, 3, prefix=pfx)
        assert frozenset(merged) == full

    def test_parallel_merge_matches_sequential(self):
        rng = random.Random(24)
        space = random_metric_space(rng, 10)
        expected = ad_set(space, 4)
        assert ad_set_parallel(space, 4, prefix_depth=3, max_workers=1) == expected
        assert ad_set_parallel(space, 4, prefix_depth=3, max_workers=2) == expected


    @pytest.mark.parametrize(
        "call, what",
        [
            (lambda sp: ad_set(sp, 2, prefix=(0, True)), "prefix entry must be an int"),
            (lambda sp: ad_set(sp, 2, prefix=(0, 1.0)), "prefix entry must be an int"),
            (lambda sp: scan_prefixes(4, 2, 2.5), "prefix depth must be an int"),
            (lambda sp: scan_prefixes(4, 2, True), "prefix depth must be an int"),
            (
                lambda sp: ad_set_parallel(sp, 2, prefix_depth=2.5, max_workers=1),
                "prefix depth must be an int",
            ),
            (lambda sp: list(enumerate_partitions(2.0, 1)), "n must be an int"),
            (lambda sp: list(enumerate_partitions(True, 1)), "n must be an int"),
            (lambda sp: scan_prefixes(2.5, 2, 2), "n must be an int"),
            (lambda sp: scan_prefixes(True, 1, 1), "n must be an int"),
            (lambda sp: ad_set_parallel(sp, 2, max_workers=2.5), "max_workers must be an int"),
            (lambda sp: ad_set_parallel(sp, 2, max_workers=True), "max_workers must be an int"),
            (lambda sp: chromatic_number(petersen_graph(), 2.5), "node_limit must be an int"),
            (lambda sp: chromatic_number(petersen_graph(), True), "node_limit must be an int"),
            (lambda sp: clique_cover_number(petersen_graph(), 2.5), "node_limit must be an int"),
            (lambda sp: clique_cover_number(petersen_graph(), True), "node_limit must be an int"),
            (lambda sp: clique_cover_direct(petersen_graph(), 2.5), "node_limit must be an int"),
            (lambda sp: clique_cover_direct(petersen_graph(), True), "node_limit must be an int"),
            (lambda sp: SimpleGraph(3, [(0, 1.0)]), "vertex must be an int"),
            (lambda sp: SimpleGraph(3, [(0, True)]), "vertex must be an int"),
            (lambda sp: SimpleGraph(3, [(1.0, 1.0)]), "vertex must be an int"),
            (lambda sp: is_clique(petersen_graph(), [0, 1.0]), "vertex must be an int"),
            (lambda sp: is_clique(petersen_graph(), [0, True]), "vertex must be an int"),
            (lambda sp: hausdorff_distance(sp, [0], [2.5]), "point index must be an int"),
            (lambda sp: hausdorff_distance(sp, [0], [True]), "point index must be an int"),
            (lambda sp: partition_from_blocks([[0, 1.0]], 2), "partition member must be an int"),
            (lambda sp: partition_from_blocks([[0, True]], 2), "partition member must be an int"),
            (lambda sp: partition_from_blocks([[0]], True), "n must be an int"),
            (lambda sp: classify_case_from_params(2, 5, True, 3), "k must be an int"),
            (lambda sp: classify_case_from_params(6, 5.0, 1, 3), "n must be an int"),
            (lambda sp: classify_case_from_params(6, 5, 1, 3.5), "theta must be an int"),
            (lambda sp: cycle_graph(5.0), "n must be an int"),
            (lambda sp: complete_graph(2.5), "n must be an int"),
            (lambda sp: complete_bipartite_graph(True, 2), "p must be an int"),
            (lambda sp: complete_bipartite_graph(2, 1.0), "q must be an int"),
        ],
        ids=[
            "prefix_bool",
            "prefix_float",
            "depth_float",
            "depth_bool",
            "parallel_depth_float",
            "n_float",
            "n_bool",
            "scan_n_float",
            "scan_n_bool",
            "max_workers_float",
            "max_workers_bool",
            "chromatic_budget_float",
            "chromatic_budget_bool",
            "cover_budget_float",
            "cover_budget_bool",
            "direct_budget_float",
            "direct_budget_bool",
            "edge_vertex_float",
            "edge_vertex_bool",
            "edge_loop_float",
            "clique_member_float",
            "clique_member_bool",
            "hausdorff_index_float",
            "hausdorff_index_bool",
            "partition_member_float",
            "partition_member_bool",
            "partition_n_bool",
            "case_k_bool",
            "case_n_float",
            "case_theta_float",
            "cycle_n_float",
            "complete_n_float",
            "bipartite_p_bool",
            "bipartite_q_float",
        ],
    )
    def test_non_int_arguments(self, e1_space, call, what):
        """The one int rule (``rationals.check_int``): one TypeError naming
        the argument; ``True`` is not block, depth, vertex or budget 1."""
        with pytest.raises(TypeError, match=what):
            call(e1_space)

    @pytest.mark.parametrize(
        "call, what",
        [
            (lambda sp: ad_set_parallel(sp, 2, max_workers=0), "max_workers must be at least 1"),
            (lambda sp: ad_set_parallel(sp, 2, max_workers=-3), "max_workers must be at least 1"),
            (lambda sp: chromatic_number(petersen_graph(), -1), "node_limit must be non-negative"),
            (lambda sp: clique_cover_number(petersen_graph(), -1), "node_limit must be non-negative"),
            (lambda sp: clique_cover_direct(petersen_graph(), -1), "node_limit must be non-negative"),
            (lambda sp: scan_prefixes(0, 1, 1), "^n must be at least 1$"),
            (lambda sp: scan_prefixes(-2, 1, 1), "^n must be at least 1$"),
        ],
        ids=[
            "workers_zero",
            "workers_negative",
            "chromatic",
            "cover",
            "direct",
            "scan_n_zero",
            "scan_n_negative",
        ],
    )
    def test_budgets_out_of_range(self, e1_space, call, what):
        """An int worker count below 1, node budget below 0 or scan size
        below 1 is a ValueError; before, the first two scanned in-process or
        aborted at the first node, and the last named the range of m."""
        with pytest.raises(ValueError, match=what):
            call(e1_space)

    @pytest.mark.parametrize(
        "prefix", [(), (1,), (0, 2), (0, -1), (0, 1, 2), (0, 0, 0, 0), (0, 1, 0, 1, 0)]
    )
    def test_bad_prefixes(self, e1_space, prefix):
        """Every prefix that names no 2-block partition of e1's 4 points
        is one ValueError: empty, not a restricted growth string, more than
        m blocks, no way to open the second block, or longer than n."""
        with pytest.raises(ValueError):
            ad_set(e1_space, 2, prefix=prefix)


class TestExtremePoints:
    def test_best_corner_dominates_everything(self):
        a, b = F(1), F(2)
        pts = {ADPoint(b, a), ADPoint(a, a), ADPoint(b, b), ADPoint(a, b)}
        assert extreme_points(pts) == frozenset({ADPoint(b, a)})

    def test_three_point_antichain_case(self):
        a, b = F(1), F(2)
        pts = {ADPoint(a, a), ADPoint(a, b), ADPoint(b, b)}
        assert extreme_points(pts) == frozenset({ADPoint(a, a), ADPoint(b, b)})

    def test_singleton(self):
        pts = {ADPoint(F(1), F(2))}
        assert extreme_points(pts) == frozenset(pts)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            extreme_points(set())

    def test_always_non_empty_antichain(self):
        rng = random.Random(25)
        for _ in range(20):
            tds = random_two_distance(rng)
            for m in range(1, tds.n + 1):
                ext = extreme_points(ad_set(tds.base, m))
                assert ext
                for p in ext:
                    for q in ext:
                        if p != q:
                            assert not (q.alpha >= p.alpha and q.d <= p.d)

    def test_minimizing_h_over_extremes_suffices(self):
        rng = random.Random(26)
        for _ in range(15):
            space = random_metric_space(rng, rng.randint(3, 9))
            m = rng.randint(1, space.n)
            lam = F(rng.randint(1, 50), 10)
            full = ad_set(space, m)
            ext = extreme_points(full)
            assert min(h_value(p, lam) for p in full) == min(
                h_value(p, lam) for p in ext
            )


def _component_blocks(labels):
    groups = {}
    for v, c in enumerate(labels):
        groups.setdefault(c, set()).add(v)
    return list(groups.values())


class TestPartitionStructure:
    def test_diameter_and_alpha_characterizations(self):
        """Per-partition checks on every 1 < m < n: diam D = a exactly when
        all blocks are cliques of the minimal-distance graph, and
        alpha(D) = b exactly when every component sits inside one block."""
        rng = random.Random(27)
        for _ in range(12):
            tds = random_two_distance(rng, 4, 6)
            space, a, b = tds.base, tds.a, tds.b
            g = min_distance_graph(tds)
            _, labels = connected_components(g)
            comps = _component_blocks(labels)
            for m in range(2, space.n):
                for part in enumerate_partitions(space.n, m):
                    d = partition_diameter(space, part)
                    alpha = partition_alpha(space, part)
                    assert d in (a, b)
                    assert alpha in (a, b)
                    blocks = [set(blk) for blk in part.blocks]
                    all_cliques = all(is_clique(g, blk) for blk in part.blocks)
                    assert (d == a) == all_cliques
                    contained = all(
                        any(comp <= blk for blk in blocks) for comp in comps
                    )
                    assert (alpha == b) == contained


class TestGHOracle:
    def test_m1_gives_diameter(self):
        rng = random.Random(28)
        for _ in range(10):
            space = random_metric_space(rng, rng.randint(1, 7))
            for lam in (F(1, 3), F(1), F(7, 2)):
                assert gh_oracle(space, 1, lam) == diameter(space)

    def test_e1_m2(self, e1_space):
        assert gh_oracle(e1_space, 2, 1) == 1

    def test_e2_m2(self, e2_space):
        assert gh_oracle(e2_space, 2, 1) == F(3, 2)

    def test_m_equals_n_specialization(self):
        rng = random.Random(29)
        for _ in range(10):
            space = random_metric_space(rng, rng.randint(2, 7))
            lam = F(rng.randint(1, 40), 10)
            smallest = min(space.distances)
            expected = max(diameter(space) - lam, lam - smallest)
            assert gh_oracle(space, space.n, lam) == expected

    def test_equals_enumeration(self):
        rng = random.Random(30)
        for _ in range(12):
            space = random_metric_space(rng, rng.randint(2, 8))
            m = rng.randint(1, space.n + 2)
            lam = F(rng.randint(1, 60), 10)
            assert gh_oracle(space, m, lam) == enumerated_oracle(space, m, lam)

    def test_lambda_must_be_positive(self, e1_space):
        with pytest.raises(NonPositiveLambda):
            gh_oracle(e1_space, 2, 0)

    def test_lambda_must_be_exact(self, e1_space):
        with pytest.raises(TypeError):
            gh_oracle(e1_space, 2, 0.5)

    def test_invalid_m(self, e1_space):
        with pytest.raises(InvalidM):
            gh_oracle(e1_space, 0, 1)


def _permuted(space, order):
    return validate_metric(
        [space.points[i] for i in order],
        [[space.dist[i][j] for j in order] for i in order],
    )


class TestThresholdRoute:
    """The threshold oracle against the enumeration route on general spaces."""

    LAMBDAS = (F(1, 2), F(1), F(3, 2), F(2), F(7, 2))

    @pytest.mark.parametrize("denominator", [2, 10, COPRIME])
    def test_equals_enumeration_and_extreme_set(self, denominator):
        rng = random.Random(31 + (denominator or 0))
        for n in range(1, 9):
            for _ in range(6):
                space = _random_space(rng, n, denominator)
                for m in range(1, n + 2):
                    if m <= n:
                        assert space.thresholds.corners(m) == extreme_points(ad_set(space, m))
                    for lam in self.LAMBDAS:
                        assert gh_oracle(space, m, lam) == enumerated_oracle(
                            space, m, lam
                        ), (space.dist, m, lam)

    def test_point_order_does_not_matter(self):
        rng = random.Random(33)
        for denominator in (2, 10):
            for _ in range(10):
                space = random_metric_space(rng, rng.randint(2, 9), denominator)
                order = list(range(space.n))
                rng.shuffle(order)
                other = _permuted(space, order)
                for m in range(1, space.n + 2):
                    for lam in self.LAMBDAS:
                        assert gh_oracle(space, m, lam) == gh_oracle(other, m, lam)

    def test_scaling_scales_the_value(self):
        rng = random.Random(34)
        for c in (F(2), F(1, 3), F(7, 5)):
            for _ in range(8):
                space = random_metric_space(rng, rng.randint(2, 9), 2)
                scaled = validate_metric(
                    space.points, [[c * d for d in row] for row in space.dist]
                )
                for m in range(1, space.n + 2):
                    for lam in self.LAMBDAS:
                        assert gh_oracle(scaled, m, c * lam) == c * gh_oracle(space, m, lam)

    def test_matches_the_closed_form_beyond_enumeration(self):
        """n = 14..20 two-distance spaces: far too many partitions to
        enumerate, so the closed form is the reference here."""
        rng = random.Random(35)
        for _ in range(6):
            tds = random_two_distance(rng, 14, 20)
            for m in range(1, tds.n + 2):
                for lam in (tds.a / 2, tds.a, (tds.a + tds.b) / 2, tds.b, 2 * tds.b):
                    assert gh_oracle(tds.base, m, lam) == gh_two_distance(tds, m, lam).value

    def test_lambda_sweep_reuses_the_space_cache(self, color_searches):
        calls = color_searches
        space = random_metric_space(random.Random(36), 8, 2)
        first = [gh_oracle(space, m, lam) for m in range(1, 9) for lam in self.LAMBDAS]
        paid = len(calls)
        assert paid > 0
        again = [gh_oracle(space, m, lam) for m in range(1, 9) for lam in (F(9, 4), F(1, 7))]
        again += [gh_oracle(space, m, lam) for m in range(1, 9) for lam in self.LAMBDAS]
        assert len(calls) == paid
        assert again[-len(first):] == first
        # An equal but separate space object starts with its own cache.
        copy = validate_metric(space.points, space.dist)
        assert [gh_oracle(copy, m, lam) for m in range(1, 9) for lam in self.LAMBDAS] == first
        assert len(calls) == 2 * paid


def _cell_graph(space, i, j):
    """The compatibility graph of cell ``(i, j)`` built from the ``Fraction``
    distances: union-find components of the pairs closer than v_i,
    numbered by smallest point, joined when their largest cross distance
    is at most v_j (0 for ``j = -1``)."""
    values = space.distances
    at, dt = values[i], (values[j] if j >= 0 else F(0))
    n = space.n
    parent = list(range(n))

    def find(u):
        while parent[u] != u:
            u = parent[u]
        return u

    for u in range(n):
        for w in range(u + 1, n):
            if space.dist[u][w] < at:
                parent[max(find(u), find(w))] = min(find(u), find(w))
    roots = sorted({find(u) for u in range(n)})
    label = [roots.index(find(u)) for u in range(n)]
    k = len(roots)
    far = [[F(0)] * k for _ in range(k)]
    for u in range(n):
        for w in range(n):
            far[label[u]][label[w]] = max(far[label[u]][label[w]], space.dist[u][w])
    edges = [(c, d) for c in range(k) for d in range(c + 1, k) if far[c][d] <= dt]
    return SimpleGraph(k, frozenset(edges))


class TestThresholdCells:
    """Each cell of the threshold table against a graph built here, and no
    cell builds a graph of its own."""

    def test_every_cell_is_a_minimum_cover(self):
        rng = random.Random(71)
        spaces = [
            random_metric_space(rng, n, den) for den in (2, 10) for n in range(2, 10) for _ in (0, 1)
        ]
        spaces.append(validate_metric([f"p{i}" for i in range(7)], coprime_matrix(rng, 7)))
        cells = 0
        for space in spaces:
            r = len(space.distances)
            for i in range(r):
                for j in range(-1, r):
                    g = _cell_graph(space, i, j)
                    cover = space.thresholds.cover(i, j)
                    assert cover.size == clique_cover_direct(g)[0], (space.dist, i, j)
                    assert cover_is_valid(g, cover), (space.dist, i, j)
                    cells += 1
        assert cells > 1500, cells

    def test_no_graph_is_built_per_cell(self, monkeypatch):
        """Counted at the one funnel every graph passes through: checked,
        complement and minimal-distance graphs alike."""
        built = []
        real = graphs._graph_from_masks

        def counting(adj):
            built.append(len(adj))
            return real(adj)

        monkeypatch.setattr(graphs, "_graph_from_masks", counting)
        rng = random.Random(72)
        for n in (6, 9):
            space = random_metric_space(rng, n, 10)
            decisions = [borsuk_feasible(space, m) for m in range(1, n + 1)]
            assert not decisions[0][0] and decisions[-1][0]
            for m in range(1, n + 2):
                for lam in TestThresholdRoute.LAMBDAS:
                    gh_oracle(space, m, lam)
        assert built == []


def _line_space(rng, n):
    xs = rng.sample(range(60), n)
    return validate_metric(
        [f"p{i}" for i in range(n)], [[F(abs(x - y), 4) for y in xs] for x in xs]
    )


def _taxicab_space(rng, n):
    grid = [(x, y) for x in range(6) for y in range(6)]
    pts = rng.sample(grid, n)
    return validate_metric(
        [f"p{i}" for i in range(n)],
        [[F(abs(x - u) + abs(y - v), 3) for u, v in pts] for x, y in pts],
    )


def _assert_well_formed(curve):
    segs = curve.segments
    assert segs[0].lo == 0
    assert segs[-1].hi == INF
    for seg in segs:
        assert seg.lo < seg.hi, seg
        assert seg.slope in (-1, 0, 1), seg
    for left, right in zip(segs, segs[1:]):
        assert left.hi == right.lo
        join = left.hi
        assert left.slope * join + left.intercept == right.slope * join + right.intercept
        assert (left.slope, left.intercept) != (right.slope, right.intercept)


class TestOracleCurve:
    """The oracle's lambda-curve against the formula at single lambdas."""

    @staticmethod
    def _spaces():
        rng = random.Random(38)
        for denominator in (2, 10, 1000):
            for n in range(2, 10):
                for _ in range(4):
                    yield random_metric_space(rng, n, denominator)
        for n in range(2, 10):
            for _ in range(3):
                yield _line_space(rng, n)
                yield _taxicab_space(rng, n)

    def test_equals_pointwise_formula(self):
        rng = random.Random(39)
        for space in self._spaces():
            for m in range(1, space.n + 3):
                curve = gh_oracle_curve(space, m)
                _assert_well_formed(curve)
                assert curve.case is None
                cuts = curve.breakpoints
                lams = set(cuts)
                lams.update((x + y) / 2 for x, y in zip((F(0),) + cuts, cuts))
                lams.update((cuts[-1] + 1 if cuts else F(1), 5 * diameter(space)))
                lams.update(F(rng.randint(1, 500), rng.randint(1, 120)) for _ in range(16))
                for lam in lams:
                    expected = pointwise_oracle(space, m, lam)
                    assert gh_oracle(space, m, lam) == expected, (space.dist, m, lam)
                    assert curve.evaluate(lam) == expected

    def test_single_point(self):
        space = validate_metric(["p"], [[0]])
        assert gh_oracle_curve(space, 1).segments == ((F(0), INF, 0, F(0)),)
        assert gh_oracle_curve(space, 2).segments == ((F(0), INF, 1, F(0)),)

    def test_no_empty_segment_where_the_line_meets_a_breakpoint(self):
        # Three points at distance 1: every 2-block pair is (1, 1), so R is
        # 1 up to lambda = 2 and diam - lambda = 1 - lambda never rises
        # above it: the curve has no falling segment.
        equilateral = validate_metric(["p", "q", "r"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert gh_oracle_curve(equilateral, 2).segments == (
            (F(0), F(2), 0, F(1)),
            (F(2), INF, 1, F(-1)),
        )
        # Points 0, 1, 3, 4 on a line: the extreme 2-block pair is
        # {0, 1} | {3, 4}, alpha 2 and diam 1, so R turns at lambda = 3,
        # exactly where 4 - lambda comes down to 1.
        xs = (0, 1, 3, 4)
        line = validate_metric(list("pqrs"), [[abs(x - y) for y in xs] for x in xs])
        assert gh_oracle_curve(line, 2).segments == (
            (F(0), F(3), -1, F(4)),
            (F(3), INF, 1, F(-2)),
        )

    def test_invalid_m(self, e1_space):
        with pytest.raises(InvalidM):
            gh_oracle_curve(e1_space, 0)
        table = e1_space.thresholds
        for call in (lambda: table.curve(0), lambda: table.corners(0), lambda: table.corners(5)):
            with pytest.raises(InvalidM):
                call()
