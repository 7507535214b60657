"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion; any assertion failure marks the criterion failed.
"""

import random
import time
from fractions import Fraction as F

from ghsimplex import (
    ADPoint,
    ad_set,
    ad_set_parallel,
    borsuk_feasible,
    chromatic_number,
    chromatic_via_gh,
    clique_cover_direct,
    clique_cover_number,
    clique_cover_via_gh,
    complement,
    complete_bipartite_graph,
    connected_components,
    cycle_graph,
    enumerate_partitions,
    extreme_points,
    gh_oracle,
    gh_two_distance,
    graph_invariants,
    is_clique,
    min_distance_graph,
    partition_alpha,
    partition_diameter,
    petersen_graph,
    two_distance_space_from_graph,
    validate_metric,
)
from conftest import (
    all_graphs,
    random_graph,
    random_metric_space,
    random_two_distance,
    random_usable_graph,
    random_ab,
)


def _report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {text}", flush=True)


def _lambda_grid(a: F, b: F) -> list[F]:
    grid = {a / 2, a, (a + b) / 2, 2 * a, b, 3 * b / 2, b + a, 3 * b}
    if b - a > 0:
        grid.add(b - a)
    return sorted(grid)


def test_criterion_1_closed_form_equals_oracle_exhaustively():
    rng = random.Random(2024)
    spaces = 0
    checked = 0
    while spaces < 200:
        tds = random_two_distance(rng, 3, 9)
        spaces += 1
        for m in range(1, tds.n + 3):
            for lam in _lambda_grid(tds.a, tds.b):
                closed = gh_two_distance(tds, m, lam).value
                oracle = gh_oracle(tds.base, m, lam)
                assert closed == oracle, (spaces, tds.a, tds.b, m, lam)
                checked += 1
    _report(1, f"closed form == oracle on {spaces} spaces, {checked} (m, lambda) combos")


def test_criterion_2_spot_values_from_the_case_table():
    from ghsimplex import as_two_distance

    e1 = as_two_distance(
        validate_metric(
            ["x1", "x2", "x3", "x4"],
            [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]],
        )
    )
    e2 = two_distance_space_from_graph(cycle_graph(5), F(1), F(3, 2))
    e1_table = [
        (1, F(1), F(2)),
        (1, F(17, 3), F(2)),
        (2, F(1), F(1)),
        (3, F(1), F(1)),
        (4, F(5, 2), F(3, 2)),
        (5, F(1), F(1)),
    ]
    for m, lam, want in e1_table:
        assert gh_two_distance(e1, m, lam).value == want, (m, lam)
    e2_table = [(2, F(1), F(3, 2)), (3, F(1), F(1)), (5, F(1), F(1, 2))]
    for m, lam, want in e2_table:
        assert gh_two_distance(e2, m, lam).value == want, (m, lam)
    _report(2, "all 9 tabulated (m, lambda) values match exactly")


def test_criterion_3_cover_equals_complement_coloring():
    checked = 0
    for n in (1, 2, 3, 4):
        for g in all_graphs(n):
            assert clique_cover_direct(g)[0] == chromatic_number(complement(g))[0]
            checked += 1
    rng = random.Random(404)
    while checked < 10_000:
        g = random_graph(rng, rng.randint(5, 8))
        assert clique_cover_direct(g)[0] == chromatic_number(complement(g))[0]
        checked += 1
    named = [
        (clique_cover_direct(cycle_graph(5))[0], 3),
        (clique_cover_number(cycle_graph(5))[0], 3),
        (clique_cover_direct(petersen_graph())[0], 5),
        (clique_cover_number(petersen_graph())[0], 5),
        (chromatic_number(cycle_graph(5))[0], 3),
        (chromatic_number(petersen_graph())[0], 3),
        (chromatic_number(complete_bipartite_graph(3, 3))[0], 2),
    ]
    for got, want in named:
        assert got == want
    _report(3, f"theta == gamma(complement) on {checked} graphs plus the named suite")


def test_criterion_4_extreme_set_shapes():
    rng = random.Random(505)
    shapes_seen = set()
    instances = 0
    for _ in range(150):
        tds = random_two_distance(rng, 3, 8)
        a, b = tds.a, tds.b
        allowed = [
            frozenset({ADPoint(b, a)}),
            frozenset({ADPoint(a, a), ADPoint(b, b)}),
            frozenset({ADPoint(a, a)}),
            frozenset({ADPoint(b, b)}),
        ]
        for m in range(2, tds.n):
            ad = ad_set(tds.base, m)
            ext = extreme_points(ad)
            assert tds.base.thresholds.corners(m) == ext
            if ext in allowed:
                shapes_seen.add(allowed.index(ext))
            else:
                assert len(ad) == 1 and ext == ad, (tds.a, tds.b, m, ad, ext)
                shapes_seen.add(4)
            if ADPoint(b, a) in ad:
                assert ext == frozenset({ADPoint(b, a)})
            instances += 1
    assert shapes_seen >= {0, 4}
    _report(
        4,
        f"every extreme set over {instances} (space, m) pairs is one of the five shapes "
        "and equals the threshold oracle's corners",
    )


def test_criterion_5_per_partition_diameter_and_separation():
    rng = random.Random(606)
    partitions_checked = 0
    for _ in range(40):
        tds = random_two_distance(rng, 4, 8)
        space, a, b = tds.base, tds.a, tds.b
        g = min_distance_graph(tds)
        _, labels = connected_components(g)
        comps = {}
        for v, c in enumerate(labels):
            comps.setdefault(c, set()).add(v)
        components = list(comps.values())
        for m in range(2, space.n):
            for part in enumerate_partitions(space.n, m):
                d = partition_diameter(space, part)
                alpha = partition_alpha(space, part)
                assert d in (a, b) and alpha in (a, b)
                blocks = [set(blk) for blk in part.blocks]
                assert (d == a) == all(is_clique(g, blk) for blk in part.blocks)
                assert (alpha == b) == all(
                    any(comp <= blk for blk in blocks) for comp in components
                )
                partitions_checked += 1
    _report(5, f"diameter/separation characterizations hold on {partitions_checked} partitions")


def test_criterion_6_borsuk_duality():
    rng = random.Random(707)
    decisions = 0
    for _ in range(60):
        tds = random_two_distance(rng, 3, 8)
        space, b = tds.base, tds.b
        _, theta = graph_invariants(min_distance_graph(tds))
        for m in range(1, space.n + 1):
            by_search = any(
                partition_diameter(space, p) < b
                for p in enumerate_partitions(space.n, m)
            )
            by_theta = m >= theta
            by_distance = gh_oracle(space, m, F(b, 2)) < b
            feasible, witness = borsuk_feasible(space, m)
            assert by_search == by_theta == by_distance == feasible, (m, theta)
            assert gh_oracle(space, m, F(b, 2)) <= b
            if feasible:
                assert partition_diameter(space, witness) < b
            decisions += 1
    _report(6, f"partition search, theta rule and distance rule agree on {decisions} decisions")


def test_criterion_6_borsuk_duality_on_general_spaces():
    rng = random.Random(7070)
    decisions = 0
    infeasible_above_one = 0
    for denominator in (10, 2):
        for n in range(3, 9):
            for _ in range(30):
                space = random_metric_space(rng, n, denominator)
                diam = max(space.distances)
                for m in range(1, n + 1):
                    by_search = any(
                        partition_diameter(space, p) < diam
                        for p in enumerate_partitions(n, m)
                    )
                    by_distance = gh_oracle(space, m, diam / 2) < diam
                    feasible, witness = borsuk_feasible(space, m)
                    assert by_search == by_distance == feasible, (n, m, space.dist)
                    if feasible:
                        assert witness.m == m
                        assert partition_diameter(space, witness) < diam
                    else:
                        assert witness is None
                        infeasible_above_one += m > 1
                    decisions += 1
    assert infeasible_above_one > 0
    _report(
        6,
        f"theta rule, partition search and distance rule agree on {decisions} decisions "
        f"over general spaces ({infeasible_above_one} infeasible with m > 1)",
    )


def test_criterion_7_graph_numbers_recovered_via_distances():
    rng = random.Random(808)
    graphs = 0
    while graphs < 150:
        g = random_usable_graph(rng, rng.randint(3, 10))
        a, b = random_ab(rng)
        assert clique_cover_via_gh(g, a, b) == clique_cover_direct(g)[0]
        assert chromatic_via_gh(g, a, b) == chromatic_number(g)[0]
        graphs += 1
    assert clique_cover_via_gh(cycle_graph(5), F(1), F(3, 2)) == 3
    assert clique_cover_via_gh(petersen_graph(), F(1), F(2)) == 5
    assert chromatic_via_gh(cycle_graph(5), F(1), F(3, 2)) == 3
    assert chromatic_via_gh(petersen_graph(), F(1), F(2)) == 3
    assert chromatic_via_gh(complete_bipartite_graph(3, 3), F(1), F(2)) == 2
    _report(7, f"via-distance numbers equal the exact solvers on {graphs} random graphs + named suite")


def test_criterion_8_performance_and_parallel_split():
    rng = random.Random(909)
    space = random_metric_space(rng, 12)
    started = time.perf_counter()
    sequential = ad_set(space, 6)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"full scan took {elapsed:.1f}s"
    assert space.thresholds.corners(6) == extreme_points(sequential)
    assert gh_oracle(space, 6, F(1)) >= 0
    split = ad_set_parallel(space, 6, prefix_depth=3, max_workers=2)
    assert split == sequential
    _report(
        8,
        f"S(12,6) scan with the saturation cut in {elapsed:.1f}s (< 60s); "
        f"parallel split set identical "
        f"({len(sequential)} distinct pairs)",
    )
