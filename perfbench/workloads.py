"""The four workloads: seeded inputs, timed operations, independent checks.

Each workload class has

* ``blocks(rng)``: an endless seeded stream of input blocks; every block
  has the same composition of cases, and a run does whole blocks only,
  so every run sees the same mix;
* ``run(item)``: the timed operation, calling the library only through
  ``self.L`` (a :class:`tracing.Layers`);
* ``check(item, answer)``: the independent check, run outside the timed
  span; it raises :class:`CheckFailed` on a wrong answer;
* ``counters``: per-run counts derived from the inputs and answers.

Why each workload exists, which layer should dominate it and which
workloads are its controls is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

import gen

A, B = Fraction(1), Fraction(3, 2)


class CheckFailed(Exception):
    """The answer disagrees with its independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def require_exact(value, what: str) -> None:
    """An exact value was promised: a float (or a bool) is a failure."""
    require(type(value) in (Fraction, int), f"{what} is {type(value).__name__}, not exact")


def require_int(value, what: str) -> None:
    require(type(value) is int, f"{what} is {type(value).__name__}, not int")


def _blocks_cover(blocks, n: int) -> bool:
    flat = sorted(v for block in blocks for v in block)
    return flat == list(range(n)) and all(len(b) > 0 for b in blocks)


# ------------------------------------------------------------ two_distance_sweep


class Sweep(NamedTuple):
    points: list
    matrix: list
    grid: list  # lambdas, from a and b alone
    close: frozenset  # pairs at the smaller distance


# (density of the close pairs, b/a) for n = 8, 9, ..., 16: every block
# has these same nine kinds of space, three of them cluster spaces with
# b > 2a (density None), so every block has the same mix of costs.
SHAPES = (
    (0.2, Fraction(5, 4)),
    (None, Fraction(5, 2)),
    (0.8, Fraction(3, 2)),
    (0.32, Fraction(7, 4)),
    (None, Fraction(3)),
    (0.68, Fraction(2)),
    (0.44, Fraction(3, 2)),
    (None, Fraction(4)),
    (0.56, Fraction(7, 4)),
)


class TwoDistanceSweep:
    """m = 1..n+1 sweeps of two-distance spaces, closed form against oracle.

    One operation is the whole sweep of one space.  With one operation
    per (space, m), the 11th-largest of some 1,500 times was set by a
    handful of hard branch-and-bound instances and moved by half
    between seeds.
    """

    def __init__(self, L, lib, size: str = "full") -> None:
        self.L = L
        self.lib = lib
        self.sizes = tuple(range(8, 17)) if size == "full" else (8,)
        self.seen_graphs: set = set()
        self.counters = {"graph_lookups": 0, "graph_repeats": 0}

    def blocks(self, rng: random.Random) -> Iterator[list]:
        while True:
            block = []
            for n, (p, ratio) in zip(self.sizes, SHAPES):
                if p is None:
                    points, matrix = gen.cluster_two_distance(rng, n, ratio)
                else:
                    points, matrix = gen.random_two_distance(rng, n, p, ratio)
                values = sorted({matrix[i][j] for i in range(n) for j in range(i + 1, n)})
                a, b = values
                close = frozenset(
                    (i, j) for i in range(n) for j in range(i + 1, n) if matrix[i][j] == a
                )
                block.append(Sweep(points, matrix, gen.breakpoint_grid(a, b), close))
            rng.shuffle(block)
            yield block

    def run(self, item: Sweep):
        L = self.L
        space = L.validate_metric(item.points, item.matrix)
        tds = L.as_two_distance(space)
        invariants = L.graph_invariants(L.min_distance_graph(tds))
        sweep = []
        for m in range(1, len(item.points) + 2):
            curve = L.gh_curve(tds, m)
            values = [
                (lam, L.gh_two_distance(tds, m, lam), L.gh_oracle(space, m, lam))
                for lam in item.grid
            ]
            sweep.append((m, curve, values))
        return invariants, sweep

    def check(self, item: Sweep, answer) -> None:
        (k, theta), sweep = answer
        n = len(item.points)
        # graph_invariants runs once here and once inside every gh_curve
        # and gh_two_distance call, always on the same graph.
        lookups = 1 + (n + 1) * (1 + len(item.grid))
        graph = (n, item.close)
        self.counters["graph_lookups"] += lookups
        self.counters["graph_repeats"] += lookups - (graph not in self.seen_graphs)
        self.seen_graphs.add(graph)
        require_int(k, "k")
        require_int(theta, "theta")
        require(k == _component_count(n, item.close), f"k={k} is not the component count")
        require(k <= theta <= n - 1, f"theta={theta} outside [k, n-1]")
        require([m for m, _, _ in sweep] == list(range(1, n + 2)), "the sweep skipped an m")
        for m, curve, values in sweep:
            require(len(values) == len(item.grid), "missing lambda values")
            for seg in curve.segments:
                require_exact(seg.intercept, "curve intercept")
                require_int(seg.slope, "curve slope")
            for lam, closed, oracle in values:
                require_exact(closed.value, f"closed form at m={m}, lambda={lam}")
                require_exact(oracle, f"oracle at m={m}, lambda={lam}")
                require(
                    closed.value == oracle,
                    f"m={m} lambda={lam}: closed form {closed.value} != oracle {oracle}",
                )
                at = curve.evaluate(lam)
                require_exact(at, "curve value")
                require(at == closed.value, f"curve({lam})={at} != pointwise {closed.value}")


def _component_count(n: int, edges) -> int:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)})


# ------------------------------------------------------------ general_borsuk


class Borsuk(NamedTuple):
    space: object  # validated FiniteMetricSpace
    chi: int  # least feasible m, from the generator
    m: int
    extreme: bool  # an extreme-set query instead of a decision


# One block: (n, chi, ((m, extreme set?), ...)) per space.  Infeasible
# decisions and extreme sets scan every partition, so they cost much the
# same on every space of a size; feasible ones stop at the first witness
# and vary.  The n = 10, m = 3 infeasible decision (9,330 partitions) is
# one op in twelve and half the time; with some 40 in a run the tail
# (the 11th-largest time) falls well inside that class.  The n = 11,
# m = 3 decision (28,501 partitions, about 1 s) came some 17 times per
# run, so the tail sat near the bottom of its class.  The two n = 10,
# m = 2 decisions hold the median.
BORSUK_BLOCK = (
    (11, 3, ((2, False), (3, True))),
    (10, 4, ((3, False), (3, True))),
    (10, 3, ((2, False),)),
    (10, 3, ((2, False),)),
    (9, 4, ((3, False), (4, False), (4, True))),
    (8, 3, ((2, False), (3, False), (3, True))),
)
BORSUK_SMALL_BLOCK = ((8, 3, ((2, False), (3, False), (3, True))),)
ORACLE_LAMBDAS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2))


class GeneralBorsuk:
    """Borsuk decisions and extreme sets on general (not two-distance) spaces."""

    def __init__(self, L, lib, size: str = "full") -> None:
        self.L = L
        self.lib = lib
        self.block = BORSUK_BLOCK if size == "full" else BORSUK_SMALL_BLOCK
        self.counters = {"infeasible": 0, "ad_pairs": 0}

    def blocks(self, rng: random.Random) -> Iterator[list]:
        validate = self.lib["metric"].validate_metric
        while True:
            block = []
            for n, chi, queries in self.block:
                points, matrix = gen.general_space(rng, n, chi)
                space = validate(points, matrix)
                block += [Borsuk(space, chi, m, extreme) for m, extreme in queries]
            rng.shuffle(block)
            yield block

    def run(self, item: Borsuk):
        L = self.L
        if item.extreme:
            ad = L.ad_set(item.space, item.m)
            return ad, L.extreme_points(ad)
        return L.borsuk_feasible(item.space, item.m)

    def check(self, item: Borsuk, answer) -> None:
        if item.extreme:
            self._check_extreme(item, *answer)
        else:
            self._check_decision(item, *answer)

    def _check_decision(self, item: Borsuk, feasible, witness) -> None:
        space, m = item.space, item.m
        n = space.n
        diam = max(max(row) for row in space.dist)
        require(type(feasible) is bool, "verdict is not a bool")
        require(feasible == (m >= item.chi), f"m={m}: verdict {feasible}, chi={item.chi}")
        by_distance = self.L.gh_oracle(space, m, diam / 2) < diam
        require(feasible == by_distance, f"m={m}: verdict disagrees with gh_oracle")
        if not feasible:
            self.counters["infeasible"] += 1
            require(witness is None, "an infeasible verdict came with a witness")
            return
        require(witness is not None, "a feasible verdict came without a witness")
        blocks = witness.blocks
        require(len(blocks) == m, f"witness has {len(blocks)} blocks, not {m}")
        require(_blocks_cover(blocks, n), "witness does not partition the points")
        for block in blocks:
            for x, i in enumerate(block):
                for j in block[x + 1 :]:
                    require(space.dist[i][j] < diam, f"block {block} keeps a diameter pair")
        width = self.L.partition_diameter(space, witness)
        require_exact(width, "partition diameter")
        require(width < diam, f"witness diameter {width} is not below {diam}")

    def _check_extreme(self, item: Borsuk, ad, extreme) -> None:
        space, m = item.space, item.m
        h_value = self.lib["partitions"].h_value
        diam = max(max(row) for row in space.dist)
        self.counters["ad_pairs"] += len(ad)
        for p in ad:
            if p.alpha != float("inf"):  # INF is the one float allowed
                require_exact(p.alpha, "separation")
            require_exact(p.d, "diameter")
        undominated = {
            p for p in ad if not any(q != p and q.alpha >= p.alpha and q.d <= p.d for q in ad)
        }
        require(set(extreme) == undominated, "extreme set is not the undominated (alpha, diam) pairs")
        for lam in ORACLE_LAMBDAS:
            via_extreme = max(diam - lam, min(h_value(p, lam) for p in extreme))
            oracle = self.L.gh_oracle(space, m, lam)
            require(via_extreme == oracle, f"lambda={lam}: extreme set {via_extreme} != oracle {oracle}")


# ------------------------------------------------------------ graph_numbers


class GraphCase(NamedTuple):
    name: str
    n: int
    edges: frozenset
    fmt: str
    document: str
    chi: Optional[int]  # known chromatic number of a named family


# Every block has G(n, p) for n = 21, 24, ..., 42 (the densities in
# turn), G(45, p) for each density, M5, both queen graphs and one of the
# four light families (a millisecond or so): 15 graphs, about 3 s.  The
# sizes are 3 apart, so neighbouring sizes differ in time by less than
# the machine's own swings in speed (about 1.5x) and the times spread
# smoothly.  The median falls in the middle of the block, on n = 33, not
# on the boundary between two groups of sizes; with some 30 graphs with
# n = 45 in a run, the tail (the 11th-largest time) falls inside that
# class however many blocks fit.
GNP_SIZES = (21, 24, 27, 30, 33, 36, 39, 42)
GNP_LARGEST = 45
GNP_DENSITIES = (0.3, 0.5, 0.7)
FAMILIES = ("mycielski5", "queen5", "queen6")
LIGHT_FAMILIES = ("odd_cycle", "petersen", "mycielski4", "bipartite")
DIRECT_MAX_N = 25  # clique_cover_direct takes tens of seconds above this


def _known_chi(name: str) -> Optional[int]:
    if name.startswith("C") or name == "petersen":
        return 3
    if name.startswith("M"):
        return int(name[1:])
    if name.startswith("K"):
        return 2
    return {"queen5x5": 5, "queen6x6": 7}.get(name)


class GraphNumbers:
    """Chromatic and clique covering numbers, directly and through distances."""

    def __init__(self, L, lib, size: str = "full") -> None:
        self.L = L
        self.lib = lib
        self.full = size == "full"
        self.direct: dict = {}
        self.counters: dict = {}

    def blocks(self, rng: random.Random) -> Iterator[list]:
        while True:
            if self.full:
                pairs = [(n, GNP_DENSITIES[i % 3]) for i, n in enumerate(GNP_SIZES)]
                pairs += [(GNP_LARGEST, p) for p in GNP_DENSITIES]
            else:
                pairs = [(GNP_SIZES[0], p) for p in GNP_DENSITIES]
            block = [(f"G({n},{p})", n, gen.gnp_edges(rng, n, p)) for n, p in pairs]
            # Warm-up and smoke inputs have no named family: a warm-up
            # graph must not share a theta memo entry with a timed one.
            if self.full:
                for family in FAMILIES + (rng.choice(LIGHT_FAMILIES),):
                    block.append(gen.named_graph(rng, family))
            rng.shuffle(block)
            cases = []
            for name, n, edges in block:
                fmt, doc = gen.graph_document(rng, n, edges)
                norm = frozenset((min(u, v), max(u, v)) for u, v in edges)
                cases.append(GraphCase(name, n, norm, fmt, doc, _known_chi(name)))
            yield cases

    def run(self, item: GraphCase):
        L = self.L
        g = L.parse_graph(item.document, item.fmt)
        return (
            g,
            L.chromatic_number(g),
            L.clique_cover_number(g),
            L.chromatic_via_gh(g, A, B),
            L.clique_cover_via_gh(g, A, B),
        )

    def check(self, item: GraphCase, answer) -> None:
        graphs = self.lib["graphs"]
        g, (chi, colouring), (theta, cover), chi_gh, theta_gh = answer
        require(g.n == item.n and g.edges == item.edges, f"{item.name}: parsed graph differs")
        for value, what in ((chi, "chi"), (theta, "theta"), (chi_gh, "chi via gh"), (theta_gh, "theta via gh")):
            require_int(value, what)
        require(graphs.coloring_is_proper(g, colouring), f"{item.name}: colouring not proper")
        require(len(set(colouring)) == chi, f"{item.name}: colouring uses != {chi} colours")
        require(graphs.cover_is_valid(g, cover), f"{item.name}: cover not valid")
        require(len(cover.blocks) == theta, f"{item.name}: cover has != {theta} cliques")
        require(chi == chi_gh, f"{item.name}: chi {chi} != chi via gh {chi_gh}")
        require(theta == theta_gh, f"{item.name}: theta {theta} != theta via gh {theta_gh}")
        if item.chi is not None:
            require(chi == item.chi, f"{item.name}: chi {chi}, known {item.chi}")
        if item.n <= DIRECT_MAX_N:
            # clique_cover_direct never consults the colouring solver:
            # theta(G) directly, and chi(G) as theta of the complement
            # where no known value checks chi already.
            if item.edges not in self.direct:
                chi_direct = item.chi
                if chi_direct is None:
                    co_edges = _complement_edges(item.n, item.edges)
                    co = self.lib["graphs"].graph_from_edges(item.n, co_edges)
                    chi_direct = self.L.clique_cover_direct(co)[0]
                self.direct[item.edges] = (self.L.clique_cover_direct(g)[0], chi_direct)
            theta_direct, chi_direct = self.direct[item.edges]
            require(theta == theta_direct, f"{item.name}: theta {theta} != direct {theta_direct}")
            require(chi == chi_direct, f"{item.name}: chi {chi} != direct {chi_direct}")


def _complement_edges(n: int, edges: frozenset) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]


# ------------------------------------------------------------ cli_calls


def cli_env(root: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


def run_cli(argv: list, root: str) -> tuple[int, str, str]:
    """Run ``python -m ghsimplex.cli`` as a child process and wait for it."""
    proc = subprocess.run(
        [sys.executable, "-m", "ghsimplex.cli", *argv],
        cwd=root,
        env=cli_env(root),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


class CliCall(NamedTuple):
    argv: list
    code: int  # the documented exit code
    expected: dict  # in-process report without timing


def _report(stdout: str) -> dict:
    report = json.loads(stdout)
    report.pop("timing_ms", None)
    return report


# Every block also runs one full-scan Borsuk decision HEAVY_CALLS times:
# an n = 10 space whose diameter graph has chromatic number 4, at m = 3
# (all 9,330 partitions, about 0.3 s in process), fixed for the share.
# The other calls cost the interpreter and the import and little more,
# so without these the tail (the 11th-largest time) was set by how many
# calls the machine's slow spells hit: its quartile spread over ten runs
# was 0.27, against 0.06-0.14 with them.
HEAVY_CALLS = 4


class CliCalls:
    """One ``python -m ghsimplex.cli`` subprocess at a time over a fixed mix."""

    def __init__(self, L, lib, size: str = "full", workdir: str = ".", root: str = ".") -> None:
        self.L = L
        self.lib = lib
        self.small = size != "full"
        self.workdir = workdir
        self.root = root
        self.counters = {"report_bytes": []}
        self.block_no = 0
        self.heavy: Optional[list] = None
        self.expected: dict = {}  # in-process report by argument list

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return os.path.relpath(path, self.root)

    def in_process(self, argv: list) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.lib["cli"].run_command(list(argv))
        return out.getvalue()

    def _calls(self, rng: random.Random) -> list:
        b = f"b{self.block_no}"
        self.block_no += 1
        if self.heavy is None:
            hn, chi = (8, 3) if self.small else (10, 4)
            hpoints, hmatrix = gen.general_space(rng, hn, chi)
            heavy = self._write("heavy_gen.json", gen.space_document(hpoints, hmatrix))
            self.heavy = ["borsuk", "--space", heavy, "--m", str(chi - 1)]
        n = 5 if self.small else rng.randint(6, 7)
        p, ratio = rng.choice(SHAPES)
        if p is None:
            points, matrix = gen.cluster_two_distance(rng, n, ratio)
        else:
            points, matrix = gen.random_two_distance(rng, n, p, ratio)
        values = sorted({matrix[i][j] for i in range(n) for j in range(i + 1, n)})
        a, bb = values
        td = self._write(f"{b}_td.json", gen.space_document(points, matrix))
        gpoints, gmatrix = gen.general_space(rng, n, 3)
        general = self._write(f"{b}_gen.json", gen.space_document(gpoints, gmatrix))
        gmatrix[0][1] = gmatrix[1][0] = Fraction(5)
        broken = self._write(f"{b}_bad.json", gen.space_document(gpoints, gmatrix))
        gn = rng.randint(8, 10)
        fmt, doc = gen.graph_document(rng, gn, gen.gnp_edges(rng, gn, 0.5))
        graph = self._write(f"{b}_graph.{'col' if fmt == 'dimacs' else 'json'}", doc)
        bad_graph = self._write(f"{b}_badgraph.col", f"p edge {gn} 1\ne 1 1\n")
        m, m2 = rng.randint(2, n), rng.randint(1, n + 1)
        lam, lam2 = (str(x) for x in rng.sample(gen.breakpoint_grid(a, bb), 2))
        calls = [
            (["validate", td], 0),
            (["ghdist", "--space", td, "--m", str(m), "--lambda", lam, "--method", "closed"], 0),
            (["ghdist", "--space", td, "--m", str(m), "--lambda", lam, "--method", "both"], 0),
            (["ghcurve", "--space", td, "--m", str(m)], 0),
            (["borsuk", "--space", general, "--m", "3"], 0),
            (["borsuk", "--space", general, "--m", "2"], 0),
            (["theta", "--graph", graph], 0),
            (["theta", "--graph", graph, "--via", "gh", "--a", "1", "--b", "3/2"], 0),
            (["chroma", "--graph", graph], 0),
            (["chroma", "--graph", graph, "--via", "gh", "--a", "1", "--b", "3/2"], 0),
            (["oracle-check", "--space", td, "--max-m", "3", "--lambdas", f"{a},{bb},{(a + bb) / 2}"], 0),
            (["ghdist", "--space", td, "--m", str(m2), "--lambda", lam2, "--method", "oracle"], 0),
            (["ghcurve", "--space", td, "--m", str(m2)], 0),
            (["validate", general], 0),
            (["validate", broken], 2),
            (["chroma", "--graph", bad_graph], 2),
        ] + [(self.heavy, 0)] * HEAVY_CALLS
        rng.shuffle(calls)
        return calls

    def blocks(self, rng: random.Random) -> Iterator[list]:
        while True:
            block = []
            for argv, code in self._calls(rng):
                key = tuple(argv)
                if key not in self.expected:
                    self.expected[key] = _report(self.in_process(argv))
                block.append(CliCall(argv, code, self.expected[key]))
            yield block

    def run(self, item: CliCall):
        return self.L.subprocess(item.argv, self.root)

    def check(self, item: CliCall, answer) -> None:
        code, stdout, stderr = answer
        self.counters["report_bytes"].append(len(stdout.encode("utf-8")))
        require(code == item.code, f"{item.argv[0]}: exit {code}, documented {item.code}")
        require(stderr == "", f"{item.argv[0]}: wrote to stderr: {stderr[-200:]!r}")
        try:
            report = _report(stdout)
        except json.JSONDecodeError:
            raise CheckFailed(f"{item.argv[0]}: stdout is not one JSON report") from None
        require(report == item.expected, f"{item.argv[0]}: report differs from in-process result")


WORKLOADS = {
    "two_distance_sweep": TwoDistanceSweep,
    "general_borsuk": GeneralBorsuk,
    "graph_numbers": GraphNumbers,
    "cli_calls": CliCalls,
}
