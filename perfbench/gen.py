"""Seeded input generators for the benchmark.

Standard library only, and independent of the test suite's generators,
so that editing a test cannot shift the benchmark's inputs.  Every
generator takes a ``random.Random`` and returns plain data (point ids,
matrices of ``Fraction``, edge lists, documents); the workloads turn it
into library objects.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# ---------------------------------------------------------------- spaces


def _points(n: int) -> list[str]:
    return [f"x{i}" for i in range(n)]


SCALES = (Fraction(1), Fraction(2, 3), Fraction(3, 2), Fraction(2))


def random_two_distance(
    rng: random.Random, n: int, p: float, ratio: Fraction
) -> tuple[list[str], list[list[Fraction]]]:
    """Two-distance space, b = ratio * a <= 2a, close pairs drawn as G(n, p)."""
    a = rng.choice(SCALES)
    b = a * ratio
    while True:
        close = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if 0 < len(close) < n * (n - 1) // 2:
            break
    return _points(n), _matrix(n, close, a, b)


def cluster_two_distance(
    rng: random.Random, n: int, ratio: Fraction
) -> tuple[list[str], list[list[Fraction]]]:
    """Two-distance space, b = ratio * a > 2a: the close pairs form disjoint cliques.

    About n/3 cliques of random sizes.  With a random number of cliques
    (2 to n-1), the sweep of an n = 15 space took from 94 to 632 ms; with
    n/3, from 102 to 154 ms (12 spaces each, 2-vCPU VM, Python 3.11).
    """
    a = rng.choice(SCALES)
    b = a * ratio
    k = max(2, n // 3)
    while True:
        label = [rng.randrange(k) for _ in range(n)]
        sizes = [label.count(c) for c in set(label)]
        if len(sizes) >= 2 and max(sizes) >= 2:
            break
    close = [(i, j) for i in range(n) for j in range(i + 1, n) if label[i] == label[j]]
    return _points(n), _matrix(n, close, a, b)


def _matrix(n: int, close, a: Fraction, b: Fraction) -> list[list[Fraction]]:
    m = [[Fraction(0) if i == j else b for j in range(n)] for i in range(n)]
    for i, j in close:
        m[i][j] = m[j][i] = a
    return m


def breakpoint_grid(a: Fraction, b: Fraction) -> list[Fraction]:
    """Lambdas that hit and straddle every breakpoint the case table can have.

    The breakpoints of every case formula lie in {b-a, b/2, (a+b)/2, b,
    2a, a+b, 2b}; the grid takes each, the midpoints between neighbours
    and one point beyond each end, derived from a and b alone.
    """
    cuts = sorted({b - a, b / 2, (a + b) / 2, b, 2 * a, a + b, 2 * b})
    grid = set(cuts)
    grid.update((x + y) / 2 for x, y in zip(cuts, cuts[1:]))
    grid.add(cuts[0] / 2)
    grid.add(cuts[-1] + a)
    return sorted(grid)


def general_space(
    rng: random.Random, n: int, chi: int
) -> tuple[list[str], list[list[Fraction]]]:
    """Metric space with distances in [1, 2] that is not two-distance.

    Distance 2 (the diameter) is drawn on about 30-60 % of pairs, the
    rest from {1, 9/8, ..., 15/8}; any such matrix satisfies the triangle
    inequality.  The graph of diameter pairs has chromatic number exactly
    ``chi``, which is the least m for which the Borsuk split into m parts
    of smaller diameter exists: its pairs join points of different
    classes of a balanced ``chi``-colouring only, and one point of each
    class forms a clique.  Built, not drawn until it fits, so generating
    a block costs the same on every seed.
    """
    while True:
        colour = [i % chi for i in range(n)]
        rng.shuffle(colour)
        clique = [colour.index(c) for c in range(chi)]
        between = [(i, j) for i in range(n) for j in range(i + 1, n) if colour[i] != colour[j]]
        q = min(1.0, rng.uniform(0.3, 0.6) * n * (n - 1) / 2 / len(between))
        far = {(i, j) for i, j in between if i in clique and j in clique or rng.random() < q}
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d = Fraction(2) if (i, j) in far else Fraction(rng.randint(8, 15), 8)
                m[i][j] = m[j][i] = d
        short = {m[i][j] for i in range(n) for j in range(i + 1, n)} - {Fraction(2)}
        if len(short) >= 2:
            return _points(n), m


# ---------------------------------------------------------------- graphs


def gnp_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if 0 < len(edges) < n * (n - 1) // 2:
            return edges


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def petersen_edges() -> list[tuple[int, int]]:
    out = []
    for i in range(5):
        out += [(i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5), (i, 5 + i)]
    return out


def mycielski_edges(k: int) -> tuple[int, list[tuple[int, int]]]:
    """The Mycielski graph M_k (M_2 = K_2): triangle-free with chromatic number k."""
    n, edges = 2, [(0, 1)]
    for _ in range(k - 2):
        grown = list(edges)
        for u, v in edges:
            grown += [(u, n + v), (v, n + u)]
        grown += [(n + i, 2 * n) for i in range(n)]
        n, edges = 2 * n + 1, grown
    return n, edges


def queen_edges(k: int) -> tuple[int, list[tuple[int, int]]]:
    cells = [(r, c) for r in range(k) for c in range(k)]
    edges = [
        (i, j)
        for i, (r1, c1) in enumerate(cells)
        for j, (r2, c2) in enumerate(cells)
        if i < j and (r1 == r2 or c1 == c2 or abs(r1 - r2) == abs(c1 - c2))
    ]
    return k * k, edges


def bipartite_edges(p: int, q: int) -> tuple[int, list[tuple[int, int]]]:
    return p + q, [(u, p + v) for u in range(p) for v in range(q)]


def named_graph(rng: random.Random, which: str) -> tuple[str, int, list[tuple[int, int]]]:
    if which == "odd_cycle":
        n = rng.choice((5, 7, 9, 11, 13))
        return f"C{n}", n, cycle_edges(n)
    if which == "petersen":
        return "petersen", 10, petersen_edges()
    if which.startswith("mycielski"):
        k = int(which[-1])
        return (f"M{k}", *mycielski_edges(k))
    if which.startswith("queen"):
        k = int(which[-1])
        return (f"queen{k}x{k}", *queen_edges(k))
    p, q = rng.randint(2, 6), rng.randint(2, 6)
    return (f"K{p},{q}", *bipartite_edges(p, q))


def graph_document(rng: random.Random, n: int, edges) -> tuple[str, str]:
    """Serialise as DIMACS or JSON text (seeded choice), in shuffled edge order."""
    edges = list(edges)
    rng.shuffle(edges)
    if rng.random() < 0.5:
        lines = [f"c generated, n={n}", f"p edge {n} {len(edges)}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in edges]
        return "dimacs", "\n".join(lines) + "\n"
    return "json", json.dumps({"n": n, "edges": [[u, v] for u, v in edges]})


def space_document(points, matrix) -> str:
    return json.dumps({"points": list(points), "matrix": [[str(v) for v in row] for row in matrix]})
