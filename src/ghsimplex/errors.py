"""Exception hierarchy shared by every module in the package.

Validation errors carry the offending indices so callers can report
problems in the user's own terms (point ids, matrix cells, vertices).
"""

from __future__ import annotations


class GHError(Exception):
    """Base class for all errors raised by this package."""


class MetricError(GHError):
    """A distance matrix violates one of the metric axioms."""


class NonZeroDiagonal(MetricError):
    def __init__(self, i: int):
        self.index = i
        super().__init__(f"dist[{i}][{i}] must be 0")


class Asymmetric(MetricError):
    def __init__(self, i: int, j: int):
        self.indices = (i, j)
        super().__init__(f"dist[{i}][{j}] != dist[{j}][{i}]")


class NonPositiveOffDiagonal(MetricError):
    def __init__(self, i: int, j: int):
        self.indices = (i, j)
        super().__init__(f"dist[{i}][{j}] must be positive for distinct points")


class TriangleViolation(MetricError):
    """dist[i][j] exceeds dist[i][k] + dist[k][j]."""

    def __init__(self, i: int, j: int, k: int):
        self.indices = (i, j, k)
        super().__init__(
            f"triangle inequality fails: dist[{i}][{j}] > dist[{i}][{k}] + dist[{k}][{j}]"
        )


class NotTwoDistance(GHError):
    """The off-diagonal values of a space do not take exactly two values."""

    def __init__(self, count: int):
        self.count = count
        super().__init__(f"expected exactly 2 distinct off-diagonal values, found {count}")


class EmptySubset(GHError):
    pass


class EmptyInput(GHError):
    pass


class InvalidM(GHError):
    """A block count out of range; ``n`` is None where m has no upper bound."""

    def __init__(self, m: int, n: int | None):
        self.m = m
        self.n = n
        if n is None:
            super().__init__(f"m={m} must be at least 1")
        else:
            super().__init__(f"m={m} is outside the valid range 1..{n}")


class NonPositiveLambda(GHError):
    def __init__(self, lam):
        self.lam = lam
        super().__init__(f"lambda must be positive, got {lam}")


class SinglePoint(GHError):
    pass


class BadParameters(GHError):
    pass


class DegenerateGraph(GHError):
    """The graph is complete or edgeless, so the two-distance reduction collapses."""


class SelfLoop(GHError):
    def __init__(self, v: int):
        self.vertex = v
        super().__init__(f"self-loop at vertex {v}")


class VertexOutOfRange(GHError):
    def __init__(self, v, n: int):
        self.vertex = v
        self.n = n
        super().__init__(f"vertex {v} out of range for graph with {n} vertices")


class ParseError(GHError):
    """A document does not match its declared format.

    Named ParseError rather than SyntaxError to avoid shadowing the builtin.
    """

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(message if location is None else f"{location}: {message}")


class NodeLimitExceeded(GHError):
    """An exact search hit its optional node budget before finishing.

    ``limit`` is the budget and ``nodes`` the branching decisions the
    search had made when it stopped.
    """

    def __init__(self, limit: int, nodes: int):
        self.limit = limit
        self.nodes = nodes
        super().__init__(f"exceeded node limit {limit} after {nodes} nodes")
