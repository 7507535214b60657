"""File formats: metric-space JSON, graph JSON and DIMACS ``.col``.

Rationals travel as strings ("3/2", "1"), never as JSON floats, so a
parse/serialize round trip reproduces every value exactly.  Each JSON
document is built as a dict in one place (``_space_document``,
``_graph_document``); the serializers dump that dict, and the CLI echoes
it in its reports.
"""

from __future__ import annotations

import json
from typing import Union

from .errors import ParseError, SelfLoop, VertexOutOfRange
from .graphs import SimpleGraph
from .metric import FiniteMetricSpace, validate_metric
from .rationals import format_rational, parse_rational


def _loads(document: Union[bytes, str]) -> object:
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    try:
        return json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, f"line {exc.lineno}, column {exc.colno}") from None


def parse_space(document: Union[bytes, str]) -> FiniteMetricSpace:
    """Parse and fully validate a metric-space JSON document."""
    doc = _loads(document)
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    points = doc.get("points")
    matrix = doc.get("matrix")
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise ParseError("'points' must be a list of strings")
    if not points:
        raise ParseError("'points' must be non-empty")
    n = len(points)
    if not isinstance(matrix, list) or len(matrix) != n:
        raise ParseError(f"'matrix' must be a list of {n} rows")
    parsed = []
    for i, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"row {i} must have {n} entries", f"matrix[{i}]")
        parsed.append(
            [parse_rational(entry, f"matrix[{i}][{j}]") for j, entry in enumerate(row)]
        )
    return validate_metric(points, parsed)


def _space_document(space: FiniteMetricSpace) -> dict:
    """The metric-space JSON document of ``space``, as a dict."""
    return {
        "points": list(space.points),
        "matrix": [[format_rational(v) for v in row] for row in space.dist],
    }


def serialize_space(space: FiniteMetricSpace) -> str:
    return json.dumps(_space_document(space), indent=2)


def _parse_graph_json(document: Union[bytes, str]) -> SimpleGraph:
    doc = _loads(document)
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    n = doc.get("n")
    edges = doc.get("edges", [])
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParseError("'n' must be a non-negative integer")
    if not isinstance(edges, list):
        raise ParseError("'edges' must be a list of [u, v] pairs")
    pairs = []
    for idx, e in enumerate(edges):
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not all(isinstance(w, int) and not isinstance(w, bool) for w in e)
        ):
            raise ParseError("each edge must be a pair of integers", f"edges[{idx}]")
        pairs.append((e[0], e[1]))
    return SimpleGraph(n, pairs)


def _parse_graph_dimacs(document: Union[bytes, str]) -> SimpleGraph:
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    n = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", f"line {lineno}")
            if len(fields) != 4 or fields[1] not in ("edge", "edges", "col"):
                raise ParseError("expected 'p edge <n> <m>'", f"line {lineno}")
            try:
                n = int(fields[2])
            except ValueError:
                raise ParseError("vertex count must be an integer", f"line {lineno}") from None
            if n < 0:
                raise ParseError("vertex count must be non-negative", f"line {lineno}")
        elif fields[0] == "e":
            if n is None:
                raise ParseError("edge before problem line", f"line {lineno}")
            if len(fields) != 3:
                raise ParseError("expected 'e <u> <v>'", f"line {lineno}")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("endpoints must be integers", f"line {lineno}") from None
            if u == v:
                raise SelfLoop(u)
            for w in (u, v):
                if not 1 <= w <= n:
                    raise VertexOutOfRange(w, n)
            pairs.append((u - 1, v - 1))
        else:
            raise ParseError(f"unknown line type {fields[0]!r}", f"line {lineno}")
    if n is None:
        raise ParseError("missing problem line")
    return SimpleGraph(n, pairs)


def parse_graph(document: Union[bytes, str], format: str = "json") -> SimpleGraph:
    """Parse a graph document; duplicate edges collapse, self-loops are rejected."""
    if format == "json":
        return _parse_graph_json(document)
    if format == "dimacs":
        return _parse_graph_dimacs(document)
    raise ValueError(f"unknown graph format {format!r}")


def _graph_document(g: SimpleGraph) -> dict:
    """The graph JSON document of ``g``, edges sorted, as a dict."""
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def serialize_graph(g: SimpleGraph, format: str = "json") -> str:
    if format == "json":
        return json.dumps(_graph_document(g), indent=2)
    if format == "dimacs":
        edges = sorted(g.edges)
        lines = [f"p edge {g.n} {len(edges)}"]
        lines.extend(f"e {u + 1} {v + 1}" for u, v in edges)
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown graph format {format!r}")


def sniff_graph_format(filename: str, document: Union[bytes, str]) -> str:
    """Pick a graph format from the file extension, else from the content."""
    lowered = filename.lower()
    if lowered.endswith(".col"):
        return "dimacs"
    if lowered.endswith(".json"):
        return "json"
    text = document.decode("utf-8", "replace") if isinstance(document, bytes) else document
    return "json" if text.lstrip().startswith("{") else "dimacs"
