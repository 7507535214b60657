"""Spans around the calls the benchmark makes into the library.

Each workload reaches the library only through a :class:`Layers` object.
Untraced, its attributes are the library functions themselves, so an
untraced run pays nothing.  Traced, each attribute is a wrapper that
records one span per call: name, start, end, parent span and operation
id.  Spans stay in memory until the run ends.

A call the library makes internally is not seen here: it is charged to
the outermost call the benchmark made.
"""

from __future__ import annotations

import json
import time
from typing import Callable, NamedTuple, Optional

# Every library function a workload may call, by layer (module).  The
# metric names are "<module>.<function>.calls" and ".ms".
LAYER_FUNCTIONS = {
    "formats": ("parse_space", "parse_graph"),
    "metric": ("validate_metric", "as_two_distance", "min_distance_graph"),
    "graphs": ("chromatic_number", "clique_cover_number", "clique_cover_direct"),
    "closed_form": (
        "graph_invariants",
        "gh_curve",
        "gh_two_distance",
        "borsuk_feasible",
        "chromatic_via_gh",
        "clique_cover_via_gh",
    ),
    "partitions": ("gh_oracle", "ad_set", "extreme_points", "partition_diameter"),
    "cli": ("run_command",),
}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int


class Tracer:
    """In-memory span recorder with a stack for parent links."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._op = -1

    def begin(self, name: str, op: int) -> tuple[int, str, float]:
        self._op = op
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid, name, time.perf_counter()

    def end(self, token: tuple[int, str, float]) -> None:
        end = time.perf_counter()
        sid, name, start = token
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, start, end, parent, self._op))

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            token = self.begin(name, self._op)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(token)

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(s._asdict()) + "\n")


class Layers:
    """The library functions a workload calls, traced or not.

    ``extra`` adds calls that are not library functions, such as running
    the CLI as a child process, under a "<layer>.<name>" span name.
    """

    def __init__(
        self, modules: dict, tracer: Optional[Tracer] = None, extra: Optional[dict] = None
    ) -> None:
        calls = {
            f"{module}.{name}": getattr(modules[module], name)
            for module, names in LAYER_FUNCTIONS.items()
            for name in names
        }
        calls.update(extra or {})
        for span_name, fn in calls.items():
            if tracer is not None:
                fn = tracer.wrap(span_name, fn)
            setattr(self, span_name.split(".", 1)[1], fn)


class _NoTracer:
    """Stands in for a Tracer in untraced runs; spans cost nothing."""

    def begin(self, name: str, op: int) -> None:
        return None

    def end(self, token) -> None:
        return None


NO_TRACER = _NoTracer()


def layer_stats(spans: list[dict]) -> dict[str, float]:
    """Per-function calls, busy ms and self ms, plus op and check totals.

    Self time is a span's duration minus the part of it covered by its
    child spans.  "op.self_ms" is the benchmark's own glue inside the
    timed operations; "check.ms" is the time spent in output checks.
    """
    child_ms: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            dur = (s["end"] - s["start"]) * 1000
            child_ms[s["parent"]] = child_ms.get(s["parent"], 0.0) + dur
    out: dict[str, float] = {}
    for s in spans:
        dur = (s["end"] - s["start"]) * 1000
        self_ms = dur - child_ms.get(s["id"], 0.0)
        name = s["name"]
        if name == "op":
            out["op.self_ms"] = out.get("op.self_ms", 0.0) + self_ms
            continue
        if name == "check":
            out["check.ms"] = out.get("check.ms", 0.0) + dur
            continue
        if name == "probe":
            continue
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.ms"] = out.get(f"{name}.ms", 0.0) + dur
        out[f"{name}.self_ms"] = out.get(f"{name}.self_ms", 0.0) + self_ms
    return out
