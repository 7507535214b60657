"""Command-line interface with machine-readable JSON run reports.

Exit codes: 0 success, 1 usage error, 2 input error, 3 property
violation (the closed form and the partition oracle disagreed, which
would falsify an invariant the library promises), 4 internal error (any
other failure, such as a RecursionError; reported as JSON like the rest,
never as a traceback).

Each subparser binds its handler, which returns the inputs echoed, the
result and the case tag.  ``run_command`` builds the report for every
exit code and writes it from one place.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from .closed_form import (
    borsuk_feasible,
    chromatic_via_gh,
    clique_cover_via_gh,
    gh_curve,
    gh_two_distance,
)
from .errors import GHError, NotTwoDistance
from .formats import (
    _graph_document,
    _space_document,
    parse_graph,
    parse_space,
    sniff_graph_format,
)
from .graphs import chromatic_number, clique_cover_number
from .metric import FiniteMetricSpace, as_two_distance, diameter
from .partitions import gh_oracle, gh_oracle_curve
from .rationals import format_rational, parse_rational


class _UsageError(Exception):
    pass


class _PropertyViolation(Exception):
    def __init__(self, message: str, detail: dict):
        self.detail = detail
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we own the codes
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ghsimplex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a metric-space JSON file")
    p.add_argument("space", help="path to a metric-space JSON document")
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("ghdist", help="2*d_GH between a simplex and a space")
    p.add_argument("--space", required=True)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--method", choices=["closed", "oracle", "both"], default="closed")
    p.set_defaults(run=_cmd_ghdist)

    p = sub.add_parser(
        "ghcurve", help="piecewise-linear lambda sweep (the oracle's, case null, if not two-distance)"
    )
    p.add_argument("--space", required=True)
    p.add_argument("--m", required=True, type=int)
    p.set_defaults(run=_cmd_ghcurve)

    p = sub.add_parser("borsuk", help="partition into m parts of smaller diameter?")
    p.add_argument("--space", required=True)
    p.add_argument("--m", required=True, type=int)
    p.set_defaults(run=_cmd_borsuk)

    for name, help_text in (
        ("theta", "clique covering number"),
        ("chroma", "chromatic number"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--graph", required=True)
        p.add_argument("--via", choices=["direct", "gh"], default="direct")
        p.add_argument("--a", default=None)
        p.add_argument("--b", default=None)
        p.add_argument("--format", choices=["auto", "json", "dimacs"], default="auto")
        p.set_defaults(run=_cmd_graph_number)

    p = sub.add_parser("oracle-check", help="closed form vs threshold oracle for m = 1..max-m")
    p.add_argument("--space", required=True)
    p.add_argument("--max-m", dest="max_m", required=True, type=int)
    p.add_argument("--lambdas", required=True, help="comma-separated rationals")
    p.set_defaults(run=_cmd_oracle_check)
    return parser


def _load_space(path: str) -> FiniteMetricSpace:
    return parse_space(Path(path).read_bytes())


def _cmd_validate(args) -> tuple[dict, dict, Optional[str]]:
    space = _load_space(args.space)
    result = {
        "valid": True,
        "n": space.n,
        "diameter": format_rational(diameter(space)),
    }
    try:
        tds = as_two_distance(space)
        result["two_distance"] = {
            "a": format_rational(tds.a),
            "b": format_rational(tds.b),
        }
    except GHError:
        result["two_distance"] = None
    return {"space": _space_document(space)}, result, None


def _cmd_ghdist(args) -> tuple[dict, dict, Optional[str]]:
    space = _load_space(args.space)
    lam = parse_rational(args.lam, "--lambda")
    inputs = {
        "space": _space_document(space),
        "m": args.m,
        "lambda": format_rational(lam),
        "method": args.method,
    }
    case_tag = None
    result: dict = {"method": args.method}
    if args.method in ("closed", "both"):
        gv = gh_two_distance(as_two_distance(space), args.m, lam)
        result["value"] = format_rational(gv.value)
        case_tag = gv.case.tag.value
    if args.method in ("oracle", "both"):
        oracle_value = gh_oracle(space, args.m, lam)
        key = "oracle_value" if args.method == "both" else "value"
        result[key] = format_rational(oracle_value)
    if args.method == "both" and result["value"] != result["oracle_value"]:
        raise _PropertyViolation(
            "closed form and oracle disagree", {"result": result, "case": case_tag}
        )
    return inputs, result, case_tag


def _cmd_ghcurve(args) -> tuple[dict, dict, Optional[str]]:
    space = _load_space(args.space)
    try:
        tds = as_two_distance(space)
    except NotTwoDistance:
        curve = gh_oracle_curve(space, args.m)
    else:
        curve = gh_curve(tds, args.m)
    segments = [
        {
            "lo": format_rational(seg.lo),
            "hi": format_rational(seg.hi),
            "slope": seg.slope,
            "intercept": format_rational(seg.intercept),
        }
        for seg in curve.segments
    ]
    inputs = {"space": _space_document(space), "m": args.m}
    return inputs, {"segments": segments}, curve.case.tag.value if curve.case else None


def _cmd_borsuk(args) -> tuple[dict, dict, Optional[str]]:
    space = _load_space(args.space)
    feasible, witness = borsuk_feasible(space, args.m)
    ids = [[space.points[i] for i in block] for block in witness.blocks] if witness else None
    result = {"m": args.m, "feasible": feasible, "witness": ids}
    return {"space": _space_document(space), "m": args.m}, result, None


def _cmd_graph_number(args) -> tuple[dict, dict, Optional[str]]:
    which = args.command
    document = Path(args.graph).read_bytes()
    fmt = sniff_graph_format(args.graph, document) if args.format == "auto" else args.format
    g = parse_graph(document, fmt)
    inputs: dict = {"graph": _graph_document(g), "via": args.via}
    if args.via == "gh":
        if args.a is None or args.b is None:
            raise _UsageError(f"{which} --via gh requires --a and --b")
        a = parse_rational(args.a, "--a")
        b = parse_rational(args.b, "--b")
        inputs["a"] = format_rational(a)
        inputs["b"] = format_rational(b)
        value = clique_cover_via_gh(g, a, b) if which == "theta" else chromatic_via_gh(g, a, b)
        return inputs, {"value": value}, None
    if which == "theta":
        value, cover = clique_cover_number(g)
        witness = [list(block) for block in cover.blocks]
    else:
        value, coloring = chromatic_number(g)
        witness = list(coloring)
    return inputs, {"value": value, "witness": witness}, None


def _cmd_oracle_check(args) -> tuple[dict, dict, Optional[str]]:
    space = _load_space(args.space)
    tds = as_two_distance(space)
    lambdas = [parse_rational(part, "--lambdas") for part in args.lambdas.split(",")]
    if args.max_m < 1:
        raise _UsageError("--max-m must be at least 1")
    inputs = {
        "space": _space_document(space),
        "max_m": args.max_m,
        "lambdas": [format_rational(lam) for lam in lambdas],
    }
    mismatches = []
    checked = 0
    for m in range(1, args.max_m + 1):
        for lam in lambdas:
            closed = gh_two_distance(tds, m, lam).value
            oracle = gh_oracle(space, m, lam)
            checked += 1
            if closed != oracle:
                mismatches.append(
                    {
                        "m": m,
                        "lambda": format_rational(lam),
                        "closed": format_rational(closed),
                        "oracle": format_rational(oracle),
                    }
                )
    result = {"checked": checked, "mismatches": mismatches}
    if mismatches:
        raise _PropertyViolation("closed form and oracle disagree", {"result": result})
    return inputs, result, None


def run_command(argv: list[str]) -> int:
    """Execute one subcommand; print its run report as JSON; return the exit code.

    Every report starts with the command.  A failure adds the error's
    type and message; a run that reached its result (exit 0, or exit 3
    with the disagreeing result) adds that and ends with ``timing_ms``.
    """
    started = time.perf_counter()
    command = argv[0] if argv else None
    error: Optional[tuple[str, str]] = None
    body: dict = {}
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # --help lands here
            return int(exc.code or 0)
        command = args.command
        inputs, result, case = args.run(args)
        code, body = 0, {"inputs": inputs, "result": result, "case": case}
    except _UsageError as exc:
        code, error = 1, ("usage", str(exc))
    except _PropertyViolation as exc:
        code, error, body = 3, ("PropertyViolation", str(exc)), exc.detail
    except (GHError, OSError, ValueError) as exc:
        code, error = 2, (type(exc).__name__, str(exc))
    except Exception as exc:  # the boundary: every failure becomes a report
        code, error = 4, ("internal", f"{type(exc).__name__}: {exc}")
    report: dict = {"command": command}
    if error is not None:
        report["error"] = {"type": error[0], "message": error[1]}
    report.update(body)
    if body:
        report["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
