import argparse
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import ghsimplex
from ghsimplex import (
    ParseError,
    SelfLoop,
    VertexOutOfRange,
    cycle_graph,
    parse_graph,
    parse_space,
    serialize_graph,
    serialize_space,
    sniff_graph_format,
    two_distance_space_from_graph,
    validate_metric,
)
from ghsimplex.cli import run_command
from conftest import E1_MATRIX, E1_POINTS, random_usable_graph, random_ab


class TestSpaceFormat:
    def test_round_trip_exact(self):
        space = validate_metric(
            ["p", "q", "r"], [[0, "1/3", "1/3"], ["1/3", 0, "1/3"], ["1/3", "1/3", 0]]
        )
        again = parse_space(serialize_space(space))
        assert again == space
        assert '"1/3"' in serialize_space(space)

    def test_decimal_entry_parses_to_exact_fraction(self):
        doc = json.dumps(
            {"points": ["p", "q"], "matrix": [["0", "1.5"], ["1.5", "0"]]}
        )
        space = parse_space(doc)
        assert space.distance(0, 1) == F(3, 2)
        assert '"3/2"' in serialize_space(space)

    def test_row_length_mismatch(self):
        doc = json.dumps({"points": ["p", "q"], "matrix": [["0", "1"], ["1"]]})
        with pytest.raises(ParseError):
            parse_space(doc)

    def test_malformed_json_reports_location(self):
        with pytest.raises(ParseError) as err:
            parse_space(b'{"points": [}')
        assert "line 1" in str(err.value)

    def test_bad_entry_names_cell(self):
        for bad in ("x", 1.5, True):
            doc = json.dumps({"points": ["p", "q"], "matrix": [["0", bad], [bad, "0"]]})
            with pytest.raises(ParseError) as err:
                parse_space(doc)
            assert "matrix[0][1]" in str(err.value)

    def test_validation_errors_propagate(self):
        doc = json.dumps({"points": ["p", "q"], "matrix": [["0", "1"], ["2", "0"]]})
        from ghsimplex import Asymmetric

        with pytest.raises(Asymmetric):
            parse_space(doc)


DIMACS_C5 = """c five cycle
p edge 5 5
e 1 2
e 2 3
e 3 4
e 4 5
e 5 1
"""


class TestGraphFormat:
    def test_dimacs_c5(self):
        assert parse_graph(DIMACS_C5, "dimacs") == cycle_graph(5)

    def test_dimacs_self_loop(self):
        with pytest.raises(SelfLoop):
            parse_graph("p edge 2 1\ne 1 1\n", "dimacs")

    def test_dimacs_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            parse_graph("p edge 2 1\ne 1 3\n", "dimacs")

    def test_dimacs_edge_before_header(self):
        with pytest.raises(ParseError):
            parse_graph("e 1 2\n", "dimacs")

    @pytest.mark.parametrize(
        "doc, line", [("p edge -1 0\n", 1), ("c negative\np edge -1 1\ne 1 2\n", 2)]
    )
    def test_dimacs_negative_vertex_count(self, doc, line):
        """Rejected at the header line, before an edge can meet the count."""
        with pytest.raises(ParseError, match=f"line {line}: vertex count must be non-negative"):
            parse_graph(doc, "dimacs")

    def test_json_duplicate_edges_collapse(self):
        g = parse_graph(json.dumps({"n": 2, "edges": [[0, 1], [1, 0]]}), "json")
        assert g.edge_count == 1

    def test_json_self_loop(self):
        with pytest.raises(SelfLoop):
            parse_graph(json.dumps({"n": 2, "edges": [[1, 1]]}), "json")

    def test_round_trips(self):
        rng = random.Random(50)
        for _ in range(10):
            g = random_usable_graph(rng, rng.randint(3, 9))
            assert parse_graph(serialize_graph(g, "json"), "json") == g
            assert parse_graph(serialize_graph(g, "dimacs"), "dimacs") == g

    def test_sniff(self):
        assert sniff_graph_format("x.col", "") == "dimacs"
        assert sniff_graph_format("x.json", "") == "json"
        assert sniff_graph_format("x.txt", '{"n": 1}') == "json"
        assert sniff_graph_format("x.txt", "p edge 1 0") == "dimacs"


@pytest.fixture()
def e1_file(tmp_path):
    path = tmp_path / "e1.json"
    rows = [[str(v) for v in row] for row in E1_MATRIX]
    path.write_text(json.dumps({"points": E1_POINTS, "matrix": rows}))
    return str(path)


@pytest.fixture()
def petersen_col(tmp_path):
    from ghsimplex import petersen_graph

    path = tmp_path / "petersen.col"
    path.write_text(serialize_graph(petersen_graph(), "dimacs"))
    return str(path)


def _run(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCLI:
    def test_validate(self, capsys, e1_file):
        code, report = _run(capsys, ["validate", e1_file])
        assert code == 0
        assert report["result"]["valid"] is True
        assert report["result"]["two_distance"] == {"a": "1", "b": "2"}

    def test_ghdist_both(self, capsys, e1_file):
        code, report = _run(
            capsys,
            ["ghdist", "--space", e1_file, "--m", "2", "--lambda", "1", "--method", "both"],
        )
        assert code == 0
        assert report["result"]["value"] == "1"
        assert report["result"]["oracle_value"] == "1"
        assert report["case"] == "M_EQ_K_EQ_THETA"

    def test_ghdist_oracle_only(self, capsys, e1_file):
        code, report = _run(
            capsys,
            ["ghdist", "--space", e1_file, "--m", "4", "--lambda", "5/2", "--method", "oracle"],
        )
        assert code == 0
        assert report["result"]["value"] == "3/2"
        assert report["case"] is None

    def test_ghcurve(self, capsys, e1_file):
        code, report = _run(capsys, ["ghcurve", "--space", e1_file, "--m", "2"])
        assert code == 0
        assert report["result"]["segments"] == [
            {"lo": "0", "hi": "1", "slope": -1, "intercept": "2"},
            {"lo": "1", "hi": "3", "slope": 0, "intercept": "1"},
            {"lo": "3", "hi": "inf", "slope": 1, "intercept": "-2"},
        ]

    def test_ghcurve_general_space_is_the_oracle_curve(self, capsys, tmp_path):
        # Points 0, 1 and 3 on a line: the one extreme 2-block pair is
        # {0, 1} | {3}, alpha 2 and diam 1, and diam X is 3.
        path = tmp_path / "line.json"
        rows = [["0", "1", "3"], ["1", "0", "2"], ["3", "2", "0"]]
        path.write_text(json.dumps({"points": ["p", "q", "r"], "matrix": rows}))
        code, report = _run(capsys, ["ghcurve", "--space", str(path), "--m", "2"])
        assert code == 0
        assert report["case"] is None
        assert report["result"]["segments"] == [
            {"lo": "0", "hi": "2", "slope": -1, "intercept": "3"},
            {"lo": "2", "hi": "3", "slope": 0, "intercept": "1"},
            {"lo": "3", "hi": "inf", "slope": 1, "intercept": "-2"},
        ]
        code, report = _run(capsys, ["ghcurve", "--space", str(path), "--m", "0"])
        assert code == 2
        assert report["error"]["type"] == "InvalidM"

    def test_borsuk_feasible_with_ids(self, capsys, e1_file):
        code, report = _run(capsys, ["borsuk", "--space", e1_file, "--m", "2"])
        assert code == 0
        assert report["result"]["feasible"] is True
        assert report["result"]["witness"] == [["x1", "x2"], ["x3", "x4"]]

    def test_borsuk_infeasible(self, capsys, tmp_path):
        tds = two_distance_space_from_graph(cycle_graph(5), F(1), F(3, 2))
        path = tmp_path / "e2.json"
        path.write_text(serialize_space(tds.base))
        code, report = _run(capsys, ["borsuk", "--space", str(path), "--m", "2"])
        assert code == 0
        assert report["result"] == {"m": 2, "feasible": False, "witness": None}

    def test_theta_direct_petersen(self, capsys, petersen_col):
        code, report = _run(capsys, ["theta", "--graph", petersen_col, "--via", "direct"])
        assert code == 0
        assert report["result"]["value"] == 5

    def test_theta_via_gh(self, capsys, petersen_col):
        code, report = _run(
            capsys,
            ["theta", "--graph", petersen_col, "--via", "gh", "--a", "1", "--b", "2"],
        )
        assert code == 0
        assert report["result"]["value"] == 5

    def test_chroma_via_gh_requires_parameters(self, capsys, petersen_col):
        code, report = _run(capsys, ["chroma", "--graph", petersen_col, "--via", "gh"])
        assert code == 1
        assert report["error"]["type"] == "usage"

    def test_oracle_check(self, capsys, e1_file):
        code, report = _run(
            capsys,
            ["oracle-check", "--space", e1_file, "--max-m", "6", "--lambdas", "1/2,1,3/2,2,3,5"],
        )
        assert code == 0
        assert report["result"]["checked"] == 36
        assert report["result"]["mismatches"] == []

    def test_usage_error_exit_1(self, capsys):
        code, report = _run(capsys, ["no-such-command"])
        assert code == 1
        assert report["error"]["type"] == "usage"

    def test_missing_file_exit_2(self, capsys):
        code, report = _run(capsys, ["validate", "does-not-exist.json"])
        assert code == 2

    def test_invalid_space_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": ["p", "q"], "matrix": [["0", "1"], ["2", "0"]]}))
        code, report = _run(capsys, ["validate", str(path)])
        assert code == 2
        assert report["error"]["type"] == "Asymmetric"

    def test_forced_mismatch_exits_3(self, capsys, e1_file, monkeypatch):
        monkeypatch.setattr("ghsimplex.cli.gh_oracle", lambda *a, **k: F(999))
        code, report = _run(
            capsys,
            ["ghdist", "--space", e1_file, "--m", "2", "--lambda", "1", "--method", "both"],
        )
        assert code == 3
        assert report["error"]["type"] == "PropertyViolation"

    @pytest.mark.parametrize("error", [RuntimeError("boom"), RecursionError("too deep")])
    def test_unexpected_failure_exits_4(self, capsys, e1_file, monkeypatch, error):
        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr("ghsimplex.cli.gh_oracle", broken)
        code, report = _run(
            capsys,
            ["ghdist", "--space", e1_file, "--m", "2", "--lambda", "1", "--method", "oracle"],
        )
        assert code == 4
        assert report["command"] == "ghdist"
        assert report["error"] == {
            "type": "internal",
            "message": f"{type(error).__name__}: {error}",
        }

    def test_output_deterministic_modulo_timing(self, capsys, e1_file):
        argv = ["ghdist", "--space", e1_file, "--m", "3", "--lambda", "2"]
        _, first = _run(capsys, argv)
        _, second = _run(capsys, argv)
        first.pop("timing_ms")
        second.pop("timing_ms")
        assert first == second

    def test_method_both_fuzz_never_mismatches(self, capsys, tmp_path):
        rng = random.Random(51)
        for i in range(8):
            n = rng.randint(3, 8)
            g = random_usable_graph(rng, n)
            a, b = random_ab(rng)
            tds = two_distance_space_from_graph(g, a, b)
            path = tmp_path / f"space{i}.json"
            path.write_text(serialize_space(tds.base))
            m = rng.randint(1, n + 2)
            lam = str(a + b * F(rng.randint(0, 8), 4))
            code, report = _run(
                capsys,
                ["ghdist", "--space", str(path), "--m", str(m), "--lambda", lam, "--method", "both"],
            )
            assert code == 0
            assert report["result"]["value"] == report["result"]["oracle_value"]



# The complete report of every subcommand and of every exit code, as
# the CLI prints it (indent 2, then a newline), with timing_ms removed.
# Comparing json.dumps texts pins the key order too.
E1_ECHO = {
    "points": ["x1", "x2", "x3", "x4"],
    "matrix": [
        ["0", "1", "2", "2"],
        ["1", "0", "2", "2"],
        ["2", "2", "0", "1"],
        ["2", "2", "1", "0"],
    ],
}
LINE_ECHO = {
    "points": ["p", "q", "r"],
    "matrix": [["0", "1", "3"], ["1", "0", "2"], ["3", "2", "0"]],
}
C5_ECHO = {"n": 5, "edges": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]}
COMMANDS = ("validate", "ghdist", "ghcurve", "borsuk", "theta", "chroma", "oracle-check")


def _golden_files(directory: Path) -> None:
    def space(name, points, rows):
        (directory / name).write_text(json.dumps({"points": points, "matrix": rows}))

    space("e1.json", E1_POINTS, [[str(v) for v in row] for row in E1_MATRIX])
    space("line.json", LINE_ECHO["points"], LINE_ECHO["matrix"])
    c5 = two_distance_space_from_graph(cycle_graph(5), F(1), F(3, 2)).base
    (directory / "e2.json").write_text(serialize_space(c5))
    space("bad.json", ["p", "q"], [["0", "1"], ["2", "0"]])
    (directory / "c5.col").write_text(DIMACS_C5)
    (directory / "c5.json").write_text(json.dumps(C5_ECHO))
    (directory / "loop.col").write_text("p edge 2 1\ne 1 1\n")


def _argparse_message(argv: list[str]) -> str:
    """What argparse itself says; its wording differs between Python versions."""

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise ValueError(message)

    parser = Parser()
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name)
    with pytest.raises(ValueError) as err:
        parser.parse_args(argv)
    return str(err.value)


def _wrong_oracle(*args, **kwargs):
    return F(999)


def _broken_oracle(*args, **kwargs):
    raise RuntimeError("boom")


def _ok(command, inputs, result, case=None):
    return {"command": command, "inputs": inputs, "result": result, "case": case}


def _error(command, kind, message):
    return {"command": command, "error": {"type": kind, "message": message}}


GOLDEN = {
    "validate_two_distance": (
        ["validate", "e1.json"],
        None,
        0,
        _ok(
            "validate",
            {"space": E1_ECHO},
            {"valid": True, "n": 4, "diameter": "2", "two_distance": {"a": "1", "b": "2"}},
        ),
    ),
    "validate_general": (
        ["validate", "line.json"],
        None,
        0,
        _ok(
            "validate",
            {"space": LINE_ECHO},
            {"valid": True, "n": 3, "diameter": "3", "two_distance": None},
        ),
    ),
    "ghdist_closed": (
        ["ghdist", "--space", "e1.json", "--m", "3", "--lambda", "2"],
        None,
        0,
        _ok(
            "ghdist",
            {"space": E1_ECHO, "m": 3, "lambda": "2", "method": "closed"},
            {"method": "closed", "value": "1"},
            "K_EQ_THETA_LT_M_LT_N",
        ),
    ),
    "ghdist_oracle": (
        ["ghdist", "--space", "e1.json", "--m", "4", "--lambda", "5/2", "--method", "oracle"],
        None,
        0,
        _ok(
            "ghdist",
            {"space": E1_ECHO, "m": 4, "lambda": "5/2", "method": "oracle"},
            {"method": "oracle", "value": "3/2"},
        ),
    ),
    "ghdist_both": (
        ["ghdist", "--space", "e1.json", "--m", "2", "--lambda", "1", "--method", "both"],
        None,
        0,
        _ok(
            "ghdist",
            {"space": E1_ECHO, "m": 2, "lambda": "1", "method": "both"},
            {"method": "both", "value": "1", "oracle_value": "1"},
            "M_EQ_K_EQ_THETA",
        ),
    ),
    "ghcurve_two_distance": (
        ["ghcurve", "--space", "e1.json", "--m", "2"],
        None,
        0,
        _ok(
            "ghcurve",
            {"space": E1_ECHO, "m": 2},
            {
                "segments": [
                    {"lo": "0", "hi": "1", "slope": -1, "intercept": "2"},
                    {"lo": "1", "hi": "3", "slope": 0, "intercept": "1"},
                    {"lo": "3", "hi": "inf", "slope": 1, "intercept": "-2"},
                ]
            },
            "M_EQ_K_EQ_THETA",
        ),
    ),
    "ghcurve_general": (
        ["ghcurve", "--space", "line.json", "--m", "2"],
        None,
        0,
        _ok(
            "ghcurve",
            {"space": LINE_ECHO, "m": 2},
            {
                "segments": [
                    {"lo": "0", "hi": "2", "slope": -1, "intercept": "3"},
                    {"lo": "2", "hi": "3", "slope": 0, "intercept": "1"},
                    {"lo": "3", "hi": "inf", "slope": 1, "intercept": "-2"},
                ]
            },
        ),
    ),
    "borsuk_feasible": (
        ["borsuk", "--space", "e1.json", "--m", "2"],
        None,
        0,
        _ok(
            "borsuk",
            {"space": E1_ECHO, "m": 2},
            {"m": 2, "feasible": True, "witness": [["x1", "x2"], ["x3", "x4"]]},
        ),
    ),
    "borsuk_infeasible": (
        ["borsuk", "--space", "e2.json", "--m", "2"],
        None,
        0,
        _ok(
            "borsuk",
            {
                "space": {
                    "points": ["v0", "v1", "v2", "v3", "v4"],
                    "matrix": [
                        ["0", "1", "3/2", "3/2", "1"],
                        ["1", "0", "1", "3/2", "3/2"],
                        ["3/2", "1", "0", "1", "3/2"],
                        ["3/2", "3/2", "1", "0", "1"],
                        ["1", "3/2", "3/2", "1", "0"],
                    ],
                },
                "m": 2,
            },
            {"m": 2, "feasible": False, "witness": None},
        ),
    ),
    "theta_direct": (
        ["theta", "--graph", "c5.col"],
        None,
        0,
        _ok(
            "theta",
            {"graph": C5_ECHO, "via": "direct"},
            {"value": 3, "witness": [[0, 1], [2, 3], [4]]},
        ),
    ),
    "theta_via_gh": (
        ["theta", "--graph", "c5.col", "--via", "gh", "--a", "1", "--b", "3/2"],
        None,
        0,
        _ok("theta", {"graph": C5_ECHO, "via": "gh", "a": "1", "b": "3/2"}, {"value": 3}),
    ),
    "chroma_direct": (
        ["chroma", "--graph", "c5.json"],
        None,
        0,
        _ok(
            "chroma",
            {"graph": C5_ECHO, "via": "direct"},
            {"value": 3, "witness": [0, 1, 0, 1, 2]},
        ),
    ),
    "chroma_via_gh": (
        ["chroma", "--graph", "c5.json", "--format", "json", "--via", "gh", "--a", "1", "--b", "3/2"],
        None,
        0,
        _ok("chroma", {"graph": C5_ECHO, "via": "gh", "a": "1", "b": "3/2"}, {"value": 3}),
    ),
    "oracle_check": (
        ["oracle-check", "--space", "e1.json", "--max-m", "3", "--lambdas", "1/2,1,3"],
        None,
        0,
        _ok(
            "oracle-check",
            {"space": E1_ECHO, "max_m": 3, "lambdas": ["1/2", "1", "3"]},
            {"checked": 9, "mismatches": []},
        ),
    ),
    "unknown_command": (["nonsense"], None, 1, _error("nonsense", "usage", None)),
    "missing_option": (
        ["ghdist", "--m", "2"],
        None,
        1,
        _error("ghdist", "usage", "the following arguments are required: --space, --lambda"),
    ),
    "via_gh_without_a": (
        ["chroma", "--graph", "c5.col", "--via", "gh", "--b", "2"],
        None,
        1,
        _error("chroma", "usage", "chroma --via gh requires --a and --b"),
    ),
    "max_m_zero": (
        ["oracle-check", "--space", "e1.json", "--max-m", "0", "--lambdas", "1"],
        None,
        1,
        _error("oracle-check", "usage", "--max-m must be at least 1"),
    ),
    "missing_file": (
        ["validate", "missing.json"],
        None,
        2,
        _error(
            "validate",
            "FileNotFoundError",
            "[Errno 2] No such file or directory: 'missing.json'",
        ),
    ),
    "asymmetric": (
        ["validate", "bad.json"],
        None,
        2,
        _error("validate", "Asymmetric", "dist[0][1] != dist[1][0]"),
    ),
    "self_loop": (
        ["chroma", "--graph", "loop.col"],
        None,
        2,
        _error("chroma", "SelfLoop", "self-loop at vertex 1"),
    ),
    "ghdist_mismatch": (
        ["ghdist", "--space", "e1.json", "--m", "2", "--lambda", "1", "--method", "both"],
        _wrong_oracle,
        3,
        {
            **_error("ghdist", "PropertyViolation", "closed form and oracle disagree"),
            "result": {"method": "both", "value": "1", "oracle_value": "999"},
            "case": "M_EQ_K_EQ_THETA",
        },
    ),
    "oracle_check_mismatch": (
        ["oracle-check", "--space", "e1.json", "--max-m", "1", "--lambdas", "1"],
        _wrong_oracle,
        3,
        {
            **_error("oracle-check", "PropertyViolation", "closed form and oracle disagree"),
            "result": {
                "checked": 1,
                "mismatches": [{"m": 1, "lambda": "1", "closed": "2", "oracle": "999"}],
            },
        },
    ),
    "internal": (
        ["ghdist", "--space", "e1.json", "--m", "2", "--lambda", "1", "--method", "oracle"],
        _broken_oracle,
        4,
        _error("ghdist", "internal", "RuntimeError: boom"),
    ),
}


class TestGoldenReports:
    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_report(self, capsys, tmp_path, monkeypatch, name):
        argv, oracle, want_code, want = GOLDEN[name]
        _golden_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        if oracle is not None:
            monkeypatch.setattr("ghsimplex.cli.gh_oracle", oracle)
        code = run_command(argv)
        out = capsys.readouterr().out
        assert code == want_code
        # One JSON document, indented by 2, then a newline.
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        report = json.loads(out)
        # Only a report that ran a command to its end is timed, last.
        if want_code in (0, 3):
            assert list(report)[-1] == "timing_ms"
            assert isinstance(report.pop("timing_ms"), float)
        assert "timing_ms" not in report
        if name == "unknown_command":
            want = _error("nonsense", "usage", _argparse_message(argv))
        assert json.dumps(report) == json.dumps(want)

    def test_every_subcommand_and_exit_code_is_pinned(self):
        covered = {(argv[0], code) for argv, _, code, _ in GOLDEN.values()}
        assert {command for command, code in covered if code == 0} == set(COMMANDS)
        assert {code for _, code in covered} == {0, 1, 2, 3, 4}


def test_cli_import_does_not_load_the_process_pool():
    # ad_set_parallel imports the pool itself, so a CLI call never pays
    # for loading multiprocessing.
    src = str(Path(ghsimplex.__file__).resolve().parents[1])
    probe = (
        "import json, sys, ghsimplex.cli; "
        "print(json.dumps([m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert json.loads(done.stdout) == []
