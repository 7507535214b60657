"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. Runs every workload at its smallest size, untraced and traced, and
   checks that every metric named in BENCHMARK.json is printed with its
   unit and that no operation failed.
2. Feeds each checker a deliberately corrupted answer (a value off by
   1/7, a witness with two blocks merged, a wrong exit code, a wrong
   graph number, a proper colouring with one colour too many) and checks
   that it is flagged.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import load_library  # noqa: E402

problems: list[str] = []


def expect(cond: bool, message: str) -> None:
    if not cond:
        problems.append(message)
        print(f"PROBLEM: {message}")


def run_small(workload: str, trace: int) -> dict:
    argv = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--small",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    expect(proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    expect("failed_ratio = 0" in lines, f"{workload} trace={trace}: failed_ratio is not 0")
    return json.loads(lines[-1]) if lines else {}


def check_metrics() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run_small(w["name"], trace)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            expect(result.get("failed") == 0 and result.get("correct") is True,
                   f"{w['name']} trace={trace}: {result.get('failed')} operations failed")
            printed = result.get("metrics", {})
            for metric in listed:
                got = printed.get(metric["name"])
                expect(got is not None, f"{w['name']} trace={trace}: {metric['name']} missing")
                if got is not None:
                    expect(got.get("unit") == metric["unit"], f"{metric['name']}: unit {got.get('unit')}")
                    expect(isinstance(got.get("value"), (int, float)), f"{metric['name']}: no value")
            expect(len(printed) == len(listed), f"{w['name']} trace={trace}: unlisted metrics printed")
            print(f"ok   {w['name']} trace={trace}: {len(printed)} metrics, 0 failed")


def flagged(wl, item, answer) -> bool:
    try:
        wl.check(item, answer)
    except workloads.CheckFailed:
        return True
    return False


def check_corruptions() -> None:
    before = len(problems)
    lib = load_library()
    L = tracing.Layers(lib, None, {"cli.subprocess": workloads.run_cli})
    rng = random.Random(7)

    # A closed-form value off by 1/7.
    wl = workloads.TwoDistanceSweep(L, lib, "small")
    item = next(wl.blocks(rng))[0]
    invariants, sweep = wl.run(item)
    expect(not flagged(wl, item, (invariants, sweep)), "a correct sweep was flagged")
    m, curve, values = sweep[1]
    lam, closed, oracle = values[0]
    bad = [(m, curve, [(lam, closed, oracle + Fraction(1, 7))] + values[1:])]
    expect(flagged(wl, item, (invariants, sweep[:1] + bad + sweep[2:])), "a value off by 1/7 was not flagged")

    # A Borsuk witness with two blocks merged.
    wl = workloads.GeneralBorsuk(L, lib, "small")
    item = next(i for i in next(wl.blocks(rng)) if not i.extreme and i.m >= i.chi)
    feasible, witness = wl.run(item)
    expect(not flagged(wl, item, (feasible, witness)), "a correct witness was flagged")
    blocks = witness.blocks
    merged = type(witness)((tuple(sorted(blocks[0] + blocks[1])),) + blocks[2:])
    expect(flagged(wl, item, (feasible, merged)), "a witness with two blocks merged was not flagged")

    # A wrong chromatic number.
    wl = workloads.GraphNumbers(L, lib, "small")
    item = next(wl.blocks(rng))[0]
    answer = wl.run(item)
    expect(not flagged(wl, item, answer), "a correct graph answer was flagged")
    g, (chi, colouring), *rest = answer
    expect(flagged(wl, item, (g, (chi + 1, colouring), *rest)), "a wrong chromatic number was not flagged")
    # A proper colouring with one colour too many, reported by both routes.
    (theta, cover), chi_gh, theta_gh = rest
    v = next(v for v in range(g.n) if colouring.count(colouring[v]) > 1)
    extra = colouring[:v] + (chi,) + colouring[v + 1 :]
    expect(
        flagged(wl, item, (g, (chi + 1, extra), (theta, cover), chi_gh + 1, theta_gh)),
        "a proper but non-optimal colouring was not flagged",
    )

    # A wrong CLI exit code.
    workdir = os.path.join(ROOT, ".bench_work", f"smoke-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.CliCalls(L, lib, "small", workdir=workdir, root=ROOT)
        item = next(wl.blocks(rng))[0]
        code, stdout, stderr = wl.run(item)
        expect(not flagged(wl, item, (code, stdout, stderr)), "a correct CLI call was flagged")
        expect(flagged(wl, item, (code + 1, stdout, stderr)), "a wrong exit code was not flagged")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(problems) == before:
        print("ok   corrupted answers are flagged")


def main() -> int:
    check_corruptions()
    check_metrics()
    print("smoke test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
