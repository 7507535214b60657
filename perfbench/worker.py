"""One benchmark process: set up a workload, then run it for a while.

``run.py`` starts this script in a fresh interpreter for every share of
a run, so the library's process-wide caches (the theta memo in
``closed_form`` and the ``SimpleGraph`` cached properties) never carry
over from one process to the next.  Set-up generates the first block of
inputs and warms up; later blocks are generated between operations,
outside the timed spans.  It prints one JSON object on its last stdout
line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--part I] [--trace SPANS_FILE] [--small] [--setup-only]

With ``--setup-only`` it sets up, reports ``setup_s`` and stops.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import tracing
import workloads

WARM_ITEMS = {"two_distance_sweep": 1, "general_borsuk": 3, "graph_numbers": 3, "cli_calls": 1}
PROBE_REPEATS = 5
MODULES = ("formats", "metric", "graphs", "closed_form", "partitions", "cli")


def load_library() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return {name: importlib.import_module(f"ghsimplex.{name}") for name in MODULES}


def make_workload(name: str, L, lib: dict, size: str, workdir: str):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliCalls:
        os.makedirs(workdir, exist_ok=True)
        return cls(L, lib, size, workdir=workdir, root=ROOT)
    return cls(L, lib, size)


def attempt(wl, item, tracer, op_id: int) -> tuple[float, str]:
    """Run one operation and its check; return (timed seconds, failure or "")."""
    token = tracer.begin("op", op_id)
    start = time.perf_counter()
    try:
        answer = wl.run(item)
        error = ""
    except Exception as exc:  # any raise is a failed operation
        error = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    tracer.end(token)
    if not error:
        token = tracer.begin("check", op_id)
        try:
            wl.check(item, answer)
        except workloads.CheckFailed as exc:
            error = f"wrong answer: {exc}"
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
        tracer.end(token)
    return elapsed, error


def cli_probes(L, tracer, used: list) -> dict:
    """In-process costs behind a CLI call: interpreter, import, parse, run_command."""

    def median_ms(argv: list) -> float:
        times = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            subprocess.run(argv, cwd=ROOT, env=workloads.cli_env(ROOT), check=True, capture_output=True)
            times.append((time.perf_counter() - start) * 1000)
        return statistics.median(times)

    GHError = importlib.import_module("ghsimplex.errors").GHError
    interpreter = median_ms([sys.executable, "-c", "pass"])
    imported = median_ms([sys.executable, "-c", "import ghsimplex.cli"])
    files = sorted({a for item in used for a in item.argv if a.endswith((".json", ".col"))})
    token = tracer.begin("probe", -1)
    for path in files:
        with open(os.path.join(ROOT, path), "rb") as fh:
            document = fh.read()
        with contextlib.suppress(GHError):  # the invalid inputs raise, as documented
            if "graph" in os.path.basename(path):
                L.parse_graph(document, "dimacs" if path.endswith(".col") else "json")
            else:
                L.parse_space(document)
    for argv in dict.fromkeys(tuple(item.argv) for item in used):
        with contextlib.redirect_stdout(io.StringIO()):
            L.run_command(list(argv))
    tracer.end(token)
    return {"interpreter_ms": interpreter, "import_ms": imported - interpreter}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--part", default=0, type=int, help="which share of the seeded inputs")
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default=None, help="write spans to this file")
    ap.add_argument("--small", action="store_true", help="smallest input sizes")
    ap.add_argument("--setup-only", action="store_true", help="set up, report setup_s, stop")
    args = ap.parse_args()

    lib = load_library()
    tracer = tracing.Tracer() if args.trace else tracing.NO_TRACER
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    # The CLI workload's child-process call is a span of its own.
    spawn = {"cli.subprocess": workloads.run_cli}
    try:
        L = tracing.Layers(lib, tracer if args.trace else None, spawn)
        wl = make_workload(args.workload, L, lib, "small" if args.small else "full", workdir)
        blocks = wl.blocks(random.Random(f"{args.seed}/{args.part}"))
        first = next(blocks)
        # Warm up on a fixed input set of the smallest size, disjoint from
        # the timed inputs, so that set-up does the same work every run.
        plain = tracing.Layers(lib, None, spawn)
        warm = make_workload(args.workload, plain, lib, "warm", os.path.join(workdir, "warm"))
        for item in next(warm.blocks(random.Random("warm-up")))[: WARM_ITEMS[args.workload]]:
            attempt(warm, item, tracing.NO_TRACER, -1)  # the timed run reports failures
        result = {"setup_s": time.perf_counter() - STARTED}
        if not args.setup_only:
            result.update(measure(args, wl, L, tracer, itertools.chain([first], blocks)))
            result["peak_rss_kib"] = resource.getrusage(
                resource.RUSAGE_CHILDREN if args.workload == "cli_calls" else resource.RUSAGE_SELF
            ).ru_maxrss
            if args.trace:
                tracer.write(args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, wl, L, tracer, blocks) -> dict:
    """Run whole blocks for about ``args.seconds`` (at least one block).

    A block starts only while at least half as long as the last block
    remains, so a share overruns its time by at most half a block and
    on average uses all of it.  The work done, and with it the memory
    the library's caches hold, changes only by whole blocks.
    """
    latencies: list[float] = []
    failures: list[str] = []
    timed_s = 0.0
    used = []
    deadline = time.perf_counter() + args.seconds
    last_block = 0.0
    op_id = 0
    for block in blocks:
        started = time.perf_counter()
        if op_id and deadline - started < last_block / 2:
            break
        for item in block:
            elapsed, error = attempt(wl, item, tracer, op_id)
            op_id += 1
            timed_s += elapsed
            if error:
                failures.append(error)
            else:
                latencies.append(elapsed * 1000)
        if args.workload == "cli_calls":
            used += block
        last_block = time.perf_counter() - started
    out = {
        "attempted": len(latencies) + len(failures),
        "failed": len(failures),
        "failures": failures[:5],
        "latencies_ms": latencies,
        "timed_s": timed_s,
        "counters": dict(wl.counters),
    }
    if args.trace and args.workload == "cli_calls":
        out["cli"] = cli_probes(L, tracer, used)
    return out


if __name__ == "__main__":
    sys.exit(main())
