"""Benchmark entry point: one workload, one seed, every metric with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` and writes only under ``.bench_work/``.  The load is a closed
loop with one caller: each operation starts when the previous one and
its check are done.  A run is split into SHARES shares, each a fresh
child interpreter (``worker.py``) that sets up, then runs whole input
blocks for its share of ``--seconds``; the children run one at a time,
and each starts with empty library caches.

``--trace 0`` reports the end-to-end metrics; ``setup_s`` is the median
of the set-up times of the shares and of SETUPS_PER_SHARE set-up-only
processes after each share.  ``--trace 1`` reports the per-layer
metrics: untraced and traced shares alternate on the same inputs, and
``trace.overhead_ratio`` is traced over untraced throughput.  The last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from tracing import LAYER_FUNCTIONS, layer_stats  # noqa: E402

WORKLOADS = ("two_distance_sweep", "general_borsuk", "graph_numbers", "cli_calls")
SHARES = 2  # worker processes per run, one after another
SETUPS_PER_SHARE = 3  # set-up-only worker processes after each share
WORKER_MARGIN_S = 120  # beyond its share's time, before a worker counts as hung
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mib": "MiB",
}


def per_layer_units() -> dict[str, str]:
    names = [f"{m}.{f}" for m, fs in LAYER_FUNCTIONS.items() for f in fs] + ["cli.subprocess"]
    units = {}
    for name in names:
        units[f"{name}.calls"] = "count"
        units[f"{name}.ms"] = "ms"
    units.update(
        {
            "closed_form.graph_invariants.repeat_ratio": "ratio",
            "closed_form.borsuk_feasible.infeasible_calls": "count",
            "partitions.ad_set.pairs": "count",
            "cli.interpreter_ms": "ms",
            "cli.import_ms": "ms",
            "cli.report_bytes": "bytes",
            "op.self_ms": "ms",
            "check.ms": "ms",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


class WorkerFailed(Exception):
    pass


def worker(args, part: int, seconds: float, *extra: str) -> dict:
    argv = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--part", str(part),
        "--seconds", repr(seconds),
        *extra,
    ]
    if args.small:
        argv.append("--small")
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, capture_output=True, text=True, timeout=seconds + WORKER_MARGIN_S
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(
            f"worker {part} did not finish within {seconds + WORKER_MARGIN_S:.0f} s"
        ) from None
    if proc.returncode != 0:
        raise WorkerFailed(proc.stderr.strip()[-2000:] or f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pooled(runs: list[dict]) -> dict:
    out = {key: sum(r[key] for r in runs) for key in ("attempted", "failed", "timed_s")}
    out["failures"] = [f for r in runs for f in r["failures"]]
    out["latencies_ms"] = [x for r in runs for x in r["latencies_ms"]]
    return out


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile, beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    k = n - 1 - beyond
    return ordered[k], 100.0 * (k + 1) / n, beyond


def throughput(run: dict) -> float:
    return (run["attempted"] - run["failed"]) / run["timed_s"]


def end_to_end(args, lines: list[str]) -> tuple[dict, dict]:
    shares, setups = [], []
    for part in range(SHARES):
        shares.append(worker(args, part, args.seconds / SHARES))
        setups.append(shares[-1]["setup_s"])
        # More set-up samples, spread over the run, for a steadier median.
        for _ in range(SETUPS_PER_SHARE):
            setups.append(worker(args, part, 0.0, "--setup-only")["setup_s"])
    run = pooled(shares)
    lat = run["latencies_ms"]
    value, pct, beyond = tail(lat) if lat else (0.0, 0.0, 0)
    lines.append(
        f"latency_tail_ms is p{pct:.2f} of {len(lat)} completed operations, "
        f"{beyond} beyond it"
    )
    lines.append(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    metrics = {
        "throughput_ops_s": throughput(run),
        "latency_p50_ms": statistics.median(lat) if lat else 0.0,
        "latency_tail_ms": value,
        "setup_s": statistics.median(setups),
        "ok_ratio": (run["attempted"] - run["failed"]) / run["attempted"],
        "peak_rss_mib": statistics.median(r["peak_rss_kib"] for r in shares) / 1024,
    }
    return run, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def per_layer(args, lines: list[str]) -> tuple[dict, dict]:
    pairs = SHARES // 2
    seconds = args.seconds / (2 * pairs)
    plain, traced, spans = [], [], []
    for part in range(pairs):
        # Each traced share repeats the inputs of the untraced one before it.
        plain.append(worker(args, part, seconds))
        spans_file = os.path.join(
            ROOT, ".bench_work", f"spans-{args.workload}-s{args.seed}-{part}.jsonl"
        )
        traced.append(worker(args, part, seconds, "--trace", spans_file))
        with open(spans_file, encoding="utf-8") as fh:
            for line in fh:
                span = json.loads(line)
                # Span ids restart in every process.
                span["id"] = (part, span["id"])
                if span["parent"] is not None:
                    span["parent"] = (part, span["parent"])
                spans.append(span)
        lines.append(f"spans written to {os.path.relpath(spans_file, ROOT)}")
    stats = layer_stats(spans)
    counters: dict = {}
    for r in traced:
        for key, value in r["counters"].items():
            counters[key] = counters[key] + value if key in counters else value
    lookups = counters.get("graph_lookups", 0)
    sizes = counters.get("report_bytes", [])
    stats.update(
        {
            "closed_form.graph_invariants.repeat_ratio": counters.get("graph_repeats", 0)
            / lookups if lookups else 0.0,
            "closed_form.borsuk_feasible.infeasible_calls": counters.get("infeasible", 0),
            "partitions.ad_set.pairs": counters.get("ad_pairs", 0),
            "cli.report_bytes": statistics.median(sizes) if sizes else 0,
            "trace.overhead_ratio": throughput(pooled(traced)) / throughput(pooled(plain)),
        }
    )
    probes = [r["cli"] for r in traced if "cli" in r]
    for key in probes[0] if probes else ():
        stats[f"cli.{key}"] = statistics.median(p[key] for p in probes)
    units = per_layer_units()
    for name in sorted(set(stats) - set(units)):
        lines.append(f"  (not a listed metric) {name} = {stats[name]:.6g}")
    run = pooled(plain + traced)
    return run, {k: (stats.get(k, 0), u) for k, u in units.items()}


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--small", action="store_true", help="smallest inputs (smoke test)")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ghsimplex", "__init__.py")):
        print("no ghsimplex sources under src/: run from a source checkout", file=sys.stderr)
        return 2

    lines = [
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        f"python={platform.python_version()} nproc={os.cpu_count()} commit={git_commit()}",
    ]
    try:
        run, metrics = (per_layer if args.trace else end_to_end)(args, lines)
    except WorkerFailed as exc:
        print(f"benchmark worker failed:\n{exc}", file=sys.stderr)
        return 1
    for failure in run["failures"]:
        lines.append(f"FAILED: {failure}")
    lines.append(f"failed_ratio = {run['failed'] / run['attempted']:.6g}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    print("\n".join(lines))
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
