"""Serving layer — push-based counter reads vs finalize-on-read, plus QPS.

Not a paper figure: this benchmark tracks the network serving layer of
``repro.serve``.  It boots a real server subprocess (``python -m
repro.serve``), seeds a tax-data store over the wire, declares locally
mined DCs, and then measures the two things the layer exists for:

* **Read latency under writes.**  After every append the store's finalized
  evidence cache is invalid, so a finalize-on-read ``violations`` query
  pays a full partial finalize (lexsort of all distinct evidence words),
  while the push-based counter read answers from per-DC counts maintained
  at append time — O(#DCs) work regardless of how much arrived since the
  last finalize.  The benchmark interleaves appends with both read modes
  and expects the counter path to be at least ``EXPECTED_READ_SPEEDUP``
  times faster at the default 2000 rows (enforced with
  ``--require-speedup``; CI runs the smoke variant informationally).
* **Mixed-workload throughput.**  Several client threads drive an
  append/violations/report/check_batch mix; the benchmark reports QPS and
  per-op p50/p99 wire latencies.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serve.py \
        [--json BENCH_serve.json] [--rows 2000] [--require-speedup] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.predicate_space import build_predicate_space
from repro.data.datasets import generate_dataset
from repro.serve import ServeClient

from _harness import boot_server, mine_constraint_specs, percentile

#: Rows of the served base relation.
BENCH_ROWS = 2000

#: Append+read pairs per read mode in the latency comparison.
READ_REPS = 30

#: Requests issued by the mixed workload (across all client threads).
MIXED_OPS = 240

#: Client threads driving the mixed workload.
CLIENTS = 4

#: Minimum counter-read vs finalize-read speedup required at BENCH_ROWS.
EXPECTED_READ_SPEEDUP = 5.0

def measure_read_modes(
    client: ServeClient, pool, cursor: int, reps: int
) -> tuple[dict[str, object], int]:
    """Interleave appends with finalize-mode and counter-mode reads.

    Every read is preceded by a one-row append, so the finalize path pays
    a real re-finalize each time (exactly what a read-after-write hits in
    production) and the counter path demonstrates its independence from
    the append stream.
    """
    finalize_lat: list[float] = []
    counter_lat: list[float] = []
    for _ in range(reps):
        client.append("bench", [pool.row(cursor)])
        cursor += 1
        started = time.perf_counter()
        finalized = client.violations("bench", 0, mode="finalize")
        finalize_lat.append(time.perf_counter() - started)

        client.append("bench", [pool.row(cursor)])
        cursor += 1
        started = time.perf_counter()
        counted = client.violations("bench", 0, mode="counters")
        counter_lat.append(time.perf_counter() - started)

    # Bit-identity of the two read paths on the final state.
    finalized = client.violations("bench", 0, mode="finalize")
    counted = client.violations("bench", 0, mode="counters")
    if finalized["count"] != counted["count"]:
        raise AssertionError(
            f"read paths disagree: finalize={finalized['count']} "
            f"counters={counted['count']}"
        )
    result = {
        "reps": reps,
        "finalize_p50_ms": percentile(finalize_lat, 50) * 1e3,
        "finalize_p99_ms": percentile(finalize_lat, 99) * 1e3,
        "counters_p50_ms": percentile(counter_lat, 50) * 1e3,
        "counters_p99_ms": percentile(counter_lat, 99) * 1e3,
        "speedup_p50": percentile(finalize_lat, 50) / percentile(counter_lat, 50),
        "count": counted["count"],
    }
    return result, cursor


def measure_backlog_independence(
    client: ServeClient, pool, cursor: int, backlog: int, reps: int
) -> tuple[dict[str, object], int]:
    """Counter-read latency with zero vs many unfinalized appends pending."""

    def timed_reads() -> list[float]:
        latencies = []
        for _ in range(reps):
            started = time.perf_counter()
            client.violations("bench", 0, mode="counters")
            latencies.append(time.perf_counter() - started)
        return latencies

    client.violations("bench", 0, mode="finalize")  # snapshot fresh: backlog 0
    clean = timed_reads()
    for _ in range(backlog):
        client.append("bench", [pool.row(cursor)])
        cursor += 1
    backlogged = timed_reads()
    return {
        "backlog_rows": backlog,
        "clean_p50_ms": percentile(clean, 50) * 1e3,
        "backlogged_p50_ms": percentile(backlogged, 50) * 1e3,
        "ratio": percentile(backlogged, 50) / percentile(clean, 50),
    }, cursor


def run_mixed_workload(
    host: str, port: int, pool, cursor: int, total_ops: int, clients: int
) -> dict[str, object]:
    """Concurrent append/read mix; returns QPS and per-op percentiles."""
    per_client = total_ops // clients
    latencies: dict[str, list[float]] = {
        "append": [], "violations": [], "report": [], "check_batch": [],
    }
    lock = threading.Lock()
    probe = pool.row(0)

    def drive(worker: int) -> None:
        own: dict[str, list[float]] = {key: [] for key in latencies}
        with ServeClient(host, port, timeout=120.0) as client:
            for i in range(per_client):
                row = pool.row(cursor + worker * per_client + i)
                for op, call in (
                    ("append", lambda: client.append("bench", [row])),
                    ("violations", lambda: client.violations("bench", 0)),
                    ("report", lambda: client.report("bench")),
                    ("check_batch", lambda: client.check_batch("bench", [probe])),
                ):
                    started = time.perf_counter()
                    call()
                    own[op].append(time.perf_counter() - started)
        with lock:
            for op, values in own.items():
                latencies[op].extend(values)

    threads = [
        threading.Thread(target=drive, args=(worker,)) for worker in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    requests = sum(len(values) for values in latencies.values())
    return {
        "clients": clients,
        "requests": requests,
        "elapsed_seconds": elapsed,
        "qps": requests / elapsed,
        "ops": {
            op: {
                "n": len(values),
                "p50_ms": percentile(values, 50) * 1e3,
                "p99_ms": percentile(values, 99) * 1e3,
                "mean_ms": statistics.fmean(values) * 1e3,
            }
            for op, values in latencies.items()
        },
    }


def run_serve_benchmark(
    n_rows: int, read_reps: int, mixed_ops: int, clients: int
) -> dict[str, object]:
    """Boot, seed, declare, measure, drain; returns the JSON payload."""
    extra = 2 * read_reps + mixed_ops + 128
    pool = generate_dataset("tax", n_rows=n_rows + extra, seed=7).relation
    base = pool.take(range(n_rows))
    space = build_predicate_space(base)
    specs = mine_constraint_specs(base, space)

    proc, host, port, _ = boot_server()
    try:
        with ServeClient(host, port, timeout=300.0) as client:
            started = time.perf_counter()
            client.create_store("bench", [base.row(i) for i in range(base.n_rows)])
            seed_seconds = time.perf_counter() - started
            client.declare("bench", specs, epsilon=0.1)

            cursor = n_rows
            read_modes, cursor = measure_read_modes(client, pool, cursor, read_reps)
            backlog, cursor = measure_backlog_independence(
                client, pool, cursor, backlog=64, reps=read_reps
            )
            mixed = run_mixed_workload(host, port, pool, cursor, mixed_ops, clients)
            stats = client.stats()
        proc.send_signal(signal.SIGTERM)
        drained = proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    return {
        "benchmark": "serve",
        "n_rows": n_rows,
        "n_constraints": len(specs),
        "seed_seconds": seed_seconds,
        "expected_read_speedup": EXPECTED_READ_SPEEDUP,
        "read_modes": read_modes,
        "backlog_independence": backlog,
        "mixed_workload": mixed,
        "server_store_stats": stats["stores"]["bench"],
        "graceful_drain_exit_zero": drained,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=BENCH_ROWS)
    parser.add_argument("--read-reps", type=int, default=READ_REPS)
    parser.add_argument("--mixed-ops", type=int, default=MIXED_OPS)
    parser.add_argument("--clients", type=int, default=CLIENTS)
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run for CI (300 rows, few reps)")
    parser.add_argument("--json", type=str, default=None,
                        help="also write results to this JSON file")
    parser.add_argument("--require-speedup", action="store_true",
                        help=f"fail unless counter reads beat finalize reads "
                             f"by >= {EXPECTED_READ_SPEEDUP}x")
    args = parser.parse_args()
    if args.smoke:
        args.rows = min(args.rows, 300)
        args.read_reps = min(args.read_reps, 8)
        args.mixed_ops = min(args.mixed_ops, 80)

    payload = run_serve_benchmark(
        args.rows, args.read_reps, args.mixed_ops, args.clients
    )

    modes = payload["read_modes"]
    mixed = payload["mixed_workload"]
    print(f"Serving {payload['n_constraints']} DCs over {args.rows} rows "
          f"(seeded in {payload['seed_seconds']:.2f}s):")
    print(f"  read after append   p50 {modes['finalize_p50_ms']:8.3f} ms finalize-on-read")
    print(f"                      p50 {modes['counters_p50_ms']:8.3f} ms push counters "
          f"({modes['speedup_p50']:.1f}x)")
    print(f"  counter reads with {payload['backlog_independence']['backlog_rows']} "
          f"unfinalized appends pending: "
          f"{payload['backlog_independence']['ratio']:.2f}x the clean latency")
    print(f"  mixed workload: {mixed['requests']} requests, "
          f"{mixed['clients']} clients, {mixed['qps']:.0f} QPS")
    for op, entry in mixed["ops"].items():
        print(f"    {op:>12}: p50 {entry['p50_ms']:7.3f} ms   "
              f"p99 {entry['p99_ms']:7.3f} ms")
    print(f"  graceful drain exit 0: {payload['graceful_drain_exit_zero']}")

    speedup = float(modes["speedup_p50"])
    if speedup < EXPECTED_READ_SPEEDUP:
        message = (
            f"push-based counter reads reached only {speedup:.1f}x over "
            f"finalize-on-read (expected >= {EXPECTED_READ_SPEEDUP}x)"
        )
        if args.require_speedup:
            print(f"ERROR: {message}", file=sys.stderr)
            return 1
        print(f"WARNING: {message}", file=sys.stderr)

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
