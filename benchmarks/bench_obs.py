"""Observability overhead — instrumented vs disabled serving hot paths.

Not a paper figure: this benchmark enforces the obs layer's overhead
budget.  It boots two server subprocesses side by side — one with
``REPRO_OBS=1`` and traced appends (metrics registry live, every request
carrying a ``trace`` field), one with ``REPRO_OBS=0`` and no tracing
(every mutator early-returns) — and drives identical single-row append
and push-counter read workloads against both, *interleaved* request by
request so background load and clock drift hit both configurations
equally, after untimed warm-up reps.  The compared statistic is p50
latency.  The budget, enforced with ``--require-overhead``:

* append p50 (enabled, traced) <= ``MAX_APPEND_OVERHEAD`` x disabled
* counter-read p50 (enabled)   <= ``MAX_READ_OVERHEAD`` x disabled

The enabled run also scrapes the ``--metrics-port`` Prometheus endpoint
once and records the exposition size, so the report shows what a scrape
actually returns under load.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_obs.py \
        [--json BENCH_obs.json] [--rows 2000] [--require-overhead] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.predicate_space import build_predicate_space
from repro.data.datasets import generate_dataset
from repro.serve import ServeClient

from _harness import boot_server, mine_constraint_specs, percentile

#: Rows of the served base relation (the n=2000 point the gate is set at).
BENCH_ROWS = 2000

#: Single-row appends measured per configuration.
APPEND_REPS = 200

#: Push-counter reads measured per configuration.
READ_REPS = 300

#: Enabled/disabled p50 ratio bounds enforced by ``--require-overhead``.
MAX_APPEND_OVERHEAD = 1.10
MAX_READ_OVERHEAD = 1.05

#: Untimed requests per configuration before the measured loops.
WARMUP_REPS = 15

def run_obs_benchmark(
    n_rows: int, append_reps: int, read_reps: int
) -> dict[str, object]:
    """Both configurations over interleaved workloads; returns the payload.

    Both servers are alive for the whole measurement and each timed loop
    alternates which configuration goes first, so any transient system
    load lands on both sides of the ratio.
    """
    extra = WARMUP_REPS + append_reps + 128
    pool = generate_dataset("tax", n_rows=n_rows + extra, seed=7).relation
    base = pool.take(range(n_rows))
    space = build_predicate_space(base)
    specs = mine_constraint_specs(base, space, max_dc_size=3)
    seed_rows = [base.row(i) for i in range(base.n_rows)]

    configs = [
        {"obs_enabled": False, "append_lat": [], "read_lat": []},
        {"obs_enabled": True, "append_lat": [], "read_lat": []},
    ]
    procs = []
    try:
        for config in configs:
            obs_enabled = config["obs_enabled"]
            proc, host, port, metrics_address = boot_server(
                {"REPRO_OBS": "1" if obs_enabled else "0"},
                metrics_port=0 if obs_enabled else None,
            )
            procs.append(proc)
            client = ServeClient(host, port, timeout=300.0)
            client.create_store("bench", seed_rows)
            client.declare("bench", specs, epsilon=0.1)
            config["client"] = client
            config["metrics_address"] = metrics_address

        cursor = base.n_rows
        for rep in range(-WARMUP_REPS, append_reps):
            row = pool.row(cursor)
            cursor += 1
            # Alternate which configuration goes first within the pair.
            ordered = configs if rep % 2 == 0 else configs[::-1]
            for config in ordered:
                started = time.perf_counter()
                config["client"].append(
                    "bench", [row], trace=config["obs_enabled"]
                )
                if rep >= 0:
                    config["append_lat"].append(
                        time.perf_counter() - started
                    )

        for rep in range(-WARMUP_REPS, read_reps):
            ordered = configs if rep % 2 == 0 else configs[::-1]
            for config in ordered:
                started = time.perf_counter()
                config["client"].violations("bench", 0, mode="counters")
                if rep >= 0:
                    config["read_lat"].append(time.perf_counter() - started)

        exposition_bytes = None
        for config in configs:
            if config["metrics_address"] is not None:
                address = config["metrics_address"]
                url = f"http://{address[0]}:{address[1]}/metrics"
                with urllib.request.urlopen(url, timeout=30.0) as response:
                    exposition_bytes = len(response.read())

        for config in configs:
            config["client"].close()
        for proc in procs:
            proc.send_signal(signal.SIGTERM)
        for proc in procs:
            proc.wait(timeout=60)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    results = {}
    for config in configs:
        key = "enabled" if config["obs_enabled"] else "disabled"
        results[key] = {
            "obs_enabled": config["obs_enabled"],
            "traced_appends": config["obs_enabled"],
            "append_p50_ms": percentile(config["append_lat"], 50) * 1e3,
            "append_p99_ms": percentile(config["append_lat"], 99) * 1e3,
            "counter_read_p50_ms": percentile(config["read_lat"], 50) * 1e3,
            "counter_read_p99_ms": percentile(config["read_lat"], 99) * 1e3,
        }
    if exposition_bytes is not None:
        results["enabled"]["prometheus_exposition_bytes"] = exposition_bytes
    disabled, enabled = results["disabled"], results["enabled"]
    return {
        "benchmark": "obs",
        "n_rows": n_rows,
        "append_reps": append_reps,
        "read_reps": read_reps,
        "n_constraints": len(specs),
        "warmup_reps": WARMUP_REPS,
        "max_append_overhead": MAX_APPEND_OVERHEAD,
        "max_read_overhead": MAX_READ_OVERHEAD,
        "disabled": disabled,
        "enabled": enabled,
        "append_overhead": (
            enabled["append_p50_ms"] / disabled["append_p50_ms"]
        ),
        "counter_read_overhead": (
            enabled["counter_read_p50_ms"] / disabled["counter_read_p50_ms"]
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=BENCH_ROWS)
    parser.add_argument("--append-reps", type=int, default=APPEND_REPS)
    parser.add_argument("--read-reps", type=int, default=READ_REPS)
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run for CI (300 rows, few reps)")
    parser.add_argument("--json", type=str, default=None,
                        help="also write results to this JSON file")
    parser.add_argument("--require-overhead", action="store_true",
                        help=f"fail unless enabled/disabled p50 ratios stay "
                             f"under {MAX_APPEND_OVERHEAD}x (append) and "
                             f"{MAX_READ_OVERHEAD}x (counter read)")
    args = parser.parse_args()
    if args.smoke:
        args.rows = min(args.rows, 300)
        args.append_reps = min(args.append_reps, 40)
        args.read_reps = min(args.read_reps, 60)

    payload = run_obs_benchmark(args.rows, args.append_reps, args.read_reps)

    enabled, disabled = payload["enabled"], payload["disabled"]
    print(f"Observability overhead at {payload['n_rows']} rows "
          f"({payload['append_reps']} appends, {payload['read_reps']} reads):")
    print(f"  append        p50 {disabled['append_p50_ms']:8.3f} ms REPRO_OBS=0")
    print(f"                p50 {enabled['append_p50_ms']:8.3f} ms REPRO_OBS=1 "
          f"+ trace ({payload['append_overhead']:.3f}x)")
    print(f"  counter read  p50 {disabled['counter_read_p50_ms']:8.3f} ms REPRO_OBS=0")
    print(f"                p50 {enabled['counter_read_p50_ms']:8.3f} ms REPRO_OBS=1 "
          f"({payload['counter_read_overhead']:.3f}x)")
    if "prometheus_exposition_bytes" in enabled:
        print(f"  prometheus exposition under load: "
              f"{enabled['prometheus_exposition_bytes']} bytes")

    failures = []
    if payload["append_overhead"] > MAX_APPEND_OVERHEAD:
        failures.append(
            f"append overhead {payload['append_overhead']:.3f}x exceeds "
            f"{MAX_APPEND_OVERHEAD}x"
        )
    if payload["counter_read_overhead"] > MAX_READ_OVERHEAD:
        failures.append(
            f"counter-read overhead {payload['counter_read_overhead']:.3f}x "
            f"exceeds {MAX_READ_OVERHEAD}x"
        )
    for message in failures:
        stream = sys.stderr if args.require_overhead else sys.stdout
        prefix = "ERROR" if args.require_overhead else "WARNING"
        print(f"{prefix}: {message}", file=stream)

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return 1 if (failures and args.require_overhead) else 0


if __name__ == "__main__":
    sys.exit(main())
