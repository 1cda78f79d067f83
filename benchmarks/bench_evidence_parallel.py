"""Evidence engine — serial tiled builder vs the process-pool engine.

Not a paper figure: this benchmark tracks the parallel evidence engine of
``repro.engine``.  It builds the evidence set of the 1k-row benchmark
relation with ``build_evidence_set`` folding serially in-process and
over a process pool of 1, 2 and 4 workers, reporting wall-clock
seconds, the building process's tracemalloc peak, and the pool workers'
peak RSS.  Each configuration is measured inside its own child process:
``getrusage(RUSAGE_CHILDREN)`` is a lifetime high-water mark over *all*
reaped children, so measuring in-process would leak the largest earlier
configuration's peak into every later row.  Results are also written as a
JSON artifact (``--json PATH``) so CI can archive the perf trajectory.

The speedup the pool can show is bounded by the machine: on a single-core
runner the parallel engine can only match the serial builder (its value
there is the bounded per-worker memory), so the speedup expectation is
asserted only when enough CPUs are available.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_evidence_parallel.py \
        [--json BENCH_evidence_parallel.json] [--rows 1000]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sys
import time
import tracemalloc

from repro.core.evidence_builder import build_evidence_set
from repro.core.predicate_space import build_predicate_space
from repro.data.datasets import generate_dataset

#: Rows of the benchmark relation (the "1k-row" reference point).
BENCH_ROWS = 1000

#: Worker counts swept by the benchmark.
WORKER_COUNTS = (1, 2, 4)

#: Speedup 4 workers must reach over the serial tiled builder when the
#: machine actually has 4 CPUs.
EXPECTED_SPEEDUP = 1.5


def _children_peak_rss_bytes() -> int:
    """Peak RSS of reaped child processes (bytes; ru_maxrss is kB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak * (1 if sys.platform == "darwin" else 1024)


def _measure_in_child(connection, builder, relation, space, kwargs) -> None:
    """Best-of-two wall clock plus memory peaks for one builder call.

    Runs inside a fresh child process so this configuration's pool workers
    are the only children ``RUSAGE_CHILDREN`` has ever seen here.
    """
    best: dict[str, object] | None = None
    for _ in range(2):
        tracemalloc.start()
        started = time.perf_counter()
        evidence = builder(relation, space, include_participation=False, **kwargs)
        elapsed = time.perf_counter() - started
        _, main_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        if best is None or elapsed < float(best["seconds"]):  # type: ignore[arg-type]
            best = {
                "seconds": elapsed,
                "main_peak_mb": main_peak / 1e6,
                "workers_peak_rss_mb": _children_peak_rss_bytes() / 1e6,
                "evidences": len(evidence),
            }
    connection.send(best)
    connection.close()


def _measure(builder, relation, space, **kwargs) -> dict[str, object]:
    """Measure one configuration in an isolated child process."""
    context = multiprocessing.get_context()
    parent_end, child_end = context.Pipe(duplex=False)
    process = context.Process(
        target=_measure_in_child, args=(child_end, builder, relation, space, kwargs)
    )
    process.start()
    child_end.close()
    result = parent_end.recv()
    process.join()
    return result


def run_parallel_engine_comparison(n_rows: int = BENCH_ROWS) -> list[dict[str, object]]:
    """Serial tiled vs parallel at 1/2/4 workers; one row per configuration."""
    relation = generate_dataset("tax", n_rows=n_rows, seed=7).relation
    space = build_predicate_space(relation)
    # Warm the relation's string-factorization cache so no builder pays for
    # it inside the timed region.
    for column in relation.column_names:
        if not relation.column(column).type.is_numeric:
            relation.string_codes(column, column)

    rows: list[dict[str, object]] = []
    measured = _measure(build_evidence_set, relation, space)
    measured.update({"builder": "tiled", "n_workers": "-"})
    rows.append(measured)
    baseline = float(measured["seconds"])

    for n_workers in WORKER_COUNTS:
        measured = _measure(
            build_evidence_set, relation, space, n_workers=n_workers
        )
        measured.update({
            "builder": "parallel",
            "n_workers": n_workers,
            "speedup_vs_tiled": baseline / float(measured["seconds"]),
        })
        rows.append(measured)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=BENCH_ROWS)
    parser.add_argument("--json", type=str, default=None,
                        help="also write results to this JSON file")
    parser.add_argument("--require-speedup", action="store_true",
                        help="fail unless 4 workers reach the expected speedup "
                             "(implied soft check runs when >= 4 CPUs are present)")
    args = parser.parse_args()

    cpu_count = os.cpu_count() or 1
    rows = run_parallel_engine_comparison(args.rows)

    header = (
        f"{'builder':<9} {'workers':>7} {'seconds':>9} {'speedup':>8} "
        f"{'main MB':>9} {'workers MB':>11} {'evidences':>10}"
    )
    print(f"Evidence engine on {args.rows} rows ({cpu_count} CPUs):")
    print(header)
    print("-" * len(header))
    for row in rows:
        speedup = row.get("speedup_vs_tiled")
        speedup_text = f"{speedup:.2f}x" if speedup is not None else "-"
        print(
            f"{row['builder']:<9} {str(row['n_workers']):>7} "
            f"{row['seconds']:>9.3f} {speedup_text:>8} "
            f"{row['main_peak_mb']:>9.1f} {row['workers_peak_rss_mb']:>11.1f} "
            f"{row['evidences']:>10}"
        )

    # All configurations must agree on the evidence multiset size.
    sizes = {row["evidences"] for row in rows}
    if len(sizes) != 1:
        print(f"ERROR: builders disagree on evidence count: {sizes}", file=sys.stderr)
        return 1

    best_speedup = max(
        float(row.get("speedup_vs_tiled", 0.0)) for row in rows
    )
    if cpu_count >= 4 and best_speedup < EXPECTED_SPEEDUP:
        message = (
            f"parallel engine reached only {best_speedup:.2f}x on {cpu_count} CPUs "
            f"(expected >= {EXPECTED_SPEEDUP}x)"
        )
        if args.require_speedup:
            print(f"ERROR: {message}", file=sys.stderr)
            return 1
        print(f"WARNING: {message}", file=sys.stderr)
    elif cpu_count < 4:
        print(
            f"note: {cpu_count} CPU(s) available; the {EXPECTED_SPEEDUP}x target "
            "applies on >= 4 CPUs"
        )

    if args.json:
        payload = {
            "benchmark": "evidence_parallel",
            "n_rows": args.rows,
            "cpu_count": cpu_count,
            "expected_speedup_at_4_workers": EXPECTED_SPEEDUP,
            "rows": rows,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
