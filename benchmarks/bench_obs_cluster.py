"""Distributed tracing overhead — traced vs untraced cluster folds.

Not a paper figure: this benchmark enforces the cross-wire half of the
observability overhead budget.  It stands up one 2-worker *socket*
cluster (real ``python -m repro.cluster.worker`` subprocesses over
localhost TCP) and folds the same sharded evidence workload repeatedly,
alternating fold by fold between

* **untraced** — no ambient span: 3-tuple task frames, no ``task_span``
  frames, exactly the pre-tracing wire protocol, and
* **traced** — a :class:`~repro.obs.spans.Span` ambient around the
  submit: every task frame carries the trace context, every worker ships
  back a ``task_span`` child, and the coordinator stitches the tree.

Interleaving makes background load and clock drift hit both sides of the
ratio equally; untimed warm-up folds absorb context broadcast and
allocator effects.  The compared statistic is p50 fold latency, and the
budget enforced by ``--require-overhead`` is

* traced fold p50 <= ``MAX_TRACE_OVERHEAD`` x untraced fold p50.

The traced side also records per-fold stitching completeness (children
per submitted task) so a silent trace-drop regression shows up in the
JSON artifact even while the latency gate passes.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_obs_cluster.py \
        [--json BENCH_obs_cluster.json] [--rows 2000] [--require-overhead] \
        [--smoke]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cluster import (
    LocalCluster,
    TileFoldContext,
    merge_partials_tree,
    shard_tasks,
)
from repro.core.predicate_space import build_predicate_space
from repro.data.datasets import generate_dataset
from repro.engine.kernel import TileKernel
from repro.engine.scheduler import TileScheduler
from repro.obs import Span
from repro.obs import spans as obs_spans

from _harness import percentile

#: Rows of the benchmark relation (the n=2000 point the gate is set at).
BENCH_ROWS = 2000

#: Measured folds per configuration.
FOLD_REPS = 15

#: Untimed folds per configuration before the measured loop.
WARMUP_REPS = 2

#: Traced/untraced fold p50 ratio bound enforced by ``--require-overhead``.
MAX_TRACE_OVERHEAD = 1.15

#: Socket workers in the benchmark cluster.
N_WORKERS = 2

#: Rows per scheduler tile block (sized so a 2000-row relation shards
#: into enough tasks to keep both workers busy).
TILE_ROWS = 200

#: Shard tasks requested per fold.
N_TASKS = 8


def run_cluster_trace_benchmark(n_rows: int, reps: int) -> dict[str, object]:
    """Interleaved traced/untraced folds on one cluster; returns the payload."""
    relation = generate_dataset("tax", n_rows=n_rows, seed=7).relation
    space = build_predicate_space(relation)
    kernel = TileKernel.from_relation(relation, space, include_participation=False)
    tiles = TileScheduler(relation.n_rows, tile_rows=TILE_ROWS).tiles()
    tasks, weights = shard_tasks(tiles, N_TASKS)
    context = TileFoldContext(kernel, tiles)

    latencies: dict[str, list[float]] = {"untraced": [], "traced": []}
    children_per_fold: list[int] = []
    with LocalCluster(N_WORKERS, transport="socket") as cluster:
        reference = None
        for rep in range(-WARMUP_REPS, reps):
            # Alternate which configuration goes first within the pair.
            order = ("untraced", "traced") if rep % 2 == 0 else ("traced", "untraced")
            for mode in order:
                span = Span("bench_fold", op="fold") if mode == "traced" else None
                started = time.perf_counter()
                with obs_spans.use(span):
                    results = cluster.submit(context, tasks, weights)
                elapsed = time.perf_counter() - started
                if rep >= 0:
                    latencies[mode].append(elapsed)
                    if span is not None:
                        children_per_fold.append(len(span.children))
                evidence = merge_partials_tree(results).finalize(space)
                if reference is None:
                    reference = evidence
        snapshots = cluster.coordinator.pull_metrics()

    untraced_p50 = percentile(latencies["untraced"], 50)
    traced_p50 = percentile(latencies["traced"], 50)
    return {
        "benchmark": "obs_cluster",
        "n_rows": n_rows,
        "n_workers": N_WORKERS,
        "n_tasks": len(tasks),
        "n_tiles": len(tiles),
        "fold_reps": reps,
        "warmup_reps": WARMUP_REPS,
        "max_trace_overhead": MAX_TRACE_OVERHEAD,
        "untraced": {
            "fold_p50_ms": untraced_p50 * 1e3,
            "fold_p99_ms": percentile(latencies["untraced"], 99) * 1e3,
        },
        "traced": {
            "fold_p50_ms": traced_p50 * 1e3,
            "fold_p99_ms": percentile(latencies["traced"], 99) * 1e3,
            "min_children_per_fold": min(children_per_fold),
            "max_children_per_fold": max(children_per_fold),
        },
        "trace_overhead": traced_p50 / untraced_p50,
        "federated_workers": len(snapshots),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=BENCH_ROWS)
    parser.add_argument("--reps", type=int, default=FOLD_REPS)
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run for CI (600 rows, few reps)")
    parser.add_argument("--json", type=str, default=None,
                        help="also write results to this JSON file")
    parser.add_argument("--require-overhead", action="store_true",
                        help=f"fail unless the traced/untraced fold p50 "
                             f"ratio stays under {MAX_TRACE_OVERHEAD}x")
    args = parser.parse_args()
    if args.smoke:
        args.rows = min(args.rows, 600)
        args.reps = min(args.reps, 6)

    payload = run_cluster_trace_benchmark(args.rows, args.reps)

    traced, untraced = payload["traced"], payload["untraced"]
    print(f"Distributed tracing overhead at {payload['n_rows']} rows "
          f"({payload['n_workers']} socket workers, {payload['n_tasks']} "
          f"tasks/fold, {payload['fold_reps']} folds/config):")
    print(f"  fold p50 {untraced['fold_p50_ms']:8.3f} ms untraced")
    print(f"  fold p50 {traced['fold_p50_ms']:8.3f} ms traced "
          f"({payload['trace_overhead']:.3f}x)")
    print(f"  stitched children/fold: {traced['min_children_per_fold']}"
          f"..{traced['max_children_per_fold']} "
          f"(tasks/fold: {payload['n_tasks']})")
    print(f"  federated worker snapshots: {payload['federated_workers']}")

    failures = []
    if payload["trace_overhead"] > MAX_TRACE_OVERHEAD:
        failures.append(
            f"trace overhead {payload['trace_overhead']:.3f}x exceeds "
            f"{MAX_TRACE_OVERHEAD}x"
        )
    if traced["min_children_per_fold"] < 1:
        failures.append("a traced fold stitched zero worker child spans")
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
