"""Evidence construction — dense word planes vs the tiled builder.

Not a paper figure: this benchmark guards the packed-word evidence pipeline.
It builds the evidence set of a 1k-row benchmark relation with the dense
(full ``n x n`` plane) oracle and with the tiled builder across tile sizes,
reporting wall-clock seconds and tracemalloc peak memory.  The tiled builder
must match the dense builder's speed while never allocating an ``n x n``
word plane.

Run under pytest (``pytest benchmarks/bench_evidence_tiled.py``) or
standalone (``PYTHONPATH=src python benchmarks/bench_evidence_tiled.py``).
"""

from __future__ import annotations

import time
import tracemalloc

from repro.core.evidence_builder import (
    build_evidence_set,
    build_evidence_set_dense,
)
from repro.core.predicate_space import build_predicate_space
from repro.data.datasets import generate_dataset

#: Rows of the benchmark relation (the "1k-row" reference point).
BENCH_ROWS = 1000

#: Tile edge lengths swept by the benchmark.
TILE_SIZES = (128, 256, 512)


def _measure(builder, relation, space, **kwargs) -> tuple[float, int, int]:
    """Run one builder under tracemalloc; returns (seconds, peak_bytes, n)."""
    tracemalloc.start()
    started = time.perf_counter()
    evidence = builder(relation, space, include_participation=False, **kwargs)
    elapsed = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return elapsed, peak, len(evidence)


def run_evidence_builder_comparison(n_rows: int = BENCH_ROWS) -> list[dict[str, object]]:
    """Dense vs tiled builder on the benchmark relation; one row per builder."""
    relation = generate_dataset("tax", n_rows=n_rows, seed=7).relation
    space = build_predicate_space(relation)
    # Warm the relation's string-factorization cache so neither builder pays
    # for it inside the timed region (both would otherwise pay it once).
    for column in relation.column_names:
        if not relation.column(column).type.is_numeric:
            relation.string_codes(column, column)

    rows: list[dict[str, object]] = []
    # Best of two runs per builder: single-shot wall-clock comparisons are
    # too noisy on shared machines for the speed assertion below.
    dense_runs = [_measure(build_evidence_set_dense, relation, space) for _ in range(2)]
    seconds, peak, n_evidences = min(dense_runs)
    rows.append({
        "builder": "dense",
        "tile_rows": "-",
        "seconds": seconds,
        "peak_mb": peak / 1e6,
        "evidences": n_evidences,
    })
    for tile_rows in TILE_SIZES:
        tiled_runs = [
            _measure(build_evidence_set, relation, space, tile_rows=tile_rows)
            for _ in range(2)
        ]
        seconds, peak, n_evidences = min(tiled_runs)
        rows.append({
            "builder": "tiled",
            "tile_rows": tile_rows,
            "seconds": seconds,
            "peak_mb": peak / 1e6,
            "evidences": n_evidences,
        })
    return rows


def test_tiled_matches_dense_speed_without_dense_planes(benchmark):
    rows = benchmark.pedantic(run_evidence_builder_comparison, iterations=1, rounds=1)
    from conftest import report

    report(
        f"Evidence construction on {BENCH_ROWS} rows: dense vs tiled "
        "(seconds / tracemalloc peak)",
        rows,
    )
    dense = rows[0]
    tiled = [row for row in rows if row["builder"] == "tiled"]
    relation = generate_dataset("tax", n_rows=BENCH_ROWS, seed=7).relation
    space = build_predicate_space(relation)
    n_words = max(1, (len(space) + 63) // 64)
    dense_plane_bytes = BENCH_ROWS * BENCH_ROWS * n_words * 8

    # All builders agree on the evidence multiset size.
    assert all(row["evidences"] == dense["evidences"] for row in tiled)
    # The tiled builder never materialises the dense n x n word plane: its
    # peak scales with tile_rows^2, so the smallest tile stays below even a
    # single full plane, and every tile stays far below the dense peak.
    assert min(row["peak_mb"] for row in tiled) * 1e6 < dense_plane_bytes
    assert all(row["peak_mb"] < dense["peak_mb"] / 2 for row in tiled)
    # And the best tile size is at least dense-builder speed (best-of-two
    # timings above plus slack absorb timer noise on shared CI machines).
    assert min(row["seconds"] for row in tiled) <= dense["seconds"] * 1.25


def main() -> None:
    rows = run_evidence_builder_comparison()
    header = f"{'builder':<8} {'tile':>6} {'seconds':>9} {'peak MB':>9} {'evidences':>10}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['builder']:<8} {str(row['tile_rows']):>6} "
            f"{row['seconds']:>9.3f} {row['peak_mb']:>9.1f} {row['evidences']:>10}"
        )


if __name__ == "__main__":
    main()
