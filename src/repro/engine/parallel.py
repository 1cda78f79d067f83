"""Serial and process-pool tile folds.

:func:`fold_tiles_pooled` folds a tile schedule into one
:class:`~repro.engine.partial.PartialEvidenceSet`, in-process or over a
:class:`concurrent.futures.ProcessPoolExecutor`: the picklable
:class:`~repro.engine.kernel.TileKernel` and tile list are shipped once per
worker through the pool initializer, tasks are plain ``(start, stop)``
shard ranges, and every worker returns one partial that the parent merges.
Because the merge is associative/commutative and finalization orders
evidences canonically, pooled and serial folds finalize bit-identically.

:class:`~repro.incremental.delta.DeltaEvidenceBuilder` drives it for full
builds (the ``n_workers`` knob of
:func:`repro.core.evidence_builder.build_evidence_set` and
:class:`repro.core.miner.ADCMiner`) and for every appended batch.
"""

from __future__ import annotations

import math
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING

from repro.engine.kernel import TileKernel
from repro.engine.partial import PartialEvidenceSet
from repro.engine.scheduler import choose_tile_rows, shard_tiles
from repro.obs import metrics as obs_metrics

if TYPE_CHECKING:
    from repro.engine.scheduler import Tile

#: Shards handed to the pool per worker; >1 smooths load imbalance from
#: tiles whose evidence distributions dedup at different speeds.
SHARDS_PER_WORKER = 2

# Worker-process state, installed once by the pool initializer so that the
# per-shard tasks only carry two integers.
_worker_kernel: TileKernel | None = None
_worker_tiles: tuple["Tile", ...] = ()


def _init_worker(kernel: TileKernel, tiles: tuple["Tile", ...]) -> None:
    global _worker_kernel, _worker_tiles
    _worker_kernel = kernel
    _worker_tiles = tiles


def fold_tiles(kernel: TileKernel, tiles: tuple["Tile", ...]) -> PartialEvidenceSet:
    """Fold kernel results over a tile sequence into one partial."""
    partial = PartialEvidenceSet(
        kernel.n_rows, kernel.n_words, kernel.include_participation
    )
    # Tile-throughput metrics: in pool/cluster workers these land in the
    # worker process's own registry; the serving layer's default
    # (store_workers=1, serial in-process folds) reports here directly.
    for tile in tiles:
        tile_start = time.perf_counter()
        tile_partial = kernel.run(tile)
        obs_metrics.EVIDENCE_TILE_SECONDS.observe(time.perf_counter() - tile_start)
        obs_metrics.EVIDENCE_TILES.inc()
        obs_metrics.EVIDENCE_PAIRS.inc(tile.n_pairs)
        if tile_partial is not None:
            partial.add_tile(tile_partial)
    return partial


def _run_shard(shard_range: tuple[int, int]) -> PartialEvidenceSet:
    """Run the worker's kernel over one ``tiles[start:stop]`` shard."""
    kernel = _worker_kernel
    if kernel is None:
        raise RuntimeError("worker process was not initialized with a kernel")
    start, stop = shard_range
    return fold_tiles(kernel, _worker_tiles[start:stop])


def fold_tiles_pooled(
    kernel: TileKernel,
    tiles: tuple["Tile", ...],
    n_workers: int,
) -> PartialEvidenceSet:
    """Fold kernel results over ``tiles``, pooling only when it pays.

    The tile list is balanced into pair-count shards
    (:func:`~repro.engine.scheduler.shard_tiles`) and fanned over a process
    pool.  When ``n_workers <= 1``, or the schedule yields fewer shards than
    workers (too little work to amortize fork/pickle spin-up), the call
    falls through to the in-process serial fold — so single-worker callers
    such as ``ADCMiner(n_workers=1)`` never pay executor overhead.

    :class:`~repro.incremental.delta.DeltaEvidenceBuilder` drives this entry
    point for full builds and deltas alike, so their serial and pooled
    results are bit-identical by the same merge-algebra argument.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be positive")
    tiles = tuple(tiles)
    if n_workers <= 1:
        return fold_tiles(kernel, tiles)
    shards = shard_tiles(tiles, SHARDS_PER_WORKER * n_workers)
    if len(shards) < n_workers:
        return fold_tiles(kernel, tiles)

    with ProcessPoolExecutor(
        max_workers=min(n_workers, len(shards)),
        mp_context=_pool_context(),
        initializer=_init_worker,
        initargs=(kernel, tiles),
    ) as pool:
        partials = list(
            pool.map(_run_shard, [(shard.start, shard.stop) for shard in shards])
        )

    merged = partials[0]
    for partial in partials[1:]:
        merged.merge(partial)
    return merged


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork on Linux (cheap initargs, inherited sys.path).

    macOS is left on its platform default (spawn): CPython switched it away
    from fork because forking a process with Objective-C frameworks loaded
    can abort or deadlock the children.
    """
    if sys.platform.startswith("linux"):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def parallel_tile_rows(
    n_rows: int, n_words: int, n_workers: int, memory_budget_bytes: int
) -> int:
    """Adaptive tile edge for a pool of ``n_workers`` kernels.

    The memory budget is split across the workers (each runs its own
    kernel concurrently), and the edge is additionally capped so the grid
    has at least ``SHARDS_PER_WORKER * n_workers`` tiles — otherwise a
    large budget would yield one giant tile and no parallelism.
    """
    per_worker_budget = max(1, memory_budget_bytes // n_workers)
    tile_rows = choose_tile_rows(n_rows, n_words, per_worker_budget)
    min_tiles = max(1, SHARDS_PER_WORKER * n_workers)
    grid = math.ceil(math.sqrt(min_tiles))
    target_edge = math.ceil(n_rows / grid)
    return max(1, min(tile_rows, target_edge))
