"""Cluster-backed tile folds.

The distributed twin of :func:`~repro.engine.parallel.fold_tiles_pooled`:
the same :class:`~repro.engine.kernel.TileKernel`, the same
pair-count-balanced shard schedule, but fanned over a
:class:`~repro.cluster.coordinator.ClusterCoordinator` instead of a process
pool, and reduced with a balanced binary *merge tree* rather than a left
fold.  :class:`~repro.incremental.delta.DeltaEvidenceBuilder` uses it when
given ``cluster=`` (so does ``build_evidence_set(..., cluster=...)``).
Because :meth:`PartialEvidenceSet.merge` is associative/commutative and
finalization orders evidences canonically, any transport, worker count,
failure schedule, or merge-tree shape finalizes bit-identically to the
serial in-process fold — the invariant the chaos tests and
``benchmarks/bench_cluster.py`` enforce.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.contexts import TileFoldContext, shard_tasks
from repro.cluster.local import resolve_coordinator
from repro.engine.kernel import TileKernel
from repro.engine.partial import PartialEvidenceSet

if TYPE_CHECKING:
    from repro.engine.scheduler import Tile

#: Shard tasks issued per worker; >1 smooths stragglers and re-balances
#: naturally after a worker death (same rationale as the process pool's
#: :data:`~repro.engine.parallel.SHARDS_PER_WORKER`).
TASKS_PER_WORKER = 2


def merge_partials_tree(partials: list[PartialEvidenceSet]) -> PartialEvidenceSet:
    """Reduce partials with a balanced binary merge tree.

    A tree keeps every intermediate merge between partials of comparable
    size — ``O(log k)`` levels instead of the left fold's ``k`` sequential
    absorptions into one ever-growing accumulator — and is the shape a
    multi-level (per-rack, per-datacenter) reduction would use.  Any tree
    finalizes identically (property-tested in
    ``tests/test_engine_properties.py``).
    """
    if not partials:
        raise ValueError("cannot merge zero partials")
    layer = list(partials)
    while len(layer) > 1:
        merged = [
            layer[index].merge(layer[index + 1])
            for index in range(0, len(layer) - 1, 2)
        ]
        if len(layer) % 2:
            merged.append(layer[-1])
        layer = merged
    return layer[0]


def fold_tiles_cluster(
    kernel: TileKernel,
    tiles: tuple["Tile", ...],
    cluster: object,
    tasks_per_worker: int = TASKS_PER_WORKER,
) -> PartialEvidenceSet:
    """Fold kernel results over ``tiles`` on a cluster; one merged partial.

    The distributed counterpart of
    :func:`~repro.engine.parallel.fold_tiles_pooled`: tiles are balanced
    into ``tasks_per_worker × n_workers`` shard ranges, the kernel ships
    once per worker inside the :class:`TileFoldContext`, and the returned
    partials are reduced with :func:`merge_partials_tree`.
    """
    coordinator = resolve_coordinator(cluster)
    tiles = tuple(tiles)
    if not tiles:
        return PartialEvidenceSet(
            kernel.n_rows, kernel.n_words, kernel.include_participation
        )
    n_workers = max(coordinator.n_alive, 1)
    tasks, weights = shard_tasks(tiles, max(1, tasks_per_worker * n_workers))
    context = TileFoldContext(kernel, tiles)
    partials = coordinator.submit(context, tasks, weights)
    return merge_partials_tree(partials)
