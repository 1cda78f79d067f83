"""Evidence-set construction over packed 64-bit predicate words.

:func:`build_evidence_set` is the production builder.  It runs the
incremental subsystem's :class:`~repro.incremental.delta.DeltaEvidenceBuilder`
over the full pair matrix — the same tile-edge policy, scheduler, kernel
and fold every appended batch of an
:class:`~repro.incremental.store.EvidenceStore` goes through — and
finalizes the result.  The picklable
:class:`~repro.engine.kernel.TileKernel` folds the
:class:`~repro.engine.scheduler.TileScheduler`'s row tiles serially
in-process by default, over a process pool with ``n_workers > 1``, or over
a worker cluster with ``cluster=``.  Peak memory is
``O(n_words * tile_rows^2)``; the tile edge is chosen adaptively from a
memory budget when not given
(:func:`repro.engine.scheduler.choose_tile_rows`).

Two plain functions remain beside it:

* :func:`build_evidence_set_dense` — the original dense builder
  materialising full ``n x n`` word planes, kept as the test oracle of the
  tile engine;
* :func:`build_evidence_set_pairwise` — the naive row-by-row builder of
  FASTDC/AFASTDC [11], the evidence-construction baseline timed in
  Figures 7 and 8 (and a second, trivially correct, oracle).

All builders emit evidences in the canonical lexicographic word order of
:func:`repro.core.evidence.lexsort_word_rows`, so their outputs are
bit-identical (words, multiplicities, participation), not merely equal as
multisets.
"""

from __future__ import annotations

import numpy as np

from repro.core.evidence import (
    EvidenceSet,
    evidence_from_pair_masks,
    n_words_for,
    unique_word_rows,
)
from repro.core.predicate_space import PredicateSpace
from repro.data.relation import Relation
from repro.engine.kernel import prepare_groups
from repro.engine.partial import split_participation
from repro.engine.scheduler import DEFAULT_MEMORY_BUDGET_BYTES


def build_evidence_set(
    relation: Relation,
    space: PredicateSpace,
    include_participation: bool = True,
    *,
    tile_rows: int | None = None,
    n_workers: int = 1,
    cluster: object | None = None,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
) -> EvidenceSet:
    """Build ``Evi(D)`` with the tile engine.

    Parameters
    ----------
    relation:
        The database ``D`` (or a sample of it).
    space:
        Predicate space produced by
        :func:`repro.core.predicate_space.build_predicate_space`.
    include_participation:
        Whether to also build the per-evidence tuple-participation structure
        (needed by the f2/f3 approximation functions).
    tile_rows:
        Tile edge length; ``None`` (default) selects it adaptively from the
        memory budget, the word width and the number of concurrent kernels.
    n_workers:
        Process-pool width; ``1`` (default) folds serially in-process.
        Ignored when ``cluster`` is given.
    cluster:
        A :class:`~repro.cluster.coordinator.ClusterCoordinator` or
        :class:`~repro.cluster.local.LocalCluster` whose workers fold the
        tiles instead of a process pool.
    memory_budget_bytes:
        Transient-memory budget shared by the concurrent kernels.

    Every choice of ``n_workers`` and ``cluster`` yields a bit-identical
    result: the partial merge is associative and commutative, and
    finalization orders evidences canonically.
    """
    # Imported here: repro.incremental's package init loads the store, which
    # imports the miner, which imports this module.
    from repro.incremental.delta import DeltaEvidenceBuilder

    builder = DeltaEvidenceBuilder(
        space,
        include_participation=include_participation,
        tile_rows=tile_rows,
        n_workers=n_workers,
        cluster=cluster,
        memory_budget_bytes=memory_budget_bytes,
    )
    return builder.full_partial(relation).finalize(space)


def build_evidence_set_dense(
    relation: Relation,
    space: PredicateSpace,
    include_participation: bool = True,
) -> EvidenceSet:
    """Build ``Evi(D)`` with full ``n x n`` word planes (the dense oracle).

    This is the original DCFinder-style strategy materialising one dense
    plane per 64-bit word.  It is kept as a correctness oracle for
    :func:`build_evidence_set` and for memory benchmarking; the tile engine
    computes exactly the same planes tile by tile.
    """
    n = relation.n_rows
    if n < 2:
        return EvidenceSet(space, [], [], n, [] if include_participation else None)

    n_words = n_words_for(len(space))
    groups = prepare_groups(relation, space)
    plane = np.zeros((n, n, n_words), dtype=np.uint64)
    for group in groups:
        categories = group.tile_categories(0, n, 0, n)
        plane |= group.lookup[categories]

    off_diagonal = ~np.eye(n, dtype=bool)
    flat_words = plane[off_diagonal]
    unique_words, inverse, counts = unique_word_rows(flat_words)

    participation = None
    if include_participation:
        row_index, col_index = np.nonzero(off_diagonal)
        participation = _build_participation(inverse, row_index, col_index, len(unique_words))
    return EvidenceSet(
        space, counts=counts, n_rows=n, participation=participation, words=unique_words
    )


def build_evidence_set_pairwise(
    relation: Relation,
    space: PredicateSpace,
    include_participation: bool = True,
) -> EvidenceSet:
    """Build ``Evi(D)`` by evaluating every predicate on every ordered pair.

    This is the quadratic, per-pair strategy of AFASTDC [11]; it is orders of
    magnitude slower than :func:`build_evidence_set` but trivially correct,
    so it doubles as the reference implementation in the test suite.
    """
    n = relation.n_rows
    rows = [relation.row(i) for i in range(n)]
    pair_masks: list[int] = []
    pair_tuples: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            mask = 0
            for index, predicate in enumerate(space.predicates):
                if predicate.evaluate(rows[i], rows[j]):
                    mask |= 1 << index
            pair_masks.append(mask)
            pair_tuples.append((i, j))
    return evidence_from_pair_masks(
        space,
        pair_masks,
        n,
        pair_tuples if include_participation else None,
    )


def _build_participation(
    inverse: np.ndarray,
    row_index: np.ndarray,
    col_index: np.ndarray,
    n_evidences: int,
):
    """Aggregate the ``vios`` structure from the per-pair evidence ids."""
    n_rows = int(max(row_index.max(), col_index.max())) + 1 if len(row_index) else 0
    evidence_ids = inverse.astype(np.int64)
    keys = np.concatenate([
        evidence_ids * n_rows + row_index.astype(np.int64),
        evidence_ids * n_rows + col_index.astype(np.int64),
    ])
    unique_keys, key_counts = np.unique(keys, return_counts=True)
    return split_participation(unique_keys, key_counts, n_rows, n_evidences)
