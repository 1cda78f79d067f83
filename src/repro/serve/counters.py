"""Push-based per-DC violation counters.

:class:`ViolationCounters` keeps one violating-pair count per served DC and
maintains it *forward* from each appended batch's delta
:class:`~repro.engine.partial.PartialEvidenceSet` — the incremental-
maintenance move: instead of finalizing the store's evidence on every read
(a full lexsort over all distinct evidences, invalidated by every append),
the counters pay one pass over the delta's distinct words at append time
and make every read O(#DCs).

Correctness rests on two facts:

* a DC's violating-pair count is ``sum of multiplicities over evidence
  words its hitting set misses`` — a sum, so it distributes over any
  partition of the pairs into partials, and duplicate word rows group
  without changing it (:meth:`PartialEvidenceSet.word_histogram` documents
  this contract);
* the delta partial the store hands its append listeners is exactly what
  was merged into the stored partial, so ``seed count + sum of delta
  contributions`` equals the count a fresh finalize would report — *bit-
  identical*, not approximately (property-tested over random interleavings
  in ``tests/test_serve.py``).

Readers are lock-free: every update builds a new ``(counts, n_rows)``
state tuple and swaps the reference atomically, so a reader on another
thread sees either the pre-append or the post-append state, never a
half-updated mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.evidence import violating

if TYPE_CHECKING:
    from repro.engine.partial import PartialEvidenceSet
    from repro.incremental.store import EvidenceStore


@dataclass(frozen=True)
class CounterSnapshot:
    """One consistent read of the counters: counts + the rows they cover."""

    counts: tuple[int, ...]
    n_rows: int

    @property
    def total_pairs(self) -> int:
        """Ordered distinct pairs of the covered relation."""
        return self.n_rows * (self.n_rows - 1)

    def rate(self, index: int) -> float:
        """Violation rate of one DC (``count / total_pairs``)."""
        total = self.total_pairs
        return self.counts[index] / total if total else 0.0


class ViolationCounters:
    """Per-DC violation counts maintained from delta partials alone.

    Parameters
    ----------
    hitting_words:
        Per-DC hitting-set word vectors, in constraint order (what
        :attr:`~repro.incremental.serve.ViolationService.hitting_words`
        exposes) — the counters count against identical bit patterns.
    store:
        The evidence store to seed from and follow.  The seed pass runs
        over the store's *unfinalized* partial, and an append listener is
        registered so every committed batch's delta flows in
        automatically; no call on this object ever finalizes evidence.
    """

    def __init__(
        self, hitting_words: Sequence[np.ndarray], store: "EvidenceStore"
    ) -> None:
        self._hitting_words = [np.asarray(words, dtype=np.uint64) for words in hitting_words]
        self._store = store
        self._state: tuple[np.ndarray, int] = (self._count(store.partial), store.n_rows)
        self.applied_deltas = 0
        store.add_append_listener(self._on_append)

    def __len__(self) -> int:
        return len(self._hitting_words)

    def detach(self) -> None:
        """Stop following the store (when a new constraint set supersedes us)."""
        self._store.remove_append_listener(self._on_append)

    def _on_append(
        self, delta: "PartialEvidenceSet", n_before: int, n_after: int
    ) -> None:
        """Fold one committed batch's delta contribution into the counts.

        Runs synchronously inside :meth:`EvidenceStore.append` (possibly on
        an executor thread); the new state is built on the side and the
        reference swapped last, keeping concurrent readers consistent.
        """
        counts, _ = self._state
        self._state = (counts + self._count(delta), n_after)
        self.applied_deltas += 1

    def _count(self, partial: "PartialEvidenceSet") -> np.ndarray:
        """Per-DC violating-pair counts contributed by one partial."""
        words, totals = partial.word_histogram()
        return violating(words, self._hitting_words) @ totals

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def snapshot(self) -> CounterSnapshot:
        """A consistent (counts, n_rows) view — the read path of the server."""
        counts, n_rows = self._state
        return CounterSnapshot(tuple(int(count) for count in counts), n_rows)

    def counts(self) -> np.ndarray:
        """Current per-DC counts (a copy, safe to hand out)."""
        return self._state[0].copy()

    @property
    def n_rows(self) -> int:
        """Rows covered by the current counts."""
        return self._state[1]
