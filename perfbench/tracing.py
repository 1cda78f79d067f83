"""Span tracing from outside the program, for the benchmark's per-layer run.

The program is not edited: :func:`install` replaces the public functions at
each layer boundary with thin wrappers that record a span (name, start,
end, parent) per call, or only count calls where a span per call would
cost more than the work (the per-node native search steps).  Spans stay in
memory; :meth:`Tracer.ledger` turns them into a JSON-able list.

A span's parent is the innermost open span of the same thread, so the
self time of a layer is its span's duration minus its children's, and
whatever a root span's children do not cover is unattributed.

Times come from ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux), which
is shared by every process on the host, so server spans and client request
intervals can be compared directly.
"""

from __future__ import annotations

import collections
import functools
import inspect
import threading
import time
from dataclasses import dataclass
from typing import Callable

#: Field positions of one recorded span.
NAME, START, END, PARENT, THREAD, INFO = range(6)


class Tracer:
    """Records spans and call counts for wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: collections.Counter[str] = collections.Counter()
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, owner: object, attr: str, name: str,
             info: Callable[[tuple, dict, object], dict] | None = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``info(args, kwargs, result)`` may attach counts to the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      threading.get_ident(), None]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(record)
            stack.append(index)
            record[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            if info is not None:
                record[INFO] = info(args, kwargs, result)
            return result

        self._patch(owner, attr, original, wrapper)

    def count(self, owner: object, attr: str, name: str) -> None:
        """Only count calls of ``owner.attr`` (no span, no clock read)."""
        original = getattr(owner, attr)
        counts = self.counts
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        # Restore what the owner itself held (a classmethod object, not the
        # bound method ``getattr`` returned).
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def ledger(self) -> dict:
        """Spans and counts so far, as plain JSON-able data."""
        with self._lock:
            spans = [list(record) for record in self.spans]
        return {"spans": spans, "counts": dict(self.counts)}


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from repro.core import adc_enum, approximation, miner
    from repro.data.relation import Relation
    from repro.durability import journal, wal
    from repro.engine.kernel import TileKernel
    from repro.engine.partial import PartialEvidenceSet
    from repro.incremental.delta import DeltaEvidenceBuilder
    from repro.incremental.serve import ViolationService
    from repro.incremental.store import EvidenceStore
    from repro.native import cext
    from repro.serve import counters, protocol

    # Mining pipeline (names as ADCMiner.mine looks them up).
    tracer.span(miner, "build_predicate_space", "space.build")
    tracer.span(miner, "draw_sample", "sampling.draw")
    tracer.span(miner, "build_evidence_set", "evidence.build")
    tracer.span(TileKernel, "run", "engine.tile_pass",
                info=lambda args, kwargs, result: {"pairs": args[1].n_pairs})
    tracer.span(PartialEvidenceSet, "add_tile", "engine.merge")
    tracer.span(PartialEvidenceSet, "finalize", "engine.finalize")
    tracer.span(adc_enum.ADCEnum, "enumerate", "enum.search")
    for function_class in (approximation.F1, approximation.F2,
                           approximation.F3Greedy, approximation.F1Adjusted):
        tracer.span(function_class, "violation_score", "approx.eval")
    tracer.count(cext.CKernels, "tile_plane", "native.tile_calls")
    for step in ("init_root", "expand", "try_hit", "skip_child",
                 "hit_prepare", "crit_pop"):
        tracer.count(cext.CextSearchWorkspace, step, "native.search_calls")

    # Incremental store: append and admission.
    tracer.span(EvidenceStore, "append", "store.append")
    tracer.span(Relation, "copy", "relation.copy")
    tracer.span(Relation, "append_rows", "relation.append_rows")
    tracer.span(DeltaEvidenceBuilder, "delta_partial", "store.fold",
                info=lambda args, kwargs, result: {"pairs": result.recorded_pairs})
    tracer.span(DeltaEvidenceBuilder, "kernel", "store.kernel_prep")
    tracer.span(PartialEvidenceSet, "rebase_rows", "store.rebase")
    tracer.span(PartialEvidenceSet, "merge", "store.merge")
    tracer.span(counters.ViolationCounters, "_on_append", "store.listener")
    tracer.span(ViolationService, "check_batch", "store.check_batch")
    tracer.span(EvidenceStore, "probe_relation", "store.probe")

    # Durability.
    tracer.span(journal.StoreJournal, "log_append", "wal.append")
    tracer.span(wal.WriteAheadLog, "append", "wal.record",
                info=lambda args, kwargs, result: {"bytes": len(args[1]) + 8})

    def snapshot_bytes(args, kwargs, result):
        return {"bytes": journal.snapshot_path(args[0].directory, result).stat().st_size}

    tracer.span(journal.StoreJournal, "snapshot", "snapshot.write", info=snapshot_bytes)
    tracer.span(journal.StoreJournal, "recover", "recovery",
                info=lambda args, kwargs, result: {
                    "replayed": result.stats.replayed_records})

    # Serving wire codec.
    tracer.span(protocol, "encode_frame", "protocol.encode")
    tracer.span(protocol, "decode_payload", "protocol.decode")
    tracer.enabled = True
    return tracer


# ----------------------------------------------------------------------
# Reading a ledger
# ----------------------------------------------------------------------
@dataclass
class Ledger:
    """Recorded spans with parent/child structure resolved."""

    spans: list[list]
    counts: dict[str, int]

    def __post_init__(self) -> None:
        self.children: list[list[int]] = [[] for _ in self.spans]
        for index, record in enumerate(self.spans):
            if record[PARENT] >= 0:
                self.children[record[PARENT]].append(index)

    def duration(self, index: int) -> float:
        record = self.spans[index]
        return record[END] - record[START]

    def self_time(self, index: int, transparent: frozenset[str] = frozenset()) -> float:
        """Duration minus the children's, except children named in ``transparent``."""
        return self.duration(index) - sum(
            self.duration(c) for c in self.children[index]
            if self.spans[c][NAME] not in transparent
        )

    def named(self, name: str, lo: float = float("-inf"), hi: float = float("inf"),
              roots_only: bool = False) -> list[int]:
        """Indices of spans called ``name`` that started within [lo, hi]."""
        return [
            index for index, record in enumerate(self.spans)
            if record[NAME] == name and lo <= record[START] <= hi
            and (not roots_only or record[PARENT] < 0)
        ]

    def descendants(self, index: int) -> list[int]:
        found, pending = [], list(self.children[index])
        while pending:
            child = pending.pop()
            found.append(child)
            pending.extend(self.children[child])
        return found

    def child_time(self, index: int, name: str, inclusive: bool = True) -> float:
        """Total time of ``name`` spans among ``index``'s direct children."""
        timer = self.duration if inclusive else self.self_time
        return sum(timer(c) for c in self.children[index] if self.spans[c][NAME] == name)
