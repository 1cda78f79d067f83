"""Pre-refactor reference enumerator (frozen for cross-checks and benchmarks).

``LegacyADCEnum`` is a faithful snapshot of ADCEnum *before* it was rebuilt
on packed uint64 word planes and the native search workspace
(:mod:`repro.core.adc_enum`).  It is the one oracle of the enumeration core
and is kept for two purposes only:

* the cross-check tests assert that :class:`~repro.core.adc_enum.ADCEnum`
  emits a **bit-identical** output list (same masks, same order, same
  scores) with the same search-tree counters;
* ``benchmarks/bench_enum_core.py`` measures the word-native speedup against
  this exact pre-refactor baseline.

Do not use it in the pipeline; it deliberately retains the Python-int mask
churn (per-node ``mask_to_words`` splits, ``evidence.masks`` lookups,
``dict[int, set[int]]`` criticality bookkeeping with ``np.fromiter``
round-trips) that the word-native core eliminates.
"""

from __future__ import annotations

import contextlib
import sys
from typing import Iterator, Sequence

import numpy as np

from repro.core.adc_enum import DiscoveredADC, EnumerationStatistics, SelectionStrategy
from repro.core.approximation import ApproximationFunction, F1
from repro.core.dc import DenialConstraint
from repro.core.evidence import EvidenceSet
from repro.core.predicate_space import iter_bits


@contextlib.contextmanager
def _recursion_limit(at_least: int) -> Iterator[None]:
    """Raise the interpreter's recursion limit for one search, then restore it.

    Used around the recursive generator below, so the limit comes back
    when the generator is exhausted *or* closed early.
    """
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous, at_least))
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


_WORD_BITS = 64
_WORD_MASK = 0xFFFFFFFFFFFFFFFF


def _legacy_mask_to_words(mask: int, n_words: int) -> np.ndarray:
    """The pre-refactor word splitter (Python loop over word shifts)."""
    words = np.zeros(n_words, dtype=np.uint64)
    for word in range(n_words):
        words[word] = (mask >> (_WORD_BITS * word)) & _WORD_MASK
    return words


class LegacyADCEnum:
    """The pre-refactor ADCEnum (Python-int masks inside the recursion)."""

    def __init__(
        self,
        evidence: EvidenceSet,
        function: ApproximationFunction | None = None,
        epsilon: float = 0.01,
        selection: SelectionStrategy = "max",
        max_dc_size: int | None = None,
    ) -> None:
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if selection not in ("max", "min", "random"):
            raise ValueError(f"unknown selection strategy {selection!r}")
        self.evidence = evidence
        self.function = function if function is not None else F1()
        self.epsilon = float(epsilon)
        self.selection: SelectionStrategy = selection
        self.max_dc_size = max_dc_size
        self.statistics = EnumerationStatistics()
        if self.function.requires_participation and not evidence.has_participation:
            raise ValueError(
                f"approximation function {self.function.name} needs tuple participation; "
                "build the evidence set with include_participation=True"
            )
        self._n_evidences = len(self.evidence)
        self._n_words = self.evidence.n_words
        self._ev_words = self.evidence.words
        self._counts = np.asarray(self.evidence.counts, dtype=np.int64)
        self._contains = self.evidence.predicate_membership()

    def enumerate(self) -> list[DiscoveredADC]:
        return list(self.iter_adcs())

    def iter_adcs(self) -> Iterator[DiscoveredADC]:
        self.statistics = EnumerationStatistics()
        space = self.evidence.space
        uncov = np.arange(self._n_evidences, dtype=np.int64)
        can_hit = np.ones(self._n_evidences, dtype=bool)
        uncovered_pairs = int(self._counts.sum()) if self._n_evidences else 0
        cand = (1 << len(space)) - 1
        crit: dict[int, set[int]] = {}
        seen_outputs: set[int] = set()

        with _recursion_limit(50_000):
            yield from self._search(
                s_mask=0,
                s_elements=[],
                crit=crit,
                uncov=uncov,
                uncovered_pairs=uncovered_pairs,
                cand=cand,
                can_hit=can_hit,
                seen_outputs=seen_outputs,
            )

    def _passes(self, uncov: Sequence[int] | np.ndarray, uncovered_pairs: int) -> bool:
        total = self.evidence.total_pairs
        if total == 0:
            return True
        pair_fraction = uncovered_pairs / total
        shortcut = self.function.violation_score_from_pair_fraction(pair_fraction, total)
        if shortcut is not None:
            return shortcut <= self.epsilon
        factor = self.function.pair_bound_factor
        if factor is not None and pair_fraction > factor * self.epsilon:
            return False
        return self.function.violation_score(self.evidence, uncov) <= self.epsilon

    def _is_minimal(
        self,
        s_elements: list[int],
        crit: dict[int, set[int]],
        uncov: np.ndarray,
        uncovered_pairs: int,
    ) -> bool:
        self.statistics.minimality_checks += 1
        uncov_indices: list[int] | None = None
        for element in s_elements:
            critical = crit.get(element, set())
            extra_pairs = int(self._counts[list(critical)].sum()) if critical else 0
            pair_fraction_known = self.function.violation_score_from_pair_fraction(
                (uncovered_pairs + extra_pairs) / max(self.evidence.total_pairs, 1),
                self.evidence.total_pairs,
            )
            if pair_fraction_known is not None:
                if pair_fraction_known <= self.epsilon:
                    return False
                continue
            if uncov_indices is None:
                uncov_indices = uncov.tolist()
            if self._passes(uncov_indices + list(critical), uncovered_pairs + extra_pairs):
                return False
        return True

    def _search(
        self,
        s_mask: int,
        s_elements: list[int],
        crit: dict[int, set[int]],
        uncov: np.ndarray,
        uncovered_pairs: int,
        cand: int,
        can_hit: np.ndarray,
        seen_outputs: set[int],
    ) -> Iterator[DiscoveredADC]:
        self.statistics.recursive_calls += 1
        space = self.evidence.space

        if self._passes(uncov, uncovered_pairs):
            if self._is_minimal(s_elements, crit, uncov, uncovered_pairs):
                yield from self._emit(s_mask, uncov, seen_outputs)
            return

        cand_words = _legacy_mask_to_words(cand, self._n_words)
        overlap = (self._ev_words[uncov] & cand_words).any(axis=1)
        hittable = can_hit[uncov]
        selectable = uncov[hittable & overlap]
        if selectable.size == 0:
            return
        chosen = self._select_evidence(selectable, cand_words)
        chosen_mask = self.evidence.masks[chosen]

        reduced_cand = cand & ~chosen_mask
        reduced_words = _legacy_mask_to_words(reduced_cand, self._n_words)
        reduced_overlap = (self._ev_words[uncov] & reduced_words).any(axis=1)
        blocked = uncov[hittable & ~reduced_overlap]
        will_cover_uncov = uncov[~reduced_overlap]
        will_cover_pairs = int(self._counts[will_cover_uncov].sum())
        if self._passes(will_cover_uncov, will_cover_pairs):
            self.statistics.skip_branches += 1
            can_hit[blocked] = False
            yield from self._search(
                s_mask, s_elements, crit, uncov, uncovered_pairs,
                reduced_cand, can_hit, seen_outputs,
            )
            can_hit[blocked] = True
        else:
            self.statistics.pruned_by_willcover += 1

        if self.max_dc_size is not None and len(s_elements) >= self.max_dc_size:
            return
        to_try = chosen_mask & cand
        cand &= ~chosen_mask
        for element in iter_bits(to_try):
            element_contains = self._contains[element]
            covered_here = element_contains[uncov]
            newly_covered = uncov[covered_here]
            remaining_uncov = uncov[~covered_here]
            covered_pairs = int(self._counts[newly_covered].sum())
            crit[element] = set(newly_covered.tolist())
            removed_from_crit: dict[int, list[int]] = {}
            for member in s_elements:
                critical = crit[member]
                if not critical:
                    continue
                critical_array = np.fromiter(critical, dtype=np.int64, count=len(critical))
                removed_array = critical_array[element_contains[critical_array]]
                if removed_array.size:
                    removed = removed_array.tolist()
                    removed_from_crit[member] = removed
                    crit[member].difference_update(removed)

            if all(crit[member] for member in s_elements):
                self.statistics.hit_branches += 1
                pruned_cand = cand & ~space.group_mask(element)
                s_elements.append(element)
                yield from self._search(
                    s_mask | (1 << element),
                    s_elements,
                    crit,
                    remaining_uncov,
                    uncovered_pairs - covered_pairs,
                    pruned_cand,
                    can_hit,
                    seen_outputs,
                )
                s_elements.pop()
                cand |= 1 << element
            else:
                self.statistics.pruned_by_criticality += 1

            crit.pop(element, None)
            for member, removed in removed_from_crit.items():
                crit[member].update(removed)

    def _select_evidence(self, selectable: np.ndarray, cand_words: np.ndarray) -> int:
        if self.selection == "random":
            return int(selectable[self.statistics.recursive_calls % selectable.size])
        intersections = np.bitwise_count(
            self._ev_words[selectable] & cand_words
        ).sum(axis=1)
        if self.selection == "max":
            return int(selectable[int(np.argmax(intersections))])
        return int(selectable[int(np.argmin(intersections))])

    def _emit(
        self,
        s_mask: int,
        uncov: np.ndarray,
        seen_outputs: set[int],
    ) -> Iterator[DiscoveredADC]:
        if s_mask == 0 or s_mask in seen_outputs:
            return
        space = self.evidence.space
        dc_predicates = [space[space.complement_index(index)] for index in iter_bits(s_mask)]
        constraint = DenialConstraint(dc_predicates)
        if constraint.is_trivial():
            return
        seen_outputs.add(s_mask)
        score = self.function.violation_score(self.evidence, uncov)
        self.statistics.outputs += 1
        yield DiscoveredADC(constraint, s_mask, score)
