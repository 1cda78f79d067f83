"""Criticality bookkeeping of the search workspace, and the probe that guards it.

The hit loop of Figure 4 keeps, for every member of the partial hitting
set, the uncovered evidences only that member covers (its *critical*
evidences).  The workspace packs them as rows over evidence bits:
``try_hit`` pushes a row and strips the hit element's coverage from the
rows below it, pruning the hit when a row empties, and ``crit_pop`` undoes
the push when the subtree returns.  Three families of checks:

* the rows after every push and pop equal a plain set model, on evidence
  sets of random relations, under every backend;
* a compiled workspace walks the same trees as the numpy reference, result
  for result and row for row;
* the dispatch probe rejects a workspace that lies in any one operation.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import make_random_relation
from repro.core.adc_enum import ADCEnum
from repro.core.approximation import F1
from repro.core.evidence_builder import build_evidence_set
from repro.core.predicate_space import build_predicate_space
from repro.native import dispatch
from repro.native.numpy_backend import (
    DESCENDED,
    PRUNED,
    REPLAYED,
    SELECT_MAX,
    NumpySearchWorkspace,
)

BACKENDS = ["numpy", "cext"]


def search_backend(name: str):
    """The named kernel backend, skipping the test when it cannot build."""
    try:
        return dispatch.resolve_backend(name)
    except RuntimeError as error:
        pytest.skip(str(error))


def _enumerator(seed: int) -> ADCEnum:
    relation = make_random_relation(n_rows=8, seed=seed)
    evidence = build_evidence_set(relation, build_predicate_space(relation))
    return ADCEnum(evidence, F1(), 0.0)


def _workspace(backend, enumerator: ADCEnum, track_uncov: bool) -> NumpySearchWorkspace:
    """A fresh arena over the planes the enumerator's own search consumes."""
    return backend.make_search_workspace(
        ev_planes=enumerator._ev_planes,
        counts=enumerator._counts,
        contains_ev_words=enumerator._contains_ev_words,
        group_words_inv=enumerator._group_words_inv,
        full_cand_words=enumerator._full_cand_words,
        n_evidences=enumerator._n_evidences,
        n_predicates=enumerator._n_predicates,
        track_uncov=track_uncov,
    )


def _model_walk(ws, enumerator, track_uncov, depth, n, budget, seen) -> None:
    """Walk the tree below one node, checking every push and pop.

    No threshold applies: the walk expands every node, descends the skip
    child, then runs the whole hit loop (replaying one position in three
    instead of descending), until the node budget is spent.
    """
    budget[0] -= 1
    if n == 0 or budget[0] < 0:
        return
    _, n_selectable, _, n_to_try = ws.expand(depth, n, SELECT_MAX, budget[0])
    if n_selectable == 0:
        return
    parent_uncov = ws.uncov_view(depth, n).copy() if track_uncov else None
    child_n = ws.skip_child(depth, n, not track_uncov)
    _model_walk(ws, enumerator, track_uncov, depth + 1, child_n, budget, seen)
    k = ws.hit_prepare(depth, n, n_to_try)
    for position, element in enumerate(ws.elements_list(depth, k)):
        before = ws.crit_active_rows().copy()
        uncov_bits = ws.uncov_bits_view(depth).copy()
        covers = enumerator._contains_ev_words[element]
        stripped = before & ~covers
        viable = bool(stripped.any(axis=1).all())
        descend = position % 3 != 1
        status, hit, child_n, child_pairs = ws.try_hit(depth, n, position, descend)
        seen[status] += 1
        assert hit == element
        if not viable:
            assert status == PRUNED
        elif not descend:
            assert status == REPLAYED
        else:
            assert status == DESCENDED
        if status != DESCENDED:
            assert np.array_equal(ws.crit_active_rows(), before)
            continue
        expected_rows = np.vstack([stripped, (covers & uncov_bits)[None, :]])
        assert np.array_equal(ws.crit_active_rows(), expected_rows)
        assert np.array_equal(ws.uncov_bits_view(depth + 1), uncov_bits & ~covers)
        if track_uncov:
            # The child keeps exactly the parent's evidences the hit misses.
            missed = [
                int(i) for i in parent_uncov
                if not int(covers[i >> 6]) >> (int(i) & 63) & 1
            ]
            assert ws.uncov_view(depth + 1, child_n).tolist() == missed
            assert child_pairs == int(enumerator._counts[missed].sum())
        _model_walk(ws, enumerator, track_uncov, depth + 1, child_n, budget, seen)
        ws.crit_pop()
        assert np.array_equal(ws.crit_active_rows(), before)


class TestCriticalityModel:
    @pytest.mark.parametrize("track_uncov", [False, True], ids=["compact", "tracked"])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rows_match_set_model(self, backend, seed, track_uncov):
        enumerator = _enumerator(seed)
        ws = _workspace(search_backend(backend), enumerator, track_uncov)
        seen = {PRUNED: 0, REPLAYED: 0, DESCENDED: 0}
        n = ws.init_root()
        _model_walk(ws, enumerator, track_uncov, 0, n, [400], seen)
        assert seen[DESCENDED] and seen[REPLAYED]
        assert ws.crit_depth == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_walks_reach_pruned_hits(self, backend):
        """The model is exercised on all three outcomes, pruning included."""
        seen = {PRUNED: 0, REPLAYED: 0, DESCENDED: 0}
        for seed in range(4):
            enumerator = _enumerator(seed)
            ws = _workspace(search_backend(backend), enumerator, False)
            _model_walk(ws, enumerator, False, 0, ws.init_root(), [400], seen)
        assert all(seen.values()), seen


class TestCompiledLockstep:
    @pytest.mark.parametrize("track_uncov", [False, True], ids=["compact", "tracked"])
    @pytest.mark.parametrize("seed", range(6))
    def test_walk_matches_numpy(self, seed, track_uncov):
        """The probe's lockstep walk, fuzzed over real evidence sets."""
        compiled = search_backend("cext")
        enumerator = _enumerator(seed)
        candidate = _workspace(compiled, enumerator, track_uncov)
        reference = _workspace(dispatch.NUMPY_BACKEND, enumerator, track_uncov)
        assert candidate.init_root() == reference.init_root()
        dispatch._probe_walk(candidate, reference, 0, reference.init_root(), [300])
        assert candidate.crit_depth == reference.crit_depth == 0


class TestRootPlan:
    @pytest.mark.parametrize("selection", ["max", "min", "random"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_root_hit_loop_is_the_selected_evidence(self, backend, selection):
        """At the root every predicate is a candidate, so the plan's elements
        are the set bits of the evidence the rule selects by size: the first
        largest (``max``), the first smallest (``min``) or, for ``random``,
        the non-empty evidence at position ``1 mod count`` (the root is
        search call 1)."""
        with dispatch.use_backend(search_backend(backend)):
            for seed in range(4):
                enumerator = _enumerator(seed)
                enumerator.selection = selection
                sizes = [bin(mask).count("1") for mask in enumerator.evidence.masks]
                selectable = [i for i, size in enumerate(sizes) if size]
                if selection == "max":
                    chosen = max(selectable, key=lambda i: (sizes[i], -i))
                elif selection == "min":
                    chosen = min(selectable, key=lambda i: (sizes[i], i))
                else:
                    chosen = selectable[1 % len(selectable)]
                mask = enumerator.evidence.masks[chosen]
                elements = [bit for bit in range(mask.bit_length()) if mask >> bit & 1]
                assert enumerator.root_plan() == ("branch", elements)


class LyingWorkspace(NumpySearchWorkspace):
    """Numpy workspace that corrupts one operation (set per subclass)."""


class _LyingExpand(LyingWorkspace):
    def expand(self, depth, n, selection, call_index):
        chosen, n_selectable, lost, n_to_try = super().expand(
            depth, n, selection, call_index
        )
        return chosen, n_selectable, lost + 1, n_to_try


class _LyingSkipChild(LyingWorkspace):
    def skip_child(self, depth, n, compact):
        return super().skip_child(depth, n, compact) + 1


class _LyingHitPrepare(LyingWorkspace):
    def hit_prepare(self, depth, n, k):
        k = super().hit_prepare(depth, n, k)
        self._slots[depth].elements[:k] = self._slots[depth].elements[:k][::-1].copy()
        return k


class _LyingTryHit(LyingWorkspace):
    """Reports the right outcome but pushes a wrong criticality row."""

    def try_hit(self, depth, n, position, descend):
        result = super().try_hit(depth, n, position, descend)
        if result[0] == DESCENDED:
            self._crit_rows[self._crit_depth - 1] ^= np.uint64(1)
        return result


class _LyingCritPop(LyingWorkspace):
    """Pops the depth but never restores the stripped coverage."""

    def crit_pop(self):
        self._crit_depth -= 1


class TestProbe:
    def test_probe_accepts_reference(self):
        dispatch._probe_workspace(NumpySearchWorkspace)

    @pytest.mark.parametrize(
        ("workspace", "operation"),
        [
            (_LyingExpand, "expand"),
            (_LyingSkipChild, "skip_child"),
            (_LyingHitPrepare, "hit_prepare"),
            (_LyingTryHit, "criticality"),
            (_LyingCritPop, "crit_pop"),
        ],
        ids=["expand", "skip_child", "hit_prepare", "try_hit", "crit_pop"],
    )
    def test_probe_rejects_lying_workspace(self, workspace, operation):
        with pytest.raises(AssertionError, match=f"workspace {operation} mismatch"):
            dispatch._probe_workspace(workspace)
