"""Tests for the evidence set and its two builders."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import make_random_relation
from repro.core.evidence import evidence_from_pair_masks, violating
from repro.core.evidence_builder import build_evidence_set, build_evidence_set_pairwise
from repro.core.predicate_space import build_predicate_space


class TestRunningExampleEvidence:
    def test_total_pairs(self, example_evidence):
        assert example_evidence.total_pairs == 15 * 14
        assert example_evidence.recorded_pairs == 15 * 14

    def test_masks_and_counts_align(self, example_evidence):
        assert len(example_evidence.masks) == len(example_evidence.counts)
        assert all(count > 0 for count in example_evidence.counts)

    def test_every_evidence_nonempty(self, example_evidence):
        # Every ordered pair of distinct tuples satisfies at least one
        # predicate (e.g. one of ==/!= on every attribute).
        assert all(mask != 0 for mask in example_evidence.masks)

    def test_participation_counts_sum_to_two_per_pair(self, example_evidence):
        for index in range(len(example_evidence)):
            part = example_evidence.participation(index)
            assert part.pair_counts.sum() == 2 * example_evidence.counts[index]

    def test_uncovered_pair_count_matches_indices(self, example_evidence, example_space):
        hitting = 1 << 0
        indices = example_evidence.uncovered_indices(hitting)
        assert example_evidence.uncovered_pair_count(hitting) == example_evidence.pair_count_of(indices)


class TestBuildersAgree:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_vectorized_matches_pairwise(self, seed):
        relation = make_random_relation(n_rows=9, seed=seed)
        space = build_predicate_space(relation)
        fast = build_evidence_set(relation, space, include_participation=True)
        slow = build_evidence_set_pairwise(relation, space, include_participation=True)
        assert sorted(zip(fast.masks, fast.counts.tolist())) == sorted(
            zip(slow.masks, slow.counts.tolist())
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_participation_matches_pairwise(self, seed):
        relation = make_random_relation(n_rows=8, seed=seed)
        space = build_predicate_space(relation)
        fast = build_evidence_set(relation, space, include_participation=True)
        slow = build_evidence_set_pairwise(relation, space, include_participation=True)
        fast_by_mask = {mask: fast.participation(i) for i, mask in enumerate(fast.masks)}
        slow_by_mask = {mask: slow.participation(i) for i, mask in enumerate(slow.masks)}
        for mask, fast_part in fast_by_mask.items():
            slow_part = slow_by_mask[mask]
            assert dict(zip(fast_part.tuple_ids.tolist(), fast_part.pair_counts.tolist())) == dict(
                zip(slow_part.tuple_ids.tolist(), slow_part.pair_counts.tolist())
            )

    def test_single_row_relation_yields_empty_evidence(self):
        relation = make_random_relation(n_rows=1)
        space = build_predicate_space(relation)
        evidence = build_evidence_set(relation, space)
        assert len(evidence) == 0
        assert evidence.total_pairs == 0


class TestEvidenceOperations:
    def test_restrict_to_predicates_merges_counts(self, example_evidence):
        restricted = example_evidence.restrict_to_predicates(0b111)
        assert restricted.recorded_pairs == example_evidence.recorded_pairs
        assert len(restricted) <= len(example_evidence)

    def test_participation_requires_flag(self, example_relation, example_space):
        evidence = build_evidence_set(example_relation, example_space, include_participation=False)
        with pytest.raises(RuntimeError):
            evidence.participation(0)

    def test_evidence_from_pair_masks_counts(self, example_space):
        evidence = evidence_from_pair_masks(
            example_space, [0b1, 0b1, 0b10], n_rows=2, pair_tuples=[(0, 1), (1, 0), (0, 1)]
        )
        assert sorted(zip(evidence.masks, evidence.counts.tolist())) == [(0b1, 2), (0b10, 1)]

    def test_violation_counts_per_tuple(self, example_evidence):
        totals = example_evidence.violation_counts_per_tuple(range(len(example_evidence)))
        # Every tuple participates in 2 * (n - 1) ordered pairs.
        assert set(totals.tolist()) == {2 * 14}

    def test_describe_mentions_size(self, example_evidence):
        assert "distinct evidences" in example_evidence.describe()


class TestWordNativeQueries:
    """The hitting-set queries accept packed word vectors, not just ints."""

    def test_word_vector_matches_int_mask(self, example_evidence):
        from repro.core.evidence import mask_to_words

        for mask in (0, 0b1, 0b1010, (1 << 5) | (1 << 20)):
            words = mask_to_words(mask, example_evidence.n_words)
            assert example_evidence.uncovered_indices(words) == (
                example_evidence.uncovered_indices(mask)
            )
            assert example_evidence.uncovered_pair_count(words) == (
                example_evidence.uncovered_pair_count(mask)
            )

    def test_hitting_words_normalises_both_forms(self, example_evidence):
        import numpy as np
        from repro.core.evidence import mask_to_words

        mask = 0b1101
        from_int = example_evidence.hitting_words(mask)
        from_words = example_evidence.hitting_words(
            mask_to_words(mask, example_evidence.n_words)
        )
        assert np.array_equal(from_int, from_words)

    def test_wrong_width_word_vector_raises(self, example_evidence):
        import numpy as np

        with pytest.raises(ValueError):
            example_evidence.uncovered_indices(
                np.zeros(example_evidence.n_words + 1, dtype=np.uint64)
            )


class TestLazyMaskViewEdgeCases:
    """Slicing/indexing corners of the chunk-lazy Python-int mask view."""

    @pytest.fixture(scope="class")
    def view_and_list(self, example_evidence):
        view = example_evidence.masks
        return view, list(view)

    def test_negative_indices(self, view_and_list):
        view, reference = view_and_list
        for index in (-1, -2, -len(reference)):
            assert view[index] == reference[index]

    def test_out_of_range_raises(self, view_and_list):
        view, reference = view_and_list
        with pytest.raises(IndexError):
            view[len(reference)]
        with pytest.raises(IndexError):
            view[-len(reference) - 1]

    def test_out_of_range_slices_clamp_like_lists(self, view_and_list):
        view, reference = view_and_list
        n = len(reference)
        assert view[: n + 100] == reference[: n + 100]
        assert view[n + 1 :] == []
        assert view[-2 * n : 3] == reference[-2 * n : 3]
        assert view[5:2] == []

    def test_step_slices(self, view_and_list):
        view, reference = view_and_list
        assert view[::2] == reference[::2]
        assert view[1::3] == reference[1::3]
        assert view[::-1] == reference[::-1]
        assert view[10:2:-2] == reference[10:2:-2]

    def test_equality_against_lists_and_tuples(self, view_and_list):
        view, reference = view_and_list
        assert view == reference
        assert not (view == reference[:-1])
        assert not (view == [mask + 1 for mask in reference])
        assert view == view
        assert view == tuple(reference)
        assert view.__eq__(object()) is NotImplemented

    def test_equality_against_other_views(self, example_evidence):
        from repro.core.evidence import LazyMaskView

        first = LazyMaskView(example_evidence.words)
        second = LazyMaskView(example_evidence.words)
        assert first == second
        assert first == first

    def test_iteration_matches_indexing(self, view_and_list):
        view, reference = view_and_list
        assert [mask for mask in view] == reference


#: Evidence/hitting words with few bits set, so rows both share and miss
#: bits with a hitting set; occasionally a dense random word.
sparse_words = st.one_of(
    st.sets(st.integers(min_value=0, max_value=63), max_size=3).map(
        lambda bits: sum(1 << bit for bit in bits)
    ),
    st.integers(min_value=0, max_value=2**64 - 1),
)


class TestViolatingKernel:
    """``violating(words, hitting) @ weights`` against a per-pair loop."""

    @staticmethod
    def _word_rows(data, n_rows, n_words):
        return np.array(
            data.draw(st.lists(
                st.lists(sparse_words, min_size=n_words, max_size=n_words),
                min_size=n_rows, max_size=n_rows,
            )),
            dtype=np.uint64,
        ).reshape(n_rows, n_words)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_per_pair_loop(self, data):
        # Up to three words: predicate spaces wider than 64 bits included.
        n_words = data.draw(st.integers(min_value=1, max_value=3))
        n_rows = data.draw(st.integers(min_value=0, max_value=10))
        n_dcs = data.draw(st.integers(min_value=0, max_value=4))
        words = self._word_rows(data, n_rows, n_words)
        hitting = self._word_rows(data, n_dcs, n_words)
        weights = np.array(
            data.draw(st.lists(st.integers(0, 1000), min_size=n_rows, max_size=n_rows)),
            dtype=np.int64,
        )
        n_groups = data.draw(st.integers(min_value=1, max_value=3))
        groups = np.array(
            data.draw(st.lists(
                st.integers(0, n_groups - 1), min_size=n_rows, max_size=n_rows
            )),
            dtype=np.int64,
        )

        def misses(row, dc):
            return not any(int(a) & int(b) for a, b in zip(words[row], hitting[dc]))

        # Both accepted hitting forms: a 2-D array and a list of vectors.
        for hitting_form in (hitting, list(hitting)):
            result = violating(words, hitting_form)
            assert result.shape == (n_dcs, n_rows)
            assert result.dtype == bool
            expected = [
                sum(int(weights[r]) for r in range(n_rows) if misses(r, d))
                for d in range(n_dcs)
            ]
            assert (result @ weights).tolist() == expected
            one_hot = groups[:, None] == np.arange(n_groups)
            expected_per_group = [
                [
                    sum(1 for r in range(n_rows) if groups[r] == g and misses(r, d))
                    for g in range(n_groups)
                ]
                for d in range(n_dcs)
            ]
            assert (result @ one_hot.astype(np.int64)).tolist() == expected_per_group

    def test_zero_dcs_and_zero_rows(self):
        words = np.zeros((0, 2), dtype=np.uint64)
        assert violating(words, np.ones((3, 2), dtype=np.uint64)).shape == (3, 0)
        assert violating(np.ones((5, 2), dtype=np.uint64), []).shape == (0, 5)
        assert (violating(words, []) @ np.zeros(0, dtype=np.int64)).shape == (0,)
