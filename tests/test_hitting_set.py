"""Exact DC discovery is minimal hitting-set enumeration.

At ``epsilon = 0`` under f1, :class:`ADCEnum` is the MMCS search of the
paper's Figure 3: a DC passes only when its predicate set hits every
evidence, and the search reports each minimal such set once.  These tests
pose classic hitting-set instances as evidence sets and check the search
workspace (every backend) against a brute-force oracle.

Element ``i`` of an instance is the predicate ``t.c_i == t'.c_i`` (bit
``2 i`` of the predicate space; bit ``2 i + 1`` is its complement, which no
evidence contains).  Each subset becomes one evidence of one pair.  The
empty hitting set is the empty DC, which the search never reports (it is
trivial), so an empty family has no output rather than ``[0]``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adc_enum import ADCEnum
from repro.core.approximation import F1
from repro.core.evidence import EvidenceSet
from repro.core.operators import Operator
from repro.core.predicate_space import PredicateSpace
from repro.core.predicates import Predicate, PredicateForm
from repro.native import dispatch

BACKENDS = ["numpy", "cext"]


def search_backend(name: str):
    """The named kernel backend, skipping the test when it cannot build."""
    try:
        return dispatch.resolve_backend(name)
    except RuntimeError as error:
        pytest.skip(str(error))


def _evidence(subsets: list[int], n_elements: int) -> EvidenceSet:
    predicates = []
    for i in range(n_elements):
        column = f"c{i}"
        form = PredicateForm.TWO_TUPLE_SAME_COLUMN
        predicates.append(Predicate(column, Operator.EQ, column, form))
        predicates.append(Predicate(column, Operator.NE, column, form))
    masks = [
        sum(1 << (2 * i) for i in range(n_elements) if subset >> i & 1)
        for subset in subsets
    ]
    n_rows = 2
    while n_rows * (n_rows - 1) < len(subsets):
        n_rows += 1
    return EvidenceSet(
        PredicateSpace(predicates), masks=masks, counts=[1] * len(subsets), n_rows=n_rows
    )


def _element_mask(hitting_set_mask: int, n_elements: int) -> int:
    assert hitting_set_mask & ~sum(1 << (2 * i) for i in range(n_elements)) == 0
    return sum(1 << i for i in range(n_elements) if hitting_set_mask >> (2 * i) & 1)


def _exact_enum(subsets: list[int], n_elements: int, selection: str = "max") -> ADCEnum:
    return ADCEnum(_evidence(subsets, n_elements), F1(), 0.0, selection=selection)


def minimal_hitting_sets(
    subsets: list[int], n_elements: int, selection: str = "max"
) -> list[int]:
    """Element masks of the DCs exact discovery reports, in emission order."""
    return [
        _element_mask(adc.hitting_set_mask, n_elements)
        for adc in _exact_enum(subsets, n_elements, selection).enumerate()
    ]


def is_hitting_set(mask: int, subsets: list[int]) -> bool:
    return all(mask & subset for subset in subsets)


def brute_force_minimal_hitting_sets(subsets: list[int], n_elements: int) -> list[int]:
    """Every non-empty minimal hitting set, by exhaustive search."""
    hitting = [
        mask for mask in range(1, 1 << n_elements) if is_hitting_set(mask, subsets)
    ]
    return [
        mask
        for mask in hitting
        if not any(
            mask & (1 << bit) and is_hitting_set(mask & ~(1 << bit), subsets)
            for bit in range(n_elements)
        )
    ]


@pytest.mark.parametrize("backend", BACKENDS)
class TestKnownInstances:
    def test_single_subset(self, backend):
        with dispatch.use_backend(search_backend(backend)):
            assert set(minimal_hitting_sets([0b101], 3)) == {0b001, 0b100}

    def test_two_disjoint_subsets(self, backend):
        with dispatch.use_backend(search_backend(backend)):
            assert set(minimal_hitting_sets([0b011, 0b100], 3)) == {0b101, 0b110}

    def test_empty_family_has_no_nontrivial_dc(self, backend):
        with dispatch.use_backend(search_backend(backend)):
            assert minimal_hitting_sets([], 3) == []

    def test_unhittable_empty_subset(self, backend):
        with dispatch.use_backend(search_backend(backend)):
            assert minimal_hitting_sets([0b0, 0b1], 2) == []

    def test_duplicated_subsets(self, backend):
        with dispatch.use_backend(search_backend(backend)):
            assert set(minimal_hitting_sets([0b11, 0b11], 2)) == {0b01, 0b10}


class TestAgainstBruteForce:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed, backend):
        rng = random.Random(seed)
        n_elements = rng.randint(3, 7)
        subsets = [
            rng.randint(1, (1 << n_elements) - 1) for _ in range(rng.randint(1, 8))
        ]
        expected = set(brute_force_minimal_hitting_sets(subsets, n_elements))
        with dispatch.use_backend(search_backend(backend)):
            actual = minimal_hitting_sets(subsets, n_elements)
        assert set(actual) == expected
        assert len(actual) == len(set(actual)), "each hitting set must be produced once"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_selection_rules_agree(self, backend):
        """The evidence-selection rule shapes the tree, never the answer."""
        with dispatch.use_backend(search_backend(backend)):
            for seed in range(6):
                rng = random.Random(seed)
                n_elements = rng.randint(3, 7)
                subsets = [
                    rng.randint(1, (1 << n_elements) - 1)
                    for _ in range(rng.randint(1, 8))
                ]
                expected = set(brute_force_minimal_hitting_sets(subsets, n_elements))
                for selection in ("max", "min", "random"):
                    actual = minimal_hitting_sets(subsets, n_elements, selection)
                    assert set(actual) == expected
                    assert len(actual) == len(expected)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=63), min_size=1, max_size=6),
    )
    def test_property_minimal_and_complete(self, subsets):
        n_elements = 6
        results = minimal_hitting_sets(subsets, n_elements)
        expected = set(brute_force_minimal_hitting_sets(subsets, n_elements))
        assert set(results) == expected
        for mask in results:
            assert is_hitting_set(mask, subsets)
            for bit in range(n_elements):
                if mask & (1 << bit):
                    assert not is_hitting_set(mask & ~(1 << bit), subsets)


class TestStatistics:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_statistics_populated(self, backend):
        with dispatch.use_backend(search_backend(backend)):
            enumerator = _exact_enum([0b011, 0b110], 3)
            results = enumerator.enumerate()
        assert enumerator.statistics.outputs == len(results) == 2
        assert enumerator.statistics.recursive_calls >= len(results)

    def test_interleaved_iterators_are_independent(self):
        """Each run owns its result list, so two suspended iterators over
        the same enumerator must not corrupt each other."""
        enumerator = _exact_enum([0b011, 0b110, 0b101], 3)
        expected = enumerator.enumerate()
        first = enumerator.iter_adcs()
        head = next(first)
        second = enumerator.iter_adcs()
        assert list(second) == expected
        assert [head] + list(first) == expected
