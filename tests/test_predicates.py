"""Tests for predicates and the predicate space generator."""

from __future__ import annotations

import pytest

from repro.core.operators import Operator
from repro.core.predicate_space import (
    PredicateSpace,
    PredicateSpaceConfig,
    build_predicate_space,
    iter_bits,
    shared_value_fraction,
)
from repro.core.predicates import (
    Predicate,
    PredicateForm,
    cross_column_predicate,
    same_column_predicate,
    single_tuple_predicate,
)
from repro.data.relation import Relation, running_example


class TestPredicate:
    def test_same_column_constructor_validation(self):
        with pytest.raises(ValueError):
            Predicate("A", Operator.EQ, "B", PredicateForm.TWO_TUPLE_SAME_COLUMN)
        with pytest.raises(ValueError):
            Predicate("A", Operator.EQ, "A", PredicateForm.SINGLE_TUPLE)

    def test_complement(self):
        predicate = same_column_predicate("A", Operator.LT)
        assert predicate.complement == same_column_predicate("A", Operator.GE)
        assert predicate.complement.complement == predicate

    def test_group_key_groups_operator_variants(self):
        assert (
            same_column_predicate("A", Operator.LT).group_key
            == same_column_predicate("A", Operator.GE).group_key
        )
        assert (
            same_column_predicate("A", Operator.LT).group_key
            != cross_column_predicate("A", Operator.LT, "B").group_key
        )

    def test_two_tuple_evaluation(self):
        predicate = same_column_predicate("A", Operator.GT)
        assert predicate.evaluate({"A": 3}, {"A": 1})
        assert not predicate.evaluate({"A": 1}, {"A": 3})

    def test_single_tuple_evaluation_ignores_second_row(self):
        predicate = single_tuple_predicate("A", Operator.LT, "B")
        assert predicate.evaluate({"A": 1, "B": 5}, {"A": 100, "B": 0})
        assert not predicate.evaluate({"A": 5, "B": 1}, {"A": 0, "B": 100})

    def test_implies(self):
        assert same_column_predicate("A", Operator.LT).implies(
            same_column_predicate("A", Operator.LE)
        )
        assert not same_column_predicate("A", Operator.LT).implies(
            same_column_predicate("B", Operator.LE)
        )

    def test_str_rendering(self):
        assert str(same_column_predicate("A", Operator.EQ)) == "t[A] == t'[A]"
        assert str(single_tuple_predicate("A", Operator.LT, "B")) == "t[A] < t[B]"


@pytest.fixture(scope="module")
def simple_relation() -> Relation:
    return Relation(
        "r",
        {
            "name": ["a", "b", "a", "c"],
            "low": [1, 2, 3, 4],
            "high": [2, 3, 4, 5],
            "other": [100, 200, 300, 400],
        },
    )


class TestPredicateSpaceGeneration:
    def test_same_column_predicates_always_present(self, simple_relation):
        space = build_predicate_space(simple_relation)
        assert same_column_predicate("name", Operator.EQ) in space
        assert same_column_predicate("low", Operator.LT) in space

    def test_string_columns_get_equality_only(self, simple_relation):
        space = build_predicate_space(simple_relation)
        assert same_column_predicate("name", Operator.NE) in space
        assert same_column_predicate("name", Operator.LT) not in space

    def test_cross_column_requires_shared_values(self, simple_relation):
        space = build_predicate_space(simple_relation)
        # low and high share 3 of 4 values -> cross predicates generated.
        assert single_tuple_predicate("low", Operator.LT, "high") in space
        assert cross_column_predicate("low", Operator.LT, "high") in space
        # "other" shares nothing with low/high -> no cross predicates.
        assert single_tuple_predicate("low", Operator.LT, "other") not in space

    def test_cross_column_can_be_disabled(self, simple_relation):
        config = PredicateSpaceConfig(include_cross_column=False, include_single_tuple=False)
        space = build_predicate_space(simple_relation, config)
        assert all(p.form is PredicateForm.TWO_TUPLE_SAME_COLUMN for p in space)

    def test_max_predicates_cap(self, simple_relation):
        with pytest.raises(ValueError):
            build_predicate_space(simple_relation, PredicateSpaceConfig(max_predicates=3))

    def test_complement_closure(self, simple_relation):
        space = build_predicate_space(simple_relation)
        for index in range(len(space)):
            complement_index = space.complement_index(index)
            assert space[complement_index] == space[index].complement


class TestPredicateSpaceIndexing:
    def test_index_round_trip(self, simple_relation):
        space = build_predicate_space(simple_relation)
        for index, predicate in enumerate(space):
            assert space.index_of(predicate) == index

    def test_unknown_predicate_raises(self, simple_relation):
        space = build_predicate_space(simple_relation)
        with pytest.raises(KeyError):
            space.index_of(same_column_predicate("missing", Operator.EQ))

    def test_mask_round_trip(self, simple_relation):
        space = build_predicate_space(simple_relation)
        predicates = (space[0], space[3], space[5])
        mask = space.mask_of(predicates)
        assert set(space.predicates_of(mask)) == set(predicates)

    def test_group_mask_contains_all_operator_variants(self, simple_relation):
        space = build_predicate_space(simple_relation)
        index = space.index_of(same_column_predicate("low", Operator.LT))
        group = space.predicates_of(space.group_mask(index))
        assert len(group) == 6
        assert all(p.group_key == space[index].group_key for p in group)

    def test_duplicate_predicates_rejected(self):
        predicate = same_column_predicate("A", Operator.EQ)
        with pytest.raises(ValueError):
            PredicateSpace([predicate, predicate])

    def test_iter_bits(self):
        assert list(iter_bits(0b101001)) == [0, 3, 5]
        assert list(iter_bits(0)) == []


class TestTable3:
    """The sample of the running example's predicate space shown in Table 3.

    Table 3 lists Income-vs-Tax comparisons; in the running example those
    two attributes share almost no values, so under the 30% rule of [11, 37]
    (which the paper adopts) they only enter the space when the rule is
    relaxed.  Both behaviours are pinned down here.
    """

    def test_table3_same_attribute_predicates_present(self, example_space):
        expected = [
            same_column_predicate("Name", Operator.EQ),
            same_column_predicate("Name", Operator.NE),
            same_column_predicate("Income", Operator.EQ),
            same_column_predicate("Income", Operator.NE),
            same_column_predicate("Income", Operator.GT),
            same_column_predicate("Income", Operator.GE),
            same_column_predicate("Income", Operator.LT),
            same_column_predicate("Income", Operator.LE),
        ]
        for predicate in expected:
            assert predicate in example_space, str(predicate)

    def test_income_tax_comparisons_gated_by_shared_value_rule(self, example_relation, example_space):
        income_vs_tax = cross_column_predicate("Income", Operator.GT, "Tax")
        assert income_vs_tax not in example_space
        relaxed = build_predicate_space(
            example_relation, PredicateSpaceConfig(shared_value_threshold=0.0)
        )
        for op in (Operator.GT, Operator.GE, Operator.LT, Operator.LE):
            assert cross_column_predicate("Income", op, "Tax") in relaxed

    def test_no_mixed_type_comparisons(self, example_space):
        for predicate in example_space:
            if predicate.left_column == "Name":
                assert predicate.right_column == "Name"

    def test_sat_t2_t5_matches_example_3_1(self, example_relation):
        space = build_predicate_space(
            example_relation, PredicateSpaceConfig(shared_value_threshold=0.0)
        )
        t2 = example_relation.row(1)
        t5 = example_relation.row(4)
        satisfied = {p for p in space if p.evaluate(t2, t5)}
        assert same_column_predicate("Name", Operator.NE) in satisfied
        assert same_column_predicate("Income", Operator.GT) in satisfied
        assert same_column_predicate("Income", Operator.GE) in satisfied
        assert cross_column_predicate("Income", Operator.GT, "Tax") in satisfied
        reverse = {p for p in space if p.evaluate(t5, t2)}
        assert same_column_predicate("Name", Operator.NE) in reverse
        assert same_column_predicate("Income", Operator.LT) in reverse
        assert same_column_predicate("Income", Operator.GT) not in reverse


@pytest.fixture(scope="module")
def relation() -> Relation:
    return running_example()


class TestSharedValueFraction:
    def test_identical_columns_share_everything(self):
        relation = Relation("r", {"a": [1, 2, 3], "b": [1, 2, 3]})
        assert shared_value_fraction(relation, "a", "b") == 1.0

    def test_disjoint_columns_share_nothing(self):
        relation = Relation("r", {"a": [1, 2, 3], "b": [4, 5, 6]})
        assert shared_value_fraction(relation, "a", "b") == 0.0

    def test_subset_domain_counts_against_smaller_side(self):
        relation = Relation("r", {"a": [1, 1, 2, 2], "b": [1, 2, 3, 4]})
        assert shared_value_fraction(relation, "a", "b") == 1.0

    def test_income_and_tax_do_not_qualify(self, relation):
        assert shared_value_fraction(relation, "Income", "Tax") < 0.3
