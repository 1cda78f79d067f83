"""Tests of distributed enumeration (root subtrees as cluster work units).

The claim under test is *exactness*: :func:`parallel_enumerate` returns the
same DC list — same constraints, same order, same scores, same hitting-set
masks — as a serial :class:`ADCEnum` run, for every approximation function
and selection strategy the units support.  The root-branch restriction is
additionally checked directly: the per-branch outputs, concatenated in root
order and deduplicated first-occurrence by mask, must replay the serial
emission sequence.
"""

from __future__ import annotations

import pytest

from tests.conftest import make_random_relation
from repro.cluster import LocalCluster, parallel_enumerate
from repro.core.adc_enum import ADCEnum
from repro.core.approximation import F1, F2, F3Greedy
from repro.core.evidence_builder import build_evidence_set
from repro.core.miner import ADCMiner, run_enumeration
from repro.core.predicate_space import build_predicate_space
from repro.data.relation import running_example
from repro.native import dispatch


@pytest.fixture(scope="module")
def local_cluster():
    with LocalCluster(2, transport="local") as cluster:
        yield cluster


def signature(adcs):
    """Order-sensitive identity of a DC list."""
    return [
        (adc.hitting_set_mask, adc.violation_score, str(adc.constraint))
        for adc in adcs
    ]


def evidence_for(seed: int, n_rows: int = 10):
    relation = make_random_relation(n_rows=n_rows, seed=seed)
    space = build_predicate_space(relation)
    return build_evidence_set(relation, space)


def search_backend(name: str):
    """The named kernel backend, skipping the test when it cannot build."""
    try:
        return dispatch.resolve_backend(name)
    except RuntimeError as error:
        pytest.skip(str(error))


class TestRootBranchRestriction:
    @pytest.mark.parametrize("backend", ["numpy", "cext"])
    @pytest.mark.parametrize(
        ("function", "epsilon"),
        [(F1(), 0.01), (F2(), 0.05), (F3Greedy(), 0.05)],
        ids=["f1", "f2", "f3"],
    )
    @pytest.mark.parametrize("selection", ["max", "min"])
    def test_branches_partition_the_serial_output(
        self, selection, function, epsilon, backend
    ):
        evidence = evidence_for(seed=5)
        with dispatch.use_backend(search_backend(backend)):
            serial = ADCEnum(evidence, function, epsilon, selection=selection)
            reference = serial.enumerate()
            kind, elements = serial.root_plan()
            assert kind == "branch" and elements

            merged, seen = [], set()
            for branch in ["skip", *elements]:
                unit = ADCEnum(
                    evidence, function, epsilon, selection=selection,
                    root_branch=branch,
                )
                for adc in unit.enumerate():
                    if adc.hitting_set_mask not in seen:
                        seen.add(adc.hitting_set_mask)
                        merged.append(adc)
        assert signature(merged) == signature(reference)

    def test_root_plan_is_leaf_when_empty_set_passes(self):
        evidence = evidence_for(seed=5)
        # Epsilon 1.0 admits everything: the root emits and never branches.
        kind, elements = ADCEnum(evidence, F1(), 1.0).root_plan()
        assert (kind, elements) == ("leaf", [])

    def test_root_plan_does_not_disturb_search_state(self):
        evidence = evidence_for(seed=2)
        enumerator = ADCEnum(evidence, F1(), 0.01)
        enumerator.root_plan()
        assert signature(enumerator.enumerate()) == signature(
            ADCEnum(evidence, F1(), 0.01).enumerate()
        )


class TestParallelEnumerate:
    @pytest.mark.parametrize("seed", [0, 1, 4, 9])
    @pytest.mark.parametrize("epsilon", [0.0, 0.01, 0.1])
    def test_exact_for_f1(self, local_cluster, seed, epsilon):
        evidence = evidence_for(seed)
        serial, _ = run_enumeration(evidence, F1(), epsilon)
        distributed, statistics = parallel_enumerate(
            evidence, F1(), epsilon, local_cluster
        )
        assert signature(distributed) == signature(serial)
        assert statistics.outputs == len(distributed)

    @pytest.mark.parametrize("function", [F2(), F3Greedy()])
    def test_exact_for_participation_functions(self, local_cluster, function):
        evidence = evidence_for(seed=3)
        serial, _ = run_enumeration(evidence, function, 0.05)
        distributed, _ = parallel_enumerate(evidence, function, 0.05, local_cluster)
        assert signature(distributed) == signature(serial)

    @pytest.mark.parametrize("selection", ["min", "random"])
    def test_exact_for_other_selections(self, local_cluster, selection):
        # "min" distributes; "random" falls back to a serial run — both
        # must reproduce the serial list either way.
        evidence = evidence_for(seed=6)
        serial, _ = run_enumeration(evidence, F1(), 0.01, selection=selection)
        distributed, _ = parallel_enumerate(
            evidence, F1(), 0.01, local_cluster, selection=selection
        )
        assert signature(distributed) == signature(serial)

    def test_exact_with_max_dc_size(self, local_cluster):
        evidence = evidence_for(seed=8)
        serial, _ = run_enumeration(evidence, F1(), 0.01, max_dc_size=2)
        distributed, _ = parallel_enumerate(
            evidence, F1(), 0.01, local_cluster, max_dc_size=2
        )
        assert signature(distributed) == signature(serial)


class TestClusterMiner:
    def test_cluster_mining_matches_tiled_mining(self, local_cluster):
        relation = running_example()
        baseline = ADCMiner("f1", 0.05).mine(relation)
        clustered = ADCMiner(
            "f1", 0.05, cluster=local_cluster, cluster_enumeration=True
        ).mine(relation)
        assert signature(clustered.adcs) == signature(baseline.adcs)
        assert clustered.evidence.n_rows == baseline.evidence.n_rows

    def test_cluster_evidence_only_also_matches(self, local_cluster):
        relation = running_example()
        baseline = ADCMiner("f2", 0.05).mine(relation)
        clustered = ADCMiner("f2", 0.05, cluster=local_cluster).mine(relation)
        assert signature(clustered.adcs) == signature(baseline.adcs)
