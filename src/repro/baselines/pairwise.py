"""End-to-end baseline miners (AFASTDC- and DCFinder-style pipelines).

The paper's Figure 7 compares the total running time of three pipelines:

* **ADCMiner** — fast (DCFinder-style) evidence construction + ADCEnum;
* **DCFinder** — fast evidence construction + SearchMC enumeration;
* **AFASTDC** — naive quadratic evidence construction + SearchMC enumeration.

:class:`PairwiseEvidenceBuilder` wraps the naive construction so the
benchmark harness can time the two evidence strategies symmetrically, and
:func:`afastdc_mine` / :func:`dcfinder_mine` assemble the two baseline
pipelines with the same result/timing structure as
:class:`repro.core.miner.ADCMiner`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.baselines.fastdc import SearchMC
from repro.core.adc_enum import DiscoveredADC
from repro.core.approximation import ApproximationFunction, F1
from repro.core.evidence import EvidenceSet
from repro.core.evidence_builder import build_evidence_set, build_evidence_set_pairwise
from repro.core.miner import MiningTimings
from repro.core.predicate_space import PredicateSpace, PredicateSpaceConfig, build_predicate_space
from repro.core.sampling import draw_sample
from repro.data.relation import Relation


@dataclass
class PairwiseEvidenceBuilder:
    """The naive (AFASTDC-style) evidence constructor as a named component."""

    include_participation: bool = False

    def build(self, relation: Relation, space: PredicateSpace) -> EvidenceSet:
        """Build the evidence set by scanning every ordered tuple pair."""
        return build_evidence_set_pairwise(
            relation, space, include_participation=self.include_participation
        )


@dataclass
class BaselineResult:
    """Result of one baseline pipeline run (mirrors ``MiningResult``)."""

    adcs: list[DiscoveredADC]
    timings: MiningTimings
    n_predicates: int
    n_evidences: int

    def __len__(self) -> int:
        return len(self.adcs)


def _run_pipeline(
    relation: Relation,
    function: ApproximationFunction,
    epsilon: float,
    sample_fraction: float,
    seed: int | None,
    build_evidence: Callable[..., EvidenceSet],
    space_config: PredicateSpaceConfig | None,
    max_cover_size: int | None,
) -> BaselineResult:
    timings = MiningTimings()

    started = time.perf_counter()
    space = build_predicate_space(relation, space_config)
    timings.predicate_space = time.perf_counter() - started

    started = time.perf_counter()
    plan = draw_sample(relation, sample_fraction, seed)
    timings.sampling = time.perf_counter() - started

    started = time.perf_counter()
    needs_participation = function.requires_participation
    evidence = build_evidence(plan.sample, space, include_participation=needs_participation)
    timings.evidence = time.perf_counter() - started

    started = time.perf_counter()
    adcs = SearchMC(evidence, function, epsilon, max_cover_size=max_cover_size).enumerate()
    timings.enumeration = time.perf_counter() - started

    return BaselineResult(adcs, timings, len(space), len(evidence))


def afastdc_mine(
    relation: Relation,
    function: ApproximationFunction | None = None,
    epsilon: float = 0.01,
    sample_fraction: float = 1.0,
    seed: int | None = None,
    space_config: PredicateSpaceConfig | None = None,
    max_cover_size: int | None = None,
) -> BaselineResult:
    """The AFASTDC pipeline: naive evidence construction + SearchMC."""
    return _run_pipeline(
        relation, function or F1(), epsilon, sample_fraction, seed,
        build_evidence_set_pairwise, space_config, max_cover_size,
    )


def dcfinder_mine(
    relation: Relation,
    function: ApproximationFunction | None = None,
    epsilon: float = 0.01,
    sample_fraction: float = 1.0,
    seed: int | None = None,
    space_config: PredicateSpaceConfig | None = None,
    max_cover_size: int | None = None,
) -> BaselineResult:
    """The DCFinder pipeline: fast evidence construction + SearchMC."""
    return _run_pipeline(
        relation, function or F1(), epsilon, sample_fraction, seed,
        build_evidence_set, space_config, max_cover_size,
    )
