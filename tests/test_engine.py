"""Unit tests of the parallel evidence engine (scheduler, kernel, pool).

Covers the adaptive tile-size budget math, the tile schedule and its shard
partitioning, picklability of the tile kernel, and the process-pool fold of
:func:`build_evidence_set` being bit-identical to the serial fold and the
dense oracle.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from tests.conftest import make_random_relation
from repro.core.evidence_builder import build_evidence_set, build_evidence_set_dense
from repro.core.miner import ADCMiner
from repro.core.predicate_space import build_predicate_space
from repro.engine import (
    PartialEvidenceSet,
    Tile,
    TileKernel,
    TileScheduler,
    choose_tile_rows,
)
from repro.engine.scheduler import MAX_TILE_ROWS, MIN_TILE_ROWS, _KERNEL_PLANES


def assert_evidence_identical(left, right) -> None:
    """Bit-identical words, multiplicities, and (if present) participation."""
    assert np.array_equal(left.words, right.words)
    assert np.array_equal(left.counts, right.counts)
    assert left.n_rows == right.n_rows
    assert left.has_participation == right.has_participation
    if left.has_participation:
        for index in range(len(left)):
            a = left.participation(index)
            b = right.participation(index)
            assert np.array_equal(a.tuple_ids, b.tuple_ids)
            assert np.array_equal(a.pair_counts, b.pair_counts)


class TestChooseTileRows:
    def test_budgeted_tile_fits_the_budget(self):
        # In the unclamped region the kernel's transient bytes stay within
        # budget: 3 planes of 8 * n_words bytes per pair.
        for n_words in (1, 2, 8):
            budget = _KERNEL_PLANES * 8 * n_words * 100 * 100
            tile = choose_tile_rows(10**6, n_words, budget)
            assert tile == 100
            assert _KERNEL_PLANES * 8 * n_words * tile * tile <= budget

    def test_monotone_in_budget(self):
        tiles = [
            choose_tile_rows(10**6, 4, budget)
            for budget in (2**18, 2**21, 2**24, 2**27)
        ]
        assert tiles == sorted(tiles)

    def test_wider_spaces_get_smaller_tiles(self):
        budget = 2**22
        assert choose_tile_rows(10**6, 16, budget) < choose_tile_rows(10**6, 1, budget)

    def test_floor_and_cap(self):
        assert choose_tile_rows(10**6, 1, 1) == MIN_TILE_ROWS
        assert choose_tile_rows(10**6, 1, 2**60) == MAX_TILE_ROWS

    def test_clamped_by_relation_size(self):
        assert choose_tile_rows(5, 1, 2**30) == 5
        assert choose_tile_rows(1, 1, 1) == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            choose_tile_rows(0, 1)
        with pytest.raises(ValueError):
            choose_tile_rows(10, 0)
        with pytest.raises(ValueError):
            choose_tile_rows(10, 1, 0)


class TestTileScheduler:
    def test_tiles_cover_the_pair_matrix_exactly_once(self):
        scheduler = TileScheduler(n_rows=10, tile_rows=3)
        covered = np.zeros((10, 10), dtype=int)
        for tile in scheduler:
            covered[tile.i0 : tile.i1, tile.j0 : tile.j1] += 1
        assert (covered == 1).all()
        assert scheduler.total_pairs == 10 * 9
        assert sum(tile.n_pairs for tile in scheduler) == 10 * 9

    def test_grid_and_len(self):
        scheduler = TileScheduler(n_rows=10, tile_rows=3)
        assert scheduler.grid == 4
        assert len(scheduler) == 16

    def test_adaptive_default_tile_rows(self):
        scheduler = TileScheduler(n_rows=10**6, n_words=2, memory_budget_bytes=2**22)
        assert scheduler.tile_rows == choose_tile_rows(10**6, 2, 2**22)

    def test_diagonal_tiles_exclude_diagonal_pairs(self):
        assert Tile(0, 3, 0, 3).n_pairs == 6
        assert Tile(0, 3, 3, 6).n_pairs == 9
        assert Tile(2, 5, 4, 7).n_pairs == 8  # one overlapping diagonal cell

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 16, 99])
    def test_shards_partition_tiles_contiguously(self, k):
        scheduler = TileScheduler(n_rows=11, tile_rows=3)
        shards = scheduler.shards(k)
        assert len(shards) == min(k, len(scheduler))
        assert shards[0].start == 0
        assert shards[-1].stop == len(scheduler)
        position = 0
        for shard in shards:
            assert shard.start == position
            assert shard.stop > shard.start
            assert shard.tiles == scheduler.tiles()[shard.start : shard.stop]
            position = shard.stop
        assert sum(shard.n_pairs for shard in shards) == scheduler.total_pairs

    def test_shards_are_balanced(self):
        scheduler = TileScheduler(n_rows=64, tile_rows=4)
        shards = scheduler.shards(4)
        fair_share = scheduler.total_pairs / 4
        for shard in shards:
            assert shard.n_pairs <= 2 * fair_share

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            TileScheduler(n_rows=-1)
        with pytest.raises(ValueError):
            TileScheduler(n_rows=4, tile_rows=0)
        with pytest.raises(ValueError):
            TileScheduler(n_rows=4, tile_rows=2).shards(0)

    def test_empty_relation(self):
        scheduler = TileScheduler(n_rows=0, tile_rows=4)
        assert len(scheduler) == 0
        assert scheduler.shards(3) == []


class TestTileKernel:
    def test_kernel_round_trips_through_pickle(self):
        relation = make_random_relation(n_rows=9, seed=13)
        space = build_predicate_space(relation)
        kernel = TileKernel.from_relation(relation, space, include_participation=True)
        clone = pickle.loads(pickle.dumps(kernel))
        tile = Tile(0, 5, 3, 9)
        original = kernel.run(tile)
        revived = clone.run(tile)
        assert np.array_equal(original.words, revived.words)
        assert np.array_equal(original.counts, revived.counts)
        assert np.array_equal(original.part_keys, revived.part_keys)
        assert np.array_equal(original.part_counts, revived.part_counts)

    def test_kernel_over_schedule_matches_tiled_builder(self):
        relation = make_random_relation(n_rows=12, seed=5)
        space = build_predicate_space(relation)
        kernel = TileKernel.from_relation(relation, space)
        partial = PartialEvidenceSet(relation.n_rows, kernel.n_words)
        for tile in TileScheduler(relation.n_rows, tile_rows=5):
            tile_partial = kernel.run(tile)
            if tile_partial is not None:
                partial.add_tile(tile_partial)
        assert_evidence_identical(
            partial.finalize(space), build_evidence_set(relation, space)
        )

    def test_diagonal_1x1_tile_is_empty(self):
        relation = make_random_relation(n_rows=4, seed=1)
        space = build_predicate_space(relation)
        kernel = TileKernel.from_relation(relation, space)
        assert kernel.run(Tile(2, 3, 2, 3)) is None


class TestParallelBuilder:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_parallel_matches_serial_and_dense(self, n_workers):
        relation = make_random_relation(
            n_rows=23, n_string_columns=2, n_numeric_columns=2, seed=17
        )
        space = build_predicate_space(relation)
        parallel = build_evidence_set(
            relation, space, tile_rows=5, n_workers=n_workers
        )
        assert_evidence_identical(
            parallel, build_evidence_set(relation, space, tile_rows=5)
        )
        assert_evidence_identical(parallel, build_evidence_set_dense(relation, space))

    def test_adaptive_tile_rows_default(self):
        relation = make_random_relation(n_rows=20, seed=3)
        space = build_predicate_space(relation)
        parallel = build_evidence_set(relation, space, n_workers=2)
        assert_evidence_identical(parallel, build_evidence_set(relation, space))

    def test_without_participation(self):
        relation = make_random_relation(n_rows=10, seed=8)
        space = build_predicate_space(relation)
        parallel = build_evidence_set(
            relation, space, include_participation=False, n_workers=2, tile_rows=4
        )
        assert not parallel.has_participation
        tiled = build_evidence_set(
            relation, space, include_participation=False, tile_rows=4
        )
        assert np.array_equal(parallel.words, tiled.words)
        assert np.array_equal(parallel.counts, tiled.counts)

    def test_tiny_relation_edge_cases(self):
        single = make_random_relation(n_rows=1, seed=0)
        empty_evidence = build_evidence_set(single, build_predicate_space(single))
        assert len(empty_evidence) == 0
        pair = make_random_relation(n_rows=2, seed=0)
        evidence = build_evidence_set(pair, build_predicate_space(pair), n_workers=2)
        assert evidence.recorded_pairs == 2

    def test_invalid_n_workers(self):
        relation = make_random_relation(n_rows=4, seed=0)
        space = build_predicate_space(relation)
        with pytest.raises(ValueError):
            build_evidence_set(relation, space, n_workers=0)

    def test_single_worker_never_spawns_a_pool(self, monkeypatch):
        """ADCMiner(n_workers=1) must not pay executor spin-up (satellite)."""
        import repro.engine.parallel as parallel_module

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("ProcessPoolExecutor must not be created")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", forbidden)
        relation = make_random_relation(n_rows=12, seed=5)
        space = build_predicate_space(relation)
        serial = build_evidence_set(relation, space, tile_rows=3, n_workers=1)
        assert_evidence_identical(serial, build_evidence_set_dense(relation, space))

    def test_fewer_shards_than_workers_falls_through_to_serial(self, monkeypatch):
        import repro.engine.parallel as parallel_module

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("ProcessPoolExecutor must not be created")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", forbidden)
        # One tile -> one shard, far fewer than the requested workers.
        relation = make_random_relation(n_rows=6, seed=2)
        space = build_predicate_space(relation)
        serial = build_evidence_set(relation, space, tile_rows=8, n_workers=8)
        assert_evidence_identical(serial, build_evidence_set_dense(relation, space))

    def test_miner_integration(self):
        relation = make_random_relation(n_rows=14, seed=21)
        tiled_run = ADCMiner(function="f1", epsilon=0.05).mine(relation)
        parallel_run = ADCMiner(function="f1", epsilon=0.05, n_workers=2).mine(relation)
        assert {str(adc.constraint) for adc in parallel_run.adcs} == {
            str(adc.constraint) for adc in tiled_run.adcs
        }
