"""Tests of the benchmark itself: stable inputs and checks that can fail.

Run with ``python3 -m pytest perfbench/test_perfbench.py -q`` from the root
of the checkout.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

harness.use_program_sources()

_FINGERPRINT_SCRIPT = """
import sys
sys.path.insert(0, {here!r})
import harness
harness.use_program_sources()
rows, types = harness.population({dataset!r}, {n_rows})
print(harness.fingerprint([harness.permuted(rows, {seed}), types]))
"""


def _fingerprint_in_process(dataset: str, n_rows: int, seed: int, hash_seed: str) -> str:
    script = _FINGERPRINT_SCRIPT.format(here=str(HERE), dataset=dataset,
                                        n_rows=n_rows, seed=seed)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    completed = subprocess.run([sys.executable, "-c", script], env=env, text=True,
                               capture_output=True, check=True, timeout=120)
    return completed.stdout.strip()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_rows_are_the_same_in_every_process(name):
    workload = workloads.WORKLOADS[name]
    prints = {
        _fingerprint_in_process(workload.mine.dataset, workload.n_rows, 11, hash_seed)
        for hash_seed in ("1", "2")
    }
    assert len(prints) == 1


@pytest.mark.xfail(strict=True, reason="stock/flight seed random.Random with hash(), "
                                       "which PYTHONHASHSEED changes per process")
@pytest.mark.parametrize("dataset", ["stock", "flight"])
def test_stock_and_flight_rows_depend_on_the_process(dataset):
    prints = {_fingerprint_in_process(dataset, 50, 7, hash_seed) for hash_seed in ("1", "2")}
    assert len(prints) == 1


# ----------------------------------------------------------------------
# Mining checks
# ----------------------------------------------------------------------
SMALL = workloads.Workload(
    "small", workloads.MineConfig("tax", "f1", 0.1, 3),
    mine_rows=120, min_mines=1, mine_share=0.0, appends=12, serve_rows=150, n_dcs=2,
)


@pytest.fixture(scope="module")
def small_mining():
    population, types = harness.population("tax", SMALL.n_rows)
    rows = harness.permuted(population, 3)
    relation = harness.relation_from_rows("small", rows[: SMALL.mine_rows], types)
    return rows, types, workloads.run_mining(SMALL, relation, 3, 0.0)


def _committed(phase) -> dict:
    return {"dc_hash": harness.fingerprint(workloads.dc_list(phase.warmup_result.adcs)),
            **workloads.mining_counts(phase.warmup_result)}


def test_mining_check_passes_on_its_own_output(small_mining):
    _, _, phase = small_mining
    attempted, failures = workloads.check_mining(SMALL, phase, _committed(phase))
    assert failures == []
    assert attempted > len(phase.warmup_result.adcs)


@pytest.mark.parametrize("key", ["dc_hash", "enum.dcs", "enum.nodes", "evidence.distinct"])
def test_a_perturbed_expectation_fails_the_mining_check(small_mining, key):
    _, _, phase = small_mining
    expected = _committed(phase)
    expected[key] = "0" * 64 if key == "dc_hash" else expected[key] + 1
    _, failures = workloads.check_mining(SMALL, phase, expected)
    assert failures


def test_revalidation_fails_dcs_above_epsilon(small_mining):
    _, _, phase = small_mining
    stricter = dataclasses.replace(SMALL, mine=dataclasses.replace(SMALL.mine, epsilon=0.0))
    _, failures = workloads.check_mining(stricter, phase, None)
    assert any("scores" in failure for failure in failures)


# ----------------------------------------------------------------------
# Serving checks (a real server on a small store)
# ----------------------------------------------------------------------
def _serve(small_mining, monkeypatch=None, perturb: bool = False):
    from repro.core.predicate_space import build_predicate_space
    from repro.serve.server import constraint_specs

    rows, types, phase = small_mining
    space = build_predicate_space(
        harness.relation_from_rows(workloads.STORE, rows[: SMALL.serve_rows], types))
    specs = constraint_specs(harness.declarable(phase.warmup_result.adcs, space, SMALL.n_dcs))
    assert specs
    if perturb:
        original = workloads.local_counts
        monkeypatch.setattr(workloads, "local_counts",
                            lambda *args: [count + 1 for count in original(*args)])
    harness.BUILD_DIR.mkdir(exist_ok=True)
    session = workloads.ServingSession(SMALL, rows, types, specs, 3, traced=False)
    try:
        session.setup()
        session.run()
        session.verify_and_recover()
    finally:
        session.close()
    return session.phase


def test_serving_session_checks_pass_and_recovery_replays_a_fixed_tail(small_mining):
    phase = _serve(small_mining)
    assert phase.failures == []
    assert len(phase.append_s) == SMALL.appends
    assert phase.read_s and phase.check_s
    assert phase.recover_s > 0


def test_a_perturbed_local_count_fails_the_serving_check(small_mining, monkeypatch):
    phase = _serve(small_mining, monkeypatch, perturb=True)
    assert any("local store" in failure for failure in phase.failures)


def test_a_failed_check_makes_the_exit_code_nonzero(capsys):
    args = run.parse_args(["--workload", "serve-mixed"])
    workload = workloads.WORKLOADS["serve-mixed"]
    code = run.report(args, workload, {}, "", 3, ["mismatch"], {}, {})
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1
