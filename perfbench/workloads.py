"""The benchmark's workloads: a mining phase and a serving phase each.

Every workload runs the same session a user of this repository runs:
mine DCs from a relation with :class:`~repro.core.miner.ADCMiner`, declare
some of them on a live ``python -m repro.serve`` store seeded with rows of
the same relation, stream keyed 1-row appends into it while a second
connection reads counters and checks rows for admission, then SIGKILL the
server and restart it.  The workloads differ in which phase carries the
load:

``mine-sampled``
    f1' (``adjust_for_sample=True``) at epsilon 0.01, ``max_dc_size=4``,
    on a 1/8 sample of 8000 ``tax`` rows: the search dominates.
``mine-full``
    f2 at epsilon 0.01, ``max_dc_size=3``, on all 6000 ``hospital`` rows:
    the tile pass, participation and finalize dominate.
``serve-mixed``
    DCs mined on a 300-row ``tax`` prefix (a small mine), then the long
    serving phase: the incremental store, durability and serving layers.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from dataclasses import dataclass, field

import harness

#: Served store name.
STORE = "bench"

#: Rows checked for admission, cycled by the reader connection.
PROBE_ROWS = 64

#: WAL size that triggers a snapshot: several compactions per serving phase
#: (a keyed 1-row append of tax rows journals about 230 bytes).
SNAPSHOT_BYTES = 16 * 1024

#: WAL records the restarted server replays: the kill lands this many
#: appends after a compaction, so every run recovers the same amount.
REPLAY_RECORDS = 20

#: Rows the untimed tail may append while waiting for that compaction.
TAIL_ROWS = 160

#: Declared DCs are mined (f1, epsilon 0.1, ``max_dc_size=3``) on this many
#: rows of the unpermuted population, so every seed serves the same DCs.
SPEC_ROWS = 300

#: The reader's pause between a ``check_batch`` reply and the next counter
#: read.  The reply releases the store lock to the writer's queued append;
#: without the pause, whether the read reaches the server before that append
#: starts running is a race that settles differently per process, and the
#: read p50 jumped between ~1 ms and ~5 ms from run to run.  After the pause
#: every read meets a running append.
READ_DELAY_S = 0.002

#: Socket timeout of every benchmark client request, seconds.
REQUEST_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class MineConfig:
    """One ``ADCMiner`` configuration."""

    dataset: str
    function: str
    epsilon: float
    max_dc_size: int | None
    sample_fraction: float = 1.0
    adjust_for_sample: bool = False

    def miner(self, seed: int):
        from repro.core.miner import ADCMiner

        return ADCMiner(
            self.function,
            self.epsilon,
            sample_fraction=self.sample_fraction,
            adjust_for_sample=self.adjust_for_sample,
            max_dc_size=self.max_dc_size,
            seed=seed,
        )

    def approximation(self, result):
        """The approximation function the run used, for re-validation."""
        from repro.core.approximation import get_approximation_function
        from repro.core.sampling import adjusted_function

        if self.adjust_for_sample and self.sample_fraction < 1.0 and self.function == "f1":
            return adjusted_function(result.sample_plan.sample_pairs)
        return get_approximation_function(self.function)


@dataclass(frozen=True)
class Workload:
    name: str
    mine: MineConfig
    #: Rows the miner sees: the first ``mine_rows`` of the permuted rows.
    mine_rows: int
    #: Timed mines: at least ``min_mines``, and more while the mining share
    #: of ``--seconds`` lasts.
    min_mines: int
    mine_share: float
    #: The writer's fixed count of keyed 1-row appends.
    appends: int
    serve_rows: int = 2000
    n_dcs: int = 4
    #: Mine the unpermuted population with the population seed: the same
    #: mining input for every ``--seed``, which then varies only the served
    #: rows.  Sampled mining needs this: the search nodes of a 1/8 sample
    #: vary by ±7% with the sample drawn, which alone took ``mine_s`` to an
    #: IQR/median of 0.27 over ten seeds.
    fixed_mine: bool = False

    @property
    def n_rows(self) -> int:
        """Rows generated: the mined prefix and the serving rows, whichever is more."""
        return max(self.mine_rows, self.serve_rows + self.appends + TAIL_ROWS + PROBE_ROWS)

    @property
    def spec_miner(self) -> MineConfig:
        """The mine whose DCs every serving phase declares."""
        return MineConfig(self.mine.dataset, "f1", 0.1, 3)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "mine-sampled",
            MineConfig("tax", "f1", 0.01, 4, sample_fraction=1 / 8, adjust_for_sample=True),
            mine_rows=8000, min_mines=3, mine_share=1.0, appends=100, fixed_mine=True,
        ),
        Workload(
            "mine-full",
            MineConfig("hospital", "f2", 0.01, 3),
            mine_rows=6000, min_mines=3, mine_share=1.0, appends=100,
        ),
        Workload(
            "serve-mixed",
            MineConfig("tax", "f1", 0.1, 3),
            mine_rows=SPEC_ROWS, min_mines=3, mine_share=0.0, appends=200,
            fixed_mine=True,
        ),
    )
}


# ----------------------------------------------------------------------
# Mining phase
# ----------------------------------------------------------------------
def dc_list(adcs) -> list[list[str]]:
    """A mined DC list in comparable form (constraint, mask, score)."""
    return [
        [str(adc.constraint), str(adc.hitting_set_mask), repr(adc.violation_score)]
        for adc in adcs
    ]


@dataclass
class MiningPhase:
    warmup_s: float
    warmup_result: object
    seconds: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    results: list[object] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def run_mining(workload: Workload, relation, seed: int, seconds: float,
               tracer=None) -> MiningPhase:
    """Warm-up mine (set-up), then timed mines.

    With a tracer, timed mines alternate untraced and traced so the same
    run measures the tracing overhead.
    """
    miner = workload.mine.miner(seed)
    started = time.perf_counter()
    warm = miner.mine(relation)
    phase = MiningPhase(time.perf_counter() - started, warm)
    budget = workload.mine_share * seconds
    phase_start = time.perf_counter()
    while (len(phase.seconds) < workload.min_mines
           or time.perf_counter() - phase_start < budget):
        traced = tracer is not None and len(phase.seconds) % 2 == 1
        if tracer is not None:
            tracer.enabled = traced
        started = time.perf_counter()
        try:
            result = miner.mine(relation)
        except Exception as error:  # noqa: BLE001 - counted as a failed op
            phase.failures.append(f"mine raised {type(error).__name__}: {error}")
            break
        finally:
            if tracer is not None:
                tracer.enabled = False
        phase.seconds.append(time.perf_counter() - started)
        phase.traced.append(traced)
        phase.results.append(result)
    return phase


def check_mining(workload: Workload, phase: MiningPhase,
                 expected: dict | None) -> tuple[int, list[str]]:
    """Check the timed mines' output; returns (checks attempted, failures).

    Every timed mine must return the warm-up's DC list.  With committed
    expectations (the default seed) the DC-list hash and the counts must
    equal them; every DC is also re-validated against the run's
    approximation function and epsilon.
    """
    failures: list[str] = []
    reference = phase.warmup_result
    reference_hash = harness.fingerprint(dc_list(reference.adcs))
    attempted = 0
    for index, result in enumerate(phase.results):
        attempted += 1
        if harness.fingerprint(dc_list(result.adcs)) != reference_hash:
            failures.append(f"timed mine {index} returned a different DC list")
    observed = mining_counts(reference)
    if expected is not None:
        attempted += 1
        if expected.get("dc_hash") != reference_hash:
            failures.append("DC-list hash differs from the committed one")
        for key, value in observed.items():
            attempted += 1
            if expected.get(key) != value:
                failures.append(f"{key} = {value}, committed {expected.get(key)}")
    attempted += 1
    if not reference.adcs:
        failures.append("no DCs mined")
    function = workload.mine.approximation(reference)
    evidence = reference.evidence
    for adc in reference.adcs:
        attempted += 1
        score = function.violation_score(
            evidence, evidence.uncovered_indices(adc.hitting_set_mask)
        )
        if score > workload.mine.epsilon + 1e-12 or abs(score - adc.violation_score) > 1e-9:
            failures.append(f"DC {adc.constraint} scores {score}, reported {adc.violation_score}")
            break
    return attempted, failures


def mining_counts(result) -> dict[str, int]:
    return {
        "enum.dcs": len(result.adcs),
        "enum.nodes": int(result.enumeration_statistics.recursive_calls),
        "evidence.distinct": len(result.evidence),
    }


# ----------------------------------------------------------------------
# Serving phase
# ----------------------------------------------------------------------
@dataclass
class ServingPhase:
    setup_s: float = 0.0
    append_s: list[float] = field(default_factory=list)
    read_s: list[float] = field(default_factory=list)
    check_s: list[float] = field(default_factory=list)
    #: Client-side (op, start, end) of every timed request, for the trace.
    requests: list[tuple[str, float, float]] = field(default_factory=list)
    writer_s: float = 0.0
    window: tuple[float, float] = (0.0, 0.0)
    acked: list[dict] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    server_rss_mb: float = 0.0
    bench_rss_mb: float = 0.0
    recover_s: float = 0.0
    tail_appends: int = 0
    ledgers: list[dict] = field(default_factory=list)


class ServingSession:
    """One serving phase: boot, timed mixed load, checks, crash, recovery."""

    def __init__(self, workload: Workload, rows: list[dict], types: dict[str, str],
                 specs: list[list[dict]], seed: int, traced: bool) -> None:
        self.workload = workload
        self.seed_rows = rows[: workload.serve_rows]
        timed_end = workload.serve_rows + workload.appends
        self.append_rows = rows[workload.serve_rows: timed_end]
        self.tail_rows = rows[timed_end: timed_end + TAIL_ROWS]
        self.probe_rows = rows[-PROBE_ROWS:]
        self.types = types
        self.specs = specs
        self.seed = seed
        self.traced = traced
        tag = f"{workload.name}-{seed}-{'traced' if traced else 'plain'}"
        self.data_dir = harness.BUILD_DIR / f"serve-{tag}"
        self.ledger_path = harness.BUILD_DIR / f"ledger-{tag}.json"
        self.phase = ServingPhase()
        self.server: harness.ServerProcess | None = None

    # -- lifecycle --------------------------------------------------------
    def _boot(self) -> harness.ServerProcess:
        return harness.ServerProcess(
            harness.server_args(self.data_dir, SNAPSHOT_BYTES),
            traced=self.traced, ledger=self.ledger_path,
        )

    def _client(self):
        from repro.serve import ServeClient

        assert self.server is not None
        return ServeClient(self.server.host, self.server.port, timeout=REQUEST_TIMEOUT_S)

    def setup(self) -> None:
        """Boot, ``create_store`` and ``declare`` (the serving set-up time)."""
        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.data_dir.mkdir(parents=True)
        started = time.perf_counter()
        self.server = self._boot()
        with self._client() as client:
            client.create_store(STORE, self.seed_rows, self.types)
            client.declare(STORE, self.specs, epsilon=0.01)
        self.phase.setup_s = time.perf_counter() - started

    def close(self) -> None:
        """Kill whatever server is still running and remove the run's files."""
        if self.server is not None:
            self.server.kill()
            self.server = None
        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.ledger_path.unlink(missing_ok=True)

    # -- timed load -------------------------------------------------------
    def run(self) -> None:
        """Writer and reader connections in a closed loop, one op each at a time."""
        from repro.serve import ServeError

        phase = self.phase
        done = threading.Event()
        errors: list[str] = []

        def writer() -> None:
            try:
                with self._client() as client:
                    for index, row in enumerate(self.append_rows):
                        started = time.perf_counter()
                        try:
                            reply = client.append(
                                STORE, [row], request_key=f"{self.seed}-{index}"
                            )
                        except (ServeError, OSError, ValueError) as error:
                            errors.append(f"append {index}: {error}")
                            continue
                        ended = time.perf_counter()
                        phase.append_s.append(ended - started)
                        phase.requests.append(("append", started, ended))
                        if reply.get("appended") != 1:
                            errors.append(f"append {index} acknowledged {reply.get('appended')}")
                            continue
                        phase.acked.append(row)
                phase.writer_s = time.perf_counter() - window_start
            finally:
                done.set()

        n_dcs = len(self.specs)
        window_start = time.perf_counter()
        thread = threading.Thread(target=writer)
        thread.start()
        reads = 0
        with self._client() as client:
            while not done.is_set():
                op = "violations" if reads % 2 == 0 else "check_batch"
                if op == "violations":
                    time.sleep(READ_DELAY_S)
                started = time.perf_counter()
                try:
                    if op == "violations":
                        reply = client.violations(STORE, (reads // 2) % n_dcs)
                        ok = isinstance(reply.get("count"), int) and reply["count"] >= 0
                    else:
                        probe = self.probe_rows[(reads // 2) % len(self.probe_rows)]
                        reply = client.check_batch(STORE, [probe])
                        ok = len(reply.get("rows", ())) == 1
                except (ServeError, OSError, ValueError) as error:
                    errors.append(f"{op} {reads}: {error}")
                    reads += 1
                    continue
                ended = time.perf_counter()
                (phase.read_s if op == "violations" else phase.check_s).append(ended - started)
                phase.requests.append((op, started, ended))
                if not ok:
                    errors.append(f"{op} {reads} returned a malformed reply")
                reads += 1
        thread.join()
        phase.window = (window_start, time.perf_counter())
        phase.attempted += len(self.append_rows) + reads
        phase.failures.extend(errors)

    # -- checks, crash, recovery -------------------------------------------
    def verify_and_recover(self) -> None:
        """Counter/finalize/local agreement, then SIGKILL, restart, re-check."""
        from repro.serve import ServeError

        phase = self.phase
        assert self.server is not None
        expected_counts = local_counts(self.seed_rows, phase.acked, self.types, self.specs)
        try:
            with self._client() as client:
                for index, local in enumerate(expected_counts):
                    counted = client.violations(STORE, index)["count"]
                    finalized = client.violations(STORE, index, mode="finalize")["count"]
                    phase.attempted += 1
                    if not counted == finalized == local:
                        phase.failures.append(
                            f"DC {index}: counters {counted}, finalize {finalized}, "
                            f"local store {local}"
                        )
                phase.attempted += 1
                n_rows = client.report(STORE)["n_rows"]
                if n_rows != self.workload.serve_rows + len(phase.acked):
                    phase.failures.append(f"store has {n_rows} rows after "
                                          f"{len(phase.acked)} acknowledged appends")
                self._append_past_compaction(client)
                before = client.report(STORE)
        except (ServeError, OSError, ValueError) as error:
            phase.failures.append(f"pre-kill check: {error}")
            return
        phase.server_rss_mb = self.server.peak_rss_mb()
        if self.traced:
            phase.ledgers.append(self.server.dump_ledger())
        self.server.kill()
        started = time.perf_counter()
        self.server = self._boot()
        phase.recover_s = time.perf_counter() - started
        phase.attempted += 1
        try:
            with self._client() as client:
                after = client.report(STORE)
        except (ServeError, OSError, ValueError) as error:
            phase.failures.append(f"post-restart check: {error}")
            return
        if (after["n_rows"], [d["count"] for d in after["report"]]) != (
            before["n_rows"], [d["count"] for d in before["report"]]
        ):
            phase.failures.append("restart changed the row count or the counters")
        self.server.stop()
        if self.traced:
            phase.ledgers.append(json.loads(self.ledger_path.read_text()))
        self.server = None

    def _append_past_compaction(self, client) -> None:
        """Untimed appends until a snapshot is written, then REPLAY_RECORDS more."""
        phase = self.phase

        def snapshots() -> int:
            return client.stats()["stores"][STORE]["durability"]["snapshots_written"]

        def append_next() -> bool:
            if phase.tail_appends == len(self.tail_rows):
                phase.failures.append(f"tail rows ran out after {phase.tail_appends} appends")
                return False
            row = self.tail_rows[phase.tail_appends]
            client.append(STORE, [row], request_key=f"{self.seed}-tail-{phase.tail_appends}")
            phase.tail_appends += 1
            return True

        written = snapshots()
        while snapshots() == written:
            if not append_next():
                return
        for _ in range(REPLAY_RECORDS):
            if not append_next():
                return


def local_counts(seed_rows, acked, types, specs) -> list[int]:
    """Per-DC violating-pair counts of an in-benchmark store fed the same rows."""
    from repro.core.dc import DenialConstraint
    from repro.incremental import EvidenceStore
    from repro.incremental.serve import ViolationService
    from repro.serve.server import parse_predicate

    store = EvidenceStore(harness.relation_from_rows(STORE, seed_rows, types))
    if acked:
        store.append(acked)
    constraints = [DenialConstraint(parse_predicate(p) for p in spec) for spec in specs]
    service = ViolationService(store, constraints)
    return [service.violations(index).count for index in range(len(constraints))]
