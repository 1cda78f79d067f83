"""Shared plumbing of the repository benchmark.

One copy of what the ad-hoc ``benchmarks/bench_*.py`` scripts each carry
their own version of: nearest-rank percentiles, booting a real
``python -m repro.serve`` subprocess and waiting for its readiness banner,
turning mined ADCs into declarable wire specs, seeded row generation with
a content fingerprint, and the environment record every result carries.

Everything the benchmark writes goes under ``.bench_build/`` at the root
of the checkout (compiled kernels, server data directories, trace
ledgers), so a run never touches anything outside it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterable, Mapping, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"

#: Seconds to wait for a server's readiness banner (boot or recovery).
BANNER_TIMEOUT_S = 120.0

_BANNER = re.compile(r"listening on ([\d.]+):(\d+)")


def program_env() -> dict[str, str]:
    """Environment for running the program from this checkout's sources.

    The compiled-kernel cache is pointed inside the checkout so a run reads
    and writes nothing outside it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_NATIVE_CACHE"] = str(BUILD_DIR / "repro-native")
    return env


def use_program_sources() -> None:
    """Make ``import repro`` resolve to this checkout, kernels cached inside it."""
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD_DIR / "repro-native")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) of ``values`` by nearest rank."""
    ranked = sorted(values)
    rank = max(0, math.ceil(q / 100.0 * len(ranked)) - 1)
    return ranked[rank]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def fingerprint(value: object) -> str:
    """SHA-256 of a canonical JSON encoding (stable across processes)."""
    encoded = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


#: Generator seed of every workload's row population.  ``--seed`` draws a
#: permutation of that population, not a new population: a new generator
#: seed changes the data's statistics (search nodes vary by ±12% on the
#: sampled tax mine), a permutation changes only which rows are sampled,
#: served, appended and probed.
POPULATION_SEED = 7


def population(dataset: str, n_rows: int) -> tuple[list[dict], dict[str, str]]:
    """The fixed rows of one synthetic dataset as plain JSON-able dicts, plus types."""
    from repro.data.datasets import generate_dataset
    from repro.durability.journal import plain_rows, relation_types

    relation = generate_dataset(dataset, n_rows, seed=POPULATION_SEED).relation
    return plain_rows(relation), relation_types(relation)


def permuted(rows: list[dict], seed: int) -> list[dict]:
    """``rows`` in the order a seeded permutation gives."""
    import numpy

    order = numpy.random.default_rng(seed).permutation(len(rows))
    return [rows[index] for index in order]


def relation_from_rows(name: str, rows: Iterable[Mapping[str, object]], types: Mapping[str, str]):
    """A :class:`~repro.data.relation.Relation` with the given column types."""
    from repro.data.relation import Relation
    from repro.data.types import ColumnType

    column_types = {column: ColumnType(text) for column, text in types.items()}
    return Relation.from_records(name, list(rows), column_types)


def declarable(adcs: Sequence[object], space, limit: int) -> list[object]:
    """The first ``limit`` mined ADCs whose predicates all exist in ``space``.

    A served store's predicate space is fixed by its seed rows, so a DC
    mined on other rows is declarable only if the store's space has all of
    its predicates.
    """
    chosen = []
    for adc in adcs:
        if all(predicate in space for predicate in adc.constraint.predicates):
            chosen.append(adc)
            if len(chosen) == limit:
                break
    return chosen


def peak_rss_mb(pid: int | None = None) -> float:
    """High-water resident set size of a process (this one by default), MiB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    status = Path(f"/proc/{pid}/status").read_text()
    match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
    if match is None:
        raise RuntimeError(f"no VmHWM for pid {pid}")
    return int(match.group(1)) / 1024.0


def environment() -> dict[str, object]:
    """Backend, CPU count and interpreter/numpy versions of this run."""
    import numpy

    from repro.native import get_backend

    return {
        "backend": get_backend().name,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class ServerProcess:
    """A ``repro.serve`` subprocess, booted until its readiness banner.

    ``traced=True`` starts it through the benchmark's launcher
    (:mod:`serve_launcher`), which installs the trace wrappers before
    handing over to ``repro.serve.__main__.main`` and writes its span
    ledger to ``ledger`` on demand (SIGUSR1) and on graceful exit.
    """

    def __init__(
        self,
        args: Sequence[str],
        traced: bool = False,
        ledger: Path | None = None,
    ) -> None:
        if traced:
            command = [sys.executable, str(HERE / "serve_launcher.py"), str(ledger), *args]
        else:
            command = [sys.executable, "-m", "repro.serve", *args]
        self.ledger = ledger
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=program_env(),
            text=True,
            cwd=str(ROOT),
        )
        self.host, self.port = self._await_banner()
        self.boot_s = time.perf_counter() - started

    def _await_banner(self) -> tuple[str, int]:
        assert self.proc.stdout is not None
        deadline = time.monotonic() + BANNER_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=max(0.0, deadline - time.monotonic())):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = _BANNER.search(line)
                if match:
                    return match.group(1), int(match.group(2))
        self.kill()
        raise RuntimeError("server did not announce its listen address")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def dump_ledger(self, timeout: float = 30.0) -> dict:
        """Ask a traced server for its spans so far (SIGUSR1) and read them."""
        assert self.ledger is not None
        self.ledger.unlink(missing_ok=True)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.ledger.exists():
                try:
                    return json.loads(self.ledger.read_text())
                except json.JSONDecodeError:
                    pass  # still being renamed into place
            time.sleep(0.02)
        raise RuntimeError("traced server wrote no ledger")

    def kill(self) -> None:
        """SIGKILL and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def stop(self, timeout: float = 30.0) -> int:
        """Graceful SIGTERM drain; escalates to SIGKILL after ``timeout``."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.proc.returncode


def server_args(data_dir: Path, snapshot_bytes: int) -> list[str]:
    """The serve flags of every serving phase (everything else at default)."""
    return [
        "--listen", "127.0.0.1:0",
        "--data-dir", str(data_dir),
        "--fsync", "commit",
        "--snapshot-bytes", str(snapshot_bytes),
    ]
