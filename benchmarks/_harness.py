"""Helpers shared by the standalone serving and durability benchmarks.

``bench_serve.py``, ``bench_obs.py``, ``bench_obs_cluster.py`` and
``bench_durability.py`` import these instead of keeping their own copies:
a nearest-rank percentile, a ``python -m repro.serve`` subprocess booted
on an OS-assigned port, and the locally mined DCs a benchmark declares
over the wire.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from pathlib import Path

from repro.incremental import EvidenceStore

#: Rows mined locally to produce the declared DCs (mining cost is not what
#: the serving benchmarks measure, so it runs on a prefix sample).
MINE_ROWS = 300


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0..100) of ``values`` by nearest-rank."""
    ranked = sorted(values)
    rank = max(0, math.ceil(q / 100.0 * len(ranked)) - 1)
    return ranked[rank]


def boot_server(
    env_overrides: dict[str, str] | None = None, metrics_port: int | None = None
) -> tuple[subprocess.Popen, str, int, tuple[str, int] | None]:
    """Start ``python -m repro.serve`` on an OS-assigned port.

    Returns the process, the listening host and port, and the metrics
    endpoint's address when ``metrics_port`` is given (``0`` lets the OS
    pick it), else ``None``.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_overrides or {})
    command = [sys.executable, "-m", "repro.serve", "--listen", "127.0.0.1:0"]
    if metrics_port is not None:
        command += ["--metrics-port", str(metrics_port)]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, text=True)
    banner = proc.stdout.readline()
    match = re.search(r"listening on ([\d.]+):(\d+)", banner)
    if not match:
        proc.kill()
        raise RuntimeError(f"server did not announce its address: {banner!r}")
    metrics_address = None
    if metrics_port is not None:
        metrics_banner = proc.stdout.readline()
        metrics_match = re.search(r"metrics on ([\d.]+):(\d+)", metrics_banner)
        if metrics_match:
            metrics_address = (metrics_match.group(1), int(metrics_match.group(2)))
    return proc, match.group(1), int(match.group(2)), metrics_address


def mine_constraint_specs(
    base, space, max_dcs: int = 4, max_dc_size: int | None = None
) -> list[list[dict]]:
    """Mine DCs on a prefix sample and return their wire predicate specs.

    The sample store shares the *base* relation's predicate space, so every
    mined predicate is guaranteed to exist in the served store's space
    (``build_predicate_space`` is deterministic in the schema and data).
    """
    sample = base.take(range(min(MINE_ROWS, base.n_rows)))
    adcs = EvidenceStore(sample, space=space).remine(0.1, max_dc_size=max_dc_size)
    if not adcs:
        adcs = EvidenceStore(sample, space=space).remine(0.3, max_dc_size=max_dc_size)
    specs = []
    for adc in adcs[:max_dcs]:
        specs.append([
            {
                "left": p.left_column,
                "op": p.operator.value,
                "right": p.right_column,
                "form": p.form.value,
            }
            for p in adc.constraint.predicates
        ])
    if not specs:
        raise RuntimeError("no DCs mined on the sample; cannot benchmark")
    return specs
