"""Distributed mining: two socket workers, one coordinator, exact results.

The smallest end-to-end cluster deployment, all on this machine:

1. stand up a :class:`~repro.cluster.local.LocalCluster` — a coordinator
   listening on localhost plus two real ``python -m repro.cluster.worker``
   subprocesses that dial in over TCP (on a real cluster you would start
   that command on each machine instead);
2. mine with :class:`~repro.core.miner.ADCMiner`, evidence tiles built
   over the workers and the enumeration's root subtrees farmed out too;
3. compare against a plain single-process ``ADCMiner`` run — the
   cluster invariant is *bit-identity*, not approximation, so the DC
   lists must match exactly.

Run with::

    PYTHONPATH=src python examples/cluster_mining.py
"""

from __future__ import annotations

from repro import ADCMiner, LocalCluster
from repro.data.datasets import generate_dataset

EPSILON = 0.01
ROWS = 400
MAX_DC_SIZE = 3  # keep the enumeration tractable on the dense tax space


def main() -> None:
    relation = generate_dataset("tax", n_rows=ROWS, seed=7).relation

    print(f"mining {ROWS} rows serially in-process ...")
    serial = ADCMiner("f1", EPSILON, max_dc_size=MAX_DC_SIZE).mine(relation)
    print(f"  {len(serial)} minimal ADCs in {serial.timings.total:.2f}s "
          f"(evidence {serial.timings.evidence:.2f}s)")

    print("spawning a coordinator + 2 socket workers on localhost ...")
    with LocalCluster(n_workers=2, transport="socket") as cluster:
        clustered = ADCMiner(
            "f1", EPSILON, max_dc_size=MAX_DC_SIZE,
            cluster=cluster, cluster_enumeration=True,
        ).mine(relation)
        print(f"  {len(clustered)} minimal ADCs in {clustered.timings.total:.2f}s "
              f"(evidence {clustered.timings.evidence:.2f}s over "
              f"{cluster.n_workers} workers, "
              f"{cluster.coordinator.bytes_received:,} result bytes back)")

    serial_dcs = [str(constraint) for constraint in serial.constraints]
    cluster_dcs = [str(constraint) for constraint in clustered.constraints]
    assert serial_dcs == cluster_dcs, "cluster mining must match serial exactly"
    print(f"cluster and serial DC lists are identical ({len(serial_dcs)} DCs):")
    for text in serial_dcs[:5]:
        print(f"  {text}")
    if len(serial_dcs) > 5:
        print(f"  ... and {len(serial_dcs) - 5} more")


if __name__ == "__main__":
    main()
