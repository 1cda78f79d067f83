"""Per-layer metrics of a traced run, read from the span ledgers.

Every ``_ms`` metric is a median over the operations of one kind (timed
mines, appends, ``check_batch`` calls, snapshots), in milliseconds.  A
layer's time is its span's *self* time (duration minus traced children)
where the layer has traced children, and its inclusive time otherwise;
``perfbench/README.md`` lists which is which.  ``unattributed_ms`` is the
self time of the benchmark's own ``mine`` root span: mining time no layer
span covers.  ``serve.unattributed_ms.<op>`` is the client's wire latency
minus the server-side layer spans inside it (lock wait, codec, event loop).
"""

from __future__ import annotations

import json
import statistics

import harness
from tracing import INFO, NAME, START, Ledger

#: Spans whose time stays with their parent (they are not reported alone).
_TRANSPARENT = frozenset({"relation.copy", "relation.append_rows", "store.merge",
                          "store.kernel_prep", "store.fold", "store.probe"})

#: Server-side root spans that serve each client op.
_FAMILY = {
    "append": ("store.append", "snapshot.write"),
    "check_batch": ("store.check_batch",),
    "violations": (),
}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mining_metrics(ledger: Ledger, counts: dict[str, int], tracer_counts: dict) -> dict:
    roots = ledger.named("mine", roots_only=True)
    per_mine: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        per_mine.setdefault(name, []).append(value)

    for root in roots:
        spans = ledger.descendants(root)

        def self_ms(name: str) -> float:
            return 1e3 * sum(ledger.self_time(i, _TRANSPARENT) for i in spans
                             if ledger.spans[i][NAME] == name)

        add("space.build_ms", self_ms("space.build"))
        add("sampling.draw_ms", self_ms("sampling.draw"))
        add("evidence.build_ms", self_ms("evidence.build"))
        add("engine.tile_pass_ms", self_ms("engine.tile_pass"))
        add("engine.merge_ms", self_ms("engine.merge"))
        add("engine.finalize_ms", self_ms("engine.finalize"))
        add("enum.search_ms", self_ms("enum.search"))
        add("approx.eval_ms", self_ms("approx.eval"))
        tiles = [i for i in spans if ledger.spans[i][NAME] == "engine.tile_pass"]
        add("engine.tiles", len(tiles))
        add("engine.pairs", sum(ledger.spans[i][INFO]["pairs"] for i in tiles))
        add("approx.evals", sum(1 for i in spans if ledger.spans[i][NAME] == "approx.eval"))
        search = sum(ledger.duration(i) for i in spans if ledger.spans[i][NAME] == "enum.search")
        add("enum.nodes_per_s", counts["enum.nodes"] / search if search else 0.0)
        add("unattributed_ms", 1e3 * ledger.self_time(root, _TRANSPARENT))
    metrics = {name: _median(values) for name, values in per_mine.items()}
    n_mines = max(len(roots), 1)
    metrics["native.tile_calls"] = tracer_counts.get("native.tile_calls", 0) / n_mines
    metrics["native.search_calls_per_node"] = (
        tracer_counts.get("native.search_calls", 0) / n_mines / max(counts["enum.nodes"], 1)
    )
    metrics.update(counts)
    return metrics


def serving_metrics(phase) -> dict:
    live, restarted = (Ledger(l["spans"], l["counts"]) for l in phase.ledgers)
    lo, hi = phase.window
    metrics: dict[str, float] = {}

    appends = live.named("store.append", lo, hi, roots_only=True)
    per_append: dict[str, list[float]] = {}
    for index in appends:
        children = {}
        for child in live.children[index]:
            children.setdefault(live.spans[child][NAME], []).append(child)

        def inclusive_ms(*names: str) -> float:
            return 1e3 * sum(live.duration(c) for n in names for c in children.get(n, ()))

        per_append.setdefault("store.append_ms", []).append(1e3 * live.self_time(index))
        per_append.setdefault("store.stage_ms", []).append(
            inclusive_ms("relation.copy", "relation.append_rows"))
        per_append.setdefault("store.fold_ms", []).append(inclusive_ms("store.fold"))
        per_append.setdefault("store.fold_pairs", []).append(
            sum(live.spans[c][INFO]["pairs"] for c in children.get("store.fold", ())))
        per_append.setdefault("store.rebase_ms", []).append(inclusive_ms("store.rebase"))
        per_append.setdefault("store.merge_ms", []).append(inclusive_ms("store.merge"))
        per_append.setdefault("store.listeners_ms", []).append(inclusive_ms("store.listener"))
        per_append.setdefault("wal.append_ms", []).append(inclusive_ms("wal.append"))
    metrics.update({name: _median(values) for name, values in per_append.items()})

    checks = live.named("store.check_batch", lo, hi, roots_only=True)
    metrics["store.check_batch_ms"] = _median(1e3 * live.self_time(i) for i in checks)
    metrics["store.probe_ms"] = _median(1e3 * live.child_time(i, "store.probe") for i in checks)
    metrics["store.kernel_prep_ms"] = _median(
        1e3 * live.child_time(i, "store.kernel_prep") for i in checks)

    wal_bytes = sum(live.spans[i][INFO]["bytes"] for i in live.named("wal.record", lo, hi))
    snapshots = live.named("snapshot.write", lo, hi, roots_only=True)
    snapshot_bytes = [live.spans[i][INFO]["bytes"] for i in snapshots]
    row_bytes = sum(len(json.dumps(row, separators=(",", ":"))) for row in phase.acked)
    metrics["wal.bytes"] = wal_bytes
    metrics["snapshot.count"] = len(snapshots)
    metrics["snapshot.ms"] = _median(1e3 * live.duration(i) for i in snapshots)
    metrics["snapshot.bytes"] = _median(snapshot_bytes)
    metrics["durability.write_amp"] = (wal_bytes + sum(snapshot_bytes)) / max(row_bytes, 1)

    recoveries = restarted.named("recovery", roots_only=True)
    metrics["recovery.ms"] = _median(1e3 * restarted.duration(i) for i in recoveries)
    metrics["recovery.replayed_records"] = _median(
        restarted.spans[i][INFO]["replayed"] for i in recoveries)
    metrics["recover_s"] = phase.recover_s

    codec = sum(live.duration(i) for name in ("protocol.encode", "protocol.decode")
                for i in live.named(name, lo, hi))
    metrics["protocol.codec_ms"] = 1e3 * codec / max(len(phase.requests), 1)
    metrics["read_p50_ms"] = 1e3 * harness.percentile(phase.read_s, 50)
    metrics["read_p90_ms"] = 1e3 * harness.percentile(phase.read_s, 90)

    roots = {name: sorted((live.spans[i][START], live.duration(i))
                          for i in live.named(name, lo, hi, roots_only=True))
             for names in _FAMILY.values() for name in names}
    for op, names in _FAMILY.items():
        residuals = []
        for request_op, started, ended in phase.requests:
            if request_op != op:
                continue
            covered = sum(duration for name in names for start, duration in roots[name]
                          if started <= start <= ended)
            residuals.append(ended - started - covered)
        metrics[f"serve.unattributed_ms.{op}"] = 1e3 * _median(residuals)
    return metrics


def per_layer_metrics(ledger: dict, mining, serving, untraced_serving, counts) -> dict:
    metrics = mining_metrics(Ledger(ledger["spans"], ledger["counts"]), counts, ledger["counts"])
    if len(serving.ledgers) == 2:
        metrics.update(serving_metrics(serving))
    traced = [s for s, t in zip(mining.seconds, mining.traced) if t]
    untraced = [s for s, t in zip(mining.seconds, mining.traced) if not t]
    if traced and untraced:
        metrics["trace.overhead_mine_s"] = harness.median(traced) / harness.median(untraced)
    if serving.append_s and untraced_serving is not None and untraced_serving.append_s:
        metrics["trace.overhead_append_p50_ms"] = (
            harness.percentile(serving.append_s, 50)
            / harness.percentile(untraced_serving.append_s, 50)
        )
    return metrics
