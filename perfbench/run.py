"""The repository benchmark: ADC mining and live serving, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload mine-sampled --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

``--trace 0`` measures with tracing off and prints the end-to-end metrics;
``--trace 1`` installs the span wrappers of :mod:`tracing` (in this process
and, through :mod:`serve_launcher`, in the server) and prints the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the run (environment, input
fingerprint, sample counts, failures).  Any failed output check makes the
exit code nonzero.  See ``perfbench/README.md`` for the workloads, the
metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent

#: The seed whose outputs are committed in ``expected.json``.
DEFAULT_SEED = 7

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "mine_s": "s",
    "append_p50_ms": "ms",
    "append_p90_ms": "ms",
    "append_rows_per_s": "1/s",
    "check_batch_p50_ms": "ms",
    "check_batch_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "space.build_ms": "ms",
    "sampling.draw_ms": "ms",
    "evidence.build_ms": "ms",
    "engine.tile_pass_ms": "ms",
    "engine.tiles": "count",
    "engine.pairs": "count",
    "engine.merge_ms": "ms",
    "engine.finalize_ms": "ms",
    "evidence.distinct": "count",
    "native.search_calls_per_node": "count",
    "native.tile_calls": "count",
    "enum.search_ms": "ms",
    "enum.nodes": "count",
    "enum.nodes_per_s": "1/s",
    "enum.dcs": "count",
    "approx.evals": "count",
    "approx.eval_ms": "ms",
    "unattributed_ms": "ms",
    "store.append_ms": "ms",
    "store.stage_ms": "ms",
    "store.fold_ms": "ms",
    "store.fold_pairs": "count",
    "store.rebase_ms": "ms",
    "store.merge_ms": "ms",
    "store.listeners_ms": "ms",
    "store.check_batch_ms": "ms",
    "store.probe_ms": "ms",
    "store.kernel_prep_ms": "ms",
    "wal.append_ms": "ms",
    "wal.bytes": "bytes",
    "snapshot.count": "count",
    "snapshot.ms": "ms",
    "snapshot.bytes": "bytes",
    "durability.write_amp": "ratio",
    "recovery.ms": "ms",
    "recovery.replayed_records": "count",
    "recover_s": "s",
    "serve.unattributed_ms.append": "ms",
    "serve.unattributed_ms.violations": "ms",
    "serve.unattributed_ms.check_batch": "ms",
    "protocol.codec_ms": "ms",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "trace.overhead_mine_s": "ratio",
    "trace.overhead_append_p50_ms": "ratio",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="ADC mining and serving benchmark")
    parser.add_argument("--workload", required=True,
                        help="mine-sampled | mine-full | serve-mixed | all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="mining time per run (the serving phase is a fixed append count)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {harness.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    harness.BUILD_DIR.mkdir(exist_ok=True)
    return run_workload(workloads.WORKLOADS[args.workload], args)


def run_workload(workload, args: argparse.Namespace) -> int:
    import workloads

    expectations = json.loads((HERE / "expected.json").read_text())
    harness.use_program_sources()
    started = time.perf_counter()
    from repro.native import get_backend

    get_backend()
    import_s = time.perf_counter() - started
    env = harness.environment()
    if env["backend"] != expectations["backend"]:
        print(f"perfbench: kernel backend {env['backend']!r}, the benchmark is pinned "
              f"to {expectations['backend']!r}; not measuring", file=sys.stderr)
        return 3

    tracer = None
    if args.trace:
        import tracing
        from repro.core.miner import ADCMiner

        tracer = tracing.install(tracing.Tracer())
        tracer.span(ADCMiner, "mine", "mine")
        tracer.enabled = False

    dataset = workload.mine.dataset
    population, types = harness.population(dataset, workload.n_rows)
    rows = harness.permuted(population, args.seed)
    rows_hash = harness.fingerprint(rows)
    expected = expectations["workloads"][workload.name] if args.seed == DEFAULT_SEED else None
    failures: list[str] = []
    attempted = 0
    if expected is not None:
        attempted += 1
        if expected["rows_sha256"] != rows_hash:
            failures.append("generated rows differ from the committed fingerprint")

    mine_source, mine_seed = ((population, harness.POPULATION_SEED) if workload.fixed_mine
                              else (rows, args.seed))
    relation = harness.relation_from_rows(dataset, mine_source[: workload.mine_rows], types)
    mining = workloads.run_mining(workload, relation, mine_seed, args.seconds, tracer)
    failures += mining.failures
    attempted += len(mining.seconds) + len(mining.failures)

    from repro.core.predicate_space import build_predicate_space

    if workload.fixed_mine and workload.mine == workload.spec_miner:
        mined = mining.warmup_result.adcs
    else:
        prefix = harness.relation_from_rows(dataset, population[: workloads.SPEC_ROWS], types)
        mined = workload.spec_miner.miner(harness.POPULATION_SEED).mine(prefix).adcs
    store_space = build_predicate_space(harness.relation_from_rows(
        workloads.STORE, rows[: workload.serve_rows], types))
    chosen = harness.declarable(mined, store_space, workload.n_dcs)
    if not chosen:
        failures.append("no mined DC is declarable on the served store")
        return report(args, workload, env, rows_hash, attempted + 1, failures, {}, {})
    from repro.serve.server import constraint_specs

    specs = constraint_specs(chosen)

    untraced_serving = None
    if tracer is not None:
        # The traced run measures the untraced append latency too, for the overhead.
        untraced_serving = serve(workload, rows, types, specs, args.seed, traced=False,
                                 verify=False)
        failures += untraced_serving.failures
    serving = serve(workload, rows, types, specs, args.seed, traced=tracer is not None)
    bench_rss = serving.bench_rss_mb
    failures += serving.failures
    attempted += serving.attempted

    checked, mining_failures = workloads.check_mining(workload, mining, expected)
    attempted += checked
    failures += mining_failures

    try:
        if tracer is None:
            metrics = end_to_end_metrics(mining, serving, import_s, bench_rss)
        else:
            import layers

            metrics = layers.per_layer_metrics(
                tracer.ledger(), mining, serving, untraced_serving,
                workloads.mining_counts(mining.warmup_result),
            )
    except (IndexError, KeyError, ValueError, ZeroDivisionError) as error:
        failures.append(f"metrics: {type(error).__name__}: {error}")
        metrics = {}
    record = {
        "samples": {
            "mines": len(mining.seconds),
            "appends": len(serving.append_s),
            "reads": len(serving.read_s),
            "check_batches": len(serving.check_s),
            "tail_appends": serving.tail_appends,
        },
        "dc_hash": harness.fingerprint(workloads.dc_list(mining.warmup_result.adcs)),
        **workloads.mining_counts(mining.warmup_result),
        "declared": specs,
    }
    return report(args, workload, env, rows_hash, attempted, failures, metrics, record)


def serve(workload, rows, types, specs, seed: int, traced: bool, verify: bool = True):
    """One serving phase; always stops its servers and removes its files."""
    import workloads

    session = workloads.ServingSession(workload, rows, types, specs, seed, traced)
    try:
        session.setup()
        session.run()
        session.phase.bench_rss_mb = harness.peak_rss_mb()
        if verify:
            session.verify_and_recover()
    except (RuntimeError, OSError, ValueError) as error:
        session.phase.failures.append(f"serving phase: {type(error).__name__}: {error}")
        session.phase.attempted += 1
        session.phase.bench_rss_mb = harness.peak_rss_mb()
    finally:
        session.close()
    return session.phase


def end_to_end_metrics(mining, serving, import_s: float, bench_rss: float) -> dict[str, float]:
    pct = harness.percentile
    return {
        "mine_s": harness.median(mining.seconds),
        "append_p50_ms": pct(serving.append_s, 50) * 1e3,
        "append_p90_ms": pct(serving.append_s, 90) * 1e3,
        "append_rows_per_s": len(serving.acked) / serving.writer_s,
        "check_batch_p50_ms": pct(serving.check_s, 50) * 1e3,
        "check_batch_p90_ms": pct(serving.check_s, 90) * 1e3,
        "setup_s": import_s + mining.warmup_s + serving.setup_s,
        "peak_rss_mb": max(bench_rss, serving.server_rss_mb),
    }


def report(args, workload, env, rows_hash, attempted, failures, metrics, record) -> int:
    units = PER_LAYER if args.trace else END_TO_END
    correct = not failures and set(metrics) == set(units)
    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "env": env, "rows_sha256": rows_hash, **record, "failures": failures,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, len(failures), 1),
        "failed": len(failures) if failures else (0 if correct else 1),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process and print one table."""
    import workloads

    merged: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    for name in workloads.WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if result is None or completed.returncode != 0:
            correct = False
        if result is None:
            failed += 1
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            merged[f"{name}.{metric}"] = entry
            print(f"{name:<14} {metric:<36} {entry['value']:>14.4f} {entry['unit']}")
    print(json.dumps({"correct": correct and failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": merged}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
