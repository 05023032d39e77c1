"""Serving throughput: batched frontend vs. sequential per-query execution.

Measures the amortization the batching frontend buys on the online phase:
``N`` queries served one by one (each its own batch-1 plan execution with a
pre-provisioned pool — the fair sequential baseline) against the same ``N``
queries pushed through a :class:`repro.serve.BatchingFrontend` that
coalesces them up to ``max_batch``.  Reports queries/sec and p50/p95
latency for both paths.

Run with:  PYTHONPATH=src python benchmarks/bench_serving_throughput.py
Optionally ``--json out.json`` writes the numbers for CI artifacts.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.crypto import make_context
from repro.crypto.secure_model import SecureInferenceEngine
from repro.models import build_model, export_layer_weights, get_backbone
from repro.nn.tensor import Tensor
from repro.serve import BatchingFrontend, ServableModel
from repro.utils import seed_everything


def _percentiles_ms(latencies):
    return (
        1e3 * float(np.percentile(latencies, 50)),
        1e3 * float(np.percentile(latencies, 95)),
    )


def run_benchmark(
    model: str = "vgg-tiny",
    input_size: int = 8,
    num_queries: int = 32,
    max_batch: int = 8,
    seed: int = 0,
) -> dict:
    seed_everything(1)
    spec = get_backbone(model, input_size=input_size).with_all_polynomial()
    net = build_model(spec)
    rng = np.random.default_rng(0)
    for _ in range(2):
        net(Tensor(rng.normal(size=(4, spec.in_channels, input_size, input_size))))
    net.eval()
    weights = export_layer_weights(net)
    queries = np.random.default_rng(3).normal(
        size=(num_queries, spec.in_channels, input_size, input_size)
    )

    # -- sequential baseline: one batch-1 execution per query --------------- #
    engine = SecureInferenceEngine(make_context(seed=seed))
    plan1 = engine.compile(spec, batch_size=1)
    pools = [engine.preprocess(plan1) for _ in range(num_queries)]  # offline
    latencies = []
    seq_start = time.perf_counter()
    for i in range(num_queries):
        t0 = time.perf_counter()
        engine.execute(plan1, weights, queries[i : i + 1], pool=pools[i])
        latencies.append(time.perf_counter() - t0)
    seq_seconds = time.perf_counter() - seq_start
    seq_p50, seq_p95 = _percentiles_ms(latencies)

    # -- batched frontend --------------------------------------------------- #
    frontend = BatchingFrontend(
        {model: ServableModel(spec, weights)},
        max_batch=max_batch,
        provision_pools=max(num_queries // max_batch + 1, 1),
        seed=seed,
    )
    with frontend:
        batch_start = time.perf_counter()
        futures = frontend.submit_many(model, queries)
        for future in futures:
            future.result(timeout=300)
        batch_seconds = time.perf_counter() - batch_start
    stats = frontend.stats.snapshot()
    cache = frontend.cache.stats.snapshot()

    sequential = {
        "queries_per_second": num_queries / seq_seconds,
        "p50_latency_ms": seq_p50,
        "p95_latency_ms": seq_p95,
        "total_seconds": seq_seconds,
    }
    batched = {
        "queries_per_second": num_queries / batch_seconds,
        "p50_latency_ms": stats["p50_latency_ms"],
        "p95_latency_ms": stats["p95_latency_ms"],
        "total_seconds": batch_seconds,
        "mean_batch_size": stats["mean_batch_size"],
        "batches_dispatched": stats["batches_dispatched"],
        "cold_pool_misses": cache["cold_pool_misses"],
    }
    return {
        # ``serving-bench/v1`` shared schema (docs/serving.md); the bare
        # "sequential"/"batched" keys are kept for older consumers.
        "schema": "serving-bench/v1",
        "kind": "serving_throughput",
        "model": spec.name,
        "config": {
            "num_queries": num_queries,
            "max_batch": max_batch,
            "seed": seed,
        },
        "paths": {"sequential": sequential, "batched-1worker": batched},
        "workers": [],  # in-process backend: no party workers
        "num_queries": num_queries,
        "max_batch": max_batch,
        "sequential": sequential,
        "batched": batched,
        "throughput_speedup": seq_seconds / batch_seconds,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="vgg-tiny")
    parser.add_argument("--input-size", type=int, default=8)
    parser.add_argument("--queries", type=int, default=32)
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--json", dest="json_path", default=None)
    args = parser.parse_args()

    report = run_benchmark(
        model=args.model,
        input_size=args.input_size,
        num_queries=args.queries,
        max_batch=args.max_batch,
    )

    seq = report["sequential"]
    bat = report["batched"]
    print(f"== serving throughput: {report['model']}, "
          f"{report['num_queries']} queries, max_batch {report['max_batch']} ==")
    print(f"{'path':<12} {'qps':>9} {'p50 ms':>9} {'p95 ms':>9} {'total s':>9}")
    print(f"{'sequential':<12} {seq['queries_per_second']:>9.1f} "
          f"{seq['p50_latency_ms']:>9.2f} {seq['p95_latency_ms']:>9.2f} "
          f"{seq['total_seconds']:>9.3f}")
    print(f"{'batched':<12} {bat['queries_per_second']:>9.1f} "
          f"{bat['p50_latency_ms']:>9.2f} {bat['p95_latency_ms']:>9.2f} "
          f"{bat['total_seconds']:>9.3f}")
    print(f"throughput speedup: {report['throughput_speedup']:.2f}x "
          f"(mean batch {bat['mean_batch_size']:.1f}, "
          f"{bat['batches_dispatched']} dispatches, "
          f"{bat['cold_pool_misses']} cold pool misses)")

    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote benchmark JSON to {args.json_path}")


if __name__ == "__main__":
    main()
