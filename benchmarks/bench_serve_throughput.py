"""Serving throughput: aggregate tokens/s vs concurrency per KV-cache type.

Runs the same fixed workload (N requests, identical prompt/output
budgets) through the continuous-batching engine at increasing
``max_batch_size`` and reports aggregate decode throughput for
FP16/INT4/MANT4 KV caches.  Batch 1 *is* sequential 1-by-1 serving
(admission waits for the running request to finish), so the speedup
column reads directly as batched-vs-sequential.

The batched decode path runs the dense projections once per tick for
the whole batch instead of once per sequence, so aggregate throughput
must *scale* with concurrency; the ``--check-speedups`` mode of
``check_perf.py`` enforces the >=2x floor at batch 8.

Run:  PYTHONPATH=src python benchmarks/bench_serve_throughput.py
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np

from repro.model.zoo import get_model
from repro.quant.kvcache import FP16KVCache, IntKVCache, MantKVCache
from repro.serve import GenerationEngine, GenerationRequest, ServeConfig

N_REQUESTS = 16
PROMPT_LEN = 32
MAX_TOKENS = 16
CONCURRENCY = (1, 2, 4, 8)

CACHE_FACTORIES = {
    "fp16": FP16KVCache,
    "int4": functools.partial(IntKVCache, bits=4, group_size=32),
    "mant4": functools.partial(MantKVCache, group_size=32, window=32),
}


def make_requests(vocab_size: int, n_requests: int = N_REQUESTS,
                  prompt_len: int = PROMPT_LEN, max_tokens: int = MAX_TOKENS,
                  seed: int = 0) -> list[GenerationRequest]:
    rng = np.random.default_rng(seed)
    return [
        GenerationRequest(
            f"req-{i}",
            rng.integers(0, vocab_size, size=prompt_len),
            max_tokens=max_tokens,
        )
        for i in range(n_requests)
    ]


def run_workload(model, cache_factory, requests, max_batch: int, config=None):
    """Serve ``requests`` at ``max_batch`` lanes; returns (elapsed_s, stats).

    ``config`` overrides the whole :class:`ServeConfig` (the chunked,
    policy and fault benchmarks pass their own); ``max_batch`` is
    ignored when it is given.
    """
    if config is None:
        config = ServeConfig(max_batch_size=max_batch)
    engine = GenerationEngine(model, cache_factory, config)
    t0 = time.perf_counter()
    engine.generate(requests)
    elapsed = time.perf_counter() - t0
    return elapsed, engine.stats()


def sweep(model):
    report: dict[str, dict] = {}
    for cache_name, factory in CACHE_FACTORIES.items():
        rows = {}
        base_tps = None
        for batch in CONCURRENCY:
            requests = make_requests(model.config.vocab_size)
            elapsed, stats = run_workload(model, factory, requests, batch)
            tps = stats.tokens_generated / elapsed
            if base_tps is None:
                base_tps = tps
            rows[batch] = {
                "tokens_per_s": round(tps, 1),
                "speedup_vs_sequential": round(tps / base_tps, 2),
                "mean_batch_occupancy": round(stats.mean_batch_occupancy, 2),
                "elapsed_ms": round(elapsed * 1e3, 1),
            }
        report[cache_name] = rows
    return report


def main():
    print("loading unit-test model ...")
    model, _ = get_model("unit-test")
    report = sweep(model)
    top = CONCURRENCY[-1]
    print(f"\nserving throughput: {N_REQUESTS} requests x {MAX_TOKENS} tokens, "
          f"{PROMPT_LEN}-token prompts (aggregate tokens/s)")
    print(f"  {'cache':>6} | " + " | ".join(f"batch {b:>2}" for b in CONCURRENCY)
          + f" | speedup @{top}")
    for name, rows in report.items():
        cells = " | ".join(f"{rows[b]['tokens_per_s']:8.1f}" for b in CONCURRENCY)
        print(f"  {name:>6} | {cells} | {rows[top]['speedup_vs_sequential']:9.2f}x")
    out = os.path.join(os.path.dirname(__file__), "..", "artifacts", "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "serve_throughput.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"saved {os.path.normpath(path)}")


if __name__ == "__main__":
    main()
