"""Paged KV cache: prefill-block reuse under a shared prompt prefix.

Answered on the unit-test model at batch 8: a shared-prefix workload
(every request starts with one common system prompt) measures how many
prompt pages the hash-based prefix cache deduplicates.  *Reuse* is
tokens prefilled divided by the tokens actually allocated for them
(``block_tokens x freshly written prefill pages``).  Storage that
re-materializes every prompt has reuse 1.0 by construction;
``check_perf.py --check-speedups`` enforces >= 1.5x.  The same
workload also measures *compute* reuse: prompt tokens over the tokens
actually run through the model, since an engine skips the prefill of
the pages it matched (gated at >= 1.5x for the whole-prompt and the
chunked engine).

Run:  PYTHONPATH=src python benchmarks/bench_paged_kv.py
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.model.zoo import get_model
from repro.serve import GenerationEngine, GenerationRequest, ServeConfig

from bench_serve_throughput import CACHE_FACTORIES, MAX_TOKENS, N_REQUESTS

BATCH = 8
BLOCK_TOKENS = 32          # multiple of the mant4 window (32) in CACHE_FACTORIES
PREFIX_LEN = 64            # shared system prompt: 2 full pages
TAIL_LEN = 8               # unique per-request suffix


def paged_config(max_batch: int = BATCH, enable_prefix_cache: bool = True) -> ServeConfig:
    return ServeConfig(
        max_batch_size=max_batch,
        block_tokens=BLOCK_TOKENS,
        enable_prefix_cache=enable_prefix_cache,
    )


def make_shared_prefix_requests(vocab_size: int, n_requests: int = N_REQUESTS,
                                prefix_len: int = PREFIX_LEN,
                                tail_len: int = TAIL_LEN,
                                max_tokens: int = MAX_TOKENS,
                                seed: int = 0) -> list[GenerationRequest]:
    """N requests sharing one system prompt, each with a unique tail."""
    rng = np.random.default_rng(seed)
    system = rng.integers(0, vocab_size, size=prefix_len)
    return [
        GenerationRequest(
            f"req-{i}",
            np.concatenate([system, rng.integers(0, vocab_size, size=tail_len)]),
            max_tokens=max_tokens,
        )
        for i in range(n_requests)
    ]


def prefix_reuse(model, cache_name: str = "mant4"):
    """Serve the shared-prefix workload paged; return (reuse, detail)."""
    factory = CACHE_FACTORIES[cache_name]
    engine = GenerationEngine(model, factory, paged_config())
    requests = make_shared_prefix_requests(model.config.vocab_size)
    results = engine.generate(requests)
    pool = engine.pool
    tokens_prefilled = sum(int(r.prompt.size) for r in requests)
    fresh_pages = pool.prefill_pages_total - pool.prefill_pages_hit
    reuse = tokens_prefilled / (BLOCK_TOKENS * fresh_pages)
    detail = {
        "tokens_prefilled": tokens_prefilled,
        "prefill_pages_total": pool.prefill_pages_total,
        "prefill_pages_hit": pool.prefill_pages_hit,
        "fresh_prefill_pages": fresh_pages,
        "prefix_hit_tokens": pool.prefix_hit_tokens,
        "block_tokens": BLOCK_TOKENS,
        "blocks_high_water": pool.high_water,
        "reuse": round(reuse, 2),
        "requests_completed": len(results),
    }
    return reuse, detail


def compute_reuse_configs() -> dict[str, ServeConfig]:
    """The engines the compute-reuse gate serves the workload with."""
    return {"whole": ServeConfig(max_batch_size=BATCH),
            "chunked": ServeConfig.chunked(max_batch_size=BATCH)}


def prefix_compute_reuse(model, cache_name: str = "mant4",
                         config: ServeConfig | None = None):
    """Serve the shared-prefix workload; return (reuse, detail).

    *Compute reuse* is prompt tokens admitted over prompt tokens run
    through the model (``EngineStats.prefill_tokens``): an engine skips
    the compute of prefix-cache pages it matched, so the ratio is above
    1.0 exactly when hits save prefill work, and it is a count, not a
    timing.  ``config`` defaults to the chunked engine.
    """
    if config is None:
        config = compute_reuse_configs()["chunked"]
    engine = GenerationEngine(model, CACHE_FACTORIES[cache_name], config)
    requests = make_shared_prefix_requests(model.config.vocab_size)
    results = engine.generate(requests)
    stats = engine.stats()
    reuse = stats.prompt_tokens / stats.prefill_tokens
    detail = {
        "prompt_tokens": stats.prompt_tokens,
        "prefill_tokens": stats.prefill_tokens,
        "prefix_hit_tokens": stats.prefix_hit_tokens,
        "reuse": round(reuse, 2),
        "requests_completed": len(results),
    }
    return reuse, detail


def main():
    print("loading unit-test model ...")
    model, _ = get_model("unit-test")

    report: dict[str, dict] = {"prefix_reuse": {}}
    print(f"\nshared-prefix prefill-block reuse "
          f"({N_REQUESTS} requests, {PREFIX_LEN}-token shared system prompt "
          f"+ {TAIL_LEN}-token unique tails)")
    for name in CACHE_FACTORIES:
        reuse, detail = prefix_reuse(model, name)
        report["prefix_reuse"][name] = detail
        print(f"  {name:>6} | {detail['prefill_pages_hit']:3d}/"
              f"{detail['prefill_pages_total']:3d} prompt pages shared | "
              f"{detail['fresh_prefill_pages']:3d} fresh | reuse {reuse:5.2f}x")

    report["prefix_compute_reuse"] = {}
    print(f"\nshared-prefix prefill compute reuse (batch {BATCH}: prompt "
          "tokens / tokens run through the model)")
    for mode, config in compute_reuse_configs().items():
        for name in CACHE_FACTORIES:
            reuse, detail = prefix_compute_reuse(model, name, config)
            report["prefix_compute_reuse"][f"{mode}/{name}"] = detail
            print(f"  {mode:>7} {name:>6} | {detail['prompt_tokens']:5d} "
                  f"prompt tokens | {detail['prefill_tokens']:5d} computed | "
                  f"reuse {reuse:5.2f}x")

    out = os.path.join(os.path.dirname(__file__), "..", "artifacts", "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "paged_kv.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"saved {os.path.normpath(path)}")


if __name__ == "__main__":
    main()
