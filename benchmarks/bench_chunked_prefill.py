"""Chunked prefill: decode-latency p95 under long-prompt interleave.

The mixed prefill+decode tick exists to keep decode inter-token latency
flat while long prompts stream in.  Two questions, answered on the
unit-test model over the paged engine:

1. **Decode p95 under interleave.**  A batch of short-prompt decode
   requests runs continuously while long prompts (``LONG_PROMPT``
   tokens each) arrive mid-stream.  Whole-prompt prefill stalls every
   decoder for one giant tick per arrival; chunked prefill
   (``prefill_chunk_tokens`` + Sarathi-style ``max_tokens_per_tick``)
   spreads the same FLOPs across bounded ticks.  The benchmark reports
   the p95 inter-token latency of the *short* requests for both
   engines; ``check_perf.py --check-speedups`` enforces the >= 1.5x
   improvement floor.

2. **Throughput parity.**  Bounding ticks must not cost aggregate
   throughput: the standard batch-8 serving workload runs with chunking
   enabled and must stay >= 0.95x the whole-prefill paged engine.

Run:  PYTHONPATH=src python benchmarks/bench_chunked_prefill.py
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.model.zoo import get_model
from repro.serve import GenerationEngine, GenerationRequest, ServeConfig

from bench_paged_kv import BLOCK_TOKENS, paged_config
from bench_serve_throughput import CACHE_FACTORIES, make_requests, run_workload

BATCH = 8
CHUNK_TOKENS = 32          # = BLOCK_TOKENS = the mant4 window in CACHE_FACTORIES
TICK_BUDGET = 64           # decode rows charged first, remainder feeds chunks
N_SHORT = 6
SHORT_PROMPT = 16
SHORT_TOKENS = 64
N_LONG = 6
LONG_PROMPT = 256
LONG_TOKENS = 2
LONG_EVERY = 8             # ticks between long-prompt arrivals: frequent
                           # enough that >5% of decode gaps ride a prefill


def chunked_config(max_batch: int = BATCH) -> ServeConfig:
    return ServeConfig(
        max_batch_size=max_batch,
        block_tokens=BLOCK_TOKENS,
        prefill_chunk_tokens=CHUNK_TOKENS,
        max_tokens_per_tick=TICK_BUDGET,
    )


def interleave_workload(model, cache_factory, config: ServeConfig):
    """Short decoders + mid-stream long prompts; returns latency detail.

    The short requests' inter-token gaps are timestamped via their
    ``on_token`` callbacks (wall clock, not engine stats, so the two
    engines are measured identically); long-prompt requests ride along
    only to inject prefill pressure.
    """
    rng = np.random.default_rng(0)
    vocab = model.config.vocab_size
    engine = GenerationEngine(model, cache_factory, config)
    gaps: list[float] = []
    last_emit: dict[str, float] = {}

    def on_token(event):
        now = time.perf_counter()
        if event.token is not None:
            if event.request_id in last_emit:
                gaps.append(now - last_emit[event.request_id])
            last_emit[event.request_id] = now

    for i in range(N_SHORT):
        engine.submit(
            GenerationRequest(f"short-{i}", rng.integers(0, vocab, size=SHORT_PROMPT),
                              max_tokens=SHORT_TOKENS),
            on_token=on_token,
        )
    longs = iter(range(N_LONG))
    next_long = next(longs, None)
    tick = 0
    t0 = time.perf_counter()
    while engine.has_work():
        if next_long is not None and tick == (next_long + 1) * LONG_EVERY:
            engine.submit(GenerationRequest(
                f"long-{next_long}", rng.integers(0, vocab, size=LONG_PROMPT),
                max_tokens=LONG_TOKENS))
            next_long = next(longs, None)
        engine.step()
        tick += 1
    elapsed = time.perf_counter() - t0
    stats = engine.stats()
    return {
        "decode_p95_ms": float(np.percentile(gaps, 95) * 1e3),
        "decode_p50_ms": float(np.percentile(gaps, 50) * 1e3),
        "decode_max_ms": float(np.max(gaps) * 1e3),
        "ticks": tick,
        "elapsed_ms": elapsed * 1e3,
        "tokens_generated": stats.tokens_generated,
        "prefill_chunks": stats.prefill_chunks,
        "engine_itl_p95_ms": stats.inter_token_p95_s * 1e3,
        "engine_ttft_p95_ms": stats.ttft_p95_s * 1e3,
    }


def decode_p95_improvement(model, cache_name: str = "fp16"):
    """(whole_detail, chunked_detail, p95 improvement) on the interleave."""
    factory = CACHE_FACTORIES[cache_name]
    whole = interleave_workload(model, factory, paged_config())
    chunked = interleave_workload(model, factory, chunked_config())
    return whole, chunked, whole["decode_p95_ms"] / chunked["decode_p95_ms"]


def throughput_ratio(model, cache_name: str = "fp16"):
    """(paged_tps, chunked_tps, ratio) on the standard batch-8 workload."""
    factory = CACHE_FACTORIES[cache_name]
    p_elapsed, p_stats = run_workload(
        model, factory, make_requests(model.config.vocab_size), max_batch=BATCH,
        config=paged_config(),
    )
    c_elapsed, c_stats = run_workload(
        model, factory, make_requests(model.config.vocab_size), max_batch=BATCH,
        config=chunked_config(),
    )
    paged_tps = p_stats.tokens_generated / p_elapsed
    chunked_tps = c_stats.tokens_generated / c_elapsed
    return paged_tps, chunked_tps, chunked_tps / paged_tps


def main():
    print("loading unit-test model ...")
    model, _ = get_model("unit-test")

    print(f"\ndecode inter-token p95 under long-prompt interleave "
          f"({N_SHORT} decoders x {SHORT_TOKENS} tokens, {N_LONG} x "
          f"{LONG_PROMPT}-token prompts arriving mid-stream; "
          f"chunk={CHUNK_TOKENS}, tick budget={TICK_BUDGET})")
    report: dict[str, dict] = {"interleave": {}, "throughput": {}}
    for name in CACHE_FACTORIES:
        whole, chunked, imp = decode_p95_improvement(model, name)
        report["interleave"][name] = {
            "whole_prefill": whole, "chunked": chunked,
            "p95_improvement": round(imp, 2),
        }
        print(f"  {name:>6} | whole p95 {whole['decode_p95_ms']:7.2f} ms "
              f"(max {whole['decode_max_ms']:7.2f}) | "
              f"chunked p95 {chunked['decode_p95_ms']:7.2f} ms "
              f"(max {chunked['decode_max_ms']:7.2f}) | {imp:5.2f}x better")

    print(f"\naggregate throughput, standard batch-{BATCH} workload "
          f"(chunked vs whole-prefill paged)")
    for name in CACHE_FACTORIES:
        paged_tps, chunked_tps, ratio = throughput_ratio(model, name)
        report["throughput"][name] = {
            "paged_tokens_per_s": round(paged_tps, 1),
            "chunked_tokens_per_s": round(chunked_tps, 1),
            "chunked_vs_paged": round(ratio, 3),
        }
        print(f"  {name:>6} | paged {paged_tps:8.1f} tok/s | "
              f"chunked {chunked_tps:8.1f} tok/s | ratio {ratio:5.2f}x")

    out = os.path.join(os.path.dirname(__file__), "..", "artifacts", "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "chunked_prefill.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"saved {os.path.normpath(path)}")


if __name__ == "__main__":
    main()
