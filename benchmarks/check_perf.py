"""Performance regression gate for the MANT hot loops.

Times the core primitives, compares against the committed baseline in
``artifacts/perf_baseline.json`` and fails on a >2x slowdown of any op.
Also verifies the headline fast-path speedups against the in-repo seed
implementations (``legacy_impl``) and the O(T) decode property, so the
perf architecture cannot silently rot.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/check_perf.py            # gate
    PYTHONPATH=src python benchmarks/check_perf.py --update   # rebaseline
    PYTHONPATH=src python benchmarks/check_perf.py --check-speedups
    PYTHONPATH=src python benchmarks/check_perf.py --quick    # loadgen+fleet smoke

The gate compares wall-clock on the current machine against a baseline
recorded on a (possibly different) machine, hence the generous 2x
threshold: it catches algorithmic regressions (an accidental O(n²), a
dropped LUT cache), not scheduler jitter.  Re-run with ``--update``
after intentional perf-relevant changes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import timeit

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.core.codec import MantCodec
from repro.core.fused import fused_group_gemm, quantize_activations_int8
from repro.core.groups import to_groups
from repro.core.selection import MseSearchSelector, VarianceSelector
from repro.model.layers import cached_attention_fwd
from repro.model.zoo import get_model
from repro.quant.kvcache import FP16KVCache, MantKVCache
from repro.serve.paging import BlockPool

from bench_chunked_prefill import (
    chunked_config,
    decode_p95_improvement,
    throughput_ratio,
)
from bench_decode_scaling import decode_chunk_times
from bench_fault_recovery import fault_config, fault_overhead, hooked_workload
from bench_fleet import fleet_recovery_gap, fleet_smoke, fleet_workload
from bench_loadgen import (
    deadline_hit_gain,
    loadgen_smoke,
    smoke_workload,
    urgent_attainment_gain,
)
from bench_observability import obs_config, obs_overhead, observed_workload
from bench_policy_scheduling import (
    fork_prefill_savings,
    high_priority_ttft_gain,
    policy_config,
)
from bench_paged_kv import compute_reuse_configs, prefix_compute_reuse, prefix_reuse
from bench_serve_throughput import CACHE_FACTORIES, make_requests, run_workload
from legacy_impl import (
    LegacyListKVCache,
    LegacyMantCodec,
    LegacyMseSearchSelector,
    legacy_cached_attention_fwd,
    legacy_paged_gather,
)

BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "artifacts", "perf_baseline.json"
)
SLOWDOWN_LIMIT = 2.0

# Acceptance floors for the fast paths vs the seed implementations.
MIN_SELECT_SPEEDUP = 5.0
MIN_ENCODE_SPEEDUP = 3.0

# Group-once KV quantize: MantCodec.select_qdq (group once, absmax
# once, grid ids straight from the selector) vs the coefficient-level
# composition qdq(x, select_batch(groups)) it replaced, on one tick's
# 22x32 K block.  Both run the same level-gather tail and variance, so
# the gap is the duplicated grouping, absmax and per-call grid
# resolution: measured 1.37-1.47x pinned (the pre-change composition,
# on the slower tail it had then, took 2.3x as long).
MIN_SELECT_QDQ_SPEEDUP = 1.25

# Mask-free decode attention: cached_attention_fwd for one decode row
# (t=1, every key visible) over an 80-token, 2-head, d_head-32 context
# vs the always-masked version it replaced, which built the causal
# mask and softmaxed a masked copy of the scores.  Measured 1.94x
# pinned to one CPU.
MIN_DECODE_ATTN_SPEEDUP = 1.5

# Non-contiguous paged read: PagedView.gather of a 10-page table (a
# 313-token MANT prompt's 9 pages shared with a fork whose cloned last
# page sits elsewhere; 2 heads, d_head 32, float32 pages) as one page
# take vs the per-page copy loop it replaced (alternating-round
# minima).  Measured 3.4-3.6x pinned to one CPU (19 -> 5.5 us).
MIN_PAGED_GATHER_SPEEDUP = 2.0

# Serving: aggregate decode throughput at batch 8 vs 1-by-1 serving of
# the same workload (the continuous-batching payoff).
MIN_SERVE_SPEEDUP = 2.0

# Paged KV cache: >= 1.5x prefill-block reuse on the shared-system-prompt
# workload (prefix cache actually deduplicating).
MIN_PREFIX_REUSE = 1.5

# The same workload, served whole-prompt and chunked: prompt tokens over
# prompt tokens run through the model >= 1.5x for each engine
# (prefix-cache hits skip their prefill compute; 6.00x measured for
# both, 1.00x when every prompt is recomputed).  A deterministic count,
# not a timing.
MIN_PREFIX_COMPUTE_REUSE = 1.5

# Chunked prefill: decode inter-token p95 on the long-prompt-interleave
# workload must improve >= 1.5x over whole-prompt prefill, and the
# mixed tick must keep >= 0.95x of the paged engine's aggregate batch-8
# throughput (bounded ticks cannot cost real decode throughput).
MIN_CHUNKED_P95_IMPROVEMENT = 1.5
MIN_CHUNKED_VS_PAGED = 0.95

# Policy scheduling: on the saturated mixed-priority workload, urgent
# requests' TTFT p95 under PriorityPolicy must be >= 2x better than
# FCFS; fork-based n=4 parallel sampling must run >= 1.5x fewer prompt
# tokens through the model than n resubmissions of the same prompt.
MIN_PRIORITY_TTFT_GAIN = 2.0
MIN_FORK_PREFILL_SAVINGS = 1.5

# Fault tolerance: with the fault machinery fully engaged but never
# firing (injector attached, per-request timeout armed), the batch-8
# workload must cost <= 1.05x the plain engine — the hooks are tick-
# boundary-only by design and may not tax the steady state.
MAX_FAULT_OVERHEAD = 1.05

# Observability: with spans, request timelines and registry-backed
# stats all on (the default), the batch-8 workload must cost <= 1.05x
# an observe=False engine — a span is two clock reads and a tuple
# append, and the registry swaps `+= 1` for `.inc()`; neither may tax
# the steady state.
MAX_OBS_OVERHEAD = 1.05

# Loadgen/SLO: on the saturated three-class trace (~3x the knee), the
# urgent class's SLO attainment under PriorityPolicy — and its
# deadline hit-rate under EDF — must beat FCFS by >= 0.3 in absolute
# fraction (measured gaps sit around 0.85; the floor is the "policies
# actually work under load" guarantee, not a tight bound).
MIN_URGENT_ATTAINMENT_GAIN = 0.3
MIN_DEADLINE_HIT_GAIN = 0.3

# Fleet recovery: kill one of two replicas near the fleet knee and the
# router must fail every in-flight request over to the survivor — no
# lost completions, so the SLO attainment gap vs the undisturbed run
# stays small, and the crash may only cost recompute: fleet goodput
# (tokens per virtual second) must hold >= 0.75x baseline.  Both runs
# are on the virtual clock, so the measured values (gap 0.00, ratio
# ~0.83) are deterministic; the floors leave margin for workload
# retunes, not for jitter.
MAX_FLEET_RECOVERY_GAP = 0.05
MIN_FLEET_GOODPUT_RATIO = 0.75


def _time(fn, number=10, repeat=3) -> float:
    fn()  # warm caches (grid tables, numpy buffers)
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number


def _interleaved_min(*fns, number=200, rounds=25) -> list[float]:
    """Per-call minimum of each of ``fns``, timed in alternating rounds.

    For microsecond ops whose ratio is gated: a shared host's speed
    drifts on a scale of hundreds of milliseconds, so timing the
    candidates back to back in every round lets each one's minimum
    come from the same fast stretches.
    """
    for fn in fns:
        fn()
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            best[i] = min(best[i], timeit.timeit(fn, number=number) / number)
    return best


def build_suite():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((256, 1024))
    x = rng.standard_normal((16, 1024))
    a17 = np.full((256, 16), 17.0)
    amix = rng.choice([0.0, 5.0, 17.0, 60.0, 120.0, -1.0], size=(256, 16))
    groups = rng.standard_normal((4096, 64))

    codec = MantCodec(group_size=64)
    selector = MseSearchSelector(group_size=64)
    var_selector = VarianceSelector(group_size=64)
    enc = codec.encode(w, a17)
    xq = quantize_activations_int8(x, 64)

    def decode_step_cost():
        cache = MantKVCache(group_size=64)
        return sum(decode_chunk_times(cache, tokens=256, chunk=256))

    serve_model, _ = get_model("unit-test")

    def serve_workload():
        requests = make_requests(serve_model.config.vocab_size, n_requests=8)
        return run_workload(serve_model, FP16KVCache, requests, max_batch=8)

    def serve_mant_workload():
        # The W4A8KV4-style cache on the default engine: every tick's
        # K/V writes go through the pooled MANT write_layer.
        requests = make_requests(serve_model.config.vocab_size, n_requests=8)
        return run_workload(serve_model, CACHE_FACTORIES["mant4"], requests,
                            max_batch=8)

    def serve_chunked_workload():
        requests = make_requests(serve_model.config.vocab_size, n_requests=8)
        return run_workload(serve_model, FP16KVCache, requests, max_batch=8,
                            config=chunked_config())

    def serve_policy_workload():
        requests = make_requests(serve_model.config.vocab_size, n_requests=8)
        return run_workload(serve_model, FP16KVCache, requests, max_batch=8,
                            config=policy_config())

    def serve_fault_workload():
        requests = make_requests(serve_model.config.vocab_size, n_requests=8)
        return hooked_workload(serve_model, FP16KVCache, requests,
                               config=fault_config())

    def serve_obs_workload():
        requests = make_requests(serve_model.config.vocab_size, n_requests=8)
        return observed_workload(serve_model, FP16KVCache, requests,
                                 config=obs_config())

    def serve_loadgen_workload():
        return smoke_workload(serve_model)

    def serve_fleet_workload():
        return fleet_workload(serve_model)

    return {
        "mse_select": lambda: selector.select(w),
        "fused_select_encode": lambda: selector.select_and_encode(w),
        "encode_single_a": lambda: codec.encode(w, a17),
        "encode_mixed_a": lambda: codec.encode(w, amix),
        "decode": lambda: codec.decode(enc),
        "fused_gemm": lambda: fused_group_gemm(xq, enc),
        "variance_select_batch": lambda: var_selector.select_batch(groups),
        "kv_decode_256_tokens": decode_step_cost,
        "serve_fp16_batch8": serve_workload,
        "serve_mant_batch8": serve_mant_workload,
        "serve_chunked_batch8": serve_chunked_workload,
        "serve_policy_batch8": serve_policy_workload,
        "serve_fault_batch8": serve_fault_workload,
        "serve_obs_batch8": serve_obs_workload,
        "serve_loadgen_smoke": serve_loadgen_workload,
        "serve_fleet_smoke": serve_fleet_workload,
    }


def measure() -> dict[str, float]:
    return {name: _time(fn) for name, fn in build_suite().items()}


def shared_prefix_view():
    """The V view of a fork of a 313-token MANT prompt after one decode
    token: its first 9 pages are the prompt's, its 10th a copy-on-write
    clone placed elsewhere in the pool, so the table is not one run."""
    pool = BlockPool(n_layers=1, block_tokens=32, num_blocks=64)
    make = lambda: MantKVCache(group_size=32, window=32)
    donor = pool.acquire(make)
    rng = np.random.default_rng(1)
    donor.caches[0].prefill(*rng.standard_normal((2, 2, 313, 32)))
    fork = donor.fork()
    fork.caches[0].append(*rng.standard_normal((2, 2, 32)))
    assert fork.table.n_pages == 10 and not fork.table.contiguous
    return fork.caches[0].values()


def check_speedups() -> list[str]:
    """Assert the fast paths beat the seed implementations."""
    rng = np.random.default_rng(0)
    w = rng.standard_normal((256, 1024))
    a17 = np.full((256, 16), 17.0)

    new_sel = MseSearchSelector(group_size=64)
    old_sel = LegacyMseSearchSelector(group_size=64)
    new_codec = MantCodec(group_size=64)
    old_codec = LegacyMantCodec(group_size=64)

    failures = []
    s_sel = _time(lambda: old_sel.select(w)) / _time(lambda: new_sel.select(w))
    s_enc = _time(lambda: old_codec.encode(w, a17)) / _time(
        lambda: new_codec.encode(w, a17)
    )
    print(f"  MseSearchSelector.select speedup vs seed: {s_sel:5.1f}x "
          f"(floor {MIN_SELECT_SPEEDUP}x)")
    print(f"  MantCodec.encode speedup vs seed:         {s_enc:5.1f}x "
          f"(floor {MIN_ENCODE_SPEEDUP}x)")
    if s_sel < MIN_SELECT_SPEEDUP:
        failures.append(f"select speedup {s_sel:.1f}x < {MIN_SELECT_SPEEDUP}x")
    if s_enc < MIN_ENCODE_SPEEDUP:
        failures.append(f"encode speedup {s_enc:.1f}x < {MIN_ENCODE_SPEEDUP}x")

    k_block = rng.standard_normal((22, 32))
    kv_sel = VarianceSelector(group_size=32)
    kv_codec = MantCodec(group_size=32)
    t_old, t_new = _interleaved_min(
        lambda: kv_codec.qdq(k_block, kv_sel.select_batch(to_groups(k_block, 32).groups)),
        lambda: kv_codec.select_qdq(k_block, kv_sel),
    )
    s_sq = t_old / t_new
    print(f"  MantCodec.select_qdq vs select_batch+qdq: {s_sq:5.2f}x "
          f"(floor {MIN_SELECT_QDQ_SPEEDUP}x)")
    if s_sq < MIN_SELECT_QDQ_SPEEDUP:
        failures.append(
            f"select_qdq speedup {s_sq:.2f}x < {MIN_SELECT_QDQ_SPEEDUP}x"
        )

    q_row = rng.standard_normal((2, 1, 32))
    ctx_k, ctx_v = rng.standard_normal((2, 2, 80, 32))
    t_old, t_new = _interleaved_min(
        lambda: legacy_cached_attention_fwd(q_row, ctx_k, ctx_v, offset=79),
        lambda: cached_attention_fwd(q_row, ctx_k, ctx_v, offset=79),
    )
    s_att = t_old / t_new
    print(f"  decode-row attention vs always-masked:    {s_att:5.2f}x "
          f"(floor {MIN_DECODE_ATTN_SPEEDUP}x)")
    if s_att < MIN_DECODE_ATTN_SPEEDUP:
        failures.append(
            f"decode-row attention speedup {s_att:.2f}x < {MIN_DECODE_ATTN_SPEEDUP}x"
        )

    view = shared_prefix_view()
    t_old, t_new = _interleaved_min(
        lambda: legacy_paged_gather(view), view.gather)
    s_gather = t_old / t_new
    print(f"  paged gather, 10-page shared prefix:      {s_gather:5.2f}x "
          f"(floor {MIN_PAGED_GATHER_SPEEDUP}x)")
    if s_gather < MIN_PAGED_GATHER_SPEEDUP:
        failures.append(
            f"paged gather speedup {s_gather:.2f}x < {MIN_PAGED_GATHER_SPEEDUP}x"
        )

    # O(T) decode: buffered cache flat, legacy list cache growing.
    flat = decode_chunk_times(MantKVCache(group_size=64), tokens=512, chunk=128)
    listy = decode_chunk_times(
        LegacyListKVCache(MantKVCache(group_size=64)), tokens=512, chunk=128
    )
    r_flat = flat[-1] / flat[0]
    r_list = listy[-1] / listy[0]
    print(f"  decode chunk-cost growth (buffered):      {r_flat:5.2f}x "
          f"(must stay < 2x)")
    print(f"  decode chunk-cost growth (seed list):     {r_list:5.2f}x")
    if r_flat >= 2.0:
        failures.append(f"buffered decode cost grew {r_flat:.2f}x over 512 tokens")

    # Continuous batching: aggregate decode throughput must scale with
    # concurrency for every cache type; the floor is enforced on FP16
    # (pure engine batching, no quantizer noise).
    model, _ = get_model("unit-test")
    for name, factory in CACHE_FACTORIES.items():
        seq_elapsed, seq_stats = run_workload(
            model, factory, make_requests(model.config.vocab_size), max_batch=1
        )
        bat_elapsed, bat_stats = run_workload(
            model, factory, make_requests(model.config.vocab_size), max_batch=8
        )
        speedup = (bat_stats.tokens_generated / bat_elapsed) / (
            seq_stats.tokens_generated / seq_elapsed
        )
        floor = f"(floor {MIN_SERVE_SPEEDUP}x)" if name == "fp16" else ""
        print(f"  serve {name} batch-8 vs sequential:        {speedup:5.2f}x {floor}")
        if name == "fp16" and speedup < MIN_SERVE_SPEEDUP:
            failures.append(
                f"serve fp16 batch-8 speedup {speedup:.2f}x < {MIN_SERVE_SPEEDUP}x"
            )

    # Paged KV cache: the prefix cache must actually deduplicate shared
    # prompt pages.
    reuse, detail = prefix_reuse(model)
    print(f"  paged prefill-block reuse (shared prefix): {reuse:5.2f}x "
          f"(floor {MIN_PREFIX_REUSE}x; "
          f"{detail['prefill_pages_hit']}/{detail['prefill_pages_total']} "
          "pages shared)")
    if reuse < MIN_PREFIX_REUSE:
        failures.append(
            f"prefix-cache block reuse {reuse:.2f}x < {MIN_PREFIX_REUSE}x"
        )
    for mode, config in compute_reuse_configs().items():
        reuse, detail = prefix_compute_reuse(model, config=config)
        print(f"  {mode} prefill compute reuse (shared prefix): {reuse:5.2f}x "
              f"(floor {MIN_PREFIX_COMPUTE_REUSE}x; {detail['prefill_tokens']}/"
              f"{detail['prompt_tokens']} prompt tokens computed)")
        if reuse < MIN_PREFIX_COMPUTE_REUSE:
            failures.append(f"{mode} prefix-cache compute reuse {reuse:.2f}x "
                            f"< {MIN_PREFIX_COMPUTE_REUSE}x")

    # Chunked prefill: the mixed tick must flatten decode latency under
    # long-prompt interleave without costing batch-8 throughput.  Both
    # gates run on FP16 (pure engine behaviour, no quantizer noise) and
    # take the best of 3 so the floors reflect algorithmic cost, not
    # scheduler jitter; the other cache types print informationally.
    for name in CACHE_FACTORIES:
        if name == "fp16":
            imp = max(decode_p95_improvement(model, name)[2] for _ in range(3))
            print(f"  chunked decode-p95 improvement ({name}):    {imp:5.2f}x "
                  f"(floor {MIN_CHUNKED_P95_IMPROVEMENT}x)")
            if imp < MIN_CHUNKED_P95_IMPROVEMENT:
                failures.append(
                    f"chunked decode-p95 improvement {imp:.2f}x < "
                    f"{MIN_CHUNKED_P95_IMPROVEMENT}x"
                )
            ratio = max(throughput_ratio(model, name)[2] for _ in range(3))
            print(f"  chunked vs paged tokens/s @ batch 8 ({name}): {ratio:4.2f}x "
                  f"(floor {MIN_CHUNKED_VS_PAGED}x)")
            if ratio < MIN_CHUNKED_VS_PAGED:
                failures.append(
                    f"chunked batch-8 throughput {ratio:.2f}x paged < "
                    f"{MIN_CHUNKED_VS_PAGED}x"
                )
        else:
            imp = decode_p95_improvement(model, name)[2]
            ratio = throughput_ratio(model, name)[2]
            print(f"  chunked decode-p95 improvement ({name}):   {imp:5.2f}x ")
            print(f"  chunked vs paged tokens/s @ batch 8 ({name}): {ratio:4.2f}x ")

    # Policy scheduling: priority must actually cut urgent TTFT on the
    # saturated backlog (best of 3 — the floor reflects scheduling, not
    # jitter), and fork-based n=4 must share the prefill compute.
    gain = max(high_priority_ttft_gain(model)[2] for _ in range(3))
    print(f"  priority urgent-TTFT p95 gain vs fcfs:     {gain:5.2f}x "
          f"(floor {MIN_PRIORITY_TTFT_GAIN}x)")
    if gain < MIN_PRIORITY_TTFT_GAIN:
        failures.append(
            f"priority urgent-TTFT gain {gain:.2f}x < {MIN_PRIORITY_TTFT_GAIN}x"
        )
    savings = fork_prefill_savings(model)[2]
    print(f"  fork n=4 prefill-token savings vs resubmit:{savings:5.2f}x "
          f"(floor {MIN_FORK_PREFILL_SAVINGS}x)")
    if savings < MIN_FORK_PREFILL_SAVINGS:
        failures.append(
            f"fork n=4 prefill savings {savings:.2f}x < {MIN_FORK_PREFILL_SAVINGS}x"
        )

    # Fault tolerance: the hooks (fault sites + timeout sweep) must be
    # free in the steady state.  Gated on FP16 (pure engine cost), best
    # of 3 so the ceiling reflects the hooks, not scheduler jitter; the
    # other cache types print informationally.
    for name in CACHE_FACTORIES:
        if name == "fp16":
            overhead = min(fault_overhead(model, name)[2] for _ in range(3))
            print(f"  fault-hook steady-state overhead ({name}):  {overhead:5.3f}x "
                  f"(ceiling {MAX_FAULT_OVERHEAD}x)")
            if overhead > MAX_FAULT_OVERHEAD:
                failures.append(
                    f"fault-hook overhead {overhead:.3f}x > {MAX_FAULT_OVERHEAD}x"
                )
        else:
            overhead = fault_overhead(model, name)[2]
            print(f"  fault-hook steady-state overhead ({name}): {overhead:5.3f}x ")

    # Observability: spans + timelines + registry stats, all on by
    # default, must be free in the steady state.  Gated on FP16 (pure
    # engine cost), best of 3 against scheduler jitter; the other cache
    # types print informationally.
    for name in CACHE_FACTORIES:
        if name == "fp16":
            overhead = min(obs_overhead(model, name)[2] for _ in range(3))
            print(f"  observability steady-state overhead ({name}): {overhead:5.3f}x "
                  f"(ceiling {MAX_OBS_OVERHEAD}x)")
            if overhead > MAX_OBS_OVERHEAD:
                failures.append(
                    f"observability overhead {overhead:.3f}x > {MAX_OBS_OVERHEAD}x"
                )
        else:
            overhead = obs_overhead(model, name)[2]
            print(f"  observability steady-state overhead ({name}): {overhead:5.3f}x ")

    # Loadgen/SLO: under the saturated three-class trace the scheduling
    # policies must deliver their urgent-class wins — SLO attainment
    # (priority vs fcfs) and deadline hit-rate (EDF vs fcfs), both as
    # absolute-fraction gaps, best of 3 against wall-clock jitter.
    att_gap = max(urgent_attainment_gain(model)[2] for _ in range(3))
    print(f"  urgent SLO-attainment gap (prio - fcfs):   {att_gap:5.2f} "
          f"(floor {MIN_URGENT_ATTAINMENT_GAIN})")
    if att_gap < MIN_URGENT_ATTAINMENT_GAIN:
        failures.append(
            f"urgent attainment gap {att_gap:.2f} < {MIN_URGENT_ATTAINMENT_GAIN}"
        )
    hit_gap = max(deadline_hit_gain(model)[2] for _ in range(3))
    print(f"  urgent deadline-hit gap (edf - fcfs):      {hit_gap:5.2f} "
          f"(floor {MIN_DEADLINE_HIT_GAIN})")
    if hit_gap < MIN_DEADLINE_HIT_GAIN:
        failures.append(
            f"urgent deadline-hit gap {hit_gap:.2f} < {MIN_DEADLINE_HIT_GAIN}"
        )

    # Fleet recovery: a replica crash near the knee must not lose
    # requests (the hook asserts every record finishes normally) —
    # only headroom, bounded as an attainment gap ceiling and a
    # goodput-ratio floor.  Virtual clock, so single-run deterministic.
    _, _, fgap = fleet_recovery_gap(model)
    print(f"  fleet crash attainment gap (2 replicas):   {fgap['overall']:5.2f} "
          f"(ceiling {MAX_FLEET_RECOVERY_GAP})")
    print(f"  fleet crash goodput ratio vs baseline:     "
          f"{fgap['goodput_ratio']:5.2f} (floor {MIN_FLEET_GOODPUT_RATIO})")
    if fgap["overall"] > MAX_FLEET_RECOVERY_GAP:
        failures.append(
            f"fleet recovery attainment gap {fgap['overall']:.2f} > "
            f"{MAX_FLEET_RECOVERY_GAP}"
        )
    if fgap["goodput_ratio"] < MIN_FLEET_GOODPUT_RATIO:
        failures.append(
            f"fleet crash goodput ratio {fgap['goodput_ratio']:.2f} < "
            f"{MIN_FLEET_GOODPUT_RATIO}"
        )
    return failures


def quick_smoke() -> int:
    """``--quick``: a seconds-scale loadgen + fleet self-check, no sweep.

    Starts with the static invariant lint over ``src`` (strict, no
    baseline — ``repro.lint`` findings of any severity fail the gate),
    then validates the full loadgen contract on the virtual clock
    (bit-for-bit trace reproducibility, replay-identical records,
    sound SLO report) and the fleet chaos contract (two replicas,
    seeded replica crash, replay-identical records and fault log, zero
    lost requests, storage back at baseline) for the fp16 and mant4
    caches — cheap enough for tier-1-adjacent CI runs.
    """
    from repro.lint.cli import main as lint_main

    src_root = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    print("running static invariant lint (repro.lint, strict) ...")
    if lint_main(["--strict", "--no-baseline", src_root]) != 0:
        print("LINT GATE FAILED")
        return 1
    print("lint gate passed")
    model, _ = get_model("unit-test")
    for cache_name in ("fp16", "mant4"):
        try:
            result = loadgen_smoke(model, cache_name)
        except AssertionError as exc:
            print(f"LOADGEN SMOKE FAILED ({cache_name}): {exc}")
            return 1
        print(f"  {cache_name:>6} | {result['requests']} requests in "
              f"{result['duration_s'] * 1e3:6.1f} ms virtual | "
              f"attainment {result['attainment']:6.1%} | goodput "
              f"{result['goodput_tokens_per_s']:7.1f} tok/s | "
              "trace reproducible, replay identical")
    print("loadgen smoke passed")
    print("running fleet smoke (2 replicas, seeded replica crash) ...")
    for cache_name in ("fp16", "mant4"):
        try:
            result = fleet_smoke(model, cache_name)
        except AssertionError as exc:
            print(f"FLEET SMOKE FAILED ({cache_name}): {exc}")
            return 1
        print(f"  {cache_name:>6} | {result['requests']} requests | "
              f"{result['replica_crashes']} crash, "
              f"{result['failovers']} failovers | attainment "
              f"{result['attainment']:6.1%} | chaos replay identical")
    print("fleet smoke passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed baseline")
    parser.add_argument("--check-speedups", action="store_true",
                        help="also verify fast-path speedups vs the seed impls")
    parser.add_argument("--quick", action="store_true",
                        help="seconds-scale loadgen/SLO + fleet-chaos smoke "
                             "only (no timings, no sweep)")
    args = parser.parse_args()

    if args.quick:
        print("running loadgen smoke (virtual clock) ...")
        return quick_smoke()

    print("measuring hot-loop timings ...")
    current = measure()
    for name, t in current.items():
        print(f"  {name:>24}: {t * 1e3:8.3f} ms")

    if args.update:
        os.makedirs(os.path.dirname(BASELINE), exist_ok=True)
        with open(BASELINE, "w") as fh:
            json.dump({k: round(v, 6) for k, v in current.items()}, fh, indent=2)
            fh.write("\n")
        print(f"baseline written to {os.path.normpath(BASELINE)}")
        return 0

    if not os.path.exists(BASELINE):
        # A gate that self-bootstraps would approve any regression on a
        # checkout missing the baseline; demand an explicit rebaseline.
        print(f"PERF GATE FAILED: no baseline at {os.path.normpath(BASELINE)} "
              "(run with --update to create one intentionally)")
        return 1

    with open(BASELINE) as fh:
        baseline = json.load(fh)

    failures = []
    for name, t in current.items():
        base = baseline.get(name)
        if base is None:
            print(f"  note: no baseline for {name!r} (run --update)")
            continue
        ratio = t / base
        flag = "FAIL" if ratio > SLOWDOWN_LIMIT else "ok"
        print(f"  {name:>24}: {ratio:5.2f}x baseline  [{flag}]")
        if ratio > SLOWDOWN_LIMIT:
            failures.append(f"{name} slowed down {ratio:.2f}x (> {SLOWDOWN_LIMIT}x)")

    if args.check_speedups:
        print("verifying fast-path speedups vs seed implementations ...")
        failures += check_speedups()

    if failures:
        print("\nPERF GATE FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
