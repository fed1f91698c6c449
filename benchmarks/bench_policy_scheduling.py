"""Policy scheduling: high-priority TTFT, deadline hit-rate, fork savings.

Three questions about the serving API v2, answered on the unit-test
model:

1. **High-priority TTFT.**  A saturated engine (``BATCH`` lanes, a
   deep backlog of background requests) receives a burst of
   high-priority requests.  Under FCFS they wait behind the whole
   backlog; under :class:`~repro.serve.policy.PriorityPolicy` they are
   admitted as soon as lanes free.  The benchmark reports the urgent
   requests' TTFT p95 for both policies; ``check_perf.py
   --check-speedups`` enforces the >= 2x improvement floor.

2. **Deadline hit-rate** (informational).  A workload whose *later*
   arrivals carry *tighter* deadlines — the adversarial case for FCFS —
   is measured for the fraction of requests finishing inside their
   ``deadline_s`` under FCFS vs :class:`~repro.serve.policy.
   DeadlinePolicy` (EDF).

3. **Fork-based parallel sampling.**  ``GenerationRequest(n=4)``
   prefills once and forks the paged lease copy-on-write per sample;
   the baseline resubmits the same prompt 4 times.  The benchmark
   reports prompt tokens actually run through the model
   (``EngineStats.prefill_tokens``) and wall-clock for both; the
   >= 1.5x fewer-prefill-tokens floor is enforced by ``check_perf.py``.

Run:  PYTHONPATH=src python benchmarks/bench_policy_scheduling.py
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.model.zoo import get_model
from repro.serve import GenerationEngine, GenerationRequest, SamplingParams, ServeConfig

from bench_serve_throughput import CACHE_FACTORIES

BATCH = 4                  # lanes in the saturated-priority scenario
N_BACKGROUND = 12          # backlog depth (3x the lanes)
N_URGENT = 4
BG_PROMPT = 24
BG_TOKENS = 24
URGENT_PROMPT = 16
URGENT_TOKENS = 8

N_DEADLINE = 12
DEADLINE_BATCH = 2

FORK_N = 4
FORK_PROMPT = 64
FORK_TOKENS = 16
FORK_REQUESTS = 8


def mixed_priority_workload(model, cache_factory, policy: str):
    """Backlogged engine + urgent burst; returns TTFT detail per class."""
    rng = np.random.default_rng(0)
    vocab = model.config.vocab_size
    engine = GenerationEngine(
        model, cache_factory,
        ServeConfig(max_batch_size=BATCH, scheduler_policy=policy),
    )
    for i in range(N_BACKGROUND):
        engine.submit(GenerationRequest(
            f"bg-{i}", rng.integers(0, vocab, size=BG_PROMPT),
            max_tokens=BG_TOKENS, priority=0))
    for i in range(N_URGENT):
        engine.submit(GenerationRequest(
            f"urgent-{i}", rng.integers(0, vocab, size=URGENT_PROMPT),
            max_tokens=URGENT_TOKENS, priority=8))
    t0 = time.perf_counter()
    engine.generate()
    elapsed = time.perf_counter() - t0
    urgent = [engine.result(f"urgent-{i}").ttft_s for i in range(N_URGENT)]
    background = [engine.result(f"bg-{i}").ttft_s for i in range(N_BACKGROUND)]
    return {
        "policy": policy,
        "urgent_ttft_p95_ms": float(np.percentile(urgent, 95) * 1e3),
        "urgent_ttft_mean_ms": float(np.mean(urgent) * 1e3),
        "background_ttft_p95_ms": float(np.percentile(background, 95) * 1e3),
        "elapsed_ms": elapsed * 1e3,
        "tokens_generated": engine.stats().tokens_generated,
    }


def high_priority_ttft_gain(model, cache_name: str = "fp16"):
    """(fcfs_detail, priority_detail, urgent-TTFT-p95 improvement)."""
    factory = CACHE_FACTORIES[cache_name]
    fcfs = mixed_priority_workload(model, factory, "fcfs")
    prio = mixed_priority_workload(model, factory, "priority")
    return fcfs, prio, fcfs["urgent_ttft_p95_ms"] / prio["urgent_ttft_p95_ms"]


def deadline_workload(model, cache_factory, policy: str):
    """Later arrivals get tighter deadlines; returns the hit-rate."""
    rng = np.random.default_rng(1)
    vocab = model.config.vocab_size
    engine = GenerationEngine(
        model, cache_factory,
        ServeConfig(max_batch_size=DEADLINE_BATCH, scheduler_policy=policy),
    )
    t_submit = {}
    t_finish = {}

    def on_token(event):
        if event.finished:
            t_finish[event.request_id] = time.perf_counter()

    deadlines = {}
    for i in range(N_DEADLINE):
        rid = f"d-{i}"
        # Arrival i of N: deadline shrinks as i grows (EDF's win case).
        deadlines[rid] = 0.120 * (N_DEADLINE - i) / N_DEADLINE + 0.010
        t_submit[rid] = time.perf_counter()
        engine.submit(GenerationRequest(
            rid, rng.integers(0, vocab, size=12), max_tokens=8,
            deadline_s=deadlines[rid]), on_token=on_token)
    engine.generate()
    hits = sum(
        t_finish[rid] - t_submit[rid] <= deadlines[rid] for rid in deadlines
    )
    return {"policy": policy, "hit_rate": hits / N_DEADLINE,
            "deadline_range_ms": [min(deadlines.values()) * 1e3,
                                  max(deadlines.values()) * 1e3]}


def fork_sampling_workload(model, cache_factory, use_fork: bool):
    """n=4 via one fork-backed request vs 4 resubmissions per prompt."""
    rng = np.random.default_rng(2)
    vocab = model.config.vocab_size
    engine = GenerationEngine(model, cache_factory, ServeConfig(
        max_batch_size=8, block_tokens=32,
        enable_prefix_cache=False,      # measure compute, not page dedup
    ))
    prompts = [rng.integers(0, vocab, size=FORK_PROMPT)
               for _ in range(FORK_REQUESTS)]
    t0 = time.perf_counter()
    if use_fork:
        engine.generate(
            GenerationRequest(f"r{i}", p, max_tokens=FORK_TOKENS,
                              sampling=SamplingParams(temperature=0.8, seed=i),
                              n=FORK_N)
            for i, p in enumerate(prompts))
    else:
        engine.generate(
            GenerationRequest(f"r{i}-s{j}", p, max_tokens=FORK_TOKENS,
                              sampling=SamplingParams(temperature=0.8,
                                                      seed=1000 * i + j))
            for i, p in enumerate(prompts) for j in range(FORK_N))
    elapsed = time.perf_counter() - t0
    stats = engine.stats()
    return {
        "mode": "fork" if use_fork else "resubmit",
        "prefill_tokens": stats.prefill_tokens,
        "forks": engine.pool.forks,
        "tokens_generated": stats.tokens_generated,
        "elapsed_ms": elapsed * 1e3,
    }


def fork_prefill_savings(model, cache_name: str = "fp16"):
    """(fork_detail, resubmit_detail, prefill-token savings ratio)."""
    factory = CACHE_FACTORIES[cache_name]
    fork = fork_sampling_workload(model, factory, use_fork=True)
    resub = fork_sampling_workload(model, factory, use_fork=False)
    return fork, resub, resub["prefill_tokens"] / fork["prefill_tokens"]


def policy_config(max_batch: int = 8) -> ServeConfig:
    """The timed ``serve_policy_batch8`` shape for check_perf.py."""
    return ServeConfig(max_batch_size=max_batch, scheduler_policy="priority")


def main():
    print("loading unit-test model ...")
    model, _ = get_model("unit-test")
    report: dict[str, dict] = {"priority_ttft": {}, "deadline": {}, "fork": {}}

    print(f"\nhigh-priority TTFT under a saturated engine "
          f"({N_BACKGROUND} background x {BG_TOKENS} tokens backlog, "
          f"{N_URGENT} urgent arrivals, {BATCH} lanes)")
    for name in CACHE_FACTORIES:
        fcfs, prio, gain = high_priority_ttft_gain(model, name)
        report["priority_ttft"][name] = {
            "fcfs": fcfs, "priority": prio, "p95_improvement": round(gain, 2),
        }
        print(f"  {name:>6} | fcfs p95 {fcfs['urgent_ttft_p95_ms']:7.2f} ms | "
              f"priority p95 {prio['urgent_ttft_p95_ms']:7.2f} ms | "
              f"{gain:5.2f}x better")

    print(f"\ndeadline hit-rate, later arrivals = tighter deadlines "
          f"({N_DEADLINE} requests, {DEADLINE_BATCH} lanes)")
    for name in CACHE_FACTORIES:
        fcfs = deadline_workload(model, CACHE_FACTORIES[name], "fcfs")
        edf = deadline_workload(model, CACHE_FACTORIES[name], "deadline")
        report["deadline"][name] = {"fcfs": fcfs, "deadline": edf}
        print(f"  {name:>6} | fcfs {fcfs['hit_rate']:5.0%} | "
              f"edf {edf['hit_rate']:5.0%}")

    print(f"\nparallel sampling: n={FORK_N} via PagedLease.fork vs "
          f"{FORK_N}x resubmission ({FORK_REQUESTS} x {FORK_PROMPT}-token "
          "prompts)")
    for name in CACHE_FACTORIES:
        fork, resub, savings = fork_prefill_savings(model, name)
        report["fork"][name] = {
            "fork": fork, "resubmit": resub,
            "prefill_savings": round(savings, 2),
        }
        print(f"  {name:>6} | fork {fork['prefill_tokens']:6d} prefill tokens "
              f"({fork['elapsed_ms']:7.1f} ms) | resubmit "
              f"{resub['prefill_tokens']:6d} ({resub['elapsed_ms']:7.1f} ms) | "
              f"{savings:4.2f}x fewer")

    out = os.path.join(os.path.dirname(__file__), "..", "artifacts", "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "policy_scheduling.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"saved {os.path.normpath(path)}")


if __name__ == "__main__":
    main()
