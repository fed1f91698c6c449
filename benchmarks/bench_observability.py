"""Observability costs: steady-state tracing overhead, trace capture.

Two questions about the serving observability layer, answered on the
unit-test model:

1. **Steady-state overhead.**  With ``ServeConfig.observe`` on
   (the default), every tick records phase spans (two tracer-clock
   reads and a tuple append each), every request keeps a lifecycle
   timeline and every statistic routes through registry instruments.
   That must be ~free: the benchmark serves the standard batch-8
   workload with observability on and off and reports the elapsed-time
   ratio; ``check_perf.py --check-speedups`` enforces the <= 1.05x
   ceiling (best of 3, damping scheduler jitter).

2. **Trace capture.**  A mixed prefill+decode chunked run with one
   injected transient fault, exported via ``engine.trace.save`` —
   reports span counts per phase, the fault instants, and verifies the
   fault joined the victim's timeline.  This is the demo artifact
   (``artifacts/results/observability_trace.json``): load it at
   https://ui.perfetto.dev or ``chrome://tracing``.

Run:  PYTHONPATH=src python benchmarks/bench_observability.py
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.model.zoo import get_model
from repro.serve import (
    FORWARD,
    FaultInjector,
    GenerationEngine,
    ServeConfig,
)

from bench_serve_throughput import CACHE_FACTORIES, make_requests

BATCH = 8
FAULT_AFTER = 4            # decode forwards the victim survives first


def obs_config(max_batch: int = BATCH, **overrides) -> ServeConfig:
    """The timed ``serve_obs_batch8`` shape for check_perf.py:
    observability fully on (tick spans, timelines, registry stats)."""
    overrides.setdefault("max_batch_size", max_batch)
    overrides.setdefault("observe", True)
    return ServeConfig(**overrides)


def observed_workload(model, cache_factory, requests,
                      config: ServeConfig | None = None):
    """Serve ``requests`` with observability on; ``(elapsed_s, stats)``."""
    engine = GenerationEngine(model, cache_factory, config or obs_config())
    t0 = time.perf_counter()
    engine.generate(requests)
    elapsed = time.perf_counter() - t0
    return elapsed, engine.stats()


def plain_workload(model, cache_factory, requests):
    engine = GenerationEngine(
        model, cache_factory, ServeConfig(max_batch_size=BATCH, observe=False))
    t0 = time.perf_counter()
    engine.generate(requests)
    elapsed = time.perf_counter() - t0
    return elapsed, engine.stats()


def obs_overhead(model, cache_name: str = "fp16"):
    """(plain_detail, observed_detail, observed/plain elapsed ratio)."""
    factory = CACHE_FACTORIES[cache_name]
    vocab = model.config.vocab_size
    plain_s, plain_stats = plain_workload(
        model, factory, make_requests(vocab, n_requests=BATCH))
    obs_s, obs_stats = observed_workload(
        model, factory, make_requests(vocab, n_requests=BATCH))
    plain = {"elapsed_ms": plain_s * 1e3,
             "tokens_per_s": plain_stats.tokens_generated / plain_s}
    observed = {"elapsed_ms": obs_s * 1e3,
                "tokens_per_s": obs_stats.tokens_generated / obs_s,
                "ticks_traced": obs_stats.decode_ticks}
    return plain, observed, obs_s / plain_s


def capture_trace(model, cache_name: str = "fp16", path: str | None = None):
    """A chunked mixed prefill+decode run with one injected transient
    fault, exported as Chrome-trace JSON; returns a summary dict."""
    factory = CACHE_FACTORIES[cache_name]
    victim = "req-0"
    injector = FaultInjector().arm(
        FORWARD, victim, after=FAULT_AFTER, transient=True)
    engine = GenerationEngine(
        model, factory,
        ServeConfig(max_batch_size=BATCH, block_tokens=32,
                    prefill_chunk_tokens=32, max_tokens_per_tick=64),
        faults=injector,
    )
    requests = make_requests(model.config.vocab_size, n_requests=BATCH,
                             prompt_len=48, max_tokens=24)
    engine.generate(requests)
    if path is not None:
        engine.trace.save(path)
    trace = engine.trace
    victim_events = engine.request_trace(victim).names()
    summary = {
        "spans": {name: len(trace.spans(name))
                  for name in ("tick", "sweep", "admit", "plan",
                               "pack_prefill", "forward", "append",
                               "sample", "deliver", "finish")},
        "fault_instants": len(trace.instants("fault")),
        "fault_in_victim_timeline": "fault" in victim_events,
        "victim_timeline": victim_events,
        "victim_finish": engine.result(victim).finish_reason,
    }
    return summary


def main():
    print("loading unit-test model ...")
    model, _ = get_model("unit-test")
    report: dict[str, dict] = {"overhead": {}, "trace": {}}

    print(f"\nsteady-state observability overhead (batch {BATCH}, "
          "spans + timelines + registry on vs all off)")
    for name in CACHE_FACTORIES:
        plain, observed, ratio = obs_overhead(model, name)
        report["overhead"][name] = {
            "plain": plain, "observed": observed, "ratio": round(ratio, 3),
        }
        print(f"  {name:>6} | off {plain['elapsed_ms']:7.1f} ms | on "
              f"{observed['elapsed_ms']:7.1f} ms | {ratio:5.3f}x")

    out = os.path.join(os.path.dirname(__file__), "..", "artifacts", "results")
    os.makedirs(out, exist_ok=True)
    trace_path = os.path.join(out, "observability_trace.json")
    print(f"\ntrace capture: chunked mixed ticks, batch {BATCH}, one "
          f"transient forward fault on req-0 after {FAULT_AFTER} decodes")
    summary = capture_trace(model, "fp16", path=trace_path)
    report["trace"] = summary
    spans = summary["spans"]
    print("  spans: " + " ".join(f"{k}={v}" for k, v in spans.items() if v))
    print(f"  fault instants: {summary['fault_instants']} | joined to "
          f"victim timeline: {summary['fault_in_victim_timeline']} | "
          f"victim finished '{summary['victim_finish']}'")
    print(f"  victim timeline: {' '.join(summary['victim_timeline'])}")
    print(f"saved {os.path.normpath(trace_path)} "
          "(load at https://ui.perfetto.dev)")

    path = os.path.join(out, "observability.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"saved {os.path.normpath(path)}")


if __name__ == "__main__":
    main()
