"""Fault-tolerance costs: steady-state hook overhead, recovery latency.

Two questions about the fault-tolerant serving engine, answered on the
unit-test model:

1. **Steady-state overhead.**  The fault machinery — an attached
   :class:`~repro.serve.faults.FaultInjector` consulted at every
   forward/alloc/callback occasion, plus an armed per-request timeout
   swept at every tick boundary — must be ~free when nothing ever
   fires.  The benchmark serves the standard batch-8 workload on a
   plain engine and on a hooked engine (injector attached with *no*
   rules armed, ``request_timeout_s`` set far above the run time) and
   reports the elapsed-time ratio; ``check_perf.py --check-speedups``
   enforces the <= 1.05x ceiling (best of 3, damping scheduler
   jitter).

2. **Recovery latency.**  A transient forward fault injected into one
   mid-decode request of a full batch: how many ticks (and how much
   wall clock) until the victim streams tokens again?  Recovery rides
   the preemption recompute path — the victim replays prompt + emitted
   tokens through one prefill — so the expected shape is ~2 ticks (the
   faulted tick's retry admission, then the resumed decode).
   Informational: latency depends on the victim's replay length.

Run:  PYTHONPATH=src python benchmarks/bench_fault_recovery.py
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
    GenerationRequest,
    ServeConfig,
)

from bench_serve_throughput import CACHE_FACTORIES, make_requests

BATCH = 8
FAULT_AFTER = 8            # decode forwards the victim survives first
RECOVERY_RETRIES = 1


def fault_config(max_batch: int = BATCH, **overrides) -> ServeConfig:
    """The timed ``serve_fault_batch8`` shape for check_perf.py:
    timeout armed (but far beyond the run), fault sites consulted."""
    overrides.setdefault("max_batch_size", max_batch)
    overrides.setdefault("request_timeout_s", 3600.0)
    return ServeConfig(**overrides)


def hooked_workload(model, cache_factory, requests,
                    config: ServeConfig | None = None):
    """Serve ``requests`` on an engine with the fault machinery engaged
    but never firing; returns ``(elapsed_s, stats)``."""
    engine = GenerationEngine(
        model, cache_factory, config or fault_config(),
        faults=FaultInjector(),        # attached, nothing armed
    )
    t0 = time.perf_counter()
    engine.generate(requests)
    elapsed = time.perf_counter() - t0
    return elapsed, engine.stats()


def plain_workload(model, cache_factory, requests):
    engine = GenerationEngine(
        model, cache_factory, ServeConfig(max_batch_size=BATCH))
    t0 = time.perf_counter()
    engine.generate(requests)
    elapsed = time.perf_counter() - t0
    return elapsed, engine.stats()


def fault_overhead(model, cache_name: str = "fp16"):
    """(plain_detail, hooked_detail, hooked/plain elapsed ratio)."""
    factory = CACHE_FACTORIES[cache_name]
    vocab = model.config.vocab_size
    plain_s, plain_stats = plain_workload(
        model, factory, make_requests(vocab, n_requests=BATCH))
    hooked_s, hooked_stats = hooked_workload(
        model, factory, make_requests(vocab, n_requests=BATCH))
    plain = {"elapsed_ms": plain_s * 1e3,
             "tokens_per_s": plain_stats.tokens_generated / plain_s}
    hooked = {"elapsed_ms": hooked_s * 1e3,
              "tokens_per_s": hooked_stats.tokens_generated / hooked_s,
              "timed_out": hooked_stats.requests_timed_out,
              "failed": hooked_stats.requests_failed}
    return plain, hooked, hooked_s / plain_s


def recovery_latency(model, cache_name: str = "fp16"):
    """Inject one mid-decode transient fault into a full batch; report
    the ticks and wall clock from the fault to the victim's next token."""
    factory = CACHE_FACTORIES[cache_name]
    victim = "req-0"
    injector = FaultInjector().arm(
        FORWARD, victim, after=FAULT_AFTER, transient=True)
    engine = GenerationEngine(
        model, factory,
        ServeConfig(max_batch_size=BATCH, block_tokens=32,
                    max_retries=RECOVERY_RETRIES),
        faults=injector,
    )
    for request in make_requests(model.config.vocab_size, n_requests=BATCH):
        engine.submit(request)
    while engine.has_work() and not injector.fired:
        engine.step()
    t0 = time.perf_counter()
    ticks = 0
    recovered = False
    while engine.has_work() and not recovered:
        events = engine.step()
        ticks += 1
        recovered = any(e.request_id == victim and e.token is not None
                        for e in events)
    latency_s = time.perf_counter() - t0
    engine.generate()                  # drain the rest
    stats = engine.stats()
    return {
        "fault_fired": injector.fired_at(FORWARD),
        "recovery_ticks": ticks,
        "recovery_latency_ms": latency_s * 1e3,
        "retries": stats.retries,
        "requests_failed": stats.requests_failed,
        "victim_finish": engine.result(victim).finish_reason,
    }


def main():
    print("loading unit-test model ...")
    model, _ = get_model("unit-test")
    report: dict[str, dict] = {"overhead": {}, "recovery": {}}

    print(f"\nsteady-state fault-hook overhead (batch {BATCH}, injector "
          "attached + timeout armed, nothing fires)")
    for name in CACHE_FACTORIES:
        plain, hooked, ratio = fault_overhead(model, name)
        report["overhead"][name] = {
            "plain": plain, "hooked": hooked, "ratio": round(ratio, 3),
        }
        print(f"  {name:>6} | plain {plain['elapsed_ms']:7.1f} ms | hooked "
              f"{hooked['elapsed_ms']:7.1f} ms | {ratio:5.3f}x")

    print(f"\nrecovery latency: transient forward fault on one request "
          f"after {FAULT_AFTER} decode steps (batch {BATCH}, paged)")
    for name in CACHE_FACTORIES:
        detail = recovery_latency(model, name)
        report["recovery"][name] = detail
        print(f"  {name:>6} | {detail['recovery_ticks']} ticks | "
              f"{detail['recovery_latency_ms']:6.1f} ms | "
              f"{detail['retries']} retry | "
              f"victim finished '{detail['victim_finish']}'")

    out = os.path.join(os.path.dirname(__file__), "..", "artifacts", "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "fault_recovery.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"saved {os.path.normpath(path)}")


if __name__ == "__main__":
    main()
