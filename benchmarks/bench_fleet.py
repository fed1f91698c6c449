"""Fleet fault-tolerance benchmark: recovery gap under replica loss.

Two questions about the multi-replica :class:`~repro.serve.fleet.
FleetRouter` under the same three-class trace the loadgen benchmarks
use (urgent / standard / bulk on the unit-test model), all on the
deterministic virtual clock:

1. **Recovery gap.**  Drive the trace near the two-replica fleet's
   knee twice — once undisturbed, once with a seeded ``REPLICA_CRASH``
   killing one replica mid-run.  In-flight requests fail over to the
   survivor via the snapshot/journal recompute path, so the crashed
   run should lose *headroom*, not requests: the gate in
   ``check_perf.py --check-speedups`` bounds the SLO attainment gap
   (:func:`repro.serve.slo.attainment_gap`) from above and the
   goodput ratio (crashed/baseline tokens-per-virtual-second) from
   below — the crash may cost recompute, never completions.

2. **Chaos determinism.**  ``check_perf.py --quick`` replays a seeded
   replica-crash run twice and asserts bit-for-bit identical request
   records and fault logs, plus per-replica storage back at baseline
   — the chaos-replay methodology the fleet tests rely on, validated
   end to end through the harness.

Run:  PYTHONPATH=src python benchmarks/bench_fleet.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.model.zoo import get_model
from repro.serve import (
    REPLICA_CRASH,
    FaultInjector,
    FleetConfig,
    FleetRouter,
    LoadHarness,
    ServeConfig,
    attainment_gap,
    evaluate,
    generate_trace,
)

from bench_loadgen import BATCH, make_spec, slo_spec
from bench_serve_throughput import CACHE_FACTORIES

SEED = 0

# Recovery scenario: a rate near the two-replica fleet's knee — high
# enough that losing a replica visibly eats headroom (the survivor
# pays recompute for every failed-over request, so fleet goodput
# drops), low enough that the survivor still absorbs the backlog
# without blowing the SLOs.
RECOVERY_RATE = 1800.0
RECOVERY_REQUESTS = 120
CRASH_AFTER_TICKS = 40     # replica-0 dies this many router ticks in

# Smoke scenario (check_perf --quick and the timed suite entry).
SMOKE_RATE = 300.0
SMOKE_REQUESTS = 24
SMOKE_CRASH_TICKS = 12


def fleet_factory(model, cache_name: str, *, faults=None,
                  n_replicas: int = 2):
    """``LoadHarness(engine_factory=...)`` hook building the router."""

    def build(clock):
        return FleetRouter(
            model, CACHE_FACTORIES[cache_name],
            ServeConfig(max_batch_size=BATCH),
            FleetConfig(n_replicas=n_replicas),
            clock=clock, faults=faults,
        )

    return build


def run_fleet(model, cache_name: str, rate: float, *, n_requests: int,
              faults=None, seed: int = SEED, n_replicas: int = 2):
    """One virtual-clock harness run through a fleet; (result, report)."""
    trace = generate_trace(make_spec(rate, n_requests, seed))
    harness = LoadHarness(
        model, CACHE_FACTORIES[cache_name],
        ServeConfig(max_batch_size=BATCH), clock="virtual",
        engine_factory=fleet_factory(model, cache_name, faults=faults,
                                     n_replicas=n_replicas),
    )
    result = harness.run(trace)
    return result, evaluate(result, slo_spec())


# ----------------------------------------------------------------------
# check_perf hooks
# ----------------------------------------------------------------------
def fleet_recovery_gap(model, cache_name: str = "fp16"):
    """(baseline_report, crashed_report, attainment_gap dict).

    Same trace, same virtual clock, two runs: undisturbed two-replica
    fleet vs the same fleet with replica-0 crash-killed
    ``CRASH_AFTER_TICKS`` router ticks in.  The crash orphans every
    request routed to replica-0; the router fails them over to the
    survivor through the journal recompute path (exact for the greedy
    trace), so the gap measures lost headroom — queueing and recompute
    delay — not lost requests.
    """
    _, base = run_fleet(model, cache_name, RECOVERY_RATE,
                        n_requests=RECOVERY_REQUESTS)
    fi = FaultInjector(seed=SEED)
    fi.arm(REPLICA_CRASH, "replica-0", after=CRASH_AFTER_TICKS)
    crashed_result, crashed = run_fleet(model, cache_name, RECOVERY_RATE,
                                        n_requests=RECOVERY_REQUESTS,
                                        faults=fi)
    assert any(site == REPLICA_CRASH for site, _ in fi.log), \
        "armed replica crash never fired"
    abnormal = [r for r in crashed_result.records
                if r.finish_reason not in ("length", "stop")]
    assert not abnormal, (
        f"{len(abnormal)} requests lost to the crash "
        f"({sorted({r.finish_reason for r in abnormal})}) — failover "
        "must preserve every in-flight request"
    )
    return base, crashed, attainment_gap(base, crashed)


def fleet_workload(model, cache_name: str = "fp16"):
    """The timed ``serve_fleet_smoke`` entry: one deterministic
    virtual-clock run of the smoke trace through a two-replica fleet
    with a seeded mid-run replica crash."""
    fi = FaultInjector(seed=SEED)
    fi.arm(REPLICA_CRASH, "replica-0", after=SMOKE_CRASH_TICKS)
    result, _ = run_fleet(model, cache_name, SMOKE_RATE,
                          n_requests=SMOKE_REQUESTS, faults=fi)
    return result


def _storage_baseline(router) -> None:
    """Every replica's pool must be back at baseline post-run."""
    for engine in router.replicas:
        assert engine.pool.blocks_in_use == 0, (
            f"{engine.pool.blocks_in_use} pool blocks still "
            "referenced after the fleet run"
        )
    router.check_invariants()


def fleet_smoke(model, cache_name: str = "fp16") -> dict:
    """Seconds-scale fleet validation for ``check_perf.py --quick``.

    Runs the smoke trace through a two-replica fleet with a seeded
    replica crash, twice, and checks the chaos-replay contract:
    identical request records, identical fault logs, every request
    finishing normally despite the crash, per-replica storage back at
    baseline, and a crash that demonstrably fired (incarnation bumped,
    failovers counted).  Returns the findings; raises AssertionError
    on any violation.
    """
    trace = generate_trace(make_spec(SMOKE_RATE, SMOKE_REQUESTS))

    def run(t):
        fi = FaultInjector(seed=SEED)
        fi.arm(REPLICA_CRASH, "replica-0", after=SMOKE_CRASH_TICKS)
        harness = LoadHarness(
            model, CACHE_FACTORIES[cache_name],
            ServeConfig(max_batch_size=BATCH), clock="virtual",
            engine_factory=fleet_factory(model, cache_name, faults=fi),
        )
        result = harness.run(t)
        return result, harness.engine, fi

    result, router, fi = run(trace)
    replay, router2, fi2 = run(trace)

    crashes = [e for e in fi.log if e[0] == REPLICA_CRASH]
    assert crashes, "armed replica crash never fired"
    summary = router.stats().summary()
    assert summary["fleet"]["replica_crashes"] >= 1, "crash not counted"
    assert summary["fleet"]["failovers"] >= 1, \
        "crash orphaned no in-flight requests — raise the rate or delay"
    status = router.replica_status()
    assert status["replica-0"].incarnation == 1, \
        "crashed replica not rebuilt under a new incarnation"

    assert ([r.to_dict() for r in result.records]
            == [r.to_dict() for r in replay.records]), \
        "seeded replica-crash replay diverged (records)"
    assert fi.log == fi2.log, \
        "seeded replica-crash replay diverged (fault log)"

    abnormal = [r for r in result.records
                if r.finish_reason not in ("length", "stop")]
    assert not abnormal, (
        f"{len(abnormal)} requests did not survive the crash: "
        f"{sorted({r.finish_reason for r in abnormal})}"
    )
    _storage_baseline(router)
    _storage_baseline(router2)

    report = evaluate(result, slo_spec())
    return {
        "cache": cache_name,
        "requests": len(result.records),
        "duration_s": result.duration_s,
        "replica_crashes": summary["fleet"]["replica_crashes"],
        "failovers": summary["fleet"]["failovers"],
        "attainment": report.attainment,
        "goodput_tokens_per_s": report.goodput_tokens_per_s,
        "replay_identical": True,
    }


def main():
    print("loading unit-test model ...")
    model, _ = get_model("unit-test")
    report: dict = {"smoke": {}, "recovery": {}}

    print("\nfleet smoke (2 replicas, seeded crash, virtual clock)")
    for name in CACHE_FACTORIES:
        smoke = fleet_smoke(model, name)
        report["smoke"][name] = smoke
        print(f"  {name:>6} | {smoke['requests']} requests | "
              f"{smoke['failovers']} failovers | attainment "
              f"{smoke['attainment']:6.1%} | replay identical")

    print(f"\nrecovery gap at {RECOVERY_RATE:.0f} req/s "
          f"({RECOVERY_REQUESTS} requests, crash after "
          f"{CRASH_AFTER_TICKS} ticks)")
    for name in CACHE_FACTORIES:
        base, crashed, gap = fleet_recovery_gap(model, name)
        report["recovery"][name] = {
            "baseline_attainment": base.attainment,
            "crashed_attainment": crashed.attainment,
            "gap": gap,
        }
        print(f"  {name:>6} | baseline {base.attainment:6.1%} | "
              f"crashed {crashed.attainment:6.1%} | gap "
              f"{gap['overall']:+.1%} | goodput ratio "
              f"{gap['goodput_ratio']:5.2f}")

    out = os.path.join(os.path.dirname(__file__), "..", "artifacts", "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "fleet_recovery.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"\nsaved {os.path.normpath(path)}")


if __name__ == "__main__":
    main()
