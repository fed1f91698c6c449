"""Fleet-level fault tolerance: the multi-replica router.

What must hold:

* **Routing** — shared-prefix requests land on one replica (affinity),
  load fallback and composed backpressure work, and the reserved hedge
  suffix / duplicate ids are rejected at submit.
* **Health** — a replica's error budget drives
  HEALTHY → DEGRADED → QUARANTINED, the circuit breaker walks
  closed → open → half-open → closed, and routing honours it.
* **Chaos + failover** — a seeded ``REPLICA_CRASH`` mid-decode moves
  the dead replica's in-flight requests onto survivors where they
  complete *exactly* (greedy, deterministic caches); bystander
  replicas stay token-for-token identical to an undisturbed fleet; the
  whole scenario replays bit-for-bit from the injector seed; and the
  fleet's storage returns to baseline.
* **Hedging** — a straggler on a wedged replica is duplicated, the
  fast copy wins with exact output, the loser is cancelled.
* **Snapshot rotation** — keep-last-K files per replica; a *sampled*
  request crashed mid-decode recovers from the last rotation snapshot
  (RNG state + replayed delta) with output identical to an undisturbed
  fleet.
* **Satellites** — per-sample cancel releases the forked lease with
  siblings bit-exact; ``drain()`` quiesces under active chaos with no
  hung handles; the recompute-aware ``DeadlinePolicy`` wastes fewer
  replayed tokens than pure EDF.
"""

import functools
import os

import numpy as np
import pytest

from repro.model import ModelConfig, TransformerLM
from repro.quant.kvcache import FP16KVCache, IntKVCache, MantKVCache
from repro.serve import (
    DeadlinePolicy,
    FaultInjector,
    FleetConfig,
    FleetRouter,
    GenerationEngine,
    GenerationRequest,
    QueueFullError,
    SamplingParams,
    ServeConfig,
)
from repro.serve.faults import ALLOC, FORWARD, REPLICA_CRASH, REPLICA_STALL
from repro.serve.fleet import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    DEGRADED,
    HEALTHY,
    QUARANTINED,
    HEDGE_SUFFIX,
    prefix_hash,
)
from serve_testlib import assert_storage_baseline, single_stream

VOCAB = 64
CACHE_FACTORIES = {
    "fp16": FP16KVCache,
    "int4": functools.partial(IntKVCache, bits=4, group_size=16),
    "mant4": functools.partial(MantKVCache, group_size=16, window=16),
}
EXACT_CACHES = ["fp16", "int4"]   # deterministic under recompute replay


@pytest.fixture(scope="module")
def model():
    cfg = ModelConfig(vocab_size=VOCAB, d_model=32, n_heads=2, n_layers=2,
                      d_ff=64, max_seq=160, seed=5)
    return TransformerLM(cfg)


class ManualClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def prompts(n, seed=0, lo=3, hi=12):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, VOCAB, size=int(rng.integers(lo, hi)))
            for _ in range(n)]


def requests(ps, max_tokens=12, prefix="r", **kw):
    return [GenerationRequest(f"{prefix}{i}", p, max_tokens=max_tokens, **kw)
            for i, p in enumerate(ps)]


def fleet_storage_baseline(router):
    for engine in router.replicas:
        assert_storage_baseline(engine)


def home_replica(prompt, fleet_cfg, n_replicas):
    return prefix_hash(prompt, fleet_cfg.affinity_tokens) % n_replicas


def prompt_for_replica(index, n_replicas=2, size=8, seed=0):
    """A prompt whose affinity hash maps to ``index``."""
    rng = np.random.default_rng(seed)
    while True:
        p = rng.integers(0, VOCAB, size=size)
        if prefix_hash(p, 16) % n_replicas == index:
            return p


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------
class TestRouting:
    def test_shared_prefix_lands_on_one_replica(self, model):
        router = FleetRouter(model, FP16KVCache, ServeConfig(max_batch_size=4),
                             FleetConfig(n_replicas=3, affinity_load_slack=16))
        head = np.arange(16) % VOCAB
        reqs = [GenerationRequest(f"s{i}", np.concatenate([head, [i]]),
                                  max_tokens=4) for i in range(6)]
        for r in reqs:
            router.submit(r)
        homes = {router._tracked[r.request_id].copies[r.request_id]
                 for r in reqs}
        assert len(homes) == 1          # one shared home for the cohort
        assert router.metrics.get("affinity_hits").value == 6
        results = router.generate([])
        while router.has_work():
            router.step()
        fleet_storage_baseline(router)

    def test_load_fallback_spreads_a_hot_prefix(self, model):
        cfg = FleetConfig(n_replicas=2, affinity_load_slack=0)
        router = FleetRouter(model, FP16KVCache, ServeConfig(max_batch_size=2),
                             cfg)
        head = np.arange(16) % VOCAB
        for i in range(6):
            router.submit(GenerationRequest(
                f"s{i}", np.concatenate([head, [i]]), max_tokens=4))
        used = {router._tracked[f"s{i}"].copies[f"s{i}"] for i in range(6)}
        assert len(used) == 2           # slack 0: overflow moves off home
        assert router.metrics.get("fallback_routes").value > 0

    def test_composed_backpressure(self, model):
        serve = ServeConfig(max_batch_size=1, max_queue_len=1)
        router = FleetRouter(model, FP16KVCache, serve,
                             FleetConfig(n_replicas=2))
        ps = prompts(8, seed=3, lo=6, hi=7)
        accepted = 0
        with pytest.raises(QueueFullError):
            for i, p in enumerate(ps):
                router.submit(GenerationRequest(f"q{i}", p, max_tokens=4))
                accepted += 1
        # Before any tick each replica queues exactly one request
        # (max_queue_len=1); the third submission tries both, finds
        # both full, and the fleet sheds it.
        assert accepted == 2
        assert router.metrics.get("requests_rejected").value == 1

    def test_reserved_and_duplicate_ids_rejected(self, model):
        router = FleetRouter(model, FP16KVCache, ServeConfig(max_batch_size=2),
                             FleetConfig(n_replicas=2))
        p = prompts(1)[0]
        with pytest.raises(ValueError, match="reserved"):
            router.submit(GenerationRequest("x" + HEDGE_SUFFIX, p))
        router.submit(GenerationRequest("dup", p, max_tokens=2))
        with pytest.raises(ValueError, match="duplicate"):
            router.submit(GenerationRequest("dup", p, max_tokens=2))


# ---------------------------------------------------------------------------
# Health + circuit breaker
# ---------------------------------------------------------------------------
class TestHealth:
    def test_budget_burn_quarantines_and_probe_recovers(self, model):
        clock = ManualClock()
        fi = FaultInjector(seed=3)
        router = FleetRouter(
            model, FP16KVCache, ServeConfig(max_batch_size=4),
            FleetConfig(n_replicas=2, degrade_errors=1, quarantine_errors=2,
                        breaker_open_s=5.0),
            clock=clock, faults=fi)
        sick = router._replicas[0]
        p = prompt_for_replica(0)

        # Two poisoned requests burn replica-0's budget.
        for i in range(2):
            rid = f"bad{i}"
            fi.arm(FORWARD, rid, transient=False)
            router.submit(GenerationRequest(rid, p, max_tokens=4))
            while not router.has_result(rid):
                router.step()
            assert router.pop_result(rid).finish_reason == "error"
        router.step()
        assert sick.state == QUARANTINED
        assert sick.breaker == BREAKER_OPEN

        # While quarantined, replica-0's affinity traffic routes away.
        router.submit(GenerationRequest("re", p, max_tokens=4))
        assert router._tracked["re"].copies["re"] == "replica-1"
        while not router.has_result("re"):
            router.step()
        assert router.pop_result("re").finish_reason == "length"

        # Cooldown -> half-open -> the next submission is the probe.
        clock.advance(5.1)
        router.step()
        assert sick.breaker == BREAKER_HALF_OPEN
        router.submit(GenerationRequest("probe", p, max_tokens=4))
        assert router._tracked["probe"].copies["probe"] == "replica-0"
        assert sick.probe_rid == "probe"
        while not router.has_result("probe"):
            router.step()
        assert router.pop_result("probe").finish_reason == "length"
        assert sick.breaker == BREAKER_CLOSED
        assert sick.state == HEALTHY
        fleet_storage_baseline(router)

    def test_single_error_only_degrades(self, model):
        fi = FaultInjector(seed=3)
        router = FleetRouter(
            model, FP16KVCache, ServeConfig(max_batch_size=4),
            FleetConfig(n_replicas=2, degrade_errors=1, quarantine_errors=3),
            faults=fi)
        p = prompt_for_replica(0)
        fi.arm(FORWARD, "bad", transient=False)
        router.submit(GenerationRequest("bad", p, max_tokens=4))
        while not router.has_result("bad"):
            router.step()
        router.step()
        rep = router._replicas[0]
        assert rep.state == DEGRADED
        assert rep.breaker == BREAKER_CLOSED      # degraded still admits
        router.submit(GenerationRequest("ok", p, max_tokens=4))
        # Healthy replica-1 outranks the degraded home.
        assert router._tracked["ok"].copies["ok"] == "replica-1"


# ---------------------------------------------------------------------------
# Replica chaos: crash failover + stall
# ---------------------------------------------------------------------------
def run_fleet(model, cache_name, faults=None, n=6, max_tokens=12,
              n_replicas=2, serve=None, fleet_cfg=None):
    router = FleetRouter(
        model, CACHE_FACTORIES[cache_name],
        serve or ServeConfig(max_batch_size=4),
        fleet_cfg or FleetConfig(n_replicas=n_replicas), faults=faults)
    reqs = requests(prompts(n, seed=1, lo=6, hi=12), max_tokens=max_tokens)
    results = router.generate(reqs)
    return router, {rid: r.tokens for rid, r in results.items()}, {
        rid: r.finish_reason for rid, r in results.items()}


class TestReplicaChaos:
    @pytest.mark.parametrize("cache_name", EXACT_CACHES)
    def test_crash_failover_exact_and_bystanders_identical(
            self, model, cache_name):
        _, base_tokens, _ = run_fleet(model, cache_name)

        fi = FaultInjector(seed=7)
        fi.arm(REPLICA_CRASH, "replica-0", after=3)
        router, tokens, reasons = run_fleet(model, cache_name, faults=fi)

        assert fi.log == [(REPLICA_CRASH, "replica-0")]
        assert router.metrics.get("replica_crashes").value == 1
        assert router.metrics.get("failovers").value >= 1
        # Failed-over requests continue token-for-token; bystanders on
        # replica-1 were never touched — everything matches the
        # undisturbed fleet AND the single-stream reference.
        assert tokens == base_tokens
        assert all(r == "length" for r in reasons.values())
        for req in requests(prompts(6, seed=1, lo=6, hi=12), max_tokens=12):
            assert tokens[req.request_id] == single_stream(
                model, CACHE_FACTORIES[cache_name], req.prompt, 12)
        fleet_storage_baseline(router)

    def test_crash_chaos_replays_identically(self, model):
        outcomes = []
        for _ in range(2):
            fi = FaultInjector(seed=11)
            fi.chaos(REPLICA_CRASH, probability=0.08, times=2)
            router, tokens, reasons = run_fleet(model, "fp16", faults=fi,
                                                n=8, n_replicas=3)
            outcomes.append((tokens, reasons, list(fi.log)))
            fleet_storage_baseline(router)
        assert outcomes[0] == outcomes[1]
        assert any(site == REPLICA_CRASH for site, _ in outcomes[0][2])

    def test_mant4_failover_completes(self, model):
        """MANT recompute is the standing trade: completion, not
        bit-exactness, is the failover gate for mant4."""
        fi = FaultInjector(seed=7)
        fi.arm(REPLICA_CRASH, "replica-0", after=3)
        router, tokens, reasons = run_fleet(model, "mant4", faults=fi)
        assert all(r == "length" for r in reasons.values())
        assert all(len(t) == 12 for t in tokens.values())
        fleet_storage_baseline(router)

    def test_stall_wedges_exactly_k_ticks(self, model):
        fi = FaultInjector(seed=5)
        fi.arm(REPLICA_STALL, "replica-0", times=3)
        router, tokens, reasons = run_fleet(model, "fp16", faults=fi)
        assert router.metrics.get("replica_stalls").value == 3
        assert [s for s, _ in fi.log] == [REPLICA_STALL] * 3
        _, base_tokens, _ = run_fleet(model, "fp16")
        assert tokens == base_tokens    # stall delays, never corrupts
        fleet_storage_baseline(router)

    def test_crash_with_empty_fleet_is_clean(self, model):
        fi = FaultInjector(seed=2)
        fi.arm(REPLICA_CRASH, "replica-1")
        router = FleetRouter(model, FP16KVCache, ServeConfig(max_batch_size=2),
                             FleetConfig(n_replicas=2), faults=fi)
        router.step()
        assert router.metrics.get("replica_crashes").value == 1
        assert router._replicas[1].incarnation == 1
        res = router.generate(requests(prompts(2, seed=9), max_tokens=4))
        assert all(r.finish_reason == "length" for r in res.values())


# ---------------------------------------------------------------------------
# Hedged requests
# ---------------------------------------------------------------------------
class TestHedging:
    def test_hedge_rescues_straggler_on_wedged_replica(self, model):
        clock = ManualClock()
        fi = FaultInjector(seed=4)
        fi.arm(REPLICA_STALL, "replica-0", times=200)
        router = FleetRouter(
            model, FP16KVCache, ServeConfig(max_batch_size=4),
            FleetConfig(n_replicas=2, hedge_after_s=1.0),
            clock=clock, faults=fi)
        p = prompt_for_replica(0, size=8)
        router.submit(GenerationRequest("slow", p, max_tokens=10))
        assert router._tracked["slow"].copies == {"slow": "replica-0"}
        while not router.has_result("slow"):
            clock.advance(0.25)
            router.step()
        result = router.pop_result("slow")
        assert result.request_id == "slow"
        assert result.tokens == single_stream(model, FP16KVCache, p, 10)
        m = router.metrics
        assert m.get("hedges_launched").value == 1
        assert m.get("hedges_won").value == 1
        assert m.get("hedges_cancelled").value == 1
        # The losing copy's storage is back; the wedged replica unwedges
        # once the stall budget runs out.
        while router.has_work():
            router.step()
        fleet_storage_baseline(router)

    def test_no_hedge_before_delay_or_after_first_token(self, model):
        clock = ManualClock()
        router = FleetRouter(
            model, FP16KVCache, ServeConfig(max_batch_size=4),
            FleetConfig(n_replicas=2, hedge_after_s=100.0), clock=clock)
        res = router.generate(requests(prompts(4, seed=2), max_tokens=6))
        assert router.metrics.get("hedges_launched").value == 0
        assert all(r.finish_reason == "length" for r in res.values())

    def test_percentile_delay_needs_warm_history(self, model):
        router = FleetRouter(
            model, FP16KVCache, ServeConfig(max_batch_size=4),
            FleetConfig(n_replicas=2, hedge_ttft_percentile=95.0,
                        hedge_min_samples=4))
        assert router._hedge_delay() is None      # cold: hedging off
        router.generate(requests(prompts(6, seed=8), max_tokens=4))
        delay = router._hedge_delay()
        assert delay is not None and delay >= 0.0


# ---------------------------------------------------------------------------
# Snapshot rotation + crash recovery
# ---------------------------------------------------------------------------
class TestSnapshotRotation:
    def test_keep_last_k(self, model, tmp_path):
        clock = ManualClock()
        router = FleetRouter(
            model, FP16KVCache, ServeConfig(max_batch_size=2),
            FleetConfig(n_replicas=2, snapshot_interval_s=1.0,
                        snapshot_dir=str(tmp_path), snapshot_keep=2),
            clock=clock)
        router.submit(GenerationRequest("r0", prompts(1)[0], max_tokens=64))
        router.step()                    # arms the per-replica timers
        for _ in range(5):
            clock.advance(1.1)
            router.step()
        for rep in ("replica-0", "replica-1"):
            files = sorted(os.listdir(tmp_path / rep))
            assert len(files) == 2       # keep-last-K rotation
            assert files[-1] > files[0]  # monotone sequence numbers
        assert router.metrics.get("snapshots_written").value == 10

    def test_sampled_crash_recovers_from_rotation(self, model, tmp_path):
        """The recovery floor for sampled requests: RNG state from the
        last rotation snapshot + deterministic delta replay ==
        token-identical to an undisturbed fleet."""
        sampling = SamplingParams(temperature=1.0, top_k=8, seed=13)

        def run(crash: bool):
            clock = ManualClock()
            snap_dir = tmp_path / ("crash" if crash else "base")
            router = FleetRouter(
                model, FP16KVCache, ServeConfig(max_batch_size=4),
                FleetConfig(n_replicas=2, snapshot_interval_s=1.0,
                            snapshot_dir=str(snap_dir), snapshot_keep=3),
                clock=clock)
            ps = prompts(4, seed=6, lo=6, hi=10)
            for i, p in enumerate(ps):
                router.submit(GenerationRequest(
                    f"s{i}", p, max_tokens=24, sampling=sampling))
            for _ in range(4):
                router.step()            # some tokens out, timers armed
            clock.advance(1.1)
            router.step()                # rotation snapshot (mid-decode)
            for _ in range(2):
                router.step()            # delta beyond the snapshot
            if crash:
                router.crash_replica("replica-0")
            while router.has_work():
                router.step()
            fleet_storage_baseline(router)
            return {f"s{i}": router.result(f"s{i}").tokens for i in range(4)}

        base = run(crash=False)
        recovered = run(crash=True)
        assert recovered == base

    def test_greedy_crash_without_snapshots_uses_journal(self, model):
        """Rotation disabled: greedy requests still recover exactly from
        the router's live token journal."""
        router = FleetRouter(model, FP16KVCache, ServeConfig(max_batch_size=4),
                             FleetConfig(n_replicas=2))
        ps = prompts(4, seed=6, lo=6, hi=10)
        for i, p in enumerate(ps):
            router.submit(GenerationRequest(f"g{i}", p, max_tokens=16))
        for _ in range(6):
            router.step()
        router.crash_replica("replica-0")
        while router.has_work():
            router.step()
        for i, p in enumerate(ps):
            assert router.result(f"g{i}").tokens == single_stream(
                model, FP16KVCache, p, 16)
        fleet_storage_baseline(router)


# ---------------------------------------------------------------------------
# Satellite: per-sample cancel
# ---------------------------------------------------------------------------
class TestCancelSample:
    CFG = ServeConfig(max_batch_size=4, block_tokens=8)

    def test_post_fork_cancel_releases_lease_siblings_exact(self, model):
        p = prompts(1, seed=4, lo=8, hi=9)[0]
        ref = GenerationEngine(model, FP16KVCache, self.CFG)
        ref_res = ref.generate([GenerationRequest(
            "n3", p, max_tokens=12, n=3)])["n3"]

        eng = GenerationEngine(model, FP16KVCache, self.CFG)
        handle = eng.submit(GenerationRequest("n3", p, max_tokens=12, n=3))
        for _ in range(3):
            eng.step()                  # prefill + fork + a few tokens
        before = eng.pool.blocks_in_use
        assert handle.cancel(sample_index=1)
        assert eng.pool.blocks_in_use < before    # forked lease released
        result = handle.result()
        assert result.samples[1].finish_reason == "cancelled"
        for i in (0, 2):                # survivors bit-exact
            assert result.samples[i].tokens == ref_res.samples[i].tokens
            assert result.samples[i].finish_reason == "length"
        assert_storage_baseline(eng)

    def test_pre_fork_cancel_skips_materialization(self, model):
        p = prompts(1, seed=4, lo=8, hi=9)[0]
        eng = GenerationEngine(model, FP16KVCache, self.CFG)
        handle = eng.submit(GenerationRequest("pf", p, max_tokens=8, n=3))
        assert handle.cancel(sample_index=2)     # still queued: pre-fork
        assert not handle.cancel(sample_index=2)  # idempotent
        result = handle.result()
        assert result.samples[2].finish_reason == "cancelled"
        assert result.samples[2].tokens == []
        assert [s.finish_reason for s in result.samples[:2]] == ["length"] * 2
        assert_storage_baseline(eng)

    def test_cancelling_every_sample_cancels_the_request(self, model):
        p = prompts(1, seed=4, lo=8, hi=9)[0]
        eng = GenerationEngine(model, FP16KVCache, self.CFG)
        handle = eng.submit(GenerationRequest("all", p, max_tokens=8, n=2))
        for _ in range(2):
            eng.step()
        assert handle.cancel(sample_index=0)
        assert handle.cancel(sample_index=1)
        assert handle.result().finish_reason == "cancelled"
        assert eng.stats().requests_cancelled == 1    # counted once
        assert_storage_baseline(eng)

    def test_sample_index_validation(self, model):
        p = prompts(1, seed=4)[0]
        eng = GenerationEngine(model, FP16KVCache, self.CFG)
        handle = eng.submit(GenerationRequest("v", p, max_tokens=4, n=2))
        with pytest.raises(ValueError, match="sample_index"):
            handle.cancel(sample_index=5)
        # n == 1: sample 0 is the whole request.
        h1 = eng.submit(GenerationRequest("one", p, max_tokens=4))
        assert h1.cancel(sample_index=0)
        assert h1.result().finish_reason == "cancelled"

    def test_fleet_forwards_sample_cancel(self, model):
        router = FleetRouter(model, FP16KVCache, self.CFG,
                             FleetConfig(n_replicas=2))
        p = prompts(1, seed=4, lo=8, hi=9)[0]
        handle = router.submit(GenerationRequest("fn", p, max_tokens=8, n=3))
        for _ in range(3):
            router.step()
        assert handle.cancel(sample_index=1)
        result = handle.result()
        assert result.samples[1].finish_reason == "cancelled"
        assert [s.finish_reason for s in result.samples[::2]] == ["length"] * 2
        fleet_storage_baseline(router)


# ---------------------------------------------------------------------------
# Satellite: drain under active chaos
# ---------------------------------------------------------------------------
class TestDrainUnderChaos:
    def test_engine_drain_quiesces_with_faults_firing(self, model):
        fi = FaultInjector(seed=21)
        fi.chaos(FORWARD, probability=0.25, transient=True)
        fi.chaos(ALLOC, probability=0.15, transient=True)
        cfg = ServeConfig(max_batch_size=3, block_tokens=8)
        eng = GenerationEngine(model, FP16KVCache, cfg, faults=fi)
        handles = [eng.submit(r)
                   for r in requests(prompts(8, seed=14, lo=5, hi=10),
                                     max_tokens=8, prefix="d")]
        for _ in range(2):
            eng.step()
        eng.drain()
        # Quiesced: nothing running, no storage held — transiently
        # faulted sequences were requeued, not leaked or hung.
        assert eng.scheduler.n_running == 0
        assert_storage_baseline(eng)
        assert len(fi.log) > 0          # chaos actually fired mid-drain
        # Every handle still resolves after admission resumes.
        eng.resume_admission()
        for h in handles:
            assert h.result().finish_reason in ("length", "error")
        assert_storage_baseline(eng)

    def test_fleet_drain_under_chaos(self, model):
        fi = FaultInjector(seed=22)
        fi.chaos(FORWARD, probability=0.2, transient=True)
        fi.arm(REPLICA_STALL, "replica-0", after=1, times=2)
        router = FleetRouter(model, FP16KVCache,
                             ServeConfig(max_batch_size=3),
                             FleetConfig(n_replicas=2), faults=fi)
        for r in requests(prompts(6, seed=15, lo=5, hi=10), max_tokens=6,
                          prefix="f"):
            router.submit(r)
        router.step()
        router.drain()
        assert all(r.scheduler.n_running == 0 for r in router._replicas
                   for r in [r.engine])
        with pytest.raises(RuntimeError, match="draining"):
            router.submit(GenerationRequest("late", prompts(1)[0]))
        router.resume_admission()
        while router.has_work():
            router.step()
        fleet_storage_baseline(router)


# ---------------------------------------------------------------------------
# Satellite: recompute-aware preemption
# ---------------------------------------------------------------------------
class TestRecomputeAwarePreemption:
    CFG = ServeConfig(max_batch_size=3, block_tokens=8,
                      num_blocks=8, enable_prefix_cache=False)

    def run_saturated(self, model, w):
        rng = np.random.default_rng(17)
        ps = [rng.integers(0, VOCAB, size=8) for _ in range(3)]
        eng = GenerationEngine(
            model, FP16KVCache, self.CFG,
            policy=DeadlinePolicy(aging_cap_s=1000.0, preempt_token_cost_s=w))
        eng.submit(GenerationRequest("old", ps[0], max_tokens=40,
                                     deadline_s=100.0))
        for _ in range(30):
            eng.step()                  # "old" invests 30 decoded tokens
        eng.submit(GenerationRequest("fresh", ps[1], max_tokens=8,
                                     deadline_s=99.95))
        eng.submit(GenerationRequest("tight", ps[2], max_tokens=8,
                                     deadline_s=50.0))
        while eng.has_work():
            eng.step()
        return eng, ps

    def test_fewer_wasted_recompute_tokens_than_edf(self, model):
        edf, ps = self.run_saturated(model, w=0.0)
        aware, _ = self.run_saturated(model, w=0.002)
        assert edf.stats().preemptions >= 1
        assert aware.stats().preemptions >= 1
        # Pure EDF evicts the latest-deadline sequence even after it has
        # decoded 30 tokens; the recompute-aware policy picks the fresh
        # one, so its replayed-prefill bill is strictly smaller.
        assert (aware.metrics.get("prefill_tokens").value
                < edf.metrics.get("prefill_tokens").value)
        # Both schedules still produce exact output for every request.
        for eng in (edf, aware):
            assert eng.result("old").tokens == single_stream(
                model, FP16KVCache, ps[0], 40)
            assert eng.result("fresh").tokens == single_stream(
                model, FP16KVCache, ps[1], 8)
            assert_storage_baseline(eng)

    def test_zero_weight_is_pure_edf(self, model):
        """`preempt_token_cost_s=0` must reproduce latest-deadline-first
        exactly (the pre-change victim rule)."""

        class Seq:
            def __init__(self, rid, submit, deadline, n_tokens):
                self.request = GenerationRequest(
                    rid, np.arange(4), deadline_s=deadline)
                self.submit_time = submit
                self.arrival_seq = 0
                self.tokens = [0] * n_tokens

        a = Seq("a", 0.0, 10.0, 30)
        b = Seq("b", 0.0, 9.95, 0)
        edf = DeadlinePolicy(aging_cap_s=1000.0, preempt_token_cost_s=0.0)
        aware = DeadlinePolicy(aging_cap_s=1000.0, preempt_token_cost_s=0.002)
        assert edf.choose_preemption_victim([a, b]) is a
        assert aware.choose_preemption_victim([a, b]) is b


# ---------------------------------------------------------------------------
# Stats / invariants / harness integration
# ---------------------------------------------------------------------------
class TestFleetSurface:
    def test_stats_summary_shape(self, model):
        router = FleetRouter(model, FP16KVCache, ServeConfig(max_batch_size=2),
                             FleetConfig(n_replicas=2))
        router.generate(requests(prompts(3, seed=2), max_tokens=4))
        s = router.stats().summary()
        assert set(s) == {"fleet", "health", "replicas"}
        assert set(s["replicas"]) == {"replica-0", "replica-1"}
        assert s["health"]["replica-0"]["state"] == HEALTHY
        assert s["fleet"]["requests_routed"] == 3
        merged = router.merged_metrics()
        assert merged.get("requests_completed").value == 3

    def test_loadharness_drives_a_fleet_on_virtual_clock(self, model):
        from repro.serve import (ArrivalProcess, LengthDist, LoadHarness,
                                 TrafficClass, WorkloadSpec, generate_trace)
        spec = WorkloadSpec(
            classes=(TrafficClass("c", prompt_len=LengthDist.fixed(8),
                                  output_len=LengthDist.fixed(6)),),
            arrivals=ArrivalProcess.poisson(40.0),
            n_requests=16, vocab_size=VOCAB, seed=3)
        trace = generate_trace(spec)
        fleet_cfg = FleetConfig(n_replicas=2)
        serve = ServeConfig(max_batch_size=4)

        def factory(clock):
            return FleetRouter(model, FP16KVCache, serve, fleet_cfg,
                               clock=clock)

        harness = LoadHarness(model, FP16KVCache, serve, clock="virtual",
                              engine_factory=factory)
        result = harness.run(trace)
        assert result.records
        assert all(r.finish_reason == "length" for r in result.records)
        summary = result.stats.summary()
        assert "fleet" in summary
        # Replayed, the fleet-backed harness run is deterministic.
        harness2 = LoadHarness(model, FP16KVCache, serve, clock="virtual",
                               engine_factory=factory)
        again = harness2.run(trace)
        assert [(r.request_id, r.tokens, r.finish_s) for r in result.records] \
            == [(r.request_id, r.tokens, r.finish_s) for r in again.records]
