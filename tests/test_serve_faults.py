"""Fault-tolerance tests: timeouts, isolation, chaos, drain/restore.

Gates, per the PR acceptance criteria:

* the fault matrix — {timeout, callback raise, forward fault, alloc
  fault, snapshot/restore} × {arena, paged} × {queued, mid-prefill,
  mid-decode} — asserting after every scenario that bystander requests'
  outputs are token-for-token identical to a fault-free run and that
  pool/arena free counts return to baseline;
* bounded retry-with-recompute for transient faults (and for real
  forward exceptions), quarantine as ``FINISH_ERROR`` past the budget;
* deterministic seeded chaos: the same seed against the same workload
  fires the same faults and produces the same outputs;
* drain (admission stopped, in-flight work runs dry) and
  snapshot/restore replaying every in-flight request — greedy and
  seeded-sampling alike — to the same final tokens for deterministic
  cache types (fp16/int4; MANT recompute re-quantizes the replayed
  window, so its restore gate is completion-only);
* the submit() exception path leaves no registered id behind (the same
  id resubmits cleanly after a rejection);
* the always-on-in-tests invariant checker catches planted
  storage-accounting corruption.

MANT note: recompute replays re-quantize decode-staged windows, so
fault-recovery exact-token assertions run on fp16/int4; mant4 gets
completion-only coverage (the standing recompute trade).
"""

import functools
import json

import numpy as np
import pytest

from serve_testlib import assert_storage_baseline, single_stream

from repro.model.transformer import ModelConfig, TransformerLM
from repro.quant.kvcache import FP16KVCache, IntKVCache, MantKVCache
from repro.serve import (
    ALLOC,
    CALLBACK,
    FORWARD,
    FINISH_ERROR,
    FINISH_LENGTH,
    FINISH_TIMEOUT,
    FaultInjector,
    GenerationEngine,
    GenerationRequest,
    InjectedFault,
    QueueFullError,
    SamplingParams,
    ServeConfig,
)

VOCAB = 64

CACHE_FACTORIES = {
    "fp16": FP16KVCache,
    "int4": functools.partial(IntKVCache, bits=4, group_size=16),
    "mant4": functools.partial(MantKVCache, group_size=16, window=16),
}
EXACT_CACHES = ["fp16", "int4"]   # deterministic under recompute replay

def _config(backend, **kw):
    kw.setdefault("max_batch_size", 4)
    if backend in ("paged", "chunked"):
        kw.setdefault("paged", True)
        kw.setdefault("block_tokens", 16)
    if backend == "chunked":
        kw.setdefault("prefill_chunk_tokens", 16)
        kw.setdefault("max_tokens_per_tick", 32)
    return ServeConfig(**kw)
BACKENDS = ["arena", "paged"]


@pytest.fixture(scope="module")
def model():
    cfg = ModelConfig(vocab_size=VOCAB, d_model=32, n_heads=2, n_layers=2,
                      d_ff=64, max_seq=160, seed=5)
    return TransformerLM(cfg)


def prompts(n, seed=0, lo=3, hi=12):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, VOCAB, size=int(rng.integers(lo, hi)))
            for _ in range(n)]


class ManualClock:
    """A clock tests advance explicitly — timeout tests never sleep."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def make_engine(model, backend, cache="fp16", faults=None, clock=None, **cfg):
    kwargs = {"faults": faults}
    if clock is not None:
        kwargs["clock"] = clock
    return GenerationEngine(
        model, CACHE_FACTORIES[cache], _config(backend, **cfg), **kwargs)


def check_bystanders(model, eng, cache, ps, victims, n_tokens):
    """Every non-victim request's output is bit-identical to a clean run."""
    factory = CACHE_FACTORIES[cache]
    for i, p in enumerate(ps):
        rid = f"r{i}"
        if rid in victims:
            continue
        assert eng.result(rid).tokens == single_stream(
            model, factory, p, n_tokens), f"bystander {rid} disturbed"


# ======================================================================
# FaultInjector unit behaviour
# ======================================================================
class TestFaultInjector:
    def test_arm_counts_matching_occasions(self):
        fi = FaultInjector()
        fi.arm(FORWARD, "r1", after=2)
        fi.fire(FORWARD, "r0")          # non-matching: no countdown
        fi.fire(FORWARD, "r1")          # occasion 1 (skipped)
        fi.fire(FORWARD, "r1")          # occasion 2 (skipped)
        with pytest.raises(InjectedFault) as e:
            fi.fire(FORWARD, "r1")      # occasion 3 fires
        assert e.value.site == FORWARD and e.value.request_id == "r1"
        fi.fire(FORWARD, "r1")          # times=1: consumed, silent now
        assert fi.fired == 1 and fi.fired_at(FORWARD) == 1

    def test_times_bounds_firings(self):
        fi = FaultInjector().arm(ALLOC, times=2, transient=True)
        for _ in range(2):
            with pytest.raises(InjectedFault) as e:
                fi.fire(ALLOC)
            assert e.value.transient
        fi.fire(ALLOC)                  # exhausted
        assert fi.fired == 2

    def test_chaos_replays_from_seed(self):
        def draw(seed):
            fi = FaultInjector(seed=seed).chaos(FORWARD, 0.5)
            hits = []
            for i in range(50):
                try:
                    fi.fire(FORWARD, f"r{i}")
                except InjectedFault:
                    hits.append(i)
            return hits

        assert draw(7) == draw(7)
        assert draw(7) != draw(8)       # astronomically unlikely to collide
        assert 0 < len(draw(7)) < 50

    def test_clock_skew_applies_after_n_reads(self):
        fi = FaultInjector().clock_skew(100.0, after=2)
        clock = ManualClock()
        wrapped = fi.wrap_clock(clock)
        assert wrapped() == 0.0 and wrapped() == 0.0
        assert wrapped() == 100.0       # 3rd read jumps
        clock.advance(1.0)
        assert wrapped() == 101.0       # skew is permanent
        assert fi.fired_at("clock") == 1

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultInjector().arm("disk")
        with pytest.raises(ValueError, match="probability"):
            FaultInjector().chaos(FORWARD, 0.0)


# ======================================================================
# Timeouts
# ======================================================================
class TestTimeouts:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_queued_request_times_out_without_running(self, model, backend):
        clock = ManualClock()
        ps = prompts(2, seed=1)
        eng = make_engine(model, backend, clock=clock, max_batch_size=1)
        eng.submit(GenerationRequest("r0", ps[0], max_tokens=12))
        eng.submit(GenerationRequest("r1", ps[1], max_tokens=12, timeout_s=5.0))
        eng.step()                      # r0 admitted; r1 waits
        clock.advance(10.0)
        eng.step()                      # sweep expires r1 before admission
        res = eng.result("r1")
        assert res.finish_reason == FINISH_TIMEOUT
        assert res.tokens == []         # never touched the model
        eng.generate()
        check_bystanders(model, eng, "fp16", ps, {"r1"}, 12)
        assert eng.stats().requests_timed_out == 1
        assert_storage_baseline(eng)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mid_decode_timeout_releases_storage_immediately(
            self, model, backend):
        clock = ManualClock()
        ps = prompts(2, seed=2)
        eng = make_engine(model, backend, clock=clock)
        eng.submit(GenerationRequest("r0", ps[0], max_tokens=20))
        eng.submit(GenerationRequest("r1", ps[1], max_tokens=20, timeout_s=5.0))
        for _ in range(4):
            eng.step()
        assert 0 < len(eng.scheduler.running) == 2
        clock.advance(10.0)
        events = eng.step()
        assert any(e.request_id == "r1" and e.finish_reason == FINISH_TIMEOUT
                   for e in events)
        # Storage came back the moment the sweep ran, not at engine idle.
        if eng.pool is not None:
            held = sum(len(s.lease.table.blocks)
                       for s in eng.scheduler.running if s.lease is not None)
            assert eng.pool.blocks_in_use == held
        else:
            assert eng.arena.slots_in_use == 1
        res = eng.result("r1")
        assert res.finish_reason == FINISH_TIMEOUT
        assert 0 < len(res.tokens) < 20          # partial output retained
        eng.generate()
        check_bystanders(model, eng, "fp16", ps, {"r1"}, 20)
        assert_storage_baseline(eng)

    def test_engine_wide_timeout_and_per_request_override(self, model):
        clock = ManualClock()
        ps = prompts(2, seed=3)
        eng = make_engine(model, "arena", clock=clock, request_timeout_s=5.0)
        eng.submit(GenerationRequest("r0", ps[0], max_tokens=30))
        # Per-request budget beats the engine-wide default.
        eng.submit(GenerationRequest("r1", ps[1], max_tokens=30,
                                     timeout_s=1000.0))
        eng.step()
        clock.advance(7.0)
        eng.generate()
        assert eng.result("r0").finish_reason == FINISH_TIMEOUT
        assert eng.result("r1").finish_reason == FINISH_LENGTH
        assert eng.stats().requests_timed_out == 1
        assert_storage_baseline(eng)

    def test_clock_skew_falsely_expires_but_engine_survives(self, model):
        fi = FaultInjector().clock_skew(50.0, after=10)
        clock = ManualClock()
        ps = prompts(2, seed=4)
        eng = make_engine(model, "paged", faults=fi, clock=clock,
                          request_timeout_s=30.0)
        for i, p in enumerate(ps):
            eng.submit(GenerationRequest(f"r{i}", p, max_tokens=16))
        eng.generate()
        # The jump fired and expired every in-flight request; no real
        # time passed, yet the engine cleaned up and terminated.
        assert fi.fired_at("clock") == 1
        assert eng.stats().requests_timed_out == 2
        for i in range(2):
            assert eng.result(f"r{i}").finish_reason == FINISH_TIMEOUT
        assert_storage_baseline(eng)

    def test_no_timeout_configured_never_expires(self, model):
        clock = ManualClock()
        ps = prompts(1, seed=5)
        eng = make_engine(model, "arena", clock=clock)
        eng.submit(GenerationRequest("r0", ps[0], max_tokens=8))
        clock.advance(1e9)
        eng.generate()
        assert eng.result("r0").finish_reason == FINISH_LENGTH
        assert eng.stats().requests_timed_out == 0


# ======================================================================
# Callback quarantine
# ======================================================================
class TestCallbackQuarantine:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_raising_callback_poisons_only_its_request(self, model, backend):
        ps = prompts(3, seed=6)
        eng = make_engine(model, backend)
        calls = []

        def bad(event):
            calls.append(event)
            if len(calls) >= 3:
                raise RuntimeError("client went away")

        eng.submit(GenerationRequest("r0", ps[0], max_tokens=10))
        eng.submit(GenerationRequest("r1", ps[1], max_tokens=10), on_token=bad)
        eng.submit(GenerationRequest("r2", ps[2], max_tokens=10))
        eng.generate()
        res = eng.result("r1")
        assert res.finish_reason == FINISH_ERROR
        assert "client went away" in res.error
        assert len(calls) == 3          # never called again after raising
        assert len(res.tokens) == 3     # tokens before the raise retained
        check_bystanders(model, eng, "fp16", ps, {"r1"}, 10)
        assert eng.stats().requests_failed == 1
        assert_storage_baseline(eng)

    def test_injected_callback_fault_same_path(self, model):
        fi = FaultInjector().arm(CALLBACK, "r1", after=2)
        ps = prompts(2, seed=7)
        eng = make_engine(model, "paged", faults=fi)
        seen = []
        eng.submit(GenerationRequest("r0", ps[0], max_tokens=8))
        eng.submit(GenerationRequest("r1", ps[1], max_tokens=8),
                   on_token=seen.append)
        eng.generate()
        res = eng.result("r1")
        assert res.finish_reason == FINISH_ERROR
        assert "injected" in res.error and fi.fired_at(CALLBACK) == 1
        assert len(seen) == 2           # two deliveries before the fault
        check_bystanders(model, eng, "fp16", ps, {"r1"}, 8)
        assert_storage_baseline(eng)


# ======================================================================
# Forward faults (injected and real)
# ======================================================================
class TestForwardFaults:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("after", [0, 3], ids=["prefill", "mid-decode"])
    def test_nontransient_fault_quarantines_victim(self, model, backend, after):
        # after=0: the victim's first forward (its prefill) raises;
        # after=3: three forwards succeed first — it dies mid-decode.
        fi = FaultInjector().arm(FORWARD, "r1", after=after)
        ps = prompts(3, seed=8)
        eng = make_engine(model, backend, faults=fi)
        for i, p in enumerate(ps):
            eng.submit(GenerationRequest(f"r{i}", p, max_tokens=10))
        eng.generate()
        res = eng.result("r1")
        assert res.finish_reason == FINISH_ERROR
        assert "injected" in res.error
        assert len(res.tokens) == (0 if after == 0 else after)
        check_bystanders(model, eng, "fp16", ps, {"r1"}, 10)
        assert eng.stats().requests_failed == 1
        assert eng.stats().retries == 0
        assert_storage_baseline(eng)

    @pytest.mark.parametrize("cache", EXACT_CACHES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_transient_fault_retries_to_exact_output(
            self, model, backend, cache):
        fi = FaultInjector().arm(FORWARD, "r1", after=3, transient=True)
        ps = prompts(3, seed=9)
        eng = make_engine(model, backend, cache=cache, faults=fi,
                          max_retries=2)
        for i, p in enumerate(ps):
            eng.submit(GenerationRequest(f"r{i}", p, max_tokens=10))
        eng.generate()
        # The victim recovered via recompute and finished bit-exact too.
        check_bystanders(model, eng, cache, ps, set(), 10)
        stats = eng.stats()
        assert stats.retries == 1 and stats.requests_failed == 0
        assert_storage_baseline(eng)

    def test_retry_budget_bounds_poison_request(self, model):
        # A persistently-faulting request burns its retries then fails.
        fi = FaultInjector().arm(FORWARD, "r0", times=10, transient=True)
        ps = prompts(1, seed=10)
        eng = make_engine(model, "paged", max_retries=2, faults=fi)
        eng.submit(GenerationRequest("r0", ps[0], max_tokens=6))
        eng.generate()
        res = eng.result("r0")
        assert res.finish_reason == FINISH_ERROR
        assert eng.stats().retries == 2          # budget, not the 10 armed
        assert fi.fired_at(FORWARD) == 3         # initial + 2 retries
        assert_storage_baseline(eng)

    def test_max_retries_zero_fails_immediately(self, model):
        fi = FaultInjector().arm(FORWARD, "r0", transient=True)
        eng = make_engine(model, "arena", max_retries=0, faults=fi)
        eng.submit(GenerationRequest("r0", prompts(1)[0], max_tokens=6))
        eng.generate()
        assert eng.result("r0").finish_reason == FINISH_ERROR
        assert eng.stats().retries == 0

    def test_mid_prefill_chunk_fault_and_recovery(self, model):
        # Chunked pipeline: the victim dies (then recovers) between its
        # prompt chunks — the mid-prefill cell of the matrix.
        long = np.concatenate(prompts(6, seed=11, lo=8, hi=12))  # > 2 chunks
        short = prompts(1, seed=12)[0]
        for transient in (False, True):
            fi = FaultInjector().arm(FORWARD, "r1", after=1,
                                     transient=transient)
            eng = make_engine(model, "chunked", faults=fi, max_retries=1)
            eng.submit(GenerationRequest("r0", short, max_tokens=8))
            eng.submit(GenerationRequest("r1", long, max_tokens=8))
            eng.generate()
            res = eng.result("r1")
            if transient:
                assert res.tokens == single_stream(model, FP16KVCache, long, 8)
            else:
                assert res.finish_reason == FINISH_ERROR
                assert res.tokens == []          # died before first token
            assert eng.result("r0").tokens == single_stream(
                model, FP16KVCache, short, 8)
            assert_storage_baseline(eng)

    def test_real_forward_exception_recovers_all_participants(self, model):
        # A real exception mid-fused-call is unattributable: everyone in
        # the batch recomputes, and the tick after that is clean.  Every
        # engine tick, decode-only ones included, is one forward_mixed.
        ps = prompts(3, seed=13)
        eng = make_engine(model, "paged", max_retries=1)
        real = model.forward_mixed
        state = {"armed": False, "raised": 0}

        def flaky(*args, **kwargs):
            if state["armed"]:
                state["armed"] = False
                state["raised"] += 1
                raise ValueError("simulated kernel failure")
            return real(*args, **kwargs)

        model.forward_mixed = flaky
        try:
            for i, p in enumerate(ps):
                eng.submit(GenerationRequest(f"r{i}", p, max_tokens=10))
            eng.step()                   # prefills + first decode tick
            state["armed"] = True
            eng.generate()               # next decode tick raises
        finally:
            model.forward_mixed = real
        assert state["raised"] == 1
        check_bystanders(model, eng, "fp16", ps, set(), 10)
        assert eng.stats().retries == 3          # every participant charged
        assert eng.stats().requests_failed == 0
        assert_storage_baseline(eng)


# ======================================================================
# Allocation faults
# ======================================================================
class TestAllocFaults:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_admission_alloc_fault(self, model, backend):
        fi = FaultInjector().arm(ALLOC, "r1")
        ps = prompts(2, seed=14)
        eng = make_engine(model, backend, faults=fi)
        for i, p in enumerate(ps):
            eng.submit(GenerationRequest(f"r{i}", p, max_tokens=8))
        eng.generate()
        res = eng.result("r1")
        assert res.finish_reason == FINISH_ERROR and res.tokens == []
        check_bystanders(model, eng, "fp16", ps, {"r1"}, 8)
        assert_storage_baseline(eng)

    @pytest.mark.parametrize("transient", [False, True])
    def test_mid_decode_page_growth_alloc_fault(self, model, transient):
        # block_tokens=16, prompt ~8, max_tokens=16 → the victim crosses
        # a page boundary mid-decode; after=1 skips its admission-alloc
        # occasion so the fault lands on that growth allocation.
        fi = FaultInjector().arm(ALLOC, "r1", after=1, transient=transient)
        ps = prompts(2, seed=15, lo=7, hi=9)
        eng = make_engine(model, "paged", faults=fi, max_retries=1)
        for i, p in enumerate(ps):
            eng.submit(GenerationRequest(f"r{i}", p, max_tokens=16))
        eng.generate()
        res = eng.result("r1")
        if transient:
            assert res.tokens == single_stream(model, FP16KVCache, ps[1], 16)
        else:
            assert res.finish_reason == FINISH_ERROR
            assert 0 < len(res.tokens) < 16      # died at the page boundary
        check_bystanders(model, eng, "fp16", ps, {"r1"}, 16)
        assert_storage_baseline(eng)


# ======================================================================
# Chaos sweeps
# ======================================================================
class TestChaos:
    def test_seeded_chaos_is_reproducible_and_survivable(self, model):
        def chaos_run():
            fi = FaultInjector(seed=42).chaos(FORWARD, 0.08, times=6)
            eng = make_engine(model, "paged", faults=fi, max_retries=3)
            ps = prompts(6, seed=16)
            for i, p in enumerate(ps):
                eng.submit(GenerationRequest(f"r{i}", p, max_tokens=12))
            eng.generate()
            assert_storage_baseline(eng)
            outcome = {
                f"r{i}": (eng.result(f"r{i}").finish_reason,
                          tuple(eng.result(f"r{i}").tokens))
                for i in range(6)
            }
            return outcome, list(fi.log), ps

        (out1, log1, ps), (out2, log2, _) = chaos_run(), chaos_run()
        assert out1 == out2 and log1 == log2     # bit-for-bit replay
        assert len(log1) > 0
        # Everything the chaos spared (or that recovered) is bit-exact.
        for i in range(6):
            reason, tokens = out1[f"r{i}"]
            if reason != FINISH_ERROR:
                assert list(tokens) == single_stream(
                    model, FP16KVCache, ps[i], 12)


# ======================================================================
# submit() rejection hygiene (regression)
# ======================================================================
class TestSubmitRejection:
    def test_rejected_id_can_resubmit_immediately(self, model):
        eng = make_engine(model, "arena")
        p = prompts(1, seed=17)[0]
        with pytest.raises(ValueError, match="max_seq"):
            eng.submit(GenerationRequest("r0", p, max_tokens=10_000))
        # The rejection left no registered id or queue entry behind.
        assert eng.scheduler.queue_depth == 0
        eng.submit(GenerationRequest("r0", p, max_tokens=4))
        eng.generate()
        assert eng.result("r0").finish_reason == FINISH_LENGTH
        assert eng.stats().requests_rejected == 1
        assert_storage_baseline(eng)

    def test_queue_full_rejection_then_resubmit(self, model):
        eng = make_engine(model, "arena", max_queue_len=1, max_batch_size=1)
        ps = prompts(3, seed=18)
        eng.submit(GenerationRequest("q0", ps[0], max_tokens=4))
        with pytest.raises(QueueFullError):
            eng.submit(GenerationRequest("q1", ps[1], max_tokens=4))
        eng.generate()                   # drains the queue
        eng.submit(GenerationRequest("q1", ps[2], max_tokens=4))
        eng.generate()
        assert eng.result("q1").finish_reason == FINISH_LENGTH
        assert eng.stats().requests_rejected == 1


# ======================================================================
# Drain
# ======================================================================
class TestDrain:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_drain_finishes_running_leaves_queued(self, model, backend):
        ps = prompts(4, seed=19)
        eng = make_engine(model, backend, max_batch_size=2)
        for i, p in enumerate(ps):
            eng.submit(GenerationRequest(f"r{i}", p, max_tokens=6))
        eng.step()                       # 2 admitted, 2 queued
        assert eng.scheduler.n_running == 2
        eng.drain()
        assert eng.scheduler.n_running == 0
        assert eng.scheduler.queue_depth == 2    # untouched by the drain
        assert eng.draining
        with pytest.raises(RuntimeError, match="draining"):
            eng.submit(GenerationRequest("late", ps[0], max_tokens=2))
        eng.resume_admission()
        eng.generate()
        check_bystanders(model, eng, "fp16", ps, set(), 6)
        assert_storage_baseline(eng)


# ======================================================================
# Snapshot / restore
# ======================================================================
class TestSnapshotRestore:
    @pytest.mark.parametrize("cache", EXACT_CACHES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mid_decode_snapshot_restores_exact_tokens(
            self, model, backend, cache):
        ps = prompts(4, seed=20)
        eng = make_engine(model, backend, cache=cache, max_batch_size=2)
        for i, p in enumerate(ps):
            eng.submit(GenerationRequest(f"r{i}", p, max_tokens=10))
        for _ in range(4):
            eng.step()                   # 2 mid-decode, 2 still queued
        snap = json.loads(json.dumps(eng.snapshot()))   # JSON-serializable
        assert len(snap["requests"]) == 4
        eng2 = GenerationEngine.restore(
            snap, model, CACHE_FACTORIES[cache])
        eng2.generate()
        check_bystanders(model, eng2, cache, ps, set(), 10)
        assert eng2.stats().snapshot_restores == 4
        assert_storage_baseline(eng2)

    def test_sampled_requests_restore_rng_midstream(self, model):
        # Reference: one uninterrupted engine run of the same requests.
        ps = prompts(3, seed=21)
        sampling = SamplingParams(temperature=0.9, top_k=8, seed=123)

        def reqs():
            return [GenerationRequest(f"r{i}", p, max_tokens=12,
                                      sampling=sampling)
                    for i, p in enumerate(ps)]

        ref = make_engine(model, "paged")
        ref.generate(reqs())
        eng = make_engine(model, "paged")
        for r in reqs():
            eng.submit(r)
        for _ in range(5):
            eng.step()
        snap = json.loads(json.dumps(eng.snapshot()))
        eng2 = GenerationEngine.restore(snap, model, CACHE_FACTORIES["fp16"])
        eng2.generate()
        for i in range(3):
            assert eng2.result(f"r{i}").tokens == ref.result(f"r{i}").tokens
        assert_storage_baseline(eng2)

    def test_parallel_sampling_family_restores(self, model):
        p = prompts(1, seed=22)[0]
        sampling = SamplingParams(temperature=0.8, seed=9)

        def req():
            return GenerationRequest("r", p, max_tokens=10, n=3,
                                     sampling=sampling)

        ref = make_engine(model, "paged")
        ref.generate([req()])
        eng = make_engine(model, "paged")
        eng.submit(req())
        for _ in range(4):
            eng.step()                   # past the fork: 3 live lanes
        snap = json.loads(json.dumps(eng.snapshot()))
        assert len(snap["requests"][0]["samples"]) == 3
        eng2 = GenerationEngine.restore(snap, model, CACHE_FACTORIES["fp16"])
        eng2.generate()
        got = eng2.result("r")
        want = ref.result("r")
        assert [s.tokens for s in got.samples] == [
            s.tokens for s in want.samples]
        assert_storage_baseline(eng2)

    def test_drain_then_snapshot_then_restore_queued(self, model):
        # The graceful-shutdown shape: drain in-flight work, snapshot
        # the queue, bring it back up elsewhere.
        ps = prompts(4, seed=23)
        eng = make_engine(model, "arena", max_batch_size=2)
        for i, p in enumerate(ps):
            eng.submit(GenerationRequest(f"r{i}", p, max_tokens=8))
        eng.step()
        eng.drain()
        snap = eng.snapshot()
        assert len(snap["requests"]) == 2        # only the queued survivors
        assert all(s["tokens"] == [] for r in snap["requests"]
                   for s in r["samples"])
        eng2 = GenerationEngine.restore(snap, model, CACHE_FACTORIES["fp16"])
        eng2.generate()
        for i in (2, 3):
            assert eng2.result(f"r{i}").tokens == single_stream(
                model, FP16KVCache, ps[i], 8)
        assert_storage_baseline(eng2)

    def test_mant_restore_completes(self, model):
        # MANT recompute re-quantizes the replayed window: the restore
        # gate here is completion, not token identity (standing trade).
        ps = prompts(2, seed=24)
        eng = make_engine(model, "paged", cache="mant4")
        for i, p in enumerate(ps):
            eng.submit(GenerationRequest(f"r{i}", p, max_tokens=10))
        for _ in range(3):
            eng.step()
        snap = json.loads(json.dumps(eng.snapshot()))
        eng2 = GenerationEngine.restore(snap, model, CACHE_FACTORIES["mant4"])
        eng2.generate()
        for i in range(2):
            res = eng2.result(f"r{i}")
            assert res.finish_reason == FINISH_LENGTH
            assert len(res.tokens) == 10
        assert_storage_baseline(eng2)

    def test_snapshot_version_and_callbacks(self, model):
        eng = make_engine(model, "arena")
        eng.submit(GenerationRequest("r", prompts(1, seed=25)[0], max_tokens=4))
        snap = eng.snapshot()
        with pytest.raises(ValueError, match="version"):
            GenerationEngine.restore({**snap, "version": 99},
                                     model, FP16KVCache)
        seen = []
        eng2 = GenerationEngine.restore(snap, model, FP16KVCache,
                                        on_token={"r": seen.append})
        eng2.generate()
        assert len(seen) == 4            # callbacks re-attached per id


# ======================================================================
# Invariant checker
# ======================================================================
class TestInvariantChecker:
    def test_clean_engine_passes(self, model):
        eng = make_engine(model, "paged")
        eng.generate([GenerationRequest("r", prompts(1)[0], max_tokens=4)])
        eng.check_invariants()           # no raise

    def test_stray_arena_lease_detected(self, model):
        eng = make_engine(model, "arena")
        lease = eng.arena.acquire()      # storage no sequence accounts for
        with pytest.raises(RuntimeError, match="arena slot accounting"):
            eng.check_invariants()
        eng.arena.release(lease)
        eng.check_invariants()

    def test_leaked_pool_block_detected(self, model):
        eng = make_engine(model, "paged")
        bid = eng.pool.allocate()        # referenced, held by no lease
        with pytest.raises(RuntimeError, match="refcount"):
            eng.check_invariants()
        eng.pool.decref(bid)
        eng.check_invariants()

    def test_strict_mode_runs_every_tick(self, model, monkeypatch):
        # conftest sets REPRO_SERVE_STRICT=1: a mid-serve corruption
        # fails the very tick it appears, from inside step().
        eng = make_engine(model, "arena")
        eng.submit(GenerationRequest("r", prompts(1)[0], max_tokens=6))
        eng.step()
        stray = eng.arena.acquire()
        with pytest.raises(RuntimeError, match="arena slot accounting"):
            eng.step()
        eng.arena.release(stray)
