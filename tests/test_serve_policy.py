"""Tests for the serving API v2: pluggable policies, lifecycle, n>1.

Gates, per the PR acceptance criteria:

* priority ordering (strict + FCFS tiebreak) and EDF deadline ordering
  with starvation-free aging;
* policy-aware preemption victim selection;
* cancellation in all three states — queued, mid-chunked-prefill,
  mid-decode — with storage fully released and innocent bystanders'
  greedy output unchanged;
* n>1 parallel-sampling determinism: per-sample streams derived from
  ``(seed, sample_index)``, invariant to batch composition and to the
  admission mode (whole-prompt vs chunked prefill), with every extra
  sample forked copy-on-write (``PagedLease.fork``);
* the v2 config surface (the chunked preset, ``scheduler_policy``
  validation), submit-time request validation, ``RequestHandle`` and
  the new ``EngineStats`` fields.
"""

import dataclasses
import functools
import itertools

import numpy as np
import pytest

from serve_testlib import assert_storage_baseline

from repro.model.transformer import ModelConfig, TransformerLM
from repro.quant.kvcache import FP16KVCache, IntKVCache, MantKVCache
from repro.serve import (
    FINISH_CANCELLED,
    DeadlinePolicy,
    FCFSPolicy,
    GenerationEngine,
    GenerationRequest,
    PriorityPolicy,
    RequestHandle,
    SamplingParams,
    ServeConfig,
    get_policy,
)

VOCAB = 64

CACHE_FACTORIES = {
    "fp16": FP16KVCache,
    "int4": functools.partial(IntKVCache, bits=4, group_size=16),
    "mant4": functools.partial(MantKVCache, group_size=16, window=16),
}


@pytest.fixture(scope="module")
def model():
    cfg = ModelConfig(vocab_size=VOCAB, d_model=32, n_heads=2, n_layers=2,
                      d_ff=64, max_seq=160, seed=5)
    return TransformerLM(cfg)


def prompts(n, seed=0, lo=3, hi=12):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, VOCAB, size=int(rng.integers(lo, hi))) for _ in range(n)]


def single_stream(model, cache_factory, prompt, n_tokens):
    caches = [cache_factory() for _ in range(model.config.n_layers)]
    logits = model.prefill(prompt, caches)
    out, pos, token = [], len(prompt), int(np.argmax(logits))
    for _ in range(n_tokens):
        out.append(token)
        logits = model.decode_step(token, caches, pos)
        token = int(np.argmax(logits))
        pos += 1
    return out


def fake_clock(step_s=0.001):
    counter = itertools.count()
    return lambda: next(counter) * step_s


def first_token_order(engine):
    """Request ids in the order their first token arrived."""
    order = []
    while engine.has_work():
        for ev in engine.step():
            if ev.token is not None and ev.request_id not in order:
                order.append(ev.request_id)
    return order


# ======================================================================
# Config surface
# ======================================================================
class TestServeConfigV2:
    def test_presets(self):
        # One storage backend: no backend switch, no backend presets.
        names = {f.name for f in dataclasses.fields(ServeConfig)}
        assert not names & {"paged", "initial_cache_capacity"}
        assert not hasattr(ServeConfig, "arena")
        assert not hasattr(ServeConfig, "paged")
        chunked = ServeConfig.chunked()
        assert chunked.prefill_chunk_tokens == chunked.block_tokens
        assert chunked.max_tokens_per_tick == 2 * chunked.prefill_chunk_tokens

    def test_preset_overrides_compose(self):
        cfg = ServeConfig.chunked(block_tokens=64, scheduler_policy="priority")
        assert cfg.prefill_chunk_tokens == 64
        assert cfg.scheduler_policy == "priority"

    def test_with_policy(self):
        cfg = ServeConfig(block_tokens=16).with_policy("deadline")
        assert cfg.scheduler_policy == "deadline" and cfg.block_tokens == 16

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="scheduler_policy"):
            ServeConfig(scheduler_policy="sjf")
        with pytest.raises(ValueError, match="scheduler_policy"):
            get_policy("sjf")

    def test_consolidated_validation_still_rejects(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            ServeConfig(max_batch_size=0)
        with pytest.raises(ValueError, match="max_tokens_per_tick"):
            ServeConfig(max_tokens_per_tick=32)


# ======================================================================
# Request validation (at submit, never mid-tick)
# ======================================================================
class TestRequestValidation:
    def test_zero_max_tokens_rejected(self):
        with pytest.raises(ValueError, match="max_tokens"):
            GenerationRequest("r", np.arange(1, 5), max_tokens=0)

    def test_negative_stop_token_rejected(self):
        with pytest.raises(ValueError, match="negative stop tokens"):
            GenerationRequest("r", np.arange(1, 5), stop_tokens=[3, -1])

    def test_duplicate_stop_tokens_rejected(self):
        with pytest.raises(ValueError, match="duplicate stop tokens"):
            GenerationRequest("r", np.arange(1, 5), stop_tokens=[3, 3])

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            GenerationRequest("r", np.arange(1, 5), n=0)

    def test_nonpositive_deadline_rejected(self):
        for bad in (0.0, -1.5):
            with pytest.raises(ValueError, match="deadline_s"):
                GenerationRequest("r", np.arange(1, 5), deadline_s=bad)

    def test_n_over_batch_lanes_rejected_at_submit(self, model):
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=2))
        with pytest.raises(ValueError, match="parallel samples"):
            eng.submit(GenerationRequest("r", np.arange(1, 5), n=3))
        assert eng.stats().requests_rejected == 1


# ======================================================================
# Priority policy
# ======================================================================
class TestPriorityPolicy:
    def test_high_priority_jumps_queue(self, model):
        ps = prompts(4, seed=1)
        cfg = ServeConfig(max_batch_size=1, scheduler_policy="priority")
        eng = GenerationEngine(model, FP16KVCache, cfg)
        for i, p in enumerate(ps[:3]):
            eng.submit(GenerationRequest(f"low-{i}", p, max_tokens=4, priority=0))
        eng.submit(GenerationRequest("high", ps[3], max_tokens=4, priority=5))
        order = first_token_order(eng)
        assert order[0] == "high"
        # FCFS tiebreak among the equals.
        assert order[1:] == ["low-0", "low-1", "low-2"]

    def test_fcfs_tiebreak_at_equal_priority(self, model):
        cfg = ServeConfig(max_batch_size=1, scheduler_policy="priority")
        eng = GenerationEngine(model, FP16KVCache, cfg)
        for i, p in enumerate(prompts(3, seed=2)):
            eng.submit(GenerationRequest(f"r{i}", p, max_tokens=3, priority=7))
        assert first_token_order(eng) == ["r0", "r1", "r2"]

    def test_priority_output_matches_single_stream(self, model):
        """The policy reorders *scheduling*, never the tokens."""
        ps = prompts(4, seed=3)
        cfg = ServeConfig(max_batch_size=2, scheduler_policy="priority")
        eng = GenerationEngine(model, FP16KVCache, cfg)
        reqs = [GenerationRequest(f"r{i}", p, max_tokens=6, priority=i % 3)
                for i, p in enumerate(ps)]
        results = eng.generate(reqs)
        for i, p in enumerate(ps):
            assert results[f"r{i}"].tokens == single_stream(model, FP16KVCache, p, 6)

    def test_preemption_victim_is_lowest_priority(self, model):
        """Pool exhaustion evicts background work, not the urgent request.

        The low-priority request is admitted *first* (it is oldest), so
        youngest-first FCFS would evict the high-priority one; the
        priority policy must pick the low-priority victim instead.
        """
        rng = np.random.default_rng(11)
        cfg = ServeConfig(max_batch_size=2, block_tokens=8,
                          num_blocks=4, enable_prefix_cache=False,
                          scheduler_policy="priority")
        eng = GenerationEngine(model, FP16KVCache, cfg)
        eng.submit(GenerationRequest("bg", rng.integers(0, VOCAB, size=8),
                                     max_tokens=12, priority=0))
        eng.submit(GenerationRequest("urgent", rng.integers(0, VOCAB, size=8),
                                     max_tokens=12, priority=9))
        finish_order = []
        while eng.has_work():
            for ev in eng.step():
                if ev.finished:
                    finish_order.append(ev.request_id)
        st = eng.stats()
        assert st.preemptions >= 1
        assert finish_order[0] == "urgent"       # never the preemption victim
        assert len(eng.result("bg").tokens) == 12   # victim still completes
        assert eng.pool.blocks_in_use == 0

    def test_fcfs_ignores_priority_field(self, model):
        ps = prompts(2, seed=4)
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=1))
        eng.submit(GenerationRequest("first", ps[0], max_tokens=3, priority=0))
        eng.submit(GenerationRequest("vip", ps[1], max_tokens=3, priority=99))
        assert first_token_order(eng) == ["first", "vip"]


# ======================================================================
# Deadline policy (EDF + aging)
# ======================================================================
class TestDeadlinePolicy:
    def test_edf_orders_by_deadline(self, model):
        ps = prompts(3, seed=5)
        cfg = ServeConfig(max_batch_size=1, scheduler_policy="deadline")
        eng = GenerationEngine(model, FP16KVCache, cfg, clock=fake_clock())
        eng.submit(GenerationRequest("lax", ps[0], max_tokens=3, deadline_s=10.0))
        eng.submit(GenerationRequest("tight", ps[1], max_tokens=3, deadline_s=1.0))
        eng.submit(GenerationRequest("none", ps[2], max_tokens=3))
        # tight (t+1) < lax (t+10) < no-deadline (t+aging cap 30)
        assert first_token_order(eng) == ["tight", "lax", "none"]

    def test_aging_cap_prevents_starvation(self, model):
        """An old deadline-less request outranks much later arrivals.

        With the default 30 s cap the late tight-deadline request would
        win; with a small cap, the early request's effective deadline
        (submit + cap) comes first once the late one arrives >cap later.
        """
        ps = prompts(2, seed=6)
        clock = fake_clock(step_s=1.0)       # every clock read is 1 s apart
        cfg = ServeConfig(max_batch_size=1, scheduler_policy="deadline")
        eng = GenerationEngine(model, FP16KVCache, cfg, clock=clock,
                               policy=DeadlinePolicy(aging_cap_s=0.5))
        eng.submit(GenerationRequest("old", ps[0], max_tokens=3))
        eng.submit(GenerationRequest("late-tight", ps[1], max_tokens=3,
                                     deadline_s=0.25))
        # old: submit t0 + cap 0.5; late-tight: submit t1 + 0.25 = t1+0.25
        # > t0+0.5 since the clock advanced >= 1 s between submissions.
        assert first_token_order(eng) == ["old", "late-tight"]

    def test_deadline_output_matches_single_stream(self, model):
        ps = prompts(4, seed=7)
        cfg = ServeConfig(max_batch_size=2, scheduler_policy="deadline")
        eng = GenerationEngine(model, FP16KVCache, cfg)
        reqs = [GenerationRequest(f"r{i}", p, max_tokens=6,
                                  deadline_s=float(1 + i))
                for i, p in enumerate(ps)]
        results = eng.generate(reqs)
        for i, p in enumerate(ps):
            assert results[f"r{i}"].tokens == single_stream(model, FP16KVCache, p, 6)

    def test_bad_aging_cap_rejected(self):
        with pytest.raises(ValueError, match="aging_cap_s"):
            DeadlinePolicy(aging_cap_s=0.0)


# ======================================================================
# FCFS is bit-for-bit the pre-policy engine
# ======================================================================
class TestFCFSDefault:
    @pytest.mark.parametrize("cache_name", list(CACHE_FACTORIES))
    def test_default_policy_is_fcfs_and_exact(self, model, cache_name):
        factory = CACHE_FACTORIES[cache_name]
        ps = prompts(5, seed=8)
        eng = GenerationEngine(model, factory, ServeConfig(max_batch_size=2))
        assert isinstance(eng.scheduler.policy, FCFSPolicy)
        results = eng.generate(
            [GenerationRequest(f"r{i}", p, max_tokens=6) for i, p in enumerate(ps)]
        )
        for i, p in enumerate(ps):
            assert results[f"r{i}"].tokens == single_stream(model, factory, p, 6)

    def test_explicit_policy_instance_overrides_config(self, model):
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(),
                               policy=PriorityPolicy())
        assert eng.scheduler.policy.name == "priority"
        assert eng.stats().scheduler_policy == "priority"


# ======================================================================
# Cancellation lifecycle
# ======================================================================
BACKEND_CONFIGS = {
    "paged": lambda: ServeConfig(max_batch_size=2, block_tokens=16),
}


class TestCancellation:
    @pytest.mark.parametrize("backend", list(BACKEND_CONFIGS))
    def test_cancel_while_queued(self, model, backend):
        ps = prompts(3, seed=9)
        eng = GenerationEngine(model, FP16KVCache, BACKEND_CONFIGS[backend]())
        events = []
        handles = [
            eng.submit(GenerationRequest(f"r{i}", p, max_tokens=4),
                       on_token=events.append)
            for i, p in enumerate(ps)
        ]
        eng.step()                        # r0, r1 running; r2 queued
        assert eng.scheduler.queue_depth == 1
        assert handles[2].cancel() is True
        assert eng.scheduler.queue_depth == 0
        res = eng.result("r2")
        assert res.finish_reason == FINISH_CANCELLED and res.tokens == []
        cancel_events = [e for e in events
                         if e.request_id == "r2" and e.finished]
        assert cancel_events and cancel_events[0].finish_reason == FINISH_CANCELLED
        # Bystanders unaffected, storage clean after drain.
        eng.generate()
        for i in (0, 1):
            assert eng.result(f"r{i}").tokens == single_stream(
                model, FP16KVCache, ps[i], 4)
        assert_storage_baseline(eng)
        assert eng.stats().requests_cancelled == 1

    @pytest.mark.parametrize("backend", list(BACKEND_CONFIGS))
    def test_cancel_mid_decode_releases_storage(self, model, backend):
        ps = prompts(2, seed=10)
        eng = GenerationEngine(model, FP16KVCache, BACKEND_CONFIGS[backend]())
        for i, p in enumerate(ps):
            eng.submit(GenerationRequest(f"r{i}", p, max_tokens=10))
        for _ in range(3):
            eng.step()                   # both mid-decode
        assert eng.cancel("r1") is True
        # Storage released immediately (cancel outside a tick).
        held = len(eng.scheduler.running[0].lease.table.blocks)
        assert eng.pool.blocks_in_use == held
        res = eng.result("r1")
        assert res.finish_reason == FINISH_CANCELLED
        assert 0 < len(res.tokens) < 10   # stopped mid-flight
        eng.generate()
        assert eng.result("r0").tokens == single_stream(
            model, FP16KVCache, ps[0], 10)
        assert eng.cancel("r1") is False   # already finished

    @pytest.mark.parametrize("backend", list(BACKEND_CONFIGS))
    def test_cancel_mid_chunked_prefill(self, model, backend):
        cfg = dataclasses.replace(
            BACKEND_CONFIGS[backend](),
            prefill_chunk_tokens=16, max_tokens_per_tick=16,
        )
        rng = np.random.default_rng(12)
        long_prompt = rng.integers(0, VOCAB, size=80)
        short = rng.integers(0, VOCAB, size=8)
        eng = GenerationEngine(model, FP16KVCache, cfg)
        eng.submit(GenerationRequest("long", long_prompt, max_tokens=4))
        eng.submit(GenerationRequest("short", short, max_tokens=6))
        eng.step()                       # one 16-token chunk of 80 done
        (victim,) = [s for s in eng.scheduler.running
                     if s.request.request_id == "long"]
        assert victim.cursor is not None and not victim.cursor.complete
        assert eng.cancel("long") is True
        res = eng.result("long")
        assert res.finish_reason == FINISH_CANCELLED and res.tokens == []
        eng.generate()
        assert eng.result("short").tokens == single_stream(
            model, FP16KVCache, short, 6)
        assert_storage_baseline(eng)

    def test_cancel_unknown_or_finished_returns_false(self, model):
        eng = GenerationEngine(model, FP16KVCache, ServeConfig())
        assert eng.cancel("ghost") is False
        h = eng.submit(GenerationRequest("r", prompts(1, seed=13)[0], max_tokens=2))
        eng.generate()
        assert h.cancel() is False
        assert eng.stats().requests_cancelled == 0

    def test_cancel_from_on_token_callback(self, model):
        """Reentrant cancel mid-tick defers release to the tick's end."""
        ps = prompts(2, seed=14)
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=2))

        def killer(event):
            if event.index == 2:
                eng.cancel("victim")

        eng.submit(GenerationRequest("victim", ps[0], max_tokens=10),
                   on_token=killer)
        eng.submit(GenerationRequest("other", ps[1], max_tokens=10))
        eng.generate()
        assert eng.result("victim").finish_reason == FINISH_CANCELLED
        assert eng.result("other").tokens == single_stream(
            model, FP16KVCache, ps[1], 10)
        assert_storage_baseline(eng)

    def test_cancel_twice_from_callback_is_idempotent(self, model):
        """A reentrant double-cancel must count (and report) once."""
        eng = GenerationEngine(model, FP16KVCache, ServeConfig())
        outcomes = []

        def killer(event):
            if event.index == 1:
                outcomes.append(eng.cancel("r"))
                outcomes.append(eng.cancel("r"))

        eng.submit(GenerationRequest("r", prompts(1, seed=40)[0], max_tokens=8),
                   on_token=killer)
        eng.generate()
        assert outcomes == [True, False]
        assert eng.stats().requests_cancelled == 1
        assert eng.result("r").finish_reason == FINISH_CANCELLED

    def test_cancel_on_first_token_of_n_request_spawns_no_siblings(self, model):
        """Cancelling from sample 0's first-token callback stops the
        whole request before any sibling lease is forked."""
        p = prompts(1, seed=41, lo=8, hi=10)[0]
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(
            max_batch_size=4, block_tokens=16))
        eng.submit(GenerationRequest("r", p, max_tokens=8, n=3),
                   on_token=lambda ev: eng.cancel("r"))
        eng.generate()
        res = eng.result("r")
        assert res.finish_reason == FINISH_CANCELLED
        assert res.n_samples == 1            # siblings never existed
        assert eng.pool.forks == 0
        assert eng.pool.blocks_available == eng.pool.num_blocks
        assert not eng.has_work()

    def test_cancelled_mid_flight_counts_and_queue_depth_in_stats(self, model):
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=1))
        for i, p in enumerate(prompts(3, seed=15)):
            eng.submit(GenerationRequest(f"r{i}", p, max_tokens=4))
        eng.step()
        st = eng.stats()
        assert st.requests_queued == 2      # current queue depth
        eng.cancel("r2")
        eng.generate()
        st = eng.stats()
        assert st.requests_cancelled == 1
        assert st.requests_completed == 2   # cancelled not counted here


# ======================================================================
# RequestHandle
# ======================================================================
class TestRequestHandle:
    def test_handle_is_the_request_id(self, model):
        eng = GenerationEngine(model, FP16KVCache, ServeConfig())
        h = eng.submit(GenerationRequest("req-1", prompts(1)[0], max_tokens=2))
        assert isinstance(h, RequestHandle) and isinstance(h, str)
        assert h == "req-1" and h.request_id == "req-1"
        assert {h: 1}["req-1"] == 1        # usable as a plain id

    def test_result_drives_engine(self, model):
        p = prompts(1, seed=16)[0]
        eng = GenerationEngine(model, FP16KVCache, ServeConfig())
        h = eng.submit(GenerationRequest("r", p, max_tokens=5))
        assert not h.done
        res = h.result()
        assert h.done and res.tokens == single_stream(model, FP16KVCache, p, 5)

    def test_stream_yields_only_own_events(self, model):
        ps = prompts(2, seed=17)
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=2))
        eng.submit(GenerationRequest("other", ps[0], max_tokens=4))
        h = eng.submit(GenerationRequest("mine", ps[1], max_tokens=4))
        tokens = [ev.token for ev in h.stream() if ev.token is not None]
        assert tokens == single_stream(model, FP16KVCache, ps[1], 4)


# ======================================================================
# n > 1 parallel sampling
# ======================================================================
class TestParallelSampling:
    @pytest.mark.parametrize("cache_name", list(CACHE_FACTORIES))
    def test_greedy_samples_all_match_single_stream_paged(self, model, cache_name):
        factory = CACHE_FACTORIES[cache_name]
        p = prompts(1, seed=18, lo=8, hi=12)[0]
        eng = GenerationEngine(model, factory, ServeConfig(
            max_batch_size=4, block_tokens=16))
        res = eng.generate([GenerationRequest("r", p, max_tokens=8, n=3)])["r"]
        ref = single_stream(model, factory, p, 8)
        assert res.n_samples == 3
        for s in res.samples:
            assert s.tokens == ref
        assert res.tokens is res.samples[0].tokens    # alias, not a copy
        assert eng.pool.forks == 2
        assert eng.pool.blocks_in_use == 0            # forks fully released

    def test_fork_prefills_once(self, model):
        p = prompts(1, seed=19, lo=10, hi=12)[0]
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(
            max_batch_size=4, block_tokens=16))
        eng.generate([GenerationRequest("r", p, max_tokens=4, n=4)])
        assert eng.stats().prefill_tokens == p.size   # shared prefill
        assert eng.pool.forks == 3

    def test_seeded_samples_distinct_and_deterministic(self, model):
        p = prompts(1, seed=20, lo=10, hi=12)[0]
        sp = SamplingParams(temperature=0.9, seed=123)

        def run(cfg, extra=()):
            eng = GenerationEngine(model, FP16KVCache, cfg)
            reqs = [GenerationRequest("r", p, max_tokens=8, sampling=sp, n=3)]
            reqs += list(extra)
            return eng.generate(reqs)["r"]

        paged = ServeConfig(max_batch_size=6, block_tokens=16)
        alone = run(paged)
        streams = [s.tokens for s in alone.samples]
        assert len({tuple(t) for t in streams}) > 1   # samples truly differ

        # Invariant to batch composition ...
        others = [GenerationRequest(f"o{i}", q, max_tokens=8)
                  for i, q in enumerate(prompts(2, seed=21))]
        busy = run(paged, extra=others)
        assert [s.tokens for s in busy.samples] == streams

        # ... and to the admission mode (chunked prefill, then fork).
        chunked = run(dataclasses.replace(paged, prefill_chunk_tokens=16))
        assert [s.tokens for s in chunked.samples] == streams

    def test_sample0_identical_to_n1_run(self, model):
        p = prompts(1, seed=22, lo=10, hi=12)[0]
        sp = SamplingParams(temperature=0.7, seed=9)
        cfg = ServeConfig(max_batch_size=4, block_tokens=16)
        eng1 = GenerationEngine(model, FP16KVCache, cfg)
        solo = eng1.generate([GenerationRequest("r", p, max_tokens=8,
                                                sampling=sp)])["r"]
        eng3 = GenerationEngine(model, FP16KVCache, cfg)
        multi = eng3.generate([GenerationRequest("r", p, max_tokens=8,
                                                 sampling=sp, n=3)])["r"]
        assert multi.samples[0].tokens == solo.tokens

    def test_events_carry_sample_index(self, model):
        p = prompts(1, seed=23, lo=8, hi=10)[0]
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(
            max_batch_size=4, block_tokens=16))
        seen = set()
        eng.submit(GenerationRequest("r", p, max_tokens=3, n=3),
                   on_token=lambda ev: seen.add(ev.sample))
        eng.generate()
        assert seen == {0, 1, 2}

    def test_n_reserves_lanes(self, model):
        """A second request must wait until the family frees lanes."""
        ps = prompts(2, seed=24, lo=8, hi=10)
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(
            max_batch_size=3, block_tokens=16))
        eng.submit(GenerationRequest("fam", ps[0], max_tokens=6, n=3))
        eng.submit(GenerationRequest("solo", ps[1], max_tokens=6))
        eng.step()
        # All three lanes are spoken for by the family.
        assert eng.scheduler.queue_depth == 1
        eng.generate()
        assert eng.result("solo").tokens == single_stream(
            model, FP16KVCache, ps[1], 6)

    def test_cancel_cancels_every_sample(self, model):
        p = prompts(1, seed=25, lo=8, hi=10)[0]
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(
            max_batch_size=4, block_tokens=16))
        h = eng.submit(GenerationRequest("r", p, max_tokens=12, n=3))
        for _ in range(3):
            eng.step()
        assert h.cancel() is True
        res = eng.result("r")
        assert res.finish_reason == FINISH_CANCELLED
        assert all(s.finish_reason == FINISH_CANCELLED for s in res.samples)
        assert eng.pool.blocks_available == eng.pool.num_blocks
        assert not eng.has_work()

    def test_n_request_fits_small_pool_via_cow_sharing(self, model):
        """Submit-time feasibility is per sample: forked samples share
        prompt pages, so n x the full footprint must NOT be required."""
        rng = np.random.default_rng(42)
        p = rng.integers(0, VOCAB, size=64)     # 4 pages of 16
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(
            max_batch_size=4, block_tokens=16, num_blocks=10,
            enable_prefix_cache=False))
        # Old n-times-footprint check: 4 * ceil(72/16) = 20 > 10 pages.
        res = eng.generate([GenerationRequest("r", p, max_tokens=8, n=4)])["r"]
        ref = single_stream(model, FP16KVCache, p, 8)
        assert [s.tokens for s in res.samples] == [ref] * 4
        assert eng.pool.blocks_in_use == 0

    def test_default_config_n_greedy_matches_single_stream(self, model):
        p = prompts(1, seed=26, lo=8, hi=12)[0]
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=4))
        res = eng.generate([GenerationRequest("r", p, max_tokens=8, n=3)])["r"]
        ref = single_stream(model, FP16KVCache, p, 8)
        assert [s.tokens for s in res.samples] == [ref, ref, ref]
        assert eng.pool.forks == 2
        assert_storage_baseline(eng)

    def test_chunked_n_fork_after_chunked_prefill(self, model):
        """n>1 composes with the mixed tick: fork fires on final chunk."""
        rng = np.random.default_rng(27)
        p = rng.integers(0, VOCAB, size=48)
        cfg = ServeConfig(max_batch_size=4, block_tokens=16,
                          prefill_chunk_tokens=16, max_tokens_per_tick=32)
        eng = GenerationEngine(model, FP16KVCache, cfg)
        res = eng.generate([GenerationRequest("r", p, max_tokens=6, n=3)])["r"]
        ref = single_stream(model, FP16KVCache, p, 6)
        assert [s.tokens for s in res.samples] == [ref, ref, ref]
        assert eng.pool.forks == 2


# ======================================================================
# EngineStats v2
# ======================================================================
class TestEngineStatsV2:
    def test_policy_name_and_counters_exposed(self, model):
        eng = GenerationEngine(model, FP16KVCache,
                               ServeConfig(scheduler_policy="deadline"))
        st = eng.stats()
        assert st.scheduler_policy == "deadline"
        assert st.requests_cancelled == 0 and st.requests_queued == 0

    def test_summary_renders_nan_as_none_before_tokens(self, model):
        eng = GenerationEngine(model, FP16KVCache, ServeConfig())
        s = eng.stats().summary()
        assert s["ttft_p50_s"] is None and s["ttft_p95_s"] is None
        assert s["inter_token_p50_s"] is None and s["inter_token_p95_s"] is None
        assert s["scheduler_policy"] == "fcfs"
        eng.generate([GenerationRequest("r", prompts(1, seed=28)[0],
                                        max_tokens=4)])
        s = eng.stats().summary()
        assert s["ttft_p50_s"] is not None
        assert s["inter_token_p95_s"] is not None
