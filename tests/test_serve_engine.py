"""Tests for the continuous-batching engine (repro.serve.engine).

The load-bearing property: greedy engine output is token-for-token
identical to the single-stream ``prefill``/``decode_step`` loop for
every KV-cache type, regardless of batch composition.
"""

import functools
import math

import numpy as np
import pytest

from repro.model.quantized import PTQConfig, build_ptq
from repro.model.transformer import MixedSegment, ModelConfig, TransformerLM
from repro.quant.kvcache import FP16KVCache, IntKVCache, MantKVCache
from repro.serve import (
    FINISH_LENGTH,
    FINISH_STOP,
    GenerationEngine,
    GenerationRequest,
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


@pytest.fixture(scope="module")
def model():
    cfg = ModelConfig(vocab_size=VOCAB, d_model=32, n_heads=2, n_layers=2,
                      d_ff=64, max_seq=128, seed=5)
    return TransformerLM(cfg)


@pytest.fixture(scope="module")
def opt_model():
    cfg = ModelConfig(vocab_size=VOCAB, d_model=32, n_heads=2, n_layers=2,
                      d_ff=64, max_seq=128, arch="opt", seed=6)
    return TransformerLM(cfg)


def prompts(n, seed=0, lo=3, hi=12):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, VOCAB, size=int(rng.integers(lo, hi))) for _ in range(n)]


def single_stream(model, cache_factory, prompt, n_tokens):
    """The pre-serving generation loop (mirrors model/tasks._generate)."""
    caches = [cache_factory() for _ in range(model.config.n_layers)]
    logits = model.prefill(prompt, caches)
    out, pos, token = [], len(prompt), int(np.argmax(logits))
    for _ in range(n_tokens):
        out.append(token)
        logits = model.decode_step(token, caches, pos)
        token = int(np.argmax(logits))
        pos += 1
    return out


# ======================================================================
# Batched-vs-single equivalence (the acceptance criterion)
# ======================================================================
class TestGreedyEquivalence:
    @pytest.mark.parametrize("cache_name", list(CACHE_FACTORIES))
    def test_batched_equals_single_stream(self, model, cache_name):
        factory = CACHE_FACTORIES[cache_name]
        ps = prompts(6, seed=3)
        engine = GenerationEngine(model, factory, ServeConfig(max_batch_size=3))
        results = engine.generate(
            [GenerationRequest(f"r{i}", p, max_tokens=8) for i, p in enumerate(ps)]
        )
        for i, p in enumerate(ps):
            assert results[f"r{i}"].tokens == single_stream(model, factory, p, 8)

    def test_opt_arch_equivalence(self, opt_model):
        ps = prompts(4, seed=4)
        engine = GenerationEngine(opt_model, FP16KVCache, ServeConfig(max_batch_size=4))
        results = engine.generate(
            [GenerationRequest(f"r{i}", p, max_tokens=6) for i, p in enumerate(ps)]
        )
        for i, p in enumerate(ps):
            assert results[f"r{i}"].tokens == single_stream(opt_model, FP16KVCache, p, 6)

    def test_decode_step_batch_bitwise(self, model):
        """Transformer-level: batched logits row == single-stream logits."""
        ps = prompts(3, seed=7)
        single_caches, batch_caches, toks, poss = [], [], [], []
        for p in ps:
            cs = [FP16KVCache() for _ in range(model.config.n_layers)]
            cb = [FP16KVCache() for _ in range(model.config.n_layers)]
            toks.append(int(np.argmax(model.prefill(p, cs))))
            model.prefill(p, cb)
            single_caches.append(cs)
            batch_caches.append(cb)
            poss.append(len(p))
        batched = model.decode_step_batch(toks, batch_caches, poss)
        for b, p in enumerate(ps):
            ref = model.decode_step(toks[b], single_caches[b], poss[b])
            assert np.array_equal(batched[b], ref)

    def test_act_quant_applied_per_sequence(self, model):
        """Batched forwards quantize activations as the single stream does.

        Two hooks: a tensor-scale one, the worst case for batching (one
        scale over the whole tensor couples rows), which must be called
        once per sequence; and the MANT W4A8 hook ``build_ptq`` makes,
        which is per-token and must be called once per projection input
        on the packed rows.
        """

        def tensor_act_quant(name, x):
            scale = np.max(np.abs(x)) / 127.0 or 1.0
            return np.round(x / scale) * scale

        mant = build_ptq(model, PTQConfig(method="mant", w_bits=4, a_bits=8,
                                          group_size=16)).act_quant
        assert not getattr(tensor_act_quant, "per_token", False)
        assert mant.per_token
        for act_quant in (tensor_act_quant, mant):
            self._check_act_quant_batching(model, act_quant)

    @staticmethod
    def _check_act_quant_batching(model, act_quant):
        calls = []

        def counting(name, x):
            calls.append(name)
            return act_quant(name, x)

        counting.per_token = getattr(act_quant, "per_token", False)
        n_layers = model.config.n_layers
        sites = n_layers * 4                       # wq, wo, wgate, wdown

        def prefilled(p):
            caches = [FP16KVCache() for _ in range(n_layers)]
            logits = model.prefill(p, caches, act_quant=act_quant)
            return caches, int(np.argmax(logits))

        ps = prompts(3, seed=21)
        single = [prefilled(p) for p in ps]
        toks = [t for _, t in single]
        poss = [len(p) for p in ps]
        refs = [model.decode_step(t, cs, pos, act_quant=act_quant)
                for (cs, t), pos in zip(single, poss)]

        batch_caches = [prefilled(p)[0] for p in ps]
        batched = model.decode_step_batch(toks, batch_caches, poss,
                                          act_quant=counting)
        assert len(calls) == sites * (1 if counting.per_token else len(ps))
        assert [row.tobytes() for row in batched] == [r.tobytes() for r in refs]

        # Mixed tick: the same decode rows packed with a final prompt chunk.
        chunk = prompts(1, seed=22, lo=16, hi=17)[0]
        chunk_ref = model.prefill_chunk(
            chunk, [FP16KVCache() for _ in range(n_layers)], offset=0,
            final=True, act_quant=act_quant)

        def mixed(hook):
            segs = [MixedSegment([t], prefilled(p)[0], pos, MixedSegment.DECODE)
                    for t, p, pos in zip(toks, ps, poss)]
            segs.append(MixedSegment(chunk, [FP16KVCache() for _ in range(n_layers)],
                                     0, MixedSegment.CHUNK_FINAL))
            return [o.tobytes() for o in model.forward_mixed(segs, act_quant=hook)]

        def per_segment(name, x):
            return act_quant(name, x)

        calls.clear()
        outs = mixed(counting)
        assert len(calls) == sites * (1 if counting.per_token else len(ps) + 1)
        # One call on the packed rows changes no byte against one call
        # per segment.  The packed GEMMs themselves may differ from the
        # single-stream ones in the last ulp (see forward_mixed), so
        # against the single stream the check is on tokens.
        assert outs == mixed(per_segment)
        for out, ref in zip(outs, refs + [chunk_ref]):
            assert np.argmax(np.frombuffer(out)) == np.argmax(ref)

    def test_over_budget_request_rejected_not_wedged(self, model):
        """A request that can never fit must not stall the queue forever."""
        engine = GenerationEngine(
            model, FP16KVCache,
            ServeConfig(max_batch_size=4, max_tokens_in_flight=20),
        )
        good = prompts(2, seed=22, lo=4, hi=5)
        engine.submit(GenerationRequest("ok-0", good[0], max_tokens=4))
        with pytest.raises(ValueError, match="max_tokens_in_flight"):
            engine.submit(GenerationRequest("big", np.zeros(30, dtype=np.int64),
                                            max_tokens=4))
        engine.submit(GenerationRequest("ok-1", good[1], max_tokens=4))
        results = engine.generate()
        assert set(results) == {"ok-0", "ok-1"}
        # The rejected id was never registered, so it is reusable.
        engine.submit(GenerationRequest("big", good[0], max_tokens=4))
        while engine.has_work():
            engine.step()
        assert engine.result("big").finish_reason == FINISH_LENGTH

    def test_seeded_sampling_batch_invariant(self, model):
        """A request's sampled tokens must not depend on batch peers."""
        sp = SamplingParams(temperature=0.9, top_k=16, seed=11)
        p = prompts(1, seed=9)[0]
        solo = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=1))
        ref = solo.generate([GenerationRequest("x", p, max_tokens=10, sampling=sp)])
        others = prompts(3, seed=10)
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=4))
        res = eng.generate(
            [GenerationRequest("x", p, max_tokens=10, sampling=sp)]
            + [GenerationRequest(f"o{i}", q, max_tokens=4) for i, q in enumerate(others)]
        )
        assert res["x"].tokens == ref["x"].tokens


# ======================================================================
# Scheduling edge cases
# ======================================================================
class TestSchedulingEdgeCases:
    def test_finish_mid_batch_admits_queued(self, model):
        """Short requests finishing mid-batch free lanes for queued ones."""
        ps = prompts(5, seed=12)
        lengths = [2, 9, 2, 5, 3]
        engine = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=2))
        results = engine.generate(
            [GenerationRequest(f"r{i}", p, max_tokens=n)
             for i, (p, n) in enumerate(zip(ps, lengths))]
        )
        assert len(results) == 5
        for i, (p, n) in enumerate(zip(ps, lengths)):
            assert results[f"r{i}"].tokens == single_stream(model, FP16KVCache, p, n)
            assert results[f"r{i}"].finish_reason == FINISH_LENGTH
        st = engine.stats()
        assert st.requests_completed == 5
        assert st.cache_slots_high_water <= 2        # one page per lane
        assert engine.pool.total_leases == 5         # blocks recycled
        assert engine.pool.blocks_available == engine.pool.num_blocks

    def test_admission_while_full_queues(self, model):
        engine = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=1))
        for i, p in enumerate(prompts(3, seed=13)):
            engine.submit(GenerationRequest(f"r{i}", p, max_tokens=4))
        engine.step()
        assert engine.scheduler.n_running == 1
        assert engine.scheduler.queue_depth == 2
        while engine.has_work():
            engine.step()
        assert all(len(engine.result(f"r{i}").tokens) == 4 for i in range(3))

    def test_max_tokens_1_finishes_on_prefill(self, model):
        p = prompts(1, seed=14)[0]
        engine = GenerationEngine(model, FP16KVCache)
        res = engine.generate([GenerationRequest("r", p, max_tokens=1)])["r"]
        assert res.tokens == single_stream(model, FP16KVCache, p, 1)
        assert res.finish_reason == FINISH_LENGTH
        assert res.decode_steps == 0

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError, match="empty prompt"):
            GenerationRequest("r", np.array([], dtype=np.int64))

    def test_zero_max_tokens_rejected(self):
        with pytest.raises(ValueError, match="max_tokens"):
            GenerationRequest("r", np.arange(4), max_tokens=0)

    def test_stop_token_finishes_early(self, model):
        p = prompts(1, seed=15)[0]
        ref = single_stream(model, FP16KVCache, p, 8)
        stop = ref[3]
        engine = GenerationEngine(model, FP16KVCache)
        res = engine.generate(
            [GenerationRequest("r", p, max_tokens=8, stop_tokens={stop})]
        )["r"]
        assert res.finish_reason == FINISH_STOP
        assert res.tokens == ref[: ref.index(stop)]   # stop token not emitted

    def test_token_budget_respected(self, model):
        ps = prompts(4, seed=16, lo=6, hi=7)          # footprint 6 + 4 = 10 each
        engine = GenerationEngine(
            model, FP16KVCache,
            ServeConfig(max_batch_size=8, max_tokens_in_flight=20),
        )
        for i, p in enumerate(ps):
            engine.submit(GenerationRequest(f"r{i}", p, max_tokens=4))
        engine.step()
        assert engine.scheduler.n_running == 2        # 2 × 10 fills the budget
        while engine.has_work():
            engine.step()
        assert engine.stats().requests_completed == 4

    def test_duplicate_request_id_rejected(self, model):
        engine = GenerationEngine(model, FP16KVCache)
        p = prompts(1, seed=17)[0]
        engine.submit(GenerationRequest("dup", p))
        with pytest.raises(ValueError, match="duplicate"):
            engine.submit(GenerationRequest("dup", p))

    def test_pop_result_evicts_and_frees_id(self, model):
        """Long-lived engines consume results via pop_result: memory is
        released and the request id becomes reusable."""
        p = prompts(1, seed=24)[0]
        engine = GenerationEngine(model, FP16KVCache)
        first = engine.generate([GenerationRequest("r", p, max_tokens=3)])["r"]
        assert engine.pop_result("r").tokens == first.tokens
        with pytest.raises(KeyError):
            engine.result("r")
        # Id reusable after eviction; aggregate stats survive it.
        second = engine.generate([GenerationRequest("r", p, max_tokens=3)])["r"]
        assert second.tokens == first.tokens
        st = engine.stats()
        assert st.requests_completed == 2
        assert st.tokens_generated == 6

    def test_prompt_over_max_seq_rejected(self, model):
        too_long = np.zeros(model.config.max_seq, dtype=np.int64)
        engine = GenerationEngine(model, FP16KVCache)
        with pytest.raises(ValueError, match="max_seq"):
            engine.submit(GenerationRequest("r", too_long, max_tokens=1))


# ======================================================================
# Streaming and stats
# ======================================================================
class TestStreaming:
    def test_iterator_streams_every_token_in_order(self, model):
        ps = prompts(3, seed=18)
        engine = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=2))
        reqs = [GenerationRequest(f"r{i}", p, max_tokens=5) for i, p in enumerate(ps)]
        seen: dict[str, list[int]] = {r.request_id: [] for r in reqs}
        for event in engine.run(reqs):
            if event.token is not None:
                assert event.index == len(seen[event.request_id])
                seen[event.request_id].append(event.token)
        for i in range(3):
            assert seen[f"r{i}"] == engine.result(f"r{i}").tokens

    def test_callback_api(self, model):
        p = prompts(1, seed=19)[0]
        engine = GenerationEngine(model, FP16KVCache)
        got = []
        engine.submit(GenerationRequest("r", p, max_tokens=4), on_token=got.append)
        while engine.has_work():
            engine.step()
        assert [e.token for e in got] == engine.result("r").tokens
        assert got[-1].finished and got[-1].finish_reason == FINISH_LENGTH

    def test_generate_accepts_generator(self, model):
        ps = prompts(3, seed=23)
        engine = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=2))
        results = engine.generate(
            GenerationRequest(f"r{i}", p, max_tokens=3) for i, p in enumerate(ps)
        )
        assert set(results) == {"r0", "r1", "r2"}
        assert all(len(r.tokens) == 3 for r in results.values())

    def test_generate_no_args_returns_only_newly_drained(self, model):
        ps = prompts(2, seed=25)
        engine = GenerationEngine(model, FP16KVCache)
        engine.generate([GenerationRequest("old", ps[0], max_tokens=2)])
        engine.submit(GenerationRequest("new", ps[1], max_tokens=2))
        results = engine.generate()
        assert set(results) == {"new"}          # retained "old" not re-reported
        assert engine.result("old").tokens      # but still retrievable

    def test_throughput_excludes_idle_gaps(self, model):
        fake = {"t": 0.0}

        def clock():
            fake["t"] += 0.01       # every clock read advances 10 ms
            return fake["t"]

        p = prompts(1, seed=26)[0]
        engine = GenerationEngine(model, FP16KVCache, clock=clock)
        engine.generate([GenerationRequest("a", p, max_tokens=3)])
        busy_after_first = engine.stats().elapsed_s
        fake["t"] += 1000.0          # a long idle gap between bursts
        engine.generate([GenerationRequest("b", p, max_tokens=3)])
        st = engine.stats()
        assert st.elapsed_s < busy_after_first * 3   # gap not counted
        assert st.tokens_per_s > 1.0

    def test_mixed_cache_types_rejected(self, model):
        """A batched decode over sequences with different cache types (no
        engine path builds one, but the model API allows it) raises
        before any cache changes."""
        ps = prompts(2, seed=27)
        caches = []
        for p, fac in zip(ps, [CACHE_FACTORIES["mant4"], CACHE_FACTORIES["fp16"]]):
            cs = [fac() for _ in range(model.config.n_layers)]
            model.prefill(p, cs)
            caches.append(cs)
        before = [(c.seq_len, np.asarray(c.keys()).tobytes(),
                   np.asarray(c.values()).tobytes()) for cs in caches for c in cs]
        with pytest.raises(ValueError, match="one class"):
            model.decode_step_batch([1, 2], caches, [len(p) for p in ps])
        assert [(c.seq_len, np.asarray(c.keys()).tobytes(),
                 np.asarray(c.values()).tobytes())
                for cs in caches for c in cs] == before

    def test_detokenize_streams_incremental_text(self, model):
        """Events carry the new text suffix; concatenation == full detok."""
        detok = lambda toks: "".join(chr(65 + t % 26) for t in toks)
        p = prompts(1, seed=28)[0]
        engine = GenerationEngine(model, FP16KVCache, detokenize=detok)
        texts = []
        for event in engine.run([GenerationRequest("r", p, max_tokens=6)]):
            if event.token is not None:
                assert event.text is not None
                texts.append(event.text)
        assert "".join(texts) == detok(engine.result("r").tokens)

    def test_no_detokenize_leaves_text_none(self, model):
        p = prompts(1, seed=29)[0]
        engine = GenerationEngine(model, FP16KVCache)
        events = list(engine.run([GenerationRequest("r", p, max_tokens=3)]))
        assert all(e.text is None for e in events)

    def test_queue_full_rejected_and_counted(self, model):
        """max_queue_len backpressure: explicit rejection, id reusable."""
        engine = GenerationEngine(
            model, FP16KVCache,
            ServeConfig(max_batch_size=1, max_queue_len=2),
        )
        ps = prompts(3, seed=30)
        engine.submit(GenerationRequest("r0", ps[0], max_tokens=2))
        engine.submit(GenerationRequest("r1", ps[1], max_tokens=2))
        with pytest.raises(QueueFullError, match="max_queue_len"):
            engine.submit(GenerationRequest("r2", ps[2], max_tokens=2))
        st = engine.stats()
        assert st.requests_rejected == 1
        assert st.requests_submitted == 2
        engine.generate()                      # queue drains ...
        engine.submit(GenerationRequest("r2", ps[2], max_tokens=2))
        engine.generate()                      # ... and the id was never taken
        assert engine.result("r2").finish_reason == FINISH_LENGTH

    def test_stats_accounting(self, model):
        ps = prompts(4, seed=20)
        engine = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=2))
        engine.generate([GenerationRequest(f"r{i}", p, max_tokens=6)
                         for i, p in enumerate(ps)])
        st = engine.stats()
        assert st.requests_submitted == st.requests_completed == 4
        assert st.tokens_generated == 4 * 6
        assert 1.0 <= st.mean_batch_occupancy <= 2.0
        assert st.tokens_per_s > 0
        assert st.mean_queue_latency_s >= 0
        # Default pool: every lane's worst case (max_seq) in 32-token pages.
        assert st.cache_slots == 2 * math.ceil(model.config.max_seq / 32)


# ======================================================================
# One serving forward
# ======================================================================
class TestOneForward:
    @pytest.mark.parametrize("config", [
        ServeConfig(max_batch_size=3),
        ServeConfig.chunked(block_tokens=16, max_batch_size=3),
    ], ids=["paged_unchunked", "paged_chunked"])
    def test_decode_only_ticks_call_forward_mixed_once(self, model, config,
                                                       monkeypatch):
        calls = []
        real_mixed, real_batch = model.forward_mixed, model.decode_step_batch

        def mixed(segments, *args, **kwargs):
            calls.append(("forward_mixed", [s.kind for s in segments]))
            return real_mixed(segments, *args, **kwargs)

        def batch(*args, **kwargs):
            calls.append(("decode_step_batch", None))
            return real_batch(*args, **kwargs)

        monkeypatch.setattr(model, "forward_mixed", mixed)
        monkeypatch.setattr(model, "decode_step_batch", batch)
        engine = GenerationEngine(model, CACHE_FACTORIES["mant4"], config)
        for i, p in enumerate(prompts(3, seed=40, lo=20, hi=40)):
            engine.submit(GenerationRequest(f"r{i}", p, max_tokens=6))
        decode_only = 0
        while engine.scheduler.has_work():
            calls.clear()
            engine.step()
            assert [name for name, _ in calls] == ["forward_mixed"]
            decode_only += set(calls[0][1]) == {MixedSegment.DECODE}
        assert decode_only >= 5


class TestForwardValidation:
    """Bad segments raise before any cache is written."""

    @staticmethod
    def prefilled(model, factory, n_tokens):
        caches = [factory() for _ in range(model.config.n_layers)]
        model.prefill(prompts(1, seed=41, lo=n_tokens, hi=n_tokens + 1)[0], caches)
        return caches

    @staticmethod
    def lengths(*cache_lists):
        return [c.seq_len for caches in cache_lists for c in caches]

    @pytest.mark.parametrize("cache_name", list(CACHE_FACTORIES))
    def test_short_cache_list_rejected_before_writes(self, model, cache_name):
        factory = CACHE_FACTORIES[cache_name]
        good = self.prefilled(model, factory, 5)
        short = self.prefilled(model, factory, 5)[:1]
        before = self.lengths(good, short)
        segs = [MixedSegment([1], good, 5, MixedSegment.DECODE),
                MixedSegment([2], short, 5, MixedSegment.DECODE)]
        with pytest.raises(ValueError, match="per-layer caches"):
            model.forward_mixed(segs)
        chunk = MixedSegment(np.arange(16), short, 5, MixedSegment.CHUNK)
        with pytest.raises(ValueError, match="per-layer caches"):
            model.forward_mixed([segs[0], chunk])
        assert self.lengths(good, short) == before

    @pytest.mark.parametrize("cache_name", list(CACHE_FACTORIES))
    def test_offset_disagreeing_with_cache_rejected(self, model, cache_name):
        factory = CACHE_FACTORIES[cache_name]
        caches = self.prefilled(model, factory, 5)
        other = self.prefilled(model, factory, 5)
        before = self.lengths(caches, other)
        with pytest.raises(ValueError, match="offset 3"):
            model.decode_step(1, caches, pos=3)
        with pytest.raises(ValueError, match="offset 0"):
            model.prefill(np.arange(4), caches)
        with pytest.raises(ValueError, match="offset 6"):
            model.decode_step_batch([1, 2], [other, caches], [5, 6])
        with pytest.raises(ValueError, match="offset 4"):
            model.forward_mixed([
                MixedSegment([1], other, 5, MixedSegment.DECODE),
                MixedSegment([2], caches, 4, MixedSegment.DECODE),
            ])
        assert self.lengths(caches, other) == before
        # The validated call still goes through afterwards.
        model.decode_step(1, caches, pos=5)
        assert caches[0].seq_len == 6
