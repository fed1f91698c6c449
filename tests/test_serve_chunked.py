"""Tests for the chunked, batched prefill pipeline (mixed ticks).

The load-bearing properties:

* chunked greedy engine output is token-for-token identical to the
  unchunked engine for every KV-cache type, with and without prefix
  sharing;
* cache-level ``prefill_chunk`` is *bitwise* identical to one-shot
  ``prefill`` on the same raw tensors (chunk boundaries land on
  quantization-window boundaries, and the INT8 staging scales are fixed
  from channel maxima accumulated across chunks);
* seeded sampling is invariant to the chunk-budget composition of the
  ticks a request rides;
* preemption of a half-prefilled sequence resets its chunk cursor so
  recompute-on-resume replays the whole prompt;
* prefix-aware admission charges only the pages a prefix-cache match
  won't cover;
* bad chunk configurations are rejected loudly.
"""

import functools
import math

import numpy as np
import pytest

from repro.model.transformer import MixedSegment, ModelConfig, TransformerLM
from repro.quant.kvcache import FP16KVCache, IntKVCache, MantKVCache
from repro.sampling import SamplingParams
from repro.serve import (
    GenerationEngine,
    GenerationRequest,
    PrefillCursor,
    ServeConfig,
)

from serve_testlib import single_stream

VOCAB = 64

CACHE_FACTORIES = {
    "fp16": FP16KVCache,
    "int4": functools.partial(IntKVCache, bits=4, group_size=16),
    "mant4": functools.partial(MantKVCache, group_size=16, window=16),
}


@pytest.fixture(scope="module")
def model():
    cfg = ModelConfig(vocab_size=VOCAB, d_model=32, n_heads=2, n_layers=2,
                      d_ff=64, max_seq=256, seed=5)
    return TransformerLM(cfg)


@pytest.fixture(scope="module")
def opt_model():
    cfg = ModelConfig(vocab_size=VOCAB, d_model=32, n_heads=2, n_layers=2,
                      d_ff=64, max_seq=256, arch="opt", seed=6)
    return TransformerLM(cfg)


def prompts(n, seed=0, lo=20, hi=70):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, VOCAB, size=int(rng.integers(lo, hi))) for _ in range(n)]


def requests(ps, max_tokens=8):
    return [GenerationRequest(f"r{i}", p, max_tokens=max_tokens)
            for i, p in enumerate(ps)]


# ======================================================================
# Cache level: prefill_chunk is bitwise prefill
# ======================================================================
class TestCacheChunkBitIdentity:
    @pytest.mark.parametrize("cache_name", list(CACHE_FACTORIES))
    @pytest.mark.parametrize("seq", [7, 16, 40, 50, 64])
    def test_chunked_prefill_bitwise_equals_whole(self, cache_name, seq):
        rng = np.random.default_rng(seq)
        k = rng.standard_normal((2, seq, 16))
        v = rng.standard_normal((2, seq, 16))
        ref = CACHE_FACTORIES[cache_name]()
        ref.prefill(k, v)
        chunked = CACHE_FACTORIES[cache_name]()
        off = 0
        while off < seq:
            n = min(16, seq - off)
            chunked.prefill_chunk(k[:, off:off + n], v[:, off:off + n],
                                  final=off + n == seq)
            off += n
        assert np.array_equal(ref.keys(), chunked.keys())
        assert np.array_equal(ref.values(), chunked.values())
        assert ref.seq_len == chunked.seq_len

    def test_mant_staging_state_matches_whole_prefill(self):
        """Scales and accumulators — not just contents — must converge,
        or the first decode append after a chunked prefill diverges."""
        rng = np.random.default_rng(3)
        k = rng.standard_normal((2, 40, 16))
        v = rng.standard_normal((2, 40, 16))
        ref = CACHE_FACTORIES["mant4"]()
        ref.prefill(k, v)
        chunked = CACHE_FACTORIES["mant4"]()
        for off in (0, 16, 32):
            n = min(16, 40 - off)
            chunked.prefill_chunk(k[:, off:off + n], v[:, off:off + n],
                                  final=off + n == 40)
        assert np.array_equal(ref._stage_scale, chunked._stage_scale)
        assert ref.staging_fill == chunked.staging_fill == 40 % 16
        for attr in ("_acc_sum", "_acc_sqsum", "_acc_max"):
            assert np.array_equal(getattr(ref, attr), getattr(chunked, attr))
        # One decode append stays bitwise identical too.
        k_t, v_t = rng.standard_normal((2, 16)), rng.standard_normal((2, 16))
        ref.append(k_t, v_t)
        chunked.append(k_t, v_t)
        assert np.array_equal(ref.values(), chunked.values())

    def test_non_window_aligned_intermediate_chunk_rejected(self):
        cache = CACHE_FACTORIES["mant4"]()
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="non-final prefill chunk"):
            cache.prefill_chunk(rng.standard_normal((2, 10, 16)),
                                rng.standard_normal((2, 10, 16)), final=False)

    def test_decode_append_before_final_chunk_rejected(self):
        cache = CACHE_FACTORIES["mant4"]()
        rng = np.random.default_rng(5)
        cache.prefill_chunk(rng.standard_normal((2, 16, 16)),
                            rng.standard_normal((2, 16, 16)), final=False)
        with pytest.raises(RuntimeError, match="unfinished chunked prefill"):
            cache.append(rng.standard_normal((2, 16)), rng.standard_normal((2, 16)))


# ======================================================================
# Model level: prefill_chunk / forward_mixed
# ======================================================================
class TestModelMixedForward:
    @pytest.mark.parametrize("cache_name", list(CACHE_FACTORIES))
    def test_chunked_prefill_then_greedy_matches(self, model, cache_name):
        factory = CACHE_FACTORIES[cache_name]
        prompt = prompts(1, seed=7, lo=45, hi=46)[0]
        ref = [factory() for _ in range(model.config.n_layers)]
        ref_logits = model.prefill(prompt, ref)
        ch = [factory() for _ in range(model.config.n_layers)]
        out = None
        for off in range(0, prompt.size, 16):
            n = min(16, prompt.size - off)
            out = model.prefill_chunk(prompt[off:off + n], ch, offset=off,
                                      final=off + n == prompt.size)
        t_ref, t_ch = int(np.argmax(ref_logits)), int(np.argmax(out))
        pos, toks_ref, toks_ch = prompt.size, [], []
        for _ in range(10):
            toks_ref.append(t_ref)
            toks_ch.append(t_ch)
            t_ref = int(np.argmax(model.decode_step(t_ref, ref, pos)))
            t_ch = int(np.argmax(model.decode_step(t_ch, ch, pos)))
            pos += 1
        assert toks_ref == toks_ch

    def test_non_final_chunk_returns_none(self, model):
        caches = [FP16KVCache() for _ in range(model.config.n_layers)]
        prompt = prompts(1, seed=8, lo=32, hi=33)[0]
        assert model.prefill_chunk(prompt[:16], caches, offset=0) is None
        out = model.prefill_chunk(prompt[16:], caches, offset=16, final=True)
        assert out is not None and out.shape == (VOCAB,)

    def test_mixed_decode_rows_match_decode_step_batch_tokens(self, model):
        """Decode rows packed with a chunk still sample the same tokens."""
        ps = prompts(3, seed=9)
        caches, toks, poss = [], [], []
        for p in ps:
            cs = [FP16KVCache() for _ in range(model.config.n_layers)]
            toks.append(int(np.argmax(model.prefill(p, cs))))
            caches.append(cs)
            poss.append(len(p))
        ref = model.decode_step_batch(toks, [list(c) for c in caches], poss)
        # Fresh caches, same state, but ride a mixed forward with a chunk.
        caches2 = []
        for p in ps:
            cs = [FP16KVCache() for _ in range(model.config.n_layers)]
            model.prefill(p, cs)
            caches2.append(cs)
        newcomer = [FP16KVCache() for _ in range(model.config.n_layers)]
        segs = [MixedSegment([t], c, pos, MixedSegment.DECODE)
                for t, c, pos in zip(toks, caches2, poss)]
        segs.append(MixedSegment(prompts(1, seed=10)[0][:16], newcomer, 0,
                                 MixedSegment.CHUNK))
        outs = model.forward_mixed(segs)
        assert outs[-1] is None
        for b in range(3):
            assert int(np.argmax(outs[b])) == int(np.argmax(ref[b]))

    def test_segment_validation(self, model):
        caches = [FP16KVCache()]
        with pytest.raises(ValueError, match="non-empty 1-D"):
            MixedSegment(np.array([], dtype=np.int64), caches, 0, MixedSegment.CHUNK)
        with pytest.raises(ValueError, match="exactly one token"):
            MixedSegment([1, 2], caches, 0, MixedSegment.DECODE)
        with pytest.raises(ValueError, match="unknown segment kind"):
            MixedSegment([1], caches, 0, "bogus")
        assert model.forward_mixed([]) == []


# ======================================================================
# Engine level: the acceptance criterion
# ======================================================================
class TestChunkedEngineEquivalence:
    @pytest.mark.parametrize("cache_name", list(CACHE_FACTORIES))
    @pytest.mark.parametrize("backend", ["paged", "paged_shared"])
    def test_chunked_equals_unchunked(self, model, cache_name, backend):
        """Chunked greedy output == unchunked, token for token, for
        FP16/INT4/MANT4 (± prefix sharing)."""
        factory = CACHE_FACTORIES[cache_name]
        if backend == "paged_shared":
            rng = np.random.default_rng(11)
            system = rng.integers(0, VOCAB, size=32)
            ps = [np.concatenate([system, rng.integers(0, VOCAB, size=int(n))])
                  for n in rng.integers(4, 30, size=5)]
        else:
            ps = prompts(5, seed=12)
        base = dict(max_batch_size=3, block_tokens=16,
                    enable_prefix_cache=backend == "paged_shared")
        ref = GenerationEngine(model, factory, ServeConfig(**base))
        chunked = GenerationEngine(model, factory, ServeConfig(
            **base, prefill_chunk_tokens=16, max_tokens_per_tick=32))
        rr = ref.generate(requests(ps))
        rc = chunked.generate(requests(ps))
        for i in range(len(ps)):
            assert rr[f"r{i}"].tokens == rc[f"r{i}"].tokens
        # Exactly the chunks the prompts need past their skipped
        # prefixes: the first request computes everything; the other
        # four skip the two shared 16-token system pages — the two
        # admitted beside it wait for it to register them.
        skips = [0, 32, 32, 32, 32] if backend == "paged_shared" else [0] * 5
        assert chunked.stats().prefill_chunks == sum(
            -(-(p.size - skip) // 16) for p, skip in zip(ps, skips))

    def test_opt_arch_chunked_equals_unchunked(self, opt_model):
        ps = prompts(4, seed=13)
        ref = GenerationEngine(opt_model, FP16KVCache, ServeConfig(max_batch_size=4))
        chunked = GenerationEngine(opt_model, FP16KVCache, ServeConfig(
            max_batch_size=4, block_tokens=16, prefill_chunk_tokens=16,
            max_tokens_per_tick=24))
        rr = ref.generate(requests(ps, max_tokens=6))
        rc = chunked.generate(requests(ps, max_tokens=6))
        for i in range(len(ps)):
            assert rr[f"r{i}"].tokens == rc[f"r{i}"].tokens

    def test_seeded_sampling_invariant_to_chunk_budget(self, model):
        """Mixed-tick determinism: a request's sampled tokens must not
        depend on how the tick budget packed its peers' chunks."""
        sp = SamplingParams(temperature=0.8, top_k=16, seed=42)
        ps = prompts(4, seed=14, lo=40, hi=65)
        outs = []
        for cfg in (
            ServeConfig(max_batch_size=4, block_tokens=16, prefill_chunk_tokens=16,
                        max_tokens_per_tick=16),
            ServeConfig(max_batch_size=4, block_tokens=16, prefill_chunk_tokens=16,
                        max_tokens_per_tick=64),
            ServeConfig(max_batch_size=4, prefill_chunk_tokens=32),
            ServeConfig(max_batch_size=4),            # unchunked reference
        ):
            eng = GenerationEngine(model, FP16KVCache, cfg)
            res = eng.generate(
                [GenerationRequest(f"r{i}", p, max_tokens=8, sampling=sp)
                 for i, p in enumerate(ps)]
            )
            outs.append([res[f"r{i}"].tokens for i in range(len(ps))])
        for other in outs[1:]:
            assert other == outs[0]

    def test_budget_caps_tick_token_count(self, model):
        """No tick may run more prefill-chunk tokens than the budget
        leaves after its decode rows."""
        ps = prompts(4, seed=15, lo=60, hi=70)
        cfg = ServeConfig(max_batch_size=4, block_tokens=16, prefill_chunk_tokens=16,
                          max_tokens_per_tick=32)
        eng = GenerationEngine(model, FP16KVCache, cfg)
        for r in requests(ps, max_tokens=4):
            eng.submit(r)
        while eng.has_work():
            before = eng.scheduler.running
            decoding = sum(1 for s in before if s.cursor is None and not s.finished)
            chunks_before = eng.stats().prefill_chunks
            eng.step()
            chunk_tokens_possible = (eng.stats().prefill_chunks - chunks_before) * 16
            assert decoding + chunk_tokens_possible <= 32 + 16  # final chunk slack
        assert eng.stats().requests_completed == 4

    def test_long_prompt_does_not_stall_decoders(self, model):
        """The tentpole's latency property, counted in ticks: while a
        long prompt streams in chunk by chunk, already-running decodes
        emit a token every tick instead of gapping for a whole prefill."""
        short = prompts(2, seed=16, lo=4, hi=6)
        long_prompt = prompts(1, seed=17, lo=200, hi=201)[0]
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(
            max_batch_size=3, block_tokens=16, prefill_chunk_tokens=16,
            max_tokens_per_tick=24))
        for r in requests(short, max_tokens=20):
            eng.submit(r)
        eng.step()                                   # shorts prefill+first token
        eng.submit(GenerationRequest("long", long_prompt, max_tokens=2))
        emitted = {"r0": 0, "r1": 0}
        ticks = 0
        while eng.has_work() and ticks < 12:
            evs = eng.step()
            ticks += 1
            for e in evs:
                if e.request_id in emitted and e.token is not None:
                    emitted[e.request_id] += 1
        # 12 ticks of chunked prefill never blocked the decoders.
        assert emitted["r0"] >= 10 and emitted["r1"] >= 10

    def test_ttft_and_itl_stats_recorded(self, model):
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(
            max_batch_size=2, block_tokens=16, prefill_chunk_tokens=16))
        res = eng.generate(requests(prompts(3, seed=18), max_tokens=5))
        st = eng.stats()
        assert st.ttft_p50_s > 0 and st.ttft_p95_s >= st.ttft_p50_s
        assert st.inter_token_p50_s > 0
        assert st.inter_token_p95_s >= st.inter_token_p50_s
        for r in res.values():
            assert r.ttft_s > 0
            assert r.prefill_chunks >= 1

    def test_stats_nan_before_any_token(self, model):
        eng = GenerationEngine(model, FP16KVCache)
        st = eng.stats()
        assert math.isnan(st.ttft_p50_s) and math.isnan(st.inter_token_p95_s)


# ======================================================================
# Preemption of half-prefilled sequences (satellite bugfix)
# ======================================================================
class TestChunkedPreemption:
    def _tight_engine(self, model, **over):
        cfg = dict(max_batch_size=2, block_tokens=16, num_blocks=8,
                   enable_prefix_cache=False, prefill_chunk_tokens=16)
        cfg.update(over)
        return GenerationEngine(model, FP16KVCache, ServeConfig(**cfg))

    def test_mid_prefill_preemption_replays_whole_prompt(self, model):
        """A preempted half-prefilled sequence must reset its cursor and
        replay the full prompt on resume — resuming from a stale cursor
        into fresh pages would silently corrupt the cache."""
        rng = np.random.default_rng(19)
        a = rng.integers(0, VOCAB, size=24)          # decoder, grows
        b = rng.integers(0, VOCAB, size=96)          # long prompt, prefills last
        eng = self._tight_engine(model)
        eng.submit(GenerationRequest("a", a, max_tokens=40))
        eng.submit(GenerationRequest("b", b, max_tokens=2))
        while eng.has_work():
            eng.step()
        st = eng.stats()
        assert st.preemptions >= 1
        # The victim replayed from token zero: its total chunk count
        # exceeds one clean pass over the prompt.
        clean_pass = -(-96 // 16)
        res_b = eng.result("b")
        assert res_b.prefill_chunks > clean_pass
        # And the output still matches an unpressured engine's.
        ref = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=2))
        rr = ref.generate([GenerationRequest("a", a, max_tokens=40),
                           GenerationRequest("b", b, max_tokens=2)])
        assert rr["b"].tokens == res_b.tokens
        assert rr["a"].tokens == eng.result("a").tokens

    def test_preempted_decoder_still_resumes_exactly_once(self, model):
        """Decode-phase preemption keeps PR 3 semantics under chunking:
        emitted tokens are not re-emitted after recompute."""
        rng = np.random.default_rng(20)
        reqs = [GenerationRequest(f"r{i}", rng.integers(0, VOCAB, size=8),
                                  max_tokens=12) for i in range(2)]
        eng = self._tight_engine(model, block_tokens=8, num_blocks=4)
        res = eng.generate(reqs)
        assert eng.stats().preemptions >= 1
        for rid, r in res.items():
            assert len(r.tokens) == 12
            assert len(set(range(len(r.tokens)))) == 12
        assert eng.pool.blocks_in_use == 0

    def test_admission_charges_pending_prefill_demand(self, model):
        """Chunked admission writes no pages, so the gauge alone cannot
        see earlier admissions — their outstanding prefill pages must be
        charged, or a burst of long prompts over-commits the pool and
        churns through preemptions, replaying completed prefill work."""
        rng = np.random.default_rng(25)
        ps = [rng.integers(0, VOCAB, size=96) for _ in range(4)]   # 6 pages each
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(
            max_batch_size=4, block_tokens=16, num_blocks=8,
            enable_prefix_cache=False, prefill_chunk_tokens=16))
        res = eng.generate(requests(ps, max_tokens=4))
        st = eng.stats()
        assert st.requests_completed == 4
        assert st.preemptions == 0
        assert st.prefill_chunks == 4 * (96 // 16)   # no replayed chunks
        ref = GenerationEngine(model, FP16KVCache, ServeConfig(max_batch_size=4))
        rr = ref.generate(requests(ps, max_tokens=4))
        for i in range(4):
            assert rr[f"r{i}"].tokens == res[f"r{i}"].tokens

    def test_cursor_api(self):
        c = PrefillCursor(40)
        assert c.remaining == 40 and not c.complete
        c.advance(16)
        c.advance(24)
        assert c.complete
        with pytest.raises(ValueError):
            c.advance(1)
        with pytest.raises(ValueError):
            PrefillCursor(0)


# ======================================================================
# Prefix-aware admission (satellite)
# ======================================================================
class TestPrefixAwareAdmission:
    def test_shared_prompt_admits_earlier_than_cold(self, model):
        """A same-prompt request is charged none of the pages an
        admitted prefill ahead of it registers, even in the same wave."""
        rng = np.random.default_rng(21)
        prompt = rng.integers(0, VOCAB, size=32)     # 2 pages at bt=16
        cold = rng.integers(0, VOCAB, size=32)
        cfg = dict(max_batch_size=2, block_tokens=16, num_blocks=3)
        warm = GenerationEngine(model, FP16KVCache, ServeConfig(**cfg))
        warm.submit(GenerationRequest("a", prompt, max_tokens=6))
        warm.submit(GenerationRequest("b", prompt, max_tokens=6))
        warm.step()
        # a's 2 outstanding pages cover b's prompt, so b is charged 0 and
        # admitted the same tick; it waits for a's pages instead of
        # computing its own.
        assert warm.scheduler.n_running == 2
        assert warm.stats().prefill_tokens == 32
        res = warm.generate()
        assert res["a"].tokens == res["b"].tokens
        assert warm.pool.prefill_pages_hit >= 2
        # The cold twin of the same shape is charged its 2 pages on top
        # of a's 2 outstanding ones, over the 3-block pool: it waits.
        coldeng = GenerationEngine(model, FP16KVCache, ServeConfig(**cfg))
        coldeng.submit(GenerationRequest("a", prompt, max_tokens=6))
        coldeng.submit(GenerationRequest("b", cold, max_tokens=6))
        coldeng.step()
        assert coldeng.scheduler.n_running == 1
        assert coldeng.scheduler.queue_depth == 1
        assert coldeng.stats().preemptions == 0
        coldeng.generate()                            # still completes FCFS

    def test_resumed_head_is_charged_its_emitted_token(self, model):
        """A sequence preempted after its first token is charged the page
        of that emitted, not yet fed token at re-admission: admitted
        before the pool can back it, it would run its last prompt page
        and be preempted again at its next decode, over and over."""
        rng = np.random.default_rng(24)
        decoder = rng.integers(0, VOCAB, size=20)
        long_prompt = rng.integers(0, VOCAB, size=112)
        eng = GenerationEngine(model, FP16KVCache, ServeConfig.chunked(
            max_batch_size=2, block_tokens=16, num_blocks=9))
        res = eng.generate([GenerationRequest("a", decoder, max_tokens=60),
                            GenerationRequest("b", long_prompt, max_tokens=3)])
        st = eng.stats()
        # "b" is preempted once, mid-prefill, and replays its prompt
        # once; it then waits until "a" leaves room for its decode page.
        assert st.preemptions == 1
        assert st.prompt_tokens == 20 + 2 * 112
        for rid, p, n in (("a", decoder, 60), ("b", long_prompt, 3)):
            assert res[rid].tokens == single_stream(model, FP16KVCache, p, n)

    def test_probe_counts_only_live_blocks(self, model):
        """Cached-free (evictable) matches keep being charged: attaching
        them consumes a block the gauge counts as available."""
        rng = np.random.default_rng(22)
        prompt = rng.integers(0, VOCAB, size=32)
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(
            max_batch_size=1, block_tokens=16, num_blocks=6))
        eng.generate([GenerationRequest("a", prompt, max_tokens=4)])
        pool = eng.pool
        hashes = list(pool.page_hashes(prompt))
        assert pool.probe_prefix(hashes) == 0        # donor gone: pages cached-free
        eng.submit(GenerationRequest("b", prompt, max_tokens=4))
        eng.step()
        assert pool.probe_prefix(hashes) == 2        # b holds them live
        eng.generate()

    def test_probe_disabled_without_prefix_cache(self, model):
        rng = np.random.default_rng(23)
        prompt = rng.integers(0, VOCAB, size=32)
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(
            max_batch_size=2, block_tokens=16, num_blocks=6,
            enable_prefix_cache=False))
        eng.generate([GenerationRequest("a", prompt, max_tokens=4)])
        assert eng.pool.probe_prefix(eng.pool.page_hashes(prompt)) == 0


# ======================================================================
# Config validation (satellite)
# ======================================================================
class TestChunkConfigValidation:
    @pytest.mark.parametrize("kwargs,match", [
        ({"prefill_chunk_tokens": 0}, "prefill_chunk_tokens"),
        ({"max_tokens_per_tick": 32}, "requires prefill_chunk_tokens"),
        ({"prefill_chunk_tokens": 32, "max_tokens_per_tick": 16},
         "max_tokens_per_tick"),
        ({"block_tokens": 16, "prefill_chunk_tokens": 24},
         "multiple of block_tokens"),
    ])
    def test_bad_chunk_knobs_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ServeConfig(**kwargs)

    def test_window_straddling_chunk_rejected_at_engine_init(self, model):
        """Chunks are whole pages (config) and pages whole V windows
        (engine), so a window-straddling chunk cannot reach a tick."""
        with pytest.raises(ValueError, match="MANT V-cache window"):
            GenerationEngine(model, CACHE_FACTORIES["mant4"], ServeConfig(
                block_tokens=24, prefill_chunk_tokens=24))

    def test_valid_chunk_config_accepted(self, model):
        cfg = ServeConfig(block_tokens=16, prefill_chunk_tokens=32,
                          max_tokens_per_tick=64)
        eng = GenerationEngine(model, CACHE_FACTORIES["mant4"], cfg)
        res = eng.generate(requests(prompts(2, seed=24), max_tokens=3))
        assert len(res) == 2
