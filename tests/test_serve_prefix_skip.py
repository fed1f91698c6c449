"""Prefix-cache hits skip their prefill compute.

The load-bearing properties:

* cache level, bitwise, for FP16/INT4/MANT4 over one pool: a follower
  that adopts a donor's first k pages (``PagedLease.adopt_prefix``) and
  runs only the remaining chunks ends in exactly the state of its own
  full chunked prefill — K/V contents, MANT staging scales, final-window
  count, window accumulators, the staged tail and the final logits;
* the MANT prefix state a donor registers with a page is the running
  raw-V channel maximum through that page, and it lives and dies with
  the page's hash registration: an evicted and reused block never
  serves stale state;
* engine level: an engine computes only the tokens past the
  skipped pages (``prefill_tokens``), always at least the last prompt
  token, counts every admitted prompt token in ``prompt_tokens``, and
  keeps its guarantees under preemption mid-prefill, n>1 forks and
  snapshot→restore;
* a prompt matches the prefix cache at its first chunk, not at
  admission: requests admitted in one wave share the pages the first
  of them computes, in whole-prompt and chunked engines alike; a
  follower waits only for a donor the policy orders ahead of it, and
  runs on its own once that donor leaves.
"""

import functools
import json

import numpy as np
import pytest

from repro.model.transformer import ModelConfig, TransformerLM
from repro.quant.kvcache import FP16KVCache, IntKVCache, MantKVCache
from repro.serve import (
    GenerationEngine,
    GenerationRequest,
    PrefillCursor,
    ServeConfig,
)
from repro.serve.faults import FORWARD, FaultInjector
from repro.serve.paging import BlockPool

from serve_testlib import assert_storage_baseline, single_stream

VOCAB = 64
BT = 16

CACHE_FACTORIES = {
    "fp16": FP16KVCache,
    "int4": functools.partial(IntKVCache, bits=4, group_size=16),
    "mant4": functools.partial(MantKVCache, group_size=16, window=16),
}

MANT_STATE = ("_v_final", "_acc_sum", "_acc_sqsum", "_acc_max",
              "_stage_scale", "_chunk_ch_max")


@pytest.fixture(scope="module")
def model():
    cfg = ModelConfig(vocab_size=VOCAB, d_model=32, n_heads=2, n_layers=2,
                      d_ff=64, max_seq=256, seed=5)
    return TransformerLM(cfg)


def chunked_prefill(model, lease, ids, start=0):
    """Run ``ids[start:]`` one page per chunk; the final chunk's logits."""
    logits = None
    for s in range(start, ids.size, BT):
        e = min(s + BT, ids.size)
        logits = model.prefill_chunk(ids[s:e], lease.caches, offset=s,
                                     final=e == ids.size)
    return logits


def cache_state(cache):
    inner = cache.inner
    out = [np.array(cache.keys(), copy=True).tobytes(),
           np.array(cache.values(), copy=True).tobytes()]
    for attr in MANT_STATE:
        val = getattr(inner, attr, None)
        out.append(val.tobytes() if isinstance(val, np.ndarray) else val)
    return out


# ======================================================================
# Cache level
# ======================================================================
class TestAdoptEqualsFullChunkedPrefill:
    @pytest.mark.parametrize("cache_name", list(CACHE_FACTORIES))
    @pytest.mark.parametrize("k_pages", [1, 2, 3])
    @pytest.mark.parametrize("suffix", [1, 9, 16, 21])
    def test_bitwise(self, model, cache_name, k_pages, suffix):
        factory = CACHE_FACTORIES[cache_name]
        rng = np.random.default_rng(100 * k_pages + suffix)
        prefix = rng.integers(0, VOCAB, size=3 * BT)
        pool = BlockPool(n_layers=2, block_tokens=BT, num_blocks=32)
        donor_ids = np.concatenate([prefix, rng.integers(0, VOCAB, size=5)])
        donor = pool.acquire(factory)
        chunked_prefill(model, donor, donor_ids)
        assert donor.register_prefix(donor_ids) == 3

        ids = np.concatenate([prefix[:k_pages * BT],
                              rng.integers(0, VOCAB, size=suffix)])
        follower = pool.acquire(factory)
        assert follower.match_prefix(ids) == k_pages * BT
        follower.adopt_prefix(k_pages * BT)
        assert follower.caches[0].seq_len == k_pages * BT
        logits = chunked_prefill(model, follower, ids, start=k_pages * BT)

        # Reference: the follower's own full chunked prefill, computed
        # and stored from token 0 in a pool without prefix sharing.
        ref_pool = BlockPool(n_layers=2, block_tokens=BT, num_blocks=32,
                             enable_prefix_cache=False)
        ref = ref_pool.acquire(factory)
        ref_logits = chunked_prefill(model, ref, ids)

        assert logits.tobytes() == ref_logits.tobytes()
        for got, want in zip(follower.caches, ref.caches):
            assert cache_state(got) == cache_state(want)
        # The follower stored nothing over the adopted pages.
        assert follower.table.blocks[:k_pages] == donor.table.blocks[:k_pages]

    def test_mant_prefix_state_is_running_raw_v_max(self):
        rng = np.random.default_rng(3)
        pool = BlockPool(n_layers=1, block_tokens=BT, num_blocks=8)
        lease = pool.acquire(CACHE_FACTORIES["mant4"])
        k = rng.standard_normal((2, 3 * BT + 4, 8))
        v = rng.standard_normal((2, 3 * BT + 4, 8)) * rng.uniform(0.1, 3, (1, 3 * BT + 4, 1))
        cache = lease.caches[0]
        cache.prefill_chunk(k[:, :2 * BT], v[:, :2 * BT])
        cache.prefill_chunk(k[:, 2 * BT:], v[:, 2 * BT:], final=True)
        for page in (1, 2, 3):
            want = np.abs(v[:, :page * BT]).max(axis=1)
            assert cache.prefix_state(page * BT).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="no prefill channel maxima"):
            cache.prefix_state(3 * BT + 4)      # not a window boundary
        lease.register_prefix(np.arange(3 * BT + 4))
        for page in range(3):
            bid = lease.table.blocks[page]
            want = np.abs(v[:, :(page + 1) * BT]).max(axis=1)
            assert pool.prefix_state(0, bid).tobytes() == want.tobytes()
        # Registration consumed the record: the history is freed.
        assert cache.inner._win_max is None

    @pytest.mark.parametrize("cache_name", ["fp16", "int4"])
    def test_stateless_caches_add_no_slab(self, model, cache_name):
        pool = BlockPool(n_layers=2, block_tokens=BT, num_blocks=8)
        ids = np.arange(2 * BT + 3) % VOCAB
        lease = pool.acquire(CACHE_FACTORIES[cache_name])
        chunked_prefill(model, lease, ids)
        lease.register_prefix(ids)
        assert sorted({role for _, role in pool._slabs}) == ["k", "v"]
        assert pool.prefix_state(0, lease.table.blocks[0]) is None

    def test_mant_state_slab_copied_on_write(self, model):
        pool = BlockPool(n_layers=2, block_tokens=BT, num_blocks=8)
        ids = np.arange(2 * BT) % VOCAB
        lease = pool.acquire(CACHE_FACTORIES["mant4"])
        chunked_prefill(model, lease, ids)
        lease.register_prefix(ids)
        state = pool._slabs[(0, "state")]
        assert state.shape == (2, 8, 16)
        src = lease.table.blocks[0]
        dst = pool.clone_block(src)
        assert state[:, dst].tobytes() == state[:, src].tobytes()

    def test_adopt_rejects_partial_or_unsealed(self, model):
        pool = BlockPool(n_layers=2, block_tokens=BT, num_blocks=8)
        ids = np.arange(2 * BT) % VOCAB
        donor = pool.acquire(CACHE_FACTORIES["mant4"])
        chunked_prefill(model, donor, ids)
        donor.register_prefix(ids)
        follower = pool.acquire(CACHE_FACTORIES["mant4"])
        follower.match_prefix(np.concatenate([ids[:BT], [1, 2, 3]]))
        with pytest.raises(ValueError, match="cannot adopt"):
            follower.adopt_prefix(2 * BT)             # only one page sealed
        with pytest.raises(ValueError, match="cannot adopt"):
            follower.adopt_prefix(8)                  # not a whole page
        follower.adopt_prefix(0)                      # no-op
        assert follower.caches[0].seq_len == 0
        flat = MantKVCache(group_size=16, window=16)
        with pytest.raises(RuntimeError, match="pooled pages"):
            flat.adopt_prefix(BT, 2, 16, np.ones((2, 16)))


def raw_v(model, ids):
    """Layer 0's raw V projections ``(heads, T, d_head)`` for ``ids``,
    computed one page per chunk as :func:`chunked_prefill` does."""
    captured = []

    class Probe(FP16KVCache):
        @classmethod
        def write_checked(cls, decode_caches, k_dec, v_dec, chunks):
            captured.extend(np.array(v) for _, _, v, _ in chunks)
            super().write_checked(decode_caches, k_dec, v_dec, chunks)

    caches = [Probe()] + [FP16KVCache() for _ in range(model.config.n_layers - 1)]
    for s in range(0, ids.size, BT):
        e = min(s + BT, ids.size)
        model.prefill_chunk(ids[s:e], caches, offset=s, final=e == ids.size)
    return np.concatenate(captured, axis=1)


class TestEvictedStateNeverServed:
    def test_evicted_and_reused_block(self, model):
        """A registered page evicted LRU and rewritten by another
        sequence loses its hash, so no lookup returns it and its state
        row is never read again; re-registered, it serves the new
        writer's state."""
        factory = CACHE_FACTORIES["mant4"]
        rng = np.random.default_rng(8)
        pool = BlockPool(n_layers=2, block_tokens=BT, num_blocks=4)
        first = rng.integers(0, VOCAB, size=2 * BT)
        donor = pool.acquire(factory)
        chunked_prefill(model, donor, first)
        donor.register_prefix(first)
        old_blocks = list(donor.table.blocks)
        donor.release()                               # cached-free, hashed
        assert pool.blocks_available == 4

        # A different prompt fills the whole pool: the cached pages are
        # evicted and rewritten, then registered under the new prefix.
        second = rng.integers(0, VOCAB, size=4 * BT)
        other = pool.acquire(factory)
        chunked_prefill(model, other, second)
        assert set(old_blocks) <= set(other.table.blocks)
        for bid in old_blocks:
            with pytest.raises(RuntimeError, match="no registered prefix"):
                pool.prefix_state(0, bid)
        other.register_prefix(second)
        v = raw_v(model, second)
        for page, bid in enumerate(other.table.blocks):
            want = np.abs(v[:, :(page + 1) * BT]).max(axis=1)
            assert pool.prefix_state(0, bid).tobytes() == want.tobytes()
        other.release()

        # The first prompt no longer matches: nothing to adopt.
        again = pool.acquire(factory)
        assert again.match_prefix(np.concatenate([first, [3]])) == 0
        again.release()
        # The second prompt matches and adopts its own writer's state.
        follower = pool.acquire(factory)
        ids = np.concatenate([second[:2 * BT], [5, 6]])
        assert follower.match_prefix(ids) == 2 * BT
        follower.adopt_prefix(2 * BT)
        ref = BlockPool(n_layers=2, block_tokens=BT, num_blocks=8,
                        enable_prefix_cache=False).acquire(factory)
        logits = chunked_prefill(model, follower, ids, start=2 * BT)
        assert logits.tobytes() == chunked_prefill(model, ref, ids).tobytes()
        for got, want in zip(follower.caches, ref.caches):
            assert cache_state(got) == cache_state(want)

    def test_release_frees_history(self, model):
        pool = BlockPool(n_layers=2, block_tokens=BT, num_blocks=8)
        lease = pool.acquire(CACHE_FACTORIES["mant4"])
        ids = np.arange(3 * BT) % VOCAB
        model.prefill_chunk(ids[:BT], lease.caches, offset=0)
        assert len(lease.caches[0].inner._win_max) == 1
        lease.release()                               # preempted mid-prefill
        assert all(c.inner._win_max is None for c in lease.caches)


class TestCursorStart:
    def test_start_validation(self):
        c = PrefillCursor(40, start=32)
        assert (c.done, c.remaining) == (32, 8)
        with pytest.raises(ValueError, match="outside"):
            PrefillCursor(32, start=32)               # last token must run
        with pytest.raises(ValueError, match="outside"):
            PrefillCursor(32, start=-1)


# ======================================================================
# Engine level
# ======================================================================
def shared_prompts(n, seed, prefix_pages=3, lo=1, hi=30):
    rng = np.random.default_rng(seed)
    system = rng.integers(0, VOCAB, size=prefix_pages * BT)
    return [np.concatenate([system, rng.integers(0, VOCAB, size=int(s))])
            for s in rng.integers(lo, hi, size=n)]


def chunked_engine(model, factory, **over):
    cfg = dict(max_batch_size=4, block_tokens=BT, prefill_chunk_tokens=BT,
               max_tokens_per_tick=2 * BT)
    cfg.update(over)
    return GenerationEngine(model, factory, ServeConfig(**cfg))


def warm(engine, prompt, max_tokens=2):
    """Run one donor request to completion so its pages are registered."""
    engine.generate([GenerationRequest("donor", prompt, max_tokens=max_tokens)])


class TestEngineSkip:
    @pytest.mark.parametrize("cache_name", list(CACHE_FACTORIES))
    def test_skip_counts_and_tokens(self, model, cache_name):
        factory = CACHE_FACTORIES[cache_name]
        ps = shared_prompts(5, seed=31)
        eng = chunked_engine(model, factory)
        warm(eng, ps[0])
        before = eng.stats()
        res = eng.generate([GenerationRequest(f"r{i}", p, max_tokens=6)
                            for i, p in enumerate(ps[1:])])
        st = eng.stats()
        # Each follower skips the three system pages and computes only
        # its own suffix.
        assert st.prefill_tokens - before.prefill_tokens == sum(
            p.size - 3 * BT for p in ps[1:])
        assert st.prompt_tokens - before.prompt_tokens == sum(p.size for p in ps[1:])
        assert st.prefill_tokens < st.prompt_tokens
        # Hit tokens outnumber computed ones here, so the ratio divides
        # by prompt tokens admitted, not by prefill_tokens.
        assert st.prefix_hit_tokens > st.prefill_tokens
        assert st.summary()["derived"]["prefix_hit_ratio"] == (
            st.prefix_hit_tokens / st.prompt_tokens)
        assert 0.0 < st.prefix_hit_tokens / st.prompt_tokens <= 1.0
        for i, p in enumerate(ps[1:]):
            assert res[f"r{i}"].tokens == single_stream(model, factory, p, 6)
        assert_storage_baseline(eng)

    def test_fully_matched_prompt_runs_its_last_page(self, model):
        """A prompt whose every page matched still computes its last
        page, for the first sampled token's logits."""
        factory = CACHE_FACTORIES["mant4"]
        prompt = shared_prompts(1, seed=32)[0][:3 * BT]
        eng = chunked_engine(model, factory)
        warm(eng, prompt)
        before = eng.stats().prefill_tokens
        res = eng.generate([GenerationRequest("again", prompt, max_tokens=5)])
        assert eng.stats().prefill_tokens - before == BT
        assert res["again"].tokens == single_stream(model, factory, prompt, 5)

    def test_chat_traffic_without_hits_is_untouched(self, model):
        rng = np.random.default_rng(33)
        ps = [rng.integers(0, VOCAB, size=int(n)) for n in (20, 37, 50)]
        eng = chunked_engine(model, CACHE_FACTORIES["mant4"])
        eng.generate([GenerationRequest(f"r{i}", p, max_tokens=4)
                      for i, p in enumerate(ps)])
        st = eng.stats()
        assert st.prefix_hit_tokens == 0
        assert st.prefill_tokens == st.prompt_tokens == sum(p.size for p in ps)

    @pytest.mark.parametrize("cache_name", list(CACHE_FACTORIES))
    def test_preempted_mid_prefill_after_skip(self, model, cache_name):
        """A skipping sequence preempted mid-prefill discards its cursor,
        skips the matched pages again on resume, replays from its first
        unmatched page, and still decodes the reference tokens."""
        factory = CACHE_FACTORIES[cache_name]
        rng = np.random.default_rng(34)
        system = rng.integers(0, VOCAB, size=2 * BT)
        decoder = rng.integers(0, VOCAB, size=30)
        long_tail = np.concatenate([system, rng.integers(0, VOCAB, size=5 * BT)])
        eng = chunked_engine(model, factory, max_batch_size=2, num_blocks=9)
        warm(eng, np.concatenate([system, [1, 2]]))
        eng.submit(GenerationRequest("a", decoder, max_tokens=60))
        eng.submit(GenerationRequest("b", long_tail, max_tokens=8))
        while eng.has_work():
            eng.step()
        # "a" crosses into its third page while "b" is 4 chunks into
        # its 5-chunk prefill: "b" is evicted, then re-admitted past the
        # two system pages and runs all 5 chunks again.
        assert eng.stats().preemptions == 1
        res_b = eng.result("b")
        assert res_b.prefill_chunks == 4 + 5
        assert eng.pool.prefix_hit_tokens == 2 * (2 * BT)
        assert eng.stats().prefill_tokens == 34 + 30 + (4 + 5) * BT
        assert res_b.tokens == single_stream(model, factory, long_tail, 8)
        assert eng.result("a").tokens == single_stream(model, factory, decoder, 60)
        assert_storage_baseline(eng)

    @pytest.mark.parametrize("cache_name", list(CACHE_FACTORIES))
    def test_n_samples_fork_after_skip(self, model, cache_name):
        factory = CACHE_FACTORIES[cache_name]
        ps = shared_prompts(2, seed=35)
        eng = chunked_engine(model, factory)
        warm(eng, ps[0])
        res = eng.generate([GenerationRequest("r", ps[1], max_tokens=6, n=3)])["r"]
        assert eng.pool.forks == 2
        ref = single_stream(model, factory, ps[1], 6)
        for sample in res.samples:
            assert sample.tokens == ref
        assert_storage_baseline(eng)

    @pytest.mark.parametrize("cache_name", list(CACHE_FACTORIES))
    def test_snapshot_restore_mid_prefill_after_skip(self, model, cache_name):
        factory = CACHE_FACTORIES[cache_name]
        ps = shared_prompts(2, seed=36, lo=40, hi=60)
        eng = chunked_engine(model, factory)
        warm(eng, ps[0])
        eng.submit(GenerationRequest("r", ps[1], max_tokens=5))
        eng.step()                                    # one chunk past the skip
        seq = eng.scheduler.running[0]
        assert seq.cursor is not None and seq.cursor.done == 4 * BT
        snap = json.loads(json.dumps(eng.snapshot()))
        # Restored into a fresh engine, nothing is cached: a full replay.
        fresh = GenerationEngine.restore(snap, model, factory)
        got = fresh.generate()["r"].tokens
        # Adopted by the live engine, the prefix cache still holds the
        # system pages: the replay skips them again.
        eng.cancel("r")
        eng.pop_result("r")
        before = eng.stats().prefill_tokens
        eng.adopt(snap["requests"][0])
        adopted = eng.generate()["r"].tokens
        assert eng.stats().prefill_tokens - before == ps[1].size - 3 * BT
        want = single_stream(model, factory, ps[1], 5)
        assert got == want and adopted == want
        assert_storage_baseline(fresh)
        assert_storage_baseline(eng)


# ======================================================================
# Same-wave matching: a prompt matches at its first chunk
# ======================================================================
def same_wave_prompts(seed=41):
    """8 prompts: one 128-token system prefix + 32 unique tokens each."""
    rng = np.random.default_rng(seed)
    system = rng.integers(0, VOCAB, size=128)
    return [np.concatenate([system, rng.integers(0, VOCAB, size=32)])
            for _ in range(8)]


class TestSameWaveMatching:
    @pytest.mark.parametrize("cache_name", list(CACHE_FACTORIES))
    def test_same_wave_hits_whole_and_chunked(self, model, cache_name):
        """Requests submitted together share the prefix pages the first
        of them computes, in whole-prompt and chunked engines alike."""
        factory = CACHE_FACTORIES[cache_name]
        ps = same_wave_prompts()
        refs = [single_stream(model, factory, p, 4) for p in ps]
        for cfg in (ServeConfig(max_batch_size=8),
                    ServeConfig.chunked(max_batch_size=8)):
            eng = GenerationEngine(model, factory, cfg)
            res = eng.generate([GenerationRequest(f"r{i}", p, max_tokens=4)
                                for i, p in enumerate(ps)])
            # The first request computes its 5 pages; the 7 others
            # attach its 4 system pages and compute their own last one.
            st = eng.stats()
            assert eng.pool.prefill_pages_hit == 28
            assert eng.pool.prefill_pages_total == 40
            assert st.prompt_tokens == 8 * 160
            assert st.prefill_tokens == 160 + 7 * 32
            for i, ref in enumerate(refs):
                assert res[f"r{i}"].tokens == ref
            assert_storage_baseline(eng)

    def test_follower_ordered_ahead_of_donor_is_not_deferred(self, model):
        """Under the priority policy a later, higher-priority request
        runs ahead: it computes the shared pages itself, and the
        earlier, lower-priority one waits for them."""
        factory = CACHE_FACTORIES["fp16"]
        low, high = shared_prompts(2, seed=42)
        eng = chunked_engine(model, factory, scheduler_policy="priority")
        eng.submit(GenerationRequest("low", low, max_tokens=3))
        eng.submit(GenerationRequest("high", high, max_tokens=3, priority=5))
        eng.step()
        seqs = {s.request.request_id: s for s in eng.scheduler.running}
        assert seqs["high"].cursor.done == BT
        assert seqs["low"].cursor.done == 0 and not seqs["low"].lease.matched
        res = eng.generate()
        assert eng.stats().prefill_tokens == high.size + low.size - 3 * BT
        assert res["high"].tokens == single_stream(model, factory, high, 3)
        assert res["low"].tokens == single_stream(model, factory, low, 3)
        assert_storage_baseline(eng)

    @pytest.mark.parametrize("cache_name", ["fp16", "mant4"])
    @pytest.mark.parametrize("how", ["cancel", "evict"])
    def test_deferred_follower_proceeds_without_its_donor(self, model,
                                                          cache_name, how):
        """A follower waiting for its donor's pages runs once the donor
        leaves the prefill set — cancelled, or evicted by a retried
        fault and re-admitted behind it."""
        factory = CACHE_FACTORIES[cache_name]
        donor, follower = shared_prompts(2, seed=43, lo=20, hi=30)
        faults = (FaultInjector().arm(FORWARD, "donor", after=1, transient=True)
                  if how == "evict" else None)
        eng = GenerationEngine(model, factory, ServeConfig(
            max_batch_size=4, block_tokens=BT, prefill_chunk_tokens=BT,
            max_tokens_per_tick=2 * BT), faults=faults)
        eng.submit(GenerationRequest("donor", donor, max_tokens=4))
        eng.submit(GenerationRequest("follower", follower, max_tokens=4))
        eng.step()                                    # donor's first chunk
        waiting = eng.scheduler.running[1]
        assert waiting.request.request_id == "follower"
        assert waiting.cursor.done == 0 and not waiting.lease.matched
        if how == "cancel":
            eng.cancel("donor")
        res = eng.generate()
        want = single_stream(model, factory, follower, 4)
        assert res["follower"].tokens == want
        st = eng.stats()
        if how == "cancel":
            # Nothing was registered: the follower computes everything.
            assert st.prefill_tokens == BT + follower.size
        else:
            # The follower, now ahead, computes everything; the replayed
            # donor waits for it and skips the three system pages.
            assert st.retries == 1
            assert st.prefill_tokens == BT + follower.size + donor.size - 3 * BT
            assert res["donor"].tokens == single_stream(model, factory, donor, 4)
        assert_storage_baseline(eng)
