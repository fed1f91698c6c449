"""Tests for the paged KV-cache subsystem (repro.serve.paging).

The load-bearing properties:

* paged greedy engine decode is token-for-token identical to the
  single-stream ``prefill`` + ``decode_step`` loop over flat caches for
  FP16/INT4/MANT4 (with and without prefix sharing);
* block lifecycle is leak-free: releases return every non-shared page,
  prefix-shared pages survive the donor finishing, and a recycled
  block serves a fresh sequence with no state leakage;
* copy-on-write is a true copy: mutating a forked sequence never
  perturbs the other's cache contents or logits;
* the pool's lease contract: only buffered caches, one geometry per
  (layer, role), read-only views, and copies that own their storage;
* block-aware admission admits on actually-free pages and preempts
  (recompute-on-resume) instead of wedging on pool exhaustion.
"""

import functools

import numpy as np
import pytest

from repro.model import layers as L
from repro.model.transformer import ModelConfig, TransformerLM
from repro.quant.kvcache import FP16KVCache, IntKVCache, KVCache, MantKVCache
from repro.serve import (
    BlockPool,
    GenerationEngine,
    GenerationRequest,
    PagedKVCache,
    PoolExhausted,
    ServeConfig,
)
from repro.serve.paging import validate_block_compat
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
                      d_ff=64, max_seq=192, seed=5)
    return TransformerLM(cfg)


def prompts(n, seed=0, lo=3, hi=12):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, VOCAB, size=int(rng.integers(lo, hi))) for _ in range(n)]


def drive(cache, rng, heads=2, seq=20, dh=16, extra=12, scale=1.0):
    k = rng.normal(size=(heads, seq, dh)) * scale
    v = rng.normal(size=(heads, seq, dh)) * scale
    cache.prefill(k, v)
    for _ in range(extra):
        cache.append(rng.normal(size=(heads, dh)) * scale,
                     rng.normal(size=(heads, dh)) * scale)


def gathered(view):
    """Dense array from either a paged view or a plain ndarray."""
    return view.gather() if hasattr(view, "gather") else view


# ======================================================================
# Cache-level equivalence: paged storage == flat storage, bit for bit
# ======================================================================
class TestPagedCacheEquivalence:
    @pytest.mark.parametrize("name", list(CACHE_FACTORIES))
    @pytest.mark.parametrize("block_tokens", [16, 32])
    def test_paged_cache_matches_standalone(self, name, block_tokens):
        factory = CACHE_FACTORIES[name]
        pool = BlockPool(n_layers=2, block_tokens=block_tokens, num_blocks=16)
        lease_a, lease_b = pool.acquire(factory), pool.acquire(factory)
        solo = factory()
        drive(solo, np.random.default_rng(0))
        drive(lease_a.caches[0], np.random.default_rng(0))
        drive(lease_b.caches[0], np.random.default_rng(1), scale=3.0)
        assert np.array_equal(gathered(lease_a.caches[0].keys()), solo.keys())
        assert np.array_equal(gathered(lease_a.caches[0].values()), solo.values())
        assert lease_a.caches[0].seq_len == solo.seq_len

    def test_multi_page_growth_allocates_on_demand(self):
        pool = BlockPool(n_layers=1, block_tokens=8, num_blocks=8)
        lease = pool.acquire(FP16KVCache)
        cache = lease.caches[0]
        rng = np.random.default_rng(2)
        drive(cache, rng, seq=10, extra=15)       # 25 tokens -> 4 pages
        assert cache.n_pages == 4
        assert pool.blocks_in_use == 4
        lease.release()
        assert pool.blocks_in_use == 0

    def test_gather_is_zero_copy_for_consecutive_pages(self):
        pool = BlockPool(n_layers=1, block_tokens=8, num_blocks=8)
        lease = pool.acquire(FP16KVCache)
        cache = lease.caches[0]
        drive(cache, np.random.default_rng(3), seq=20, extra=0)
        arr = cache.keys().gather()
        slab = pool._slabs[(0, "k")]
        assert np.shares_memory(arr, slab)        # consecutive ids: view
        assert not arr.flags.writeable

    def test_gather_handles_non_consecutive_pages(self):
        # 4-block pool, two interleaved growers: the second sequence's
        # successor block is taken, forcing a non-contiguous table.
        pool = BlockPool(n_layers=1, block_tokens=8, num_blocks=4,
                         enable_prefix_cache=False)
        a, b = pool.acquire(FP16KVCache), pool.acquire(FP16KVCache)
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(5)
        drive(a.caches[0], rng_a, seq=8, extra=0)
        drive(b.caches[0], rng_b, seq=8, extra=0)
        for _ in range(8):                        # both grow a second page
            a.caches[0].append(rng_a.normal(size=(2, 16)),
                               rng_a.normal(size=(2, 16)))
            b.caches[0].append(rng_b.normal(size=(2, 16)),
                               rng_b.normal(size=(2, 16)))
        tables = [a.caches[0].table.blocks, b.caches[0].table.blocks]
        assert any(blk != list(range(blk[0], blk[0] + len(blk)))
                   for blk in tables)             # at least one lost the fast path
        ref = FP16KVCache()
        drive(ref, np.random.default_rng(5), seq=8, extra=8)
        assert np.array_equal(gathered(b.caches[0].keys()), ref.keys())
        assert np.array_equal(gathered(b.caches[0].values()), ref.values())

    def test_attention_gather_path_bit_identical(self):
        """cached_attention_fwd over a paged view == over the dense copy."""
        pool = BlockPool(n_layers=1, block_tokens=8, num_blocks=8)
        lease = pool.acquire(FP16KVCache)
        cache = lease.caches[0]
        drive(cache, np.random.default_rng(6), seq=13, extra=5)
        q = np.random.default_rng(7).normal(size=(2, 1, 16))
        out_paged = L.cached_attention_fwd(q, cache.keys(), cache.values(),
                                           offset=cache.seq_len - 1)
        dense_k = np.array(cache.keys().gather())
        dense_v = np.array(cache.values().gather())
        out_dense = L.cached_attention_fwd(q, dense_k, dense_v,
                                           offset=cache.seq_len - 1)
        assert np.array_equal(out_paged, out_dense)

    def test_window_straddling_block_size_rejected(self):
        cache = MantKVCache(group_size=16, window=16)
        with pytest.raises(ValueError, match="multiple of the MANT"):
            validate_block_compat(cache, 24)
        validate_block_compat(cache, 32)          # multiple: fine

    def test_tail_spanning_pages_rejected(self):
        pool = BlockPool(n_layers=1, block_tokens=8, num_blocks=8)
        lease = pool.acquire(FP16KVCache)
        cache = lease.caches[0]
        drive(cache, np.random.default_rng(8), seq=12, extra=0)
        with pytest.raises(ValueError, match="page boundary"):
            cache.inner._buf.values_tail(6)       # [6, 12) straddles page 0/1


# ======================================================================
# Block lifecycle: ref counts, recycling, prefix sharing, COW
# ======================================================================
class TestBlockLifecycle:
    def test_release_returns_blocks_no_leakage(self):
        pool = BlockPool(n_layers=2, block_tokens=8, num_blocks=6,
                         enable_prefix_cache=False)
        lease = pool.acquire(FP16KVCache)
        for cache in lease.caches:
            drive(cache, np.random.default_rng(9), seq=10, extra=0)
        assert pool.blocks_in_use == 2            # one table covers all layers
        lease.release()
        assert pool.blocks_available == 6
        with pytest.raises(RuntimeError, match="already released"):
            lease.release()
        # A fresh lease over recycled blocks sees none of the old state.
        fresh = pool.acquire(FP16KVCache)
        solo = FP16KVCache()
        drive(fresh.caches[0], np.random.default_rng(10), seq=5, extra=3)
        drive(solo, np.random.default_rng(10), seq=5, extra=3)
        assert np.array_equal(gathered(fresh.caches[0].keys()), solo.keys())

    def test_prefix_sharing_dedups_and_survives_donor(self, model):
        """Shared pages outlive the donor request; the borrower's output
        is unchanged by the donor finishing and releasing first."""
        rng = np.random.default_rng(11)
        shared = rng.integers(0, VOCAB, size=32)
        donor = GenerationRequest("donor", shared, max_tokens=2)
        borrower = GenerationRequest(
            "borrower", np.concatenate([shared, rng.integers(0, VOCAB, size=5)]),
            max_tokens=10,
        )
        factory = CACHE_FACTORIES["mant4"]
        eng = GenerationEngine(model, factory, ServeConfig(
            max_batch_size=2, block_tokens=16))
        res = eng.generate([donor, borrower])     # donor finishes first
        assert eng.pool.prefill_pages_hit == 2    # borrower reused both pages
        assert eng.pool.blocks_in_use == 0        # all refs returned at the end
        ref = GenerationEngine(model, factory, ServeConfig(max_batch_size=1))
        ref_res = ref.generate(
            [GenerationRequest("b", borrower.prompt, max_tokens=10)])
        assert res["borrower"].tokens == ref_res["b"].tokens

    def test_prefix_cache_resurrects_after_donor_release(self, model):
        """Hash-retained blocks serve hits even after every ref dropped."""
        rng = np.random.default_rng(12)
        prompt = rng.integers(0, VOCAB, size=32)
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(
            max_batch_size=1, block_tokens=16))
        eng.generate([GenerationRequest("first", prompt, max_tokens=2)])
        assert eng.pool.blocks_in_use == 0
        eng.generate([GenerationRequest("second", prompt, max_tokens=2)])
        assert eng.pool.prefill_pages_hit == 2
        assert (eng.result("first").tokens[:2]
                == eng.result("second").tokens[:2])

    def test_divergent_page_not_shared(self, model):
        """A prompt differing inside the first page must share nothing."""
        rng = np.random.default_rng(13)
        a = rng.integers(0, VOCAB, size=32)
        b = a.copy()
        b[3] = (b[3] + 1) % VOCAB
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(
            max_batch_size=2, block_tokens=16))
        eng.generate([GenerationRequest("a", a, max_tokens=2),
                      GenerationRequest("b", b, max_tokens=2)])
        assert eng.pool.prefill_pages_hit == 0

    @pytest.mark.parametrize("name", list(CACHE_FACTORIES))
    def test_cow_fork_is_a_true_copy(self, name):
        """After a fork, each side's appends never perturb the other."""
        factory = CACHE_FACTORIES[name]
        pool = BlockPool(n_layers=1, block_tokens=16, num_blocks=16)
        lease = pool.acquire(factory)
        cache = lease.caches[0]
        drive(cache, np.random.default_rng(14), seq=20, extra=4)  # mid-page
        fork = lease.fork()
        snap_k = np.array(gathered(cache.keys()))
        snap_v = np.array(gathered(cache.values()))
        rng_a, rng_b = np.random.default_rng(15), np.random.default_rng(16)
        # Diverge: different streams, enough to close V windows post-fork.
        for _ in range(20):
            fork.caches[0].append(rng_b.normal(size=(2, 16)) * 2.0,
                                  rng_b.normal(size=(2, 16)) * 2.0)
        assert pool.cow_copies >= 1               # shared mid-page was cloned
        assert np.array_equal(gathered(cache.keys()), snap_k)
        assert np.array_equal(gathered(cache.values()), snap_v)
        for _ in range(20):
            cache.append(rng_a.normal(size=(2, 16)),
                         rng_a.normal(size=(2, 16)))
        # Each side now equals a standalone cache fed the same stream.
        solo_a, solo_b = factory(), factory()
        drive(solo_a, np.random.default_rng(14), seq=20, extra=4)
        drive(solo_b, np.random.default_rng(14), seq=20, extra=4)
        rng_a2, rng_b2 = np.random.default_rng(15), np.random.default_rng(16)
        for _ in range(20):
            solo_a.append(rng_a2.normal(size=(2, 16)),
                          rng_a2.normal(size=(2, 16)))
            solo_b.append(rng_b2.normal(size=(2, 16)) * 2.0,
                          rng_b2.normal(size=(2, 16)) * 2.0)
        assert np.array_equal(gathered(cache.keys()), solo_a.keys())
        assert np.array_equal(gathered(cache.values()), solo_a.values())
        assert np.array_equal(gathered(fork.caches[0].keys()), solo_b.keys())
        assert np.array_equal(gathered(fork.caches[0].values()), solo_b.values())
        fork.release()
        lease.release()
        assert pool.blocks_in_use == 0

    def test_pool_exhaustion_raises(self):
        pool = BlockPool(n_layers=1, block_tokens=8, num_blocks=2,
                         enable_prefix_cache=False)
        lease = pool.acquire(FP16KVCache)
        cache = lease.caches[0]
        rng = np.random.default_rng(17)
        drive(cache, rng, seq=16, extra=0)        # both blocks
        with pytest.raises(PoolExhausted):
            cache.append(rng.normal(size=(2, 16)), rng.normal(size=(2, 16)))

    def test_pool_exhaustion_in_pooled_decode_store_changes_no_length(self):
        """One layer's decode rows, the second short of a page: the
        first row's page is allocated, nothing is stored and every cache
        keeps its length and bytes."""
        pool = BlockPool(n_layers=1, block_tokens=8, num_blocks=3,
                         enable_prefix_cache=False)
        caches = [pool.acquire(FP16KVCache).caches[0] for _ in range(2)]
        rng = np.random.default_rng(18)
        for cache in caches:
            drive(cache, rng, seq=8, extra=0)     # one full page each
        before = [(np.array(c.keys()), np.array(c.values())) for c in caches]
        k, v = rng.normal(size=(2, 2, 2, 16))
        with pytest.raises(PoolExhausted):
            PagedKVCache.append_batch(caches, k, v)
        assert [c.seq_len for c in caches] == [8, 8]
        assert [c.n_pages for c in caches] == [2, 1]
        for c, (keys, values) in zip(caches, before):
            assert np.array_equal(c.keys(), keys)
            assert np.array_equal(c.values(), values)


# ======================================================================
# Lease contract: what the pool accepts, what its views promise
# ======================================================================
class TestLeaseContract:
    def test_non_buffered_cache_rejected(self):
        class Odd(KVCache):
            pass

        pool = BlockPool(n_layers=1, block_tokens=8, num_blocks=4)
        with pytest.raises(TypeError, match="pooled buffer"):
            pool.acquire(Odd)

    def test_rebind_on_live_cache_rejected(self):
        pool = BlockPool(n_layers=1, block_tokens=8, num_blocks=8)
        lease = pool.acquire(FP16KVCache)
        drive(lease.caches[0], np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="rebind"):
            lease.caches[0].bind_buffer_factory(lambda *a: None)

    def test_geometry_mismatch_rejected(self):
        pool = BlockPool(n_layers=1, block_tokens=8, num_blocks=8)
        l1, l2 = pool.acquire(FP16KVCache), pool.acquire(FP16KVCache)
        rng = np.random.default_rng(0)
        l1.caches[0].prefill(rng.normal(size=(2, 4, 16)), rng.normal(size=(2, 4, 16)))
        with pytest.raises(ValueError, match="geometry"):
            l2.caches[0].prefill(rng.normal(size=(4, 4, 8)), rng.normal(size=(4, 4, 8)))

    def test_views_are_read_only(self):
        pool = BlockPool(n_layers=1, block_tokens=8, num_blocks=8)
        lease = pool.acquire(FP16KVCache)
        drive(lease.caches[0], np.random.default_rng(0))
        cache = lease.caches[0]
        for role, view in (("k", cache.keys()), ("v", cache.values())):
            arr = np.asarray(view)
            assert np.shares_memory(arr, pool._slabs[(0, role)])  # zero-copy
            with pytest.raises(ValueError):
                arr[0, 0, 0] = 1.0

    def test_array_copy_owns_its_storage(self):
        """``np.array(view, copy=True)`` must not alias the slab: the
        block is rewritten once the lease releases it."""
        pool = BlockPool(n_layers=1, block_tokens=8, num_blocks=4,
                         enable_prefix_cache=False)
        lease = pool.acquire(FP16KVCache)
        drive(lease.caches[0], np.random.default_rng(0), seq=12, extra=0)
        view = lease.caches[0].keys()
        snap = np.array(view.gather())           # reference values
        arr = np.array(view, copy=True)
        assert arr.flags.writeable
        assert not any(np.shares_memory(arr, slab)
                       for slab in pool._slabs.values())
        lease.release()
        reuse = pool.acquire(FP16KVCache)        # same (recycled) blocks
        drive(reuse.caches[0], np.random.default_rng(1), seq=12, extra=0,
              scale=5.0)
        assert np.array_equal(arr, snap)


# ======================================================================
# Engine-level equivalence and block-aware scheduling
# ======================================================================
class TestPagedEngine:
    @pytest.mark.parametrize("cache_name", list(CACHE_FACTORIES))
    def test_paged_engine_equals_single_stream(self, model, cache_name):
        """The acceptance criterion: token-for-token identical decode."""
        factory = CACHE_FACTORIES[cache_name]
        ps = prompts(6, seed=18)
        paged = GenerationEngine(model, factory, ServeConfig(
            max_batch_size=3, block_tokens=16))
        rp = paged.generate([GenerationRequest(f"r{i}", p, max_tokens=8)
                             for i, p in enumerate(ps)])
        for i, p in enumerate(ps):
            assert rp[f"r{i}"].tokens == single_stream(model, factory, p, 8)

    @pytest.mark.parametrize("cache_name", list(CACHE_FACTORIES))
    def test_shared_prefix_engine_equals_single_stream(self, model, cache_name):
        """Prefix sharing changes memory, never tokens."""
        factory = CACHE_FACTORIES[cache_name]
        rng = np.random.default_rng(19)
        system = rng.integers(0, VOCAB, size=32)
        ps = [np.concatenate([system, rng.integers(0, VOCAB, size=int(n))])
              for n in rng.integers(2, 9, size=5)]
        paged = GenerationEngine(model, factory, ServeConfig(
            max_batch_size=4, block_tokens=16))
        rp = paged.generate([GenerationRequest(f"r{i}", p, max_tokens=6)
                             for i, p in enumerate(ps)])
        for i, p in enumerate(ps):
            assert rp[f"r{i}"].tokens == single_stream(model, factory, p, 6)
        assert paged.pool.prefill_pages_hit >= 2 * (len(ps) - 1)
        assert paged.stats().prefix_hit_tokens >= 32 * (len(ps) - 1)

    def test_opt_arch_paged_equals_single_stream(self):
        """Learned-position (OPT) models decode identically when paged."""
        cfg = ModelConfig(vocab_size=VOCAB, d_model=32, n_heads=2, n_layers=2,
                          d_ff=64, max_seq=128, arch="opt", seed=6)
        opt = TransformerLM(cfg)
        ps = prompts(4, seed=23)
        paged = GenerationEngine(opt, FP16KVCache, ServeConfig(
            max_batch_size=4, block_tokens=16))
        rp = paged.generate([GenerationRequest(f"r{i}", p, max_tokens=6)
                             for i, p in enumerate(ps)])
        for i, p in enumerate(ps):
            assert rp[f"r{i}"].tokens == single_stream(opt, FP16KVCache, p, 6)

    def test_block_aware_admission_waits_for_free_pages(self, model):
        """Admission keys on actually-free blocks, not worst-case tokens."""
        ps = prompts(2, seed=20, lo=4, hi=5)      # 1 page each at bt=8
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(
            max_batch_size=2, block_tokens=8, num_blocks=1,
            enable_prefix_cache=False))
        for i, p in enumerate(ps):
            eng.submit(GenerationRequest(f"r{i}", p, max_tokens=3))
        eng.step()
        assert eng.scheduler.n_running == 1       # no free page for r1 yet
        assert eng.scheduler.queue_depth == 1
        while eng.has_work():
            eng.step()
        assert eng.stats().requests_completed == 2
        assert eng.pool.blocks_in_use == 0

    def test_oversized_request_rejected_and_counted(self, model):
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(
            max_batch_size=1, block_tokens=8, num_blocks=2))
        with pytest.raises(ValueError, match="num_blocks"):
            eng.submit(GenerationRequest(
                "big", np.zeros(20, dtype=np.int64), max_tokens=10))
        assert eng.stats().requests_rejected == 1

    def test_preemption_recovers_and_completes(self, model):
        """Pool exhaustion mid-decode preempts the youngest back to the
        queue (recompute on resume) instead of failing the batch."""
        rng = np.random.default_rng(21)
        reqs = [GenerationRequest(f"r{i}", rng.integers(0, VOCAB, size=8),
                                  max_tokens=12) for i in range(2)]
        eng = GenerationEngine(model, FP16KVCache, ServeConfig(
            max_batch_size=2, block_tokens=8, num_blocks=4,
            enable_prefix_cache=False))
        res = eng.generate(reqs)
        st = eng.stats()
        assert st.requests_completed == 2
        assert st.preemptions >= 1
        assert all(len(r.tokens) == 12 for r in res.values())
        assert eng.pool.blocks_in_use == 0
        # Deterministic under identical pressure.
        eng2 = GenerationEngine(model, FP16KVCache, ServeConfig(
            max_batch_size=2, block_tokens=8, num_blocks=4,
            enable_prefix_cache=False))
        res2 = eng2.generate([GenerationRequest(f"r{i}", r.prompt, max_tokens=12)
                              for i, r in enumerate(reqs)])
        assert all(res[f"r{i}"].tokens == res2[f"r{i}"].tokens for i in range(2))

    def test_incompatible_block_size_rejected_at_engine_init(self, model):
        with pytest.raises(ValueError, match="multiple of the MANT"):
            GenerationEngine(model, CACHE_FACTORIES["mant4"], ServeConfig(
                block_tokens=24))

    def test_default_config_rejects_default_mant_naming_valid_size(self, model):
        """ServeConfig()'s 32-token pages cannot hold MantKVCache()'s
        64-token V window; the error names the page size that can."""
        with pytest.raises(ValueError, match=r"block_tokens=32 must be a multiple"
                           r".*\(64\).*smallest valid page size for this "
                           r"cache is block_tokens=64"):
            GenerationEngine(model, MantKVCache, ServeConfig())
        GenerationEngine(model, MantKVCache, ServeConfig(block_tokens=64))

    def test_append_batch_fusion_preserved_under_paging(self, model):
        """PagedKVCache.append_batch must dispatch the inner fused path."""
        factory = CACHE_FACTORIES["mant4"]
        pool = BlockPool(n_layers=model.config.n_layers, block_tokens=16,
                         num_blocks=32)
        leases = [pool.acquire(factory) for _ in range(3)]
        ps = prompts(3, seed=22)
        toks, poss = [], []
        for lease, p in zip(leases, ps):
            toks.append(int(np.argmax(model.prefill(p, lease.caches))))
            poss.append(len(p))
        batched = model.decode_step_batch(
            toks, [lease.caches for lease in leases], poss)
        for b, p in enumerate(ps):
            solo = [factory() for _ in range(model.config.n_layers)]
            model.prefill(p, solo)
            ref = model.decode_step(toks[b], solo, poss[b])
            assert np.array_equal(batched[b], ref)
        layer0 = [lease.caches[0] for lease in leases]
        assert all(type(c) is PagedKVCache for c in layer0)


# ======================================================================
# Config validation (satellite)
# ======================================================================
class TestServeConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"block_tokens": 0},
        {"num_blocks": 0},
        {"max_queue_len": 0},
    ])
    def test_bad_paging_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_valid_paging_config_accepted(self):
        cfg = ServeConfig(block_tokens=16, num_blocks=32,
                          enable_prefix_cache=False, max_queue_len=100)
        assert cfg.block_tokens == 16 and cfg.num_blocks == 32
