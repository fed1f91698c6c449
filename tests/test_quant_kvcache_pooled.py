"""Tests for the pooled per-layer KV write (``KVCache.write_layer``).

``forward_mixed`` hands each layer's whole tick of cache writes — decode
rows and prompt chunks alike — to one ``write_layer`` call, and every
cache class answers it with one K quantize and one V quantize.  The
properties pinned here:

* pooled writes are byte-equal to per-segment ``append_batch`` /
  ``prefill_chunk`` writes for FP16, INT4 and MANT4 — cache bytes,
  streaming state, page ids, allocations, copy-on-write clones and
  logits — including a window closing mid-tick, a decode row opening a
  page, fork siblings sharing their last page, ragged final chunks and
  prefix-sealed paged chunks;
* every row a layer writes in a tick is stored with one buffer
  ``store`` call, each page of each buffer reserved once for both
  roles, and a pool that runs dry in that reservation leaves every
  cache as it was;
* a forward runs every layer's ``check_write`` once;
* a MANT decode cache with no staging scales yet bootstraps them inside
  the pooled write as a per-cache append does;
* the quantize and select calls per layer do not grow with the number
  of segments;
* a segment the caches cannot take, a write mixing cache classes or
  configs, a window whose scale overflows fp16 and a NaN K or V are all
  rejected before any cache of the tick is written, and a rejected
  ``prefill`` leaves its cache unchanged.
"""

import numpy as np
import pytest

from repro.core.codec import MantCodec
from repro.core.selection import VarianceSelector
from repro.model.transformer import MixedSegment
from repro.quant.kvcache import FP16KVCache, IntKVCache, MantKVCache, _BufferedKVCache
from repro.serve.paging import (
    BlockPool, PagedKVCache, PagedTokenBuffer, PageTable, PoolExhausted,
)

WINDOW = 32


def mant():
    return MantKVCache(window=WINDOW)


FACTORIES = {
    "fp16": FP16KVCache,
    "int4": lambda: IntKVCache(bits=4, group_size=WINDOW),
    "mant4": mant,
}


def cache_state(cache):
    """Everything a write can change, as comparable bytes."""
    inner = getattr(cache, "inner", cache)
    state = [np.asarray(cache.keys()).tobytes(), np.asarray(cache.values()).tobytes()]
    for attr in ("_v_final", "_acc_sum", "_acc_sqsum", "_acc_max",
                 "_stage_scale", "_chunk_ch_max"):
        val = getattr(inner, attr, None)
        state.append(val.tobytes() if isinstance(val, np.ndarray) else val)
    return state


def build_tick(model, factory=mant):
    """A pool of paged sequences and the segments of one mixed tick.

    Six decode rows — for MANT, the 63- and 95-token prompts' rows close
    their V windows this tick; the 64-token prompt's row opens a fresh
    page; the 40-token prompt and its fork share their last page, so
    the first of them to write clones it — a full ``CHUNK`` on a fresh
    sequence, a ragged ``CHUNK_FINAL`` continuing a chunked prefill,
    and a whole-prompt final chunk over two prefix-sealed pages.
    Deterministic, so two builds start from identical state.
    """
    rng = np.random.default_rng(7)
    vocab, n_layers = model.config.vocab_size, model.config.n_layers
    pool = BlockPool(n_layers=n_layers, block_tokens=WINDOW, num_blocks=64)

    def prefilled(ids):
        lease = pool.acquire(factory)
        model.prefill(ids, lease.caches)
        return lease

    decoders = [prefilled(rng.integers(0, vocab, size=n)) for n in (63, 40, 95, 10, 64)]
    decoders.append(decoders[1].fork())
    tokens = rng.integers(0, vocab, size=len(decoders))
    fresh = pool.acquire(factory)
    fresh_ids = rng.integers(0, vocab, size=2 * WINDOW)
    ragged = pool.acquire(factory)
    ragged_ids = rng.integers(0, vocab, size=77)
    model.prefill_chunk(ragged_ids[:WINDOW], ragged.caches, offset=0)
    donor_ids = rng.integers(0, vocab, size=2 * WINDOW)
    prefilled(donor_ids).register_prefix(donor_ids)
    sealed = pool.acquire(factory)
    sealed_ids = np.concatenate([donor_ids, rng.integers(0, vocab, size=6)])
    assert sealed.match_prefix(sealed_ids) == 2 * WINDOW

    segments = [
        MixedSegment([t], lease.caches, lease.caches[0].seq_len, MixedSegment.DECODE)
        for t, lease in zip(tokens, decoders)
    ] + [
        MixedSegment(fresh_ids, fresh.caches, 0, MixedSegment.CHUNK),
        MixedSegment(ragged_ids[WINDOW:], ragged.caches, WINDOW,
                     MixedSegment.CHUNK_FINAL),
        MixedSegment(sealed_ids, sealed.caches, 0, MixedSegment.CHUNK_FINAL),
    ]
    return pool, [*decoders, fresh, ragged, sealed], segments


class TestPooledEqualsPerSegment:
    @pytest.mark.parametrize("name", list(FACTORIES))
    def test_mixed_tick_byte_equal(self, unit_model, monkeypatch, name):
        model, _ = unit_model
        pool_a, leases_a, segs_a = build_tick(model, FACTORIES[name])
        if name == "mant4":
            closing = [leases_a[i].caches[0] for i in (0, 2)]
            assert [c.staging_fill for c in closing] == [WINDOW - 1] * 2
        allocations, cow_copies = pool_a.allocations, pool_a.cow_copies
        pooled = model.forward_mixed(segs_a)
        if name == "mant4":
            assert [c.staging_fill for c in closing] == [0, 0]   # closed this tick
        # The decode rows' fresh page and clone, and the chunks' 2 + 2 + 1
        # new pages.
        assert pool_a.allocations - allocations == 2 + 5
        assert pool_a.cow_copies - cow_copies == 1
        assert leases_a[4].table.n_pages == 3             # 64 tokens + 1
        assert leases_a[1].table.blocks[1] != leases_a[5].table.blocks[1]

        # Reference: the per-segment writes — the inner class's
        # one-segment append_batch per decode row, then one
        # prefill_chunk per chunk, in pack order — each its own store.
        def per_segment(cls, decode_caches, k_dec, v_dec, chunks):
            for b, cache in enumerate(decode_caches):
                type(cache.inner).append_batch(
                    [cache.inner], k_dec[b:b + 1], v_dec[b:b + 1])
            for cache, k, v, final in chunks:
                cache.inner.prefill_chunk(k, v, final=final)

        monkeypatch.setattr(PagedKVCache, "write_checked", classmethod(per_segment))
        pool_b, leases_b, segs_b = build_tick(model, FACTORIES[name])
        per_segment = model.forward_mixed(segs_b)

        for x, y in zip(pooled, per_segment):
            assert (x is None) == (y is None)
            if x is not None:
                assert x.tobytes() == y.tobytes()
        for la, lb in zip(leases_a, leases_b):
            assert la.table.blocks == lb.table.blocks
            for ca, cb in zip(la.caches, lb.caches):
                assert cache_state(ca) == cache_state(cb)
        assert pool_a.cow_copies == pool_b.cow_copies
        assert pool_a.allocations == pool_b.allocations

    def test_bootstrap_decode_cache_matches_per_cache_append(self):
        """A decode cache with no staging scales yet bootstraps them from
        its own first vector inside the pooled write."""
        rng = np.random.default_rng(1)
        primed = [mant(), mant()]
        fresh_pair = [mant(), mant()]
        prompt_k, prompt_v = rng.normal(size=(2, 2, 45, 32))
        for c in primed:
            c.prefill(prompt_k, prompt_v)
        k, v = rng.normal(size=(2, 3, 2, 32))
        pooled = [primed[0], fresh_pair[0], mant()]
        MantKVCache.write_layer(pooled, k, v, [])
        ref = [primed[1], fresh_pair[1], mant()]
        for c, k_t, v_t in zip(ref, k, v):
            c.append(k_t, v_t)
        for a, b in zip(pooled, ref):
            assert cache_state(a) == cache_state(b)


def test_quantize_calls_do_not_grow_with_segments(unit_model, monkeypatch):
    """6 decode rows + 3 chunks: one K ``select_qdq`` and one V
    ``qdq_ids`` per layer, and none of the coefficient-level entries
    (``select_batch`` / ``select_from_variances`` / ``qdq``) or the
    code-level ones (``encode`` / ``decode``)."""
    model, _ = unit_model
    _, _, segs = build_tick(model)
    calls = {"select_qdq": 0, "qdq_ids": 0, "qdq": 0, "select_batch": 0,
             "select_from_variances": 0, "encode": 0, "decode": 0}
    depth = [0]

    def counting(owner, name):
        # Outermost calls only: select_qdq itself ends in qdq_ids.
        fn = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[name] += depth[0] == 0
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(owner, name, wrapped)

    for name in ("select_qdq", "qdq_ids", "qdq", "encode", "decode"):
        counting(MantCodec, name)
    for name in ("select_batch", "select_from_variances"):
        counting(VarianceSelector, name)
    model.forward_mixed(segs)
    n = model.config.n_layers
    assert calls == {"select_qdq": n, "qdq_ids": n, "qdq": 0, "select_batch": 0,
                     "select_from_variances": 0, "encode": 0, "decode": 0}


@pytest.mark.parametrize("name", list(FACTORIES))
def test_one_store_per_layer_tick(unit_model, monkeypatch, name):
    """Every row a layer writes in a mixed tick — decode rows, then
    prompt chunks, in cache order — goes through one
    ``PagedTokenBuffer.store`` call."""
    model, _ = unit_model
    _, _, segs = build_tick(model, FACTORIES[name])
    calls = []
    store = PagedTokenBuffer.store.__func__

    def counting(cls, buffers, counts, k, v):
        calls.append(counts)
        return store(cls, buffers, counts, k, v)

    monkeypatch.setattr(PagedTokenBuffer, "store", classmethod(counting))
    model.forward_mixed(segs)
    assert calls == [[seg.ids.size for seg in segs]] * model.config.n_layers


@pytest.mark.parametrize("name", list(FACTORIES))
def test_one_page_reservation_per_buffer(unit_model, monkeypatch, name):
    """A layer write calls ``PageTable.writable_block`` once per page
    each buffer writes, for K and V together (and a MANT window closing
    in place reserves nothing more)."""
    model, _ = unit_model
    pool, leases, segs = build_tick(model, FACTORIES[name])
    bt = pool.block_tokens
    pages = sum(
        len(range(max(seg.offset, lease.sealed_tokens) // bt,
                  -(-(seg.offset + seg.ids.size) // bt)))
        for seg, lease in zip(segs, leases))
    assert pages == 6 + 2 + 2 + 1        # decode rows, fresh, ragged, sealed
    calls = [0]
    writable_block = PageTable.writable_block

    def counting(self, page):
        calls[0] += 1
        return writable_block(self, page)

    monkeypatch.setattr(PageTable, "writable_block", counting)
    model.forward_mixed(segs)
    assert calls[0] == pages * model.config.n_layers


@pytest.mark.parametrize("name", list(FACTORIES))
def test_pool_exhausted_mid_tick_changes_no_cache(unit_model, name):
    """A tick whose store runs the pool dry — a decode row, then a
    two-page non-final chunk on a pool with one free block — raises
    ``PoolExhausted`` before it stores anything: every cache keeps its
    K/V lengths and bytes (the decode row is not stored, and the chunk
    is not left with K tokens but no V tokens)."""
    model, _ = unit_model
    n_layers, vocab = model.config.n_layers, model.config.vocab_size
    pool = BlockPool(n_layers=n_layers, block_tokens=WINDOW, num_blocks=3,
                     enable_prefix_cache=False)
    a = pool.acquire(FACTORIES[name])
    model.prefill(np.arange(40) % vocab, a.caches)
    b = pool.acquire(FACTORIES[name])
    assert pool.blocks_available == 1
    before = [cache_state(c) for c in a.caches + b.caches]
    segs = [MixedSegment([3], a.caches, 40, MixedSegment.DECODE),
            MixedSegment(np.arange(2 * WINDOW) % vocab, b.caches, 0,
                         MixedSegment.CHUNK)]
    with pytest.raises(PoolExhausted):
        model.forward_mixed(segs)
    for c in a.caches + b.caches:
        assert np.asarray(c.keys()).shape[1] == np.asarray(c.values()).shape[1]
    assert [c.seq_len for c in a.caches] == [40] * n_layers
    assert [c.seq_len for c in b.caches] == [0] * n_layers
    assert [cache_state(c) for c in a.caches + b.caches] == before
    pool.check_integrity()


@pytest.mark.parametrize("batched", [False, True])
def test_check_write_runs_once_per_layer(unit_model, monkeypatch, batched):
    """A forward validates each layer once: ``check_write`` runs
    ``n_layers`` times, not again inside each layer's write."""
    model, _ = unit_model
    pool, leases, segs = build_tick(model)
    calls = [0]
    check_write = _BufferedKVCache.check_write.__func__

    def counting(cls, decode_caches, chunks, geom):
        calls[0] += 1
        return check_write(cls, decode_caches, chunks, geom)

    monkeypatch.setattr(_BufferedKVCache, "check_write", classmethod(counting))
    if batched:
        decoders = leases[:6]
        model.decode_step_batch([1] * len(decoders), [lz.caches for lz in decoders],
                                [lz.caches[0].seq_len for lz in decoders])
    else:
        model.forward_mixed(segs)
    assert calls[0] == model.config.n_layers


def test_int_quantize_calls_do_not_grow_with_segments(unit_model, monkeypatch):
    """6 decode rows + 3 chunks: one K and one V ``IntKVCache._q`` per
    layer."""
    model, _ = unit_model
    _, _, segs = build_tick(model, FACTORIES["int4"])
    calls = [0]
    qdq = IntKVCache._q

    def counting(self, x):
        calls[0] += 1
        return qdq(self, x)

    monkeypatch.setattr(IntKVCache, "_q", counting)
    model.forward_mixed(segs)
    assert calls[0] == 2 * model.config.n_layers


class TestRejectBeforeAnyWrite:
    def _prefilled(self, model, n_tokens, seed=0):
        caches = [mant() for _ in range(model.config.n_layers)]
        ids = np.random.default_rng(seed).integers(0, model.config.vocab_size,
                                                   size=n_tokens)
        model.prefill(ids, caches)
        return caches

    def test_misaligned_chunk_leaves_decode_caches_untouched(self, unit_model):
        model, _ = unit_model
        a = self._prefilled(model, 40)
        before = [cache_state(c) for c in a]
        b = [mant() for _ in range(model.config.n_layers)]
        segs = [MixedSegment([3], a, 40, MixedSegment.DECODE),
                MixedSegment(np.arange(10), b, 0, MixedSegment.CHUNK)]
        with pytest.raises(ValueError, match="multiple of the MANT V-cache window"):
            model.forward_mixed(segs)
        assert [c.seq_len for c in a] == [40, 40]
        assert [cache_state(c) for c in a] == before
        assert [c.seq_len for c in b] == [0, 0]

    def test_chunk_on_completed_prefill_leaves_decode_caches_untouched(
            self, unit_model):
        model, _ = unit_model
        a = self._prefilled(model, 40)
        done = self._prefilled(model, 64, seed=1)
        before = [cache_state(c) for c in a + done]
        segs = [MixedSegment([3], a, 40, MixedSegment.DECODE),
                MixedSegment(np.arange(WINDOW), done, 64, MixedSegment.CHUNK)]
        with pytest.raises(RuntimeError, match="already completed"):
            model.forward_mixed(segs)
        assert [cache_state(c) for c in a + done] == before

    def test_mixed_cache_classes_rejected(self, unit_model):
        """A tick whose caches differ in class or quantization config, or
        mix paged and unpaged caches, raises before any cache changes."""
        model, _ = unit_model
        n_layers = model.config.n_layers
        pool = BlockPool(n_layers=n_layers, block_tokens=WINDOW, num_blocks=16)
        others = {
            "int4": lambda: [IntKVCache(bits=4, group_size=32) for _ in range(n_layers)],
            "fp16": lambda: [FP16KVCache() for _ in range(n_layers)],
            "mant window 16": lambda: [MantKVCache(window=16) for _ in range(n_layers)],
            "paged mant": lambda: pool.acquire(mant).caches,
        }
        for label, make in others.items():
            a = self._prefilled(model, 40)
            b = make()
            model.prefill(np.arange(40) % model.config.vocab_size, b)
            fresh = [mant() for _ in range(n_layers)]
            before = [cache_state(c) for c in a + b]
            for segs in (
                [MixedSegment([3], a, 40, MixedSegment.DECODE),
                 MixedSegment([5], b, 40, MixedSegment.DECODE)],
                [MixedSegment([5], b, 40, MixedSegment.DECODE),
                 MixedSegment(np.arange(WINDOW), fresh, 0, MixedSegment.CHUNK)],
            ):
                with pytest.raises(ValueError, match="one class"):
                    model.forward_mixed(segs)
                assert [cache_state(c) for c in a + b] == before, label
                assert [c.seq_len for c in fresh] == [0] * n_layers, label

    @pytest.mark.parametrize("other", ["int4", "paged mant"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_layer_one_mismatch_rejected_before_layer_zero_writes(
            self, unit_model, other, batched):
        """Caches that pool at layer 0 but not at layer 1 raise before
        layer 0 writes: one sequence's layer-1 cache is another class
        (or paged beside unpaged ones) while every layer-0 cache is a
        MantKVCache.  Both the mixed tick and the batched decode step."""
        model, _ = unit_model
        assert model.config.n_layers == 2
        a = self._prefilled(model, 40)
        if other == "int4":
            layer1 = IntKVCache(bits=4, group_size=WINDOW)
        else:
            pool = BlockPool(n_layers=1, block_tokens=WINDOW, num_blocks=8)
            layer1 = pool.acquire(mant).caches[0]
        b = [mant(), layer1]
        model.prefill(np.arange(40) % model.config.vocab_size, b)
        before = [cache_state(c) for c in a + b]
        with pytest.raises(ValueError, match="one class"):
            if batched:
                model.decode_step_batch([3, 5], [a, b], [40, 40])
            else:
                model.forward_mixed([MixedSegment([3], a, 40, MixedSegment.DECODE),
                                     MixedSegment([5], b, 40, MixedSegment.DECODE)])
        assert [c.seq_len for c in a + b] == [40] * 4
        assert [cache_state(c) for c in a + b] == before

    def test_layer_one_length_mismatch_rejected(self, unit_model):
        """A sequence whose layer-1 cache is not at the segment's offset
        is rejected before layer 0 writes."""
        model, _ = unit_model
        a = self._prefilled(model, 40)
        a[1] = self._prefilled(model, 41, seed=1)[1]
        before = [cache_state(c) for c in a]
        with pytest.raises(ValueError, match="disagrees with the cache length"):
            model.forward_mixed([MixedSegment([3], a, 40, MixedSegment.DECODE)])
        assert [cache_state(c) for c in a] == before

    def test_mixed_geometry_rejected(self):
        """One write stores one ``(n_heads, d_head)``: a fresh cache's
        chunk with another head count raises before the decode row is
        written."""
        rng = np.random.default_rng(2)
        a = mant()
        a.prefill(*rng.normal(size=(2, 2, 40, 32)))
        before = cache_state(a)
        k_dec, v_dec = rng.normal(size=(2, 1, 2, 32))
        k, v = rng.normal(size=(2, 3, WINDOW, 32))
        b = mant()
        with pytest.raises(ValueError, match="one geometry"):
            MantKVCache.write_layer([a], k_dec, v_dec, [(b, k, v, True)])
        assert cache_state(a) == before
        assert b.seq_len == 0

    @pytest.mark.parametrize("final, t, at", [
        (False, 2 * WINDOW, 5),     # a full window's MANT scale overflows
        (True, 40, 5),              # ... and the staging scales
        (True, 40, 35),             # the remainder's staging scales only
    ])
    def test_fp16_overflow_leaves_decode_caches_untouched(self, final, t, at):
        """A chunk whose V overflows an fp16 scale raises before the
        tick's decode rows are written."""
        rng = np.random.default_rng(4)
        a = mant()
        a.prefill(*rng.normal(size=(2, 2, 40, 32)))
        before = cache_state(a)
        k_dec, v_dec = rng.normal(size=(2, 1, 2, 32))
        k, v = rng.normal(size=(2, 2, t, 32))
        v[1, at, 3] = 1e9
        b = mant()
        with pytest.raises(ValueError, match="overflows fp16"):
            MantKVCache.write_layer([a], k_dec, v_dec, [(b, k, v, final)])
        assert a.seq_len == 40
        assert cache_state(a) == before
        assert b.seq_len == 0

    @pytest.mark.parametrize("paged", [False, True])
    @pytest.mark.parametrize("bad", ["nan", "heads"])
    @pytest.mark.parametrize("name", ["int4", "mant4"])
    def test_rejected_prefill_leaves_cache_unchanged(self, name, bad, paged):
        """A prefill that raises — a NaN, or a prompt whose head count
        is not the cache's — leaves a cache holding 40 tokens as it was."""
        rng = np.random.default_rng(8)
        if paged:
            pool = BlockPool(n_layers=1, block_tokens=WINDOW, num_blocks=8)
            cache = pool.acquire(FACTORIES[name]).caches[0]
        else:
            cache = FACTORIES[name]()
        cache.prefill(*rng.normal(size=(2, 2, 40, 32)))
        before = cache_state(cache)
        if bad == "nan":
            k, v = rng.normal(size=(2, 2, 24, 32))
            v[1, 5, 3] = np.nan
            match = "NaN"
        else:
            k, v = rng.normal(size=(2, 3, 24, 32))
            match = "does not match"
        with pytest.raises(ValueError, match=match):
            cache.prefill(k, v)
        assert cache.seq_len == 40
        assert cache_state(cache) == before

    @pytest.mark.parametrize("role", ["k", "v"])
    def test_int_nan_chunk_rejected(self, role):
        """A NaN in an INT cache's prompt raises instead of storing a
        NaN group, before the tick's decode rows are written."""
        rng = np.random.default_rng(5)
        a = FACTORIES["int4"]()
        a.prefill(*rng.normal(size=(2, 2, 40, 32)))
        before = cache_state(a)
        k_dec, v_dec = rng.normal(size=(2, 1, 2, 32))
        kv = dict(zip("kv", rng.normal(size=(2, 2, 20, 32))))
        kv[role][0, 7, 3] = np.nan
        b = FACTORIES["int4"]()
        with pytest.raises(ValueError, match="NaN"):
            IntKVCache.write_layer([a], k_dec, v_dec, [(b, kv["k"], kv["v"], True)])
        assert cache_state(a) == before
        assert b.seq_len == 0

    @pytest.mark.parametrize("prefilled", [True, False])
    def test_mant_nan_decode_row_rejected(self, prefilled):
        """A NaN decode V row raises instead of entering INT8 staging,
        whether the cache's staging scales are fixed or bootstrap from
        that row; the other decode cache of the write is untouched."""
        rng = np.random.default_rng(6)
        a, b = mant(), mant()
        a.prefill(*rng.normal(size=(2, 2, 40, 32)))
        if prefilled:
            b.prefill(*rng.normal(size=(2, 2, 40, 32)))
        before = [cache_state(a), cache_state(b)]
        k_dec, v_dec = rng.normal(size=(2, 2, 2, 32))
        v_dec[1, 0, 3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            MantKVCache.write_layer([a, b], k_dec, v_dec, [])
        assert [cache_state(a), cache_state(b)] == before

    def test_mant_nan_in_staged_remainder_rejected(self):
        """One NaN in a final chunk's sub-window remainder raises instead
        of giving its channel a NaN staging scale."""
        rng = np.random.default_rng(4)
        a = mant()
        a.prefill(*rng.normal(size=(2, 2, 40, 32)))
        before = cache_state(a)
        k_dec, v_dec = rng.normal(size=(2, 1, 2, 32))
        k, v = rng.normal(size=(2, 2, 40, 32))
        v[1, 35, 3] = np.nan
        b = mant()
        with pytest.raises(ValueError, match="NaN"):
            MantKVCache.write_layer([a], k_dec, v_dec, [(b, k, v, True)])
        assert cache_state(a) == before
        assert b.seq_len == 0
