"""Tests for the pooled per-layer KV write (``KVCache.write_layer``).

``forward_mixed`` hands each layer's whole tick of cache writes — decode
rows and prompt chunks alike — to one ``write_layer`` call, and every
cache class answers it with one K quantize and one V quantize.  The
properties pinned here:

* pooled writes are byte-equal to per-segment ``append_batch`` /
  ``prefill_chunk`` writes for FP16, INT4 and MANT4 — cache bytes,
  streaming state, page ids and logits — including a window closing
  mid-tick, ragged final chunks and prefix-sealed paged chunks;
* a MANT decode cache with no staging scales yet bootstraps them inside
  the pooled write as a per-cache append does;
* the quantize and select calls per layer do not grow with the number
  of segments;
* a segment the caches cannot take, a write mixing cache classes or
  configs, and a window whose scale overflows fp16 are all rejected
  before any cache of the tick is written.
"""

import numpy as np
import pytest

from repro.core.codec import MantCodec
from repro.core.selection import VarianceSelector
from repro.model.transformer import MixedSegment
from repro.quant import kvcache
from repro.quant.kvcache import FP16KVCache, IntKVCache, MantKVCache
from repro.serve.paging import BlockPool, PagedKVCache

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

    Four decode rows (for MANT, the 63- and 95-token prompts' rows close
    their V windows this tick), a full ``CHUNK`` on a fresh sequence, a
    ragged ``CHUNK_FINAL`` continuing a chunked prefill, and a
    whole-prompt final chunk over two prefix-sealed pages.
    Deterministic, so two builds start from identical state.
    """
    rng = np.random.default_rng(7)
    vocab, n_layers = model.config.vocab_size, model.config.n_layers
    pool = BlockPool(n_layers=n_layers, block_tokens=WINDOW, num_blocks=64)

    def prefilled(ids):
        lease = pool.acquire(factory)
        model.prefill(ids, lease.caches)
        return lease

    decoders = [prefilled(rng.integers(0, vocab, size=n)) for n in (63, 40, 95, 10)]
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
        pooled = model.forward_mixed(segs_a)
        if name == "mant4":
            assert [c.staging_fill for c in closing] == [0, 0]   # closed this tick

        # Reference: the per-segment writes — the inner class's
        # one-segment append_batch per decode row, then one
        # prefill_chunk per chunk, in pack order.
        def per_segment(cls, decode_caches, k_dec, v_dec, chunks):
            for b, cache in enumerate(decode_caches):
                type(cache.inner).append_batch(
                    [cache.inner], k_dec[b:b + 1], v_dec[b:b + 1])
            for cache, k, v, final in chunks:
                cache.inner.prefill_chunk(k, v, final=final)

        monkeypatch.setattr(PagedKVCache, "write_layer", classmethod(per_segment))
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
    """4 decode rows + 3 chunks: one K ``select_qdq`` and one V
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


def test_int_quantize_calls_do_not_grow_with_segments(unit_model, monkeypatch):
    """4 decode rows + 3 chunks: one K and one V ``_int_qdq_lastaxis``
    per layer."""
    model, _ = unit_model
    _, _, segs = build_tick(model, FACTORIES["int4"])
    calls = [0]
    qdq = kvcache._int_qdq_lastaxis

    def counting(*args):
        calls[0] += 1
        return qdq(*args)

    monkeypatch.setattr(kvcache, "_int_qdq_lastaxis", counting)
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
