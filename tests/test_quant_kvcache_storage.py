"""Tests for the KV caches' storage width.

A MANT or INT cache stores integer levels times fp16 scales, which
float32 holds exactly, so those caches store float32 and every read
widens to float64 before any arithmetic.  The properties pinned here:

* widened float32 pages are byte-equal to the same cache storing
  float64, for MANT and INT caches, flat and paged, whole and chunked
  prefill plus decode rows, on K/V with all-zero groups, signed zeros,
  fp16-subnormal and near-overflow scales and single-token windows;
* the width rule: FP16 caches, non-integer coefficient sets, wide INT
  caches and wide MANT staging keep float64; a pool rejects a cache
  whose width is not its slabs';
* ``cached_attention_fwd`` over float32 (flat, contiguous and
  non-contiguous paged) equals the float64 call bitwise at 80 and 313
  context tokens, decode rows and chunk rows; ``build_ptq``'s
  ``kv_quant`` returns float64 byte-equal to float64 storage;
* the one-take non-contiguous ``PagedView.gather`` equals the per-page
  copy loop, and a MANT window close reads its staged rows without a
  copy-on-write.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.selection import VarianceSelector
from repro.model.layers import cached_attention_fwd
from repro.model.quantized import PTQConfig, build_ptq
from repro.model.transformer import ModelConfig, TransformerLM
from repro.quant.kvcache import FP16KVCache, IntKVCache, MantKVCache, TokenBuffer
from repro.serve.paging import BlockPool, PagedView, PageTable

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from legacy_impl import legacy_paged_gather  # noqa: E402


def make_cache(kind, window, group, width=None):
    cache = (MantKVCache(group_size=group, window=window) if kind == "mant"
             else IntKVCache(bits=4, group_size=group))
    if width is not None:
        cache.storage_dtype = width
    return cache


def widened(cache):
    return (np.asarray(cache.keys(), np.float64).tobytes(),
            np.asarray(cache.values(), np.float64).tobytes())


# Per-row absmax: zero rows (all-zero groups), fp16-subnormal scales,
# ordinary data, and an INT4 scale just under the fp16 overflow (65000
# times the grid's qmax of 7; every MANT grid max is larger).
MAGNITUDES = [0.0, 1e-7, 3e-6, 1.0, 65000.0 * 7]


@st.composite
def kv_writes(draw):
    kind = draw(st.sampled_from(["mant", "int"]))
    window = draw(st.sampled_from([1, 2, 4]))
    heads = draw(st.sampled_from([1, 2]))
    d_head = draw(st.sampled_from([4, 8]))
    n_prompt = draw(st.integers(1, 13))
    n_decode = draw(st.integers(0, 9))
    chunk = window * draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    rows = n_prompt + n_decode
    scale = np.array(draw(st.lists(st.sampled_from(MAGNITUDES),
                                   min_size=rows, max_size=rows)))
    rng = np.random.default_rng(seed)
    k, v = rng.standard_normal((2, heads, rows, d_head))
    k, v = (x / np.abs(x).max(axis=(0, 2), keepdims=True) * scale[:, None]
            for x in (k, v))
    # Signed zeros: negate some rows, so zero rows become -0.0.
    flip = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    k[:, flip] *= -1.0
    v[:, flip] *= -1.0
    return kind, window, d_head, n_prompt, chunk, k, v


def write(cache, n_prompt, chunk, k, v, chunked):
    if chunked:
        full = ((n_prompt - 1) // chunk) * chunk
        for s in range(0, full, chunk):
            cache.prefill_chunk(k[:, s:s + chunk], v[:, s:s + chunk])
        cache.prefill_chunk(k[:, full:n_prompt], v[:, full:n_prompt], final=True)
    else:
        cache.prefill(k[:, :n_prompt], v[:, :n_prompt])
    for t in range(n_prompt, k.shape[1]):
        cache.append(k[:, t], v[:, t])


@given(kv_writes(), st.booleans(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_float32_pages_widen_to_float64_storage(case, chunked, paged):
    kind, window, d_head, n_prompt, chunk, k, v = case
    if paged:
        def fresh(width):
            pool = BlockPool(n_layers=1, block_tokens=2 * window, num_blocks=64)
            return pool.acquire(lambda: make_cache(kind, window, d_head, width)).caches[0]
    else:
        def fresh(width):
            return make_cache(kind, window, d_head, width)
    narrow, wide = fresh(None), fresh(np.float64)
    assert narrow.storage_dtype is np.float32
    write(narrow, n_prompt, chunk, k, v, chunked)
    write(wide, n_prompt, chunk, k, v, chunked)
    assert np.asarray(narrow.keys()).dtype == np.float32
    assert np.asarray(wide.keys()).dtype == np.float64
    assert widened(narrow) == widened(wide)


class TestWidthRule:
    def test_widths(self):
        assert FP16KVCache().storage_dtype is np.float64
        assert MantKVCache().storage_dtype is np.float32
        assert IntKVCache(bits=4).storage_dtype is np.float32
        assert IntKVCache(bits=14).storage_dtype is np.float32
        assert IntKVCache(bits=15).storage_dtype is np.float64
        assert MantKVCache(staging_bits=14).storage_dtype is np.float32
        assert MantKVCache(staging_bits=15).storage_dtype is np.float64
        odd = VarianceSelector(a_candidates=(0, 2.5, 17))
        assert MantKVCache(selector=odd).storage_dtype is np.float64
        assert MantKVCache(selector=VarianceSelector(
            a_candidates=(0, 5, 120))).storage_dtype is np.float32

    @pytest.mark.parametrize("paged", [False, True])
    def test_buffers_store_the_width(self, paged):
        rng = np.random.default_rng(0)
        for make, width in ((FP16KVCache, np.float64),
                            (lambda: MantKVCache(group_size=32, window=32), np.float32),
                            (lambda: IntKVCache(4, 32), np.float32)):
            if paged:
                pool = BlockPool(n_layers=1, block_tokens=32, num_blocks=8)
                cache = pool.acquire(make).caches[0]
            else:
                cache = make()
            cache.prefill(*rng.standard_normal((2, 2, 40, 32)))
            cache.append(*rng.standard_normal((2, 2, 32)))
            for read in (cache.keys(), cache.values()):
                assert np.asarray(read).dtype == width
            if paged:
                assert {s.dtype for k, s in pool._slabs.items()
                        if k[1] in "kv"} == {np.dtype(width)}

    def test_pool_rejects_a_cache_of_another_width(self):
        rng = np.random.default_rng(1)
        pool = BlockPool(n_layers=1, block_tokens=32, num_blocks=8)
        pool.acquire(lambda: MantKVCache(group_size=32, window=32)).caches[0].prefill(
            *rng.standard_normal((2, 2, 8, 32)))
        fp16 = pool.acquire(FP16KVCache).caches[0]
        with pytest.raises(ValueError, match="storage float64 does not match "
                                             "the pool's float32"):
            fp16.prefill(*rng.standard_normal((2, 2, 8, 32)))

    def test_mant_caches_of_two_widths_do_not_pool(self):
        wide = MantKVCache(group_size=32, window=32)
        wide.storage_dtype = np.float64
        narrow = MantKVCache(group_size=32, window=32)
        k, v = np.random.default_rng(2).standard_normal((2, 2, 2, 32))
        with pytest.raises(ValueError, match="one class"):
            MantKVCache.write_layer([narrow, wide], k, v, [])


class TestReadsWiden:
    """Reads widen float32 storage to float64 before any arithmetic;
    numpy's mixed float64 @ float32 matmul does not run the float64
    GEMM, so an unwidened read could differ in the last ulp."""

    @pytest.mark.parametrize("ctx", [80, 313])
    @pytest.mark.parametrize("kind", ["mant", "int"])
    def test_attention_over_float32_equals_float64(self, ctx, kind):
        rng = np.random.default_rng(ctx)
        pool = BlockPool(n_layers=1, block_tokens=32, num_blocks=64)
        donor = pool.acquire(lambda: make_cache(kind, 32, 32))
        donor.caches[0].prefill(*rng.standard_normal((2, 2, ctx, 32)))
        fork = donor.fork()
        fork.caches[0].append(*rng.standard_normal((2, 2, 32)))
        assert donor.table.contiguous and not fork.table.contiguous
        flat = make_cache(kind, 32, 32)
        flat.prefill(np.asarray(donor.caches[0].keys()),
                     np.asarray(donor.caches[0].values()))
        for cache in (donor.caches[0], fork.caches[0], flat):
            k32, v32 = np.asarray(cache.keys()), np.asarray(cache.values())
            assert k32.dtype == np.float32
            k64, v64 = k32.astype(np.float64), v32.astype(np.float64)
            s = k32.shape[1]
            for q, offset in ((rng.standard_normal((2, 1, 32)), s - 1),
                              (rng.standard_normal((2, 32, 32)), s - 32)):
                got = cached_attention_fwd(q, cache.keys(), cache.values(), offset)
                want = cached_attention_fwd(q, k64, v64, offset)
                assert got.dtype == np.float64
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kv_method", ["mant", "int"])
    def test_kv_quant_hook_returns_float64_storage_bytes(self, kv_method, monkeypatch):
        model = TransformerLM(ModelConfig(vocab_size=32, d_model=32, n_heads=2,
                                          n_layers=1, d_ff=64, max_seq=128))
        hook = build_ptq(model, PTQConfig(method="mant", group_size=16,
                                          kv_method=kv_method)).kv_quant
        q, k, v = np.random.default_rng(3).standard_normal((3, 3, 2, 70, 16))
        _, kq, vq = hook(0, q, k, v)
        assert kq.dtype == vq.dtype == np.float64
        # The same hook over caches storing float64, as they did before
        # the width rule.
        cls = MantKVCache if kv_method == "mant" else IntKVCache
        monkeypatch.setattr(cls, "storage_dtype", np.float64, raising=False)
        init = cls.__init__

        def wide_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.storage_dtype = np.float64

        monkeypatch.setattr(cls, "__init__", wide_init)
        _, kw, vw = hook(0, q, k, v)
        assert kq.tobytes() == kw.tobytes() and vq.tobytes() == vw.tobytes()


class TestPagedReads:
    @pytest.mark.parametrize("length", [1, 31, 32, 33, 100, 128])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gather_equals_page_loop(self, length, dtype):
        """A scattered table, holding one page more than the tokens
        need, reads exactly the live tokens in page order."""
        pool = BlockPool(n_layers=1, block_tokens=32, num_blocks=16)
        slab = pool._get_slab(0, "k", 2, 32, dtype)
        slab[:] = np.random.default_rng(length).standard_normal(slab.shape)
        blocks = [11, 3, 7, 0, 14, 5][: -(-length // 32) + 1]
        view = PagedView(slab, pool._flats[(0, "k")], PageTable(pool, blocks), length)
        got = view.gather()
        assert got.dtype == dtype and got.shape == (2, length, 32)
        assert got.tobytes() == legacy_paged_gather(view).tobytes()

    def test_window_close_reads_staged_rows_without_cow(self):
        """A forked MANT sequence closing a window reads the staged rows
        of the page it shares without cloning it; the clone comes from
        the row's own store, as before."""
        rng = np.random.default_rng(5)
        pool = BlockPool(n_layers=1, block_tokens=32, num_blocks=16)
        lease = pool.acquire(lambda: MantKVCache(group_size=32, window=32))
        lease.caches[0].prefill(*rng.standard_normal((2, 2, 63, 32)))
        fork = lease.fork()
        buf = fork.caches[0]._buf
        staged = buf.values_recent(31)
        assert not staged.flags.writeable and pool.cow_copies == 0
        assert staged.tobytes() == np.asarray(lease.caches[0].values())[:, 32:].tobytes()
        with pytest.raises(ValueError, match="span a page boundary"):
            buf.values_recent(33)
        fork.caches[0].append(*rng.standard_normal((2, 2, 32)))
        assert pool.cow_copies == 1 and fork.caches[0].staging_fill == 0

    def test_token_buffer_recent_is_read_only(self):
        buf = TokenBuffer(1, 2, capacity=4, dtype=np.float32)
        v = np.arange(6.0).reshape(1, 3, 2)
        TokenBuffer.store([buf], [3], -v, v)
        tail = buf.values_recent(2)
        assert tail.dtype == np.float32 and not tail.flags.writeable
        assert tail.tolist() == [[[2.0, 3.0], [4.0, 5.0]]]
