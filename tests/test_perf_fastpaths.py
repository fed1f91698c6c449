"""Equality tests for the vectorized fast paths.

The perf refactor (LUT-boundary encode, fused select+encode,
single-einsum GEMM, buffered KV caches) is only allowed to change
*speed*; these tests pin each fast path to its reference formulation —
bit-exactly where the arithmetic is exact, to float tolerance where
summation order legitimately differs.
"""

import numpy as np
import pytest

from repro.core.codec import INT_A, MantCodec, grid_tables
from repro.core.fused import (
    fused_group_gemm,
    fused_group_gemm_two_psum,
    integer_partial_sums,
    quantize_activations_int8,
    reference_group_gemm,
)
from repro.core.groups import to_groups, from_groups
from repro.core.mant import MANT_WEIGHT_A_SET, MantGrid, get_mant_grid
from repro.core.selection import MseSearchSelector, VarianceSelector
from repro.datatypes.int_type import IntType
from repro.quant.kvcache import (
    FP16KVCache,
    IntKVCache,
    MantKVCache,
    TokenBuffer,
)

ALL_A = tuple(float(a) for a in MANT_WEIGHT_A_SET) + (float(INT_A),)


def _reference_nearest_grid_index(values, grid):
    """The seed clip/where nearest-point search, kept as the oracle."""
    idx = np.searchsorted(grid, values)
    idx = np.clip(idx, 1, len(grid) - 1)
    left = grid[idx - 1]
    right = grid[idx]
    choose_left = (values - left) <= (right - values)
    return np.where(choose_left, idx - 1, idx)


# ----------------------------------------------------------------------
# 1. LUT-boundary encode ≡ reference nearest-point search
# ----------------------------------------------------------------------
class TestLutEncode:
    @pytest.mark.parametrize("bits", [2, 3, 4])
    @pytest.mark.parametrize("a", MANT_WEIGHT_A_SET)
    def test_boundary_encode_bit_exact(self, bits, a, rng):
        grid = MantGrid(float(a), bits)
        span = grid.grid_max * 1.2
        vals = rng.uniform(-span, span, size=4096)
        # Exact grid points and exact midpoints (ties) must agree too:
        # MANT grids are integer-valued, so midpoints are representable.
        ties = 0.5 * (grid.grid[:-1] + grid.grid[1:])
        vals = np.concatenate([vals, grid.grid, ties])
        assert np.array_equal(
            grid.encode(vals), _reference_nearest_grid_index(vals, grid.grid)
        )

    @pytest.mark.parametrize("bits", [2, 3, 4])
    def test_codec_encode_matches_per_grid_reference(self, bits, rng):
        """Gather-by-grid-index codec ≡ per-coefficient bucketed encode."""
        codec = MantCodec(bits=bits, group_size=16, fp16_scales=False)
        w = rng.normal(size=(24, 64))
        a = rng.choice(ALL_A, size=(24, 4))
        enc = codec.encode(w, a)
        groups = to_groups(w, 16, axis=-1).groups
        amax = np.max(np.abs(groups), axis=-1)
        amax = np.where(amax <= 0, 1.0, amax)
        itype = IntType(bits)
        for i in range(24):
            for j in range(4):
                vals = groups[i, j]
                if a[i, j] == INT_A:
                    q = itype.round_clip(vals / (amax[i, j] / itype.qmax))
                    ref_sign = np.where(q < 0, -1, 1)
                    ref_mag = np.abs(q)
                else:
                    g = get_mant_grid(a[i, j], bits)
                    gi = _reference_nearest_grid_index(
                        vals / amax[i, j], g.grid / g.grid_max
                    )
                    L = g.levels_per_sign
                    ref_sign = np.where(gi >= L, 1, -1)
                    ref_mag = np.where(gi >= L, gi - L, L - 1 - gi)
                assert np.array_equal(enc.sign[i, j], ref_sign), (i, j, a[i, j])
                assert np.array_equal(enc.magnitude[i, j], ref_mag), (i, j, a[i, j])

    @pytest.mark.parametrize("a", ALL_A)
    @pytest.mark.parametrize("bits", [2, 3, 4])
    def test_grid_tables_decode_consistent(self, a, bits):
        """sign/magnitude LUTs invert to the grid values themselves."""
        t = grid_tables(a, bits)
        if a == INT_A:
            recon = t.sign.astype(np.float64) * t.magnitude
        else:
            mag = t.magnitude.astype(np.float64)
            recon = t.sign * (a * mag + 2.0**mag)
        assert np.allclose(recon, t.grid)


# ----------------------------------------------------------------------
# 2. Fused select+encode ≡ select-then-encode
# ----------------------------------------------------------------------
class TestFusedSelectEncode:
    @pytest.mark.parametrize("fp16_scales", [False, True])
    @pytest.mark.parametrize("cols", [128, 100])  # 100 exercises padding
    def test_fused_equals_two_step(self, fp16_scales, cols, rng):
        sel = MseSearchSelector(group_size=32)
        codec = MantCodec(bits=4, group_size=32, fp16_scales=fp16_scales)
        w = rng.normal(size=(12, cols)) * rng.uniform(0.1, 10)
        fused = sel.select_and_encode(w, codec=codec)
        two_step = codec.encode(w, sel.select(w))
        assert np.array_equal(fused.a_coeff, two_step.a_coeff)
        assert np.array_equal(fused.sign, two_step.sign)
        assert np.array_equal(fused.magnitude, two_step.magnitude)
        assert np.array_equal(fused.scale, two_step.scale)
        assert fused.original_shape == two_step.original_shape
        assert fused.pad == two_step.pad

    def test_fused_with_activation_weighting(self, rng):
        sel = MseSearchSelector(group_size=16)
        codec = MantCodec(bits=4, group_size=16, fp16_scales=True)
        w = rng.normal(size=(8, 64))
        h = np.exp(rng.normal(size=64) * 2)
        fused = sel.select_and_encode(w, act_sq_mean=h, codec=codec)
        two_step = codec.encode(w, sel.select(w, act_sq_mean=h))
        assert np.array_equal(fused.a_coeff, two_step.a_coeff)
        assert np.array_equal(fused.magnitude, two_step.magnitude)

    def test_codec_mismatch_rejected(self, rng):
        sel = MseSearchSelector(group_size=32)
        with pytest.raises(ValueError):
            sel.select_and_encode(
                rng.normal(size=(2, 64)), codec=MantCodec(group_size=64)
            )

    def test_from_codes_roundtrip(self, rng):
        """from_codes(grid indices) ≡ encode for hand-built codes."""
        codec = MantCodec(bits=4, group_size=16, fp16_scales=False)
        w = rng.normal(size=(4, 32))
        a = rng.choice(ALL_A, size=(4, 2))
        enc = codec.encode(w, a)
        # Recover grid indices from sign/magnitude and rebuild.
        groups = to_groups(w, 16, axis=-1).groups
        amax = np.max(np.abs(groups), axis=-1)
        amax = np.where(amax <= 0, 1.0, amax)
        codes = np.empty(enc.sign.shape, dtype=np.intp)
        for i in range(4):
            for j in range(2):
                t = grid_tables(float(a[i, j]), 4)
                vals = enc.sign[i, j].astype(np.float64)
                if a[i, j] == INT_A:
                    raw = vals * enc.magnitude[i, j]
                else:
                    mag = enc.magnitude[i, j].astype(np.float64)
                    raw = vals * (a[i, j] * mag + 2.0**mag)
                codes[i, j] = np.searchsorted(t.grid, raw)
        rebuilt = codec.from_codes(codes, a, amax, w.shape, pad=0)
        assert np.array_equal(rebuilt.sign, enc.sign)
        assert np.array_equal(rebuilt.magnitude, enc.magnitude)
        assert np.array_equal(rebuilt.scale, enc.scale)


# ----------------------------------------------------------------------
# 3. Single-einsum GEMM ≡ two-psum integer reference ≡ dequant matmul
# ----------------------------------------------------------------------
class TestGemmEquivalence:
    def _setup(self, rng, m=5, n=9, k=96, group=32):
        codec = MantCodec(group_size=group, fp16_scales=False)
        w = rng.normal(size=(n, k))
        a = rng.choice(ALL_A, size=(n, k // group))
        enc = codec.encode(w, a)
        xq = quantize_activations_int8(rng.normal(size=(m, k)), group)
        return xq, enc

    def test_single_einsum_bit_exact_with_two_psum(self, rng):
        # Every intermediate is an exact integer in float64, so the
        # collapsed einsum must agree bit-for-bit, not just approximately.
        xq, enc = self._setup(rng)
        assert np.array_equal(
            fused_group_gemm(xq, enc), fused_group_gemm_two_psum(xq, enc)
        )

    def test_matches_dequant_matmul(self, rng):
        xq, enc = self._setup(rng)
        np.testing.assert_allclose(
            fused_group_gemm(xq, enc),
            reference_group_gemm(xq, enc),
            rtol=1e-10,
            atol=1e-10,
        )

    def test_repeat_calls_cached_and_encoding_immutable(self, rng):
        xq, enc = self._setup(rng)
        first = fused_group_gemm(xq, enc)
        # Repeat GEMMs reuse the cached precombined terms ...
        assert getattr(enc, "_combined_terms", None) is not None
        assert np.array_equal(first, fused_group_gemm(xq, enc))
        # ... which is safe because the encoding rejects mutation (both
        # in-place writes and field rebinding), so the cache can never
        # serve stale terms.
        with pytest.raises(ValueError):
            enc.magnitude[0, 0, 0] = 3
        with pytest.raises(AttributeError):
            enc.magnitude = enc.magnitude.copy()
        p1, p2 = integer_partial_sums(xq, enc)
        assert p1.dtype == np.int64 and p2.dtype == np.int64


# ----------------------------------------------------------------------
# 4. Buffered KV caches ≡ seed list-based semantics
# ----------------------------------------------------------------------
class _SeedMantKVCache:
    """Verbatim seed MantKVCache: list storage, concatenate per read."""

    def __init__(self, selector=None, bits=4, group_size=64, window=None):
        self.bits = bits
        self.group_size = group_size
        self.window = window or group_size
        self.selector = selector or VarianceSelector(bits=bits, group_size=group_size)
        self._codec = MantCodec(bits=bits, group_size=group_size)
        self._k = []
        self._v_final = []
        self._v_staging = []
        self._acc_sum = self._acc_sqsum = self._acc_max = None
        self._stage_scale = None
        self._int8 = IntType(8)

    def _mant_qdq_lastaxis(self, x):
        g = min(self.group_size, x.shape[-1])
        codec = self._codec if g == self.group_size else MantCodec(self.bits, g)
        flat = x.reshape(-1, x.shape[-1])
        a = self.selector.select_batch(to_groups(flat, g, axis=-1).groups)
        return codec.qdq(flat, a).reshape(x.shape)

    def _reset_window(self, heads, d_head):
        self._acc_sum = np.zeros((heads, d_head))
        self._acc_sqsum = np.zeros((heads, d_head))
        self._acc_max = np.zeros((heads, d_head))

    def _finalize_window(self):
        staged = np.stack(self._v_staging, axis=1)
        heads, t, d_head = staged.shape
        per_channel = np.moveaxis(staged, 1, -1)
        mean = self._acc_sum / t
        var = self._acc_sqsum / t - mean * mean
        amax = np.where(self._acc_max <= 0, 1.0, self._acc_max)
        norm_var = np.clip(var, 0.0, None) / (amax * amax)
        a_sel = np.asarray(self.selector._sorted_a)[
            np.searchsorted(self.selector._thresholds, norm_var)
        ]
        codec = self._codec if t == self.group_size else MantCodec(self.bits, t)
        out = codec.qdq(per_channel.reshape(-1, t), a_sel.reshape(-1, 1))
        self._v_final.append(np.moveaxis(out.reshape(heads, d_head, t), -1, 1))
        self._v_staging = []
        self._reset_window(heads, d_head)

    def prefill(self, k, v):
        k = np.asarray(k, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        heads, seq, d_head = v.shape
        self._k = [self._mant_qdq_lastaxis(k)]
        ch_max = np.max(np.abs(v), axis=1)
        ch_max = np.where(ch_max <= 0, 1.0, ch_max)
        self._stage_scale = (ch_max / self._int8.qmax).astype(np.float16).astype(np.float64)
        full = (seq // self.window) * self.window
        self._v_final = []
        self._v_staging = []
        self._reset_window(heads, d_head)
        if full:
            body = v[:, :full, :]
            windows = body.reshape(heads, full // self.window, self.window, d_head)
            per_channel = np.moveaxis(windows, 2, -1)
            flat = per_channel.reshape(-1, self.window)
            a = self.selector.select_batch(flat)
            codec = (
                self._codec
                if self.window == self.group_size
                else MantCodec(self.bits, self.window)
            )
            out = codec.qdq(flat, a[:, None])
            self._v_final.append(
                np.moveaxis(
                    out.reshape(heads, full // self.window, d_head, self.window), -1, 2
                ).reshape(heads, full, d_head)
            )
        for t in range(full, seq):
            self._stage_append(v[:, t, :])

    def _stage_append(self, v_t):
        q = self._int8.round_clip(v_t / self._stage_scale)
        self._v_staging.append(q * self._stage_scale)
        self._acc_sum += v_t
        self._acc_sqsum += v_t * v_t
        self._acc_max = np.maximum(self._acc_max, np.abs(v_t))
        if len(self._v_staging) == self.window:
            self._finalize_window()

    def append(self, k_t, v_t):
        k_t = np.asarray(k_t, dtype=np.float64)
        v_t = np.asarray(v_t, dtype=np.float64)
        if self._stage_scale is None:
            heads, d_head = v_t.shape
            ch_max = np.where(np.abs(v_t) <= 0, 1.0, np.abs(v_t))
            # fp16 rounding added over the seed: the library's bootstrap
            # now stores 16-bit channel scales like the prefill path.
            self._stage_scale = (
                (ch_max / self._int8.qmax).astype(np.float16).astype(np.float64)
            )
            self._reset_window(heads, d_head)
        self._k.append(self._mant_qdq_lastaxis(k_t)[:, None, :])
        self._stage_append(v_t)

    def keys(self):
        return np.concatenate(self._k, axis=1)

    def values(self):
        parts = list(self._v_final)
        if self._v_staging:
            parts.append(np.stack(self._v_staging, axis=1))
        return np.concatenate(parts, axis=1)


def _drive(cache, seq, extra, heads=2, dh=32, seed=0):
    rng = np.random.default_rng(seed)
    cache.prefill(rng.normal(size=(heads, seq, dh)), rng.normal(size=(heads, seq, dh)))
    for _ in range(extra):
        cache.append(rng.normal(size=(heads, dh)), rng.normal(size=(heads, dh)))


class TestBufferedKVEquivalence:
    @pytest.mark.parametrize(
        "seq,extra",
        [
            (64, 0),     # exactly one window, nothing staged
            (100, 0),    # partial staging window from prefill
            (100, 30),   # staged prefill remainder + staged appends
            (100, 64),   # appends close a window mid-generation
            (32, 200),   # short prefill, many windows during decode
        ],
    )
    def test_mant_cache_matches_seed_semantics(self, seq, extra):
        sel = VarianceSelector(group_size=64).fit(
            np.random.default_rng(9).normal(size=(300, 64))
        )
        new = MantKVCache(selector=sel, group_size=64, window=64)
        seed_impl = _SeedMantKVCache(selector=sel, group_size=64, window=64)
        _drive(new, seq, extra)
        _drive(seed_impl, seq, extra)
        np.testing.assert_allclose(new.keys(), seed_impl.keys(), atol=1e-12)
        np.testing.assert_allclose(new.values(), seed_impl.values(), atol=1e-12)

    def test_decode_without_prefill_matches_seed(self):
        new = MantKVCache(group_size=8, window=8)
        seed_impl = _SeedMantKVCache(group_size=8, window=8)
        rng1, rng2 = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(20):
            kt, vt = rng1.normal(size=(1, 8)), rng1.normal(size=(1, 8))
            new.append(kt, vt)
            kt, vt = rng2.normal(size=(1, 8)), rng2.normal(size=(1, 8))
            seed_impl.append(kt, vt)
        np.testing.assert_allclose(new.keys(), seed_impl.keys(), atol=1e-12)
        np.testing.assert_allclose(new.values(), seed_impl.values(), atol=1e-12)

    def test_reads_are_zero_copy_views(self):
        cache = MantKVCache(group_size=16, window=16)
        _drive(cache, 16, 3, heads=1, dh=16)
        k1, k2 = cache.keys(), cache.keys()
        assert np.shares_memory(k1, k2)
        assert np.shares_memory(cache.values(), cache.values())

    def test_empty_cache_reads(self):
        for cache in (FP16KVCache(), IntKVCache(), MantKVCache()):
            assert cache.keys().size == 0
            assert cache.values().size == 0
            assert cache.seq_len == 0


class TestTokenBuffer:
    def test_growth_preserves_contents(self, rng):
        """One store call appends to several buffers, each growing past
        its capacity, K and V each in their own half."""
        bufs = [TokenBuffer(2, 4, capacity=2), TokenBuffer(2, 4, capacity=2)]
        ks = [rng.normal(size=(2, 2, 4)) for _ in range(37)]
        for k in ks:
            TokenBuffer.store(bufs, [1, 1], k, -k)
        for b, buf in enumerate(bufs):
            assert len(buf) == 37
            want = np.stack([k[:, b] for k in ks], axis=1)
            np.testing.assert_array_equal(buf.keys(), want)
            np.testing.assert_array_equal(buf.values(), -want)

    def test_block_store_and_tail(self, rng):
        buf = TokenBuffer(3, 5, capacity=1)
        block = rng.normal(size=(3, 10, 5))
        TokenBuffer.store([buf], [10], 2 * block, block)
        np.testing.assert_array_equal(buf.values_tail(4), block[:, -4:])

    def test_tail_writes_through(self, rng):
        buf = TokenBuffer(1, 2, capacity=8)
        block = rng.normal(size=(1, 6, 2))
        TokenBuffer.store([buf], [6], block, block)
        buf.values_tail(2)[:] = 7.0
        assert np.all(buf.values()[:, -2:] == 7.0)
        assert not np.any(buf.values()[:, :-2] == 7.0)
        np.testing.assert_array_equal(buf.keys(), block)

    def test_tail_beyond_length_rejected(self, rng):
        buf = TokenBuffer(1, 2, capacity=8)
        block = rng.normal(size=(1, 3, 2))
        TokenBuffer.store([buf], [3], block, block)
        with pytest.raises(ValueError):
            buf.values_tail(5)


# ----------------------------------------------------------------------
# 5. Variance selector public vectorized API
# ----------------------------------------------------------------------
class TestSelectFromVariances:
    def test_matches_scalar_path(self, rng):
        sel = VarianceSelector(group_size=32)
        nv = rng.uniform(0, 0.5, size=(3, 7))
        batch = sel.select_from_variances(nv)
        assert batch.shape == (3, 7)
        for idx in np.ndindex(nv.shape):
            assert batch[idx] == sel.select_from_variance(nv[idx])

    def test_select_batch_consistent(self, rng):
        sel = VarianceSelector(group_size=16)
        groups = rng.normal(size=(40, 16))
        amax = np.max(np.abs(groups), axis=-1)
        nv = groups.var(axis=-1) / (amax * amax)
        np.testing.assert_array_equal(
            sel.select_batch(groups), sel.select_from_variances(nv)
        )
