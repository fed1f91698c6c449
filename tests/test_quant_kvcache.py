"""Tests for the real-time KV-cache quantizers (paper Sec. V-C, Fig. 8)."""

import numpy as np
import pytest

from repro.quant.kvcache import FP16KVCache, IntKVCache, MantKVCache


def fill(cache, heads=2, seq=70, dh=64, extra=70, seed=0):
    rng = np.random.default_rng(seed)
    k = rng.normal(size=(heads, seq, dh))
    v = rng.normal(size=(heads, seq, dh))
    cache.prefill(k, v)
    for _ in range(extra):
        cache.append(rng.normal(size=(heads, dh)), rng.normal(size=(heads, dh)))
    return k, v


class TestFP16Cache:
    def test_exact_passthrough(self):
        cache = FP16KVCache()
        k, v = fill(cache, extra=3)
        assert cache.keys().shape == (2, 73, 64)
        assert np.allclose(cache.keys()[:, :70], k)
        assert np.allclose(cache.values()[:, :70], v)

    def test_seq_len(self):
        cache = FP16KVCache()
        fill(cache, extra=5)
        assert cache.seq_len == 75


class TestIntCache:
    def test_shapes(self):
        cache = IntKVCache(bits=4, group_size=64)
        fill(cache)
        assert cache.keys().shape == (2, 140, 64)

    def test_error_bounded(self):
        cache = IntKVCache(bits=8, group_size=64)
        k, v = fill(cache, extra=0)
        err = np.max(np.abs(cache.keys() - k))
        assert err <= np.max(np.abs(k)) / 127 * 1.2

    def test_small_head_dim(self):
        cache = IntKVCache(bits=4, group_size=64)
        rng = np.random.default_rng(0)
        cache.prefill(rng.normal(size=(2, 10, 16)), rng.normal(size=(2, 10, 16)))
        assert cache.keys().shape == (2, 10, 16)


class TestMantCache:
    def test_shapes_and_growth(self):
        cache = MantKVCache(group_size=64)
        fill(cache, seq=70, extra=70)
        assert cache.keys().shape == (2, 140, 64)
        assert cache.values().shape == (2, 140, 64)
        assert cache.seq_len == 140

    def test_two_phase_window_flush(self):
        cache = MantKVCache(group_size=64, window=64)
        rng = np.random.default_rng(1)
        cache.prefill(rng.normal(size=(2, 64, 32)), rng.normal(size=(2, 64, 32)))
        assert cache.staging_fill == 0  # prefill seq = exact window
        for t in range(63):
            cache.append(rng.normal(size=(2, 32)), rng.normal(size=(2, 32)))
        assert cache.staging_fill == 63
        cache.append(rng.normal(size=(2, 32)), rng.normal(size=(2, 32)))
        assert cache.staging_fill == 0  # window closed and finalised

    def test_prefill_remainder_staged(self):
        cache = MantKVCache(group_size=64, window=64)
        rng = np.random.default_rng(2)
        cache.prefill(rng.normal(size=(1, 100, 32)), rng.normal(size=(1, 100, 32)))
        assert cache.staging_fill == 36

    def test_values_reasonably_accurate(self):
        # With a calibrated variance selector (the deployment mode),
        # 4-bit MANT lands near the MSE-search optimum (~1% rel MSE).
        from repro.core.selection import VarianceSelector

        rng = np.random.default_rng(42)
        sel = VarianceSelector(group_size=64).fit(rng.normal(size=(500, 64)))
        cache = MantKVCache(selector=sel, group_size=64)
        k, v = fill(cache, extra=0, seq=128)
        rel = np.mean((cache.values() - v) ** 2) / np.mean(v * v)
        assert rel < 0.015

    def test_unfitted_selector_still_usable(self):
        cache = MantKVCache(group_size=64)
        k, v = fill(cache, extra=0, seq=128)
        rel = np.mean((cache.values() - v) ** 2) / np.mean(v * v)
        assert rel < 0.05  # theoretical ranges: degraded but sane

    def test_keys_better_than_int4(self):
        rng = np.random.default_rng(3)
        k = rng.normal(size=(2, 64, 64))
        # Outlier channel in K (what the Q/K injection produces).
        k[:, :, 3] *= 16
        v = rng.normal(size=(2, 64, 64))
        mant = MantKVCache(group_size=64)
        mant.prefill(k, v)
        intc = IntKVCache(bits=4, group_size=64)
        intc.prefill(k, v)
        mant_err = np.mean((mant.keys() - k) ** 2)
        int_err = np.mean((intc.keys() - k) ** 2)
        assert mant_err <= int_err * 1.05

    def test_decode_without_prefill(self):
        cache = MantKVCache(group_size=8, window=8)
        rng = np.random.default_rng(4)
        for _ in range(10):
            cache.append(rng.normal(size=(1, 8)), rng.normal(size=(1, 8)))
        assert cache.seq_len == 10
        assert cache.values().shape == (1, 10, 8)

    def test_staging_is_int8_quality(self):
        # Values still in the staging window carry INT8 error, not 4-bit.
        cache = MantKVCache(group_size=64, window=64)
        rng = np.random.default_rng(5)
        cache.prefill(rng.normal(size=(1, 64, 16)), rng.normal(size=(1, 64, 16)))
        v_t = rng.normal(size=(1, 16))
        cache.append(rng.normal(size=(1, 16)), v_t)
        staged = cache.values()[:, -1, :]
        rel = np.abs(staged - v_t) / (np.abs(v_t) + 1e-9)
        assert np.median(rel) < 0.1


class TestFp16ScaleUnderflow:
    """A nonzero absmax below the fp16 subnormal range rounds a scale to
    0; the caches treat it like an all-zero group's (scale 1) instead of
    dividing 0 by 0."""

    def test_int_cache_tiny_token_quantizes_to_zeros(self, rng):
        cache = IntKVCache(bits=4, group_size=32)
        cache.prefill(*rng.normal(size=(2, 2, 8, 32)))
        kt = np.zeros((2, 32))
        kt[:, 0] = 1e-9
        cache.append(kt, kt)
        for out in (cache.keys(), cache.values()):
            assert np.isfinite(out).all()
            assert (np.asarray(out[:, -1], np.float64).tobytes()
                    == np.zeros((2, 32)).tobytes())

    def test_mant_cache_tiny_channel_stages_and_closes(self, rng):
        cache = MantKVCache(group_size=32, window=32)
        k, v = rng.normal(size=(2, 2, 40, 32))
        v[:, :, 3] = 0.0
        v[0, 5, 3] = 1e-9
        cache.prefill(k, v)
        assert cache.staging_fill == 8
        assert np.isfinite(cache.values()).all()
        assert not cache.values()[:, 32:, 3].any()
        for _ in range(30):
            kt, vt = rng.normal(size=(2, 2, 32))
            vt[:, 3] = 0.0
            cache.append(kt, vt)
        assert cache.staging_fill == 6      # the staged window closed
        assert np.isfinite(cache.values()).all()
        assert not cache.values()[:, 64:, 3].any()


class TestFp16ScaleOverflow:
    """A group or channel absmax past 65504·qmax would overflow its fp16
    scale to inf and dequantize to NaN: the caches raise instead."""

    def test_int_cache_rejects_overflowing_token(self, rng):
        cache = IntKVCache(bits=4, group_size=32)
        cache.prefill(*rng.normal(size=(2, 2, 8, 32)))
        kt = np.ones((2, 32))
        kt[1, 4] = 1e6                          # > 65504 * 7
        with pytest.raises(ValueError, match="overflows fp16"):
            cache.append(kt, np.ones((2, 32)))

    def test_mant_cache_rejects_overflowing_staging_scale(self, rng):
        cache = MantKVCache(group_size=32, window=32)
        k, v = rng.normal(size=(2, 2, 40, 32))
        v[1, 35, 7] = 1e7                       # staged: > 65504 * 127
        with pytest.raises(ValueError, match="overflows fp16"):
            cache.prefill(k, v)


    def test_mant_cache_rejects_overflowing_k_row(self, rng):
        cache = MantKVCache(group_size=32, window=32)
        cache.prefill(*rng.normal(size=(2, 2, 8, 32)))
        keys = np.array(cache.keys(), copy=True)
        kt = np.ones((2, 32))
        kt[1, 4] = 1e9                          # > 65504 * grid_max
        with pytest.raises(ValueError, match="overflows fp16"):
            cache.append(kt, np.ones((2, 32)))
        # Raised before any write: the cache is as it was.
        assert cache.seq_len == 8
        assert np.array(cache.keys()).tobytes() == keys.tobytes()

    def test_mant_cache_rejects_overflowing_prompt_window(self, rng):
        cache = MantKVCache(group_size=32, window=32)
        k, v = rng.normal(size=(2, 2, 40, 32))
        v[0, 3, 9] = 1e9                        # a full prompt window
        with pytest.raises(ValueError, match="overflows fp16"):
            cache.prefill(k, v)


class TestAllZeroGroups:
    """A MANT grid has no zero level: an all-zero K head or V-window
    channel must still read back as +0, not the smallest negative
    level."""

    def test_mant_zero_v_channel_reads_back_zero(self, rng):
        cache = MantKVCache(group_size=32, window=32)
        k, v = rng.normal(size=(2, 2, 40, 32))
        v[:, :, 5] = 0.0
        k[1, :, :] = 0.0                        # every head-1 K group is zero
        cache.prefill(k, v)
        for _ in range(30):
            kt, vt = rng.normal(size=(2, 2, 32))
            vt[:, 5] = 0.0
            cache.append(kt, vt)
        assert cache.staging_fill == 6          # two windows closed
        # Widened from the float32 storage: +0 stays +0.
        vals = np.asarray(cache.values(), np.float64)
        keys = np.asarray(cache.keys(), np.float64)
        assert vals[:, :, 5].tobytes() == np.zeros((2, 70)).tobytes()
        assert keys[1, :40].tobytes() == np.zeros((40, 32)).tobytes()


class TestAppendValidation:
    """Shape drift must fail loudly at append, not as a buffer error."""

    CACHES = {
        "fp16": lambda: FP16KVCache(),
        "int4": lambda: IntKVCache(bits=4, group_size=16),
        "mant4": lambda: MantKVCache(group_size=16, window=16),
    }

    @pytest.mark.parametrize("name", list(CACHES))
    def test_head_dim_drift_rejected(self, name):
        cache = self.CACHES[name]()
        rng = np.random.default_rng(0)
        cache.append(rng.normal(size=(2, 16)), rng.normal(size=(2, 16)))
        with pytest.raises(ValueError, match=r"\(n_heads, d_head\)"):
            cache.append(rng.normal(size=(2, 8)), rng.normal(size=(2, 8)))

    @pytest.mark.parametrize("name", list(CACHES))
    def test_head_count_drift_rejected(self, name):
        cache = self.CACHES[name]()
        rng = np.random.default_rng(1)
        cache.prefill(rng.normal(size=(2, 16, 16)), rng.normal(size=(2, 16, 16)))
        with pytest.raises(ValueError, match=r"\(n_heads, d_head\)"):
            cache.append(rng.normal(size=(4, 16)), rng.normal(size=(4, 16)))

    @pytest.mark.parametrize("name", list(CACHES))
    def test_v_mismatching_k_rejected(self, name):
        cache = self.CACHES[name]()
        rng = np.random.default_rng(2)
        cache.prefill(rng.normal(size=(2, 16, 16)), rng.normal(size=(2, 16, 16)))
        with pytest.raises(ValueError, match="v_t"):
            cache.append(rng.normal(size=(2, 16)), rng.normal(size=(2, 8)))

    def test_non_2d_token_rejected(self):
        cache = FP16KVCache()
        with pytest.raises(ValueError, match="one token"):
            cache.append(np.zeros((2, 3, 16)), np.zeros((2, 3, 16)))

    def test_matching_append_still_works(self):
        cache = MantKVCache(group_size=16, window=16)
        rng = np.random.default_rng(3)
        cache.prefill(rng.normal(size=(2, 16, 16)), rng.normal(size=(2, 16, 16)))
        cache.append(rng.normal(size=(2, 16)), rng.normal(size=(2, 16)))
        assert cache.seq_len == 17
