"""Tests for the generic granularity quantizers."""

import numpy as np
import pytest

from repro.datatypes.base import GridDataType
from repro.datatypes.int_type import IntType
from repro.quant.config import Granularity, QuantConfig
from repro.quant.quantizer import GroupQuantizer, qdq_with_config, quantize_dequantize


class TestGroupQuantizer:
    def test_tensor_granularity_single_scale(self, rng):
        x = rng.normal(size=(4, 64))
        q = GroupQuantizer(IntType(8), Granularity.TENSOR, fp16_scales=False)
        out = q.qdq(x)
        scale = np.max(np.abs(x)) / 127
        assert np.allclose(out / scale, np.rint(out / scale), atol=1e-6)

    def test_channel_beats_tensor_on_scaled_channels(self, rng):
        # One hot channel stretches a tensor-wise scale; channel-wise
        # scales are immune — the motivation for channel quantization.
        x = rng.normal(size=(64, 32))
        x[:, 0] *= 100
        t_err = np.mean((quantize_dequantize(x, IntType(4), Granularity.TENSOR) - x) ** 2)
        c_err = np.mean(
            (quantize_dequantize(x, IntType(4), Granularity.CHANNEL, axis=0) - x) ** 2
        )
        assert c_err < t_err

    def test_group_beats_channel_on_heterogeneous_groups(self, rng):
        # Fig. 1's premise: magnitude varies along the channel.
        x = rng.normal(size=(2, 256))
        x[:, :64] *= 50
        c_err = np.mean(
            (quantize_dequantize(x, IntType(4), Granularity.CHANNEL) - x) ** 2
        )
        g_err = np.mean(
            (quantize_dequantize(x, IntType(4), Granularity.GROUP, 64) - x) ** 2
        )
        assert g_err < c_err

    def test_group_axis0(self, rng):
        x = rng.normal(size=(128, 3))
        out = GroupQuantizer(IntType(4), Granularity.GROUP, 64).qdq(x, axis=0)
        assert out.shape == x.shape

    def test_zero_tensor(self):
        out = GroupQuantizer(IntType(4), Granularity.GROUP, 64).qdq(np.zeros((2, 64)))
        assert np.all(out == 0)

    @pytest.mark.parametrize("granularity", [Granularity.GROUP, Granularity.CHANNEL])
    def test_fp16_scale_underflow_gives_zeros(self, rng, granularity):
        # A nonzero absmax below the fp16 subnormal range rounds the
        # group's scale to 0; with an exact zero in the group that was
        # 0/0 = NaN and an IndexError from the grid gather.
        x = np.stack([np.zeros(32), rng.normal(size=32)])
        x[0, :31] = np.linspace(-1e-7, 1e-7, 31)
        assert x[0, 15] == 0.0
        gq = GroupQuantizer(IntType(8), granularity, 32)
        out = gq.qdq(x)
        assert out[0].tobytes() == np.zeros(32).tobytes()
        assert out[1].tobytes() == gq.qdq(x[1:]).tobytes()


class _GatherInt(IntType):
    """IntType through the generic path: encode, grid gather, multiply."""

    qdq = GridDataType.qdq


def _parity_inputs(rng, qmax):
    """Inputs for the IntType fast path: ragged tails, zero groups, ties."""
    ragged = rng.normal(size=(3, 2, 45)) * 3.0       # 45 = 32 + a 13-wide tail
    zero_groups = rng.normal(size=(2, 96))
    zero_groups[:, 32:64] = 0.0
    zero_groups[1] = 0.0
    # Every 32-group's absmax is qmax, so the scale is exactly 1 and the
    # half-integers are exact .5 ties (±0.5 round to ±0.0).
    ties = rng.integers(-2 * qmax, 2 * qmax + 1, size=(4, 64)) / 2.0
    ties[:, ::32] = qmax
    # Tiny negatives next to one large value round to -0.0, which the
    # grid holds as +0.0.
    tiny = -np.abs(rng.normal(size=(2, 64))) * 1e-4
    tiny[:, ::16] = 1.0
    return [ragged, zero_groups, ties, tiny]


class TestIntTypeParity:
    @pytest.mark.parametrize("bits", [2, 4, 8])
    @pytest.mark.parametrize("granularity", list(Granularity))
    @pytest.mark.parametrize("fp16_scales", [True, False])
    def test_qdq_bytes_match_encode_decode(self, rng, bits, granularity, fp16_scales):
        fast = GroupQuantizer(IntType(bits), granularity, 32, fp16_scales=fp16_scales)
        ref = GroupQuantizer(_GatherInt(bits), granularity, 32, fp16_scales=fp16_scales)
        for x in _parity_inputs(rng, 2 ** (bits - 1) - 1):
            assert fast.qdq(x).tobytes() == ref.qdq(x).tobytes()

    def test_negative_zero_becomes_grid_zero(self):
        out = IntType(8).qdq(np.array([-1e-4, 1.0]), 1.0 / 127)
        assert out[0] == 0.0 and not np.signbit(out[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("granularity", list(Granularity))
    def test_non_finite_input_raises(self, bad, granularity):
        x = np.ones((2, 32))
        x[1, 3] = bad
        # inf / inf warns on the way to the NaN that raises.
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="NaN"):
            GroupQuantizer(IntType(8), granularity, 32).qdq(x)


class TestConfigDispatch:
    @pytest.mark.parametrize(
        "method", ["int", "mant", "ant", "olive", "tender", "cluster", "nf", "fp", "pot", "flint"]
    )
    def test_all_methods_run(self, rng, method):
        x = rng.normal(size=(4, 128))
        cfg = QuantConfig(bits=4, method=method, group_size=64)
        out = qdq_with_config(x, cfg)
        assert out.shape == x.shape
        assert np.all(np.isfinite(out))
        assert np.mean((out - x) ** 2) < np.mean(x * x)  # better than zeroing

    def test_mxfp_dispatch(self, rng):
        x = rng.normal(size=(4, 64))
        out = qdq_with_config(x, QuantConfig(bits=4, method="mxfp", group_size=32))
        assert out.shape == x.shape

    def test_fp16_dispatch_near_identity(self, rng):
        x = rng.normal(size=(4, 64))
        out = qdq_with_config(x, QuantConfig(bits=16, method="fp16"))
        assert np.allclose(out, x, atol=1e-3)

    def test_unknown_method_rejected(self, rng):
        with pytest.raises(ValueError):
            qdq_with_config(rng.normal(size=(2, 64)), QuantConfig(bits=4, method="nope"))


class TestQuantConfig:
    def test_bits_validated(self):
        with pytest.raises(ValueError):
            QuantConfig(bits=5)

    def test_storage_format_mant(self):
        cfg = QuantConfig(bits=4, method="mant", group_size=64)
        assert cfg.bits_per_element() == pytest.approx(4 + 24 / 64)

    def test_storage_format_cluster_codebook(self):
        # Sec. III-B: 16-entry codebook at 8 bits = 128 bits/group,
        # "effectively 6-bit" at group 64... at group 32 it is +4 bits.
        cfg = QuantConfig(bits=4, method="cluster", group_size=64)
        assert cfg.bits_per_element() == pytest.approx(4 + (16 + 128) / 64)

    def test_fp16_is_16_bits(self):
        assert QuantConfig(bits=16, method="fp16").bits_per_element() == 16.0

    def test_mxfp_scale_is_8bit(self):
        cfg = QuantConfig(bits=4, method="mxfp", group_size=32)
        assert cfg.bits_per_element() == pytest.approx(4 + 8 / 32)
