"""Tests for the group-wise MANT codec (paper Eq. 4, Fig. 7)."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codec import (
    INT_A,
    MantCodec,
    MantEncoded,
    _CANONICAL_SORTED,
    _merged_ladder,
)
from repro.core.groups import to_groups
from repro.core.mant import MantGrid
from repro.core.selection import VarianceSelector


def uniform_a(rows, n_groups, a=17.0):
    return np.full((rows, n_groups), a)


class TestEncodeDecode:
    def test_fig7_worked_example(self):
        # Paper Fig. 7: weights [0.33, 0.54, -0.2, 0.97] with a = 17.
        # s_W = 0.97 / 247; scaled = [84.03, 137.51, -50.93, 247.01];
        # nearest grid points = [84, 117, -59, 247] = mags [4, 5, 3, 7].
        codec = MantCodec(bits=4, group_size=4, fp16_scales=False)
        w = np.array([[0.33, 0.54, -0.2, 0.97]])
        enc = codec.encode(w, uniform_a(1, 1))
        assert list(enc.magnitude[0, 0]) == [4, 5, 3, 7]
        assert list(enc.sign[0, 0]) == [1, 1, -1, 1]
        assert enc.scale[0, 0] == pytest.approx(0.97 / 247)

    def test_roundtrip_error_bounded(self, rng):
        codec = MantCodec(group_size=64, fp16_scales=False)
        w = rng.normal(size=(8, 128))
        a = uniform_a(8, 2, 60.0)
        w_hat = codec.qdq(w, a)
        # Error bounded by half the largest normalised gap times absmax.
        grid = MantGrid(60)
        gap = np.max(np.diff(grid.grid)) / grid.grid_max
        amax = np.max(np.abs(w))
        assert np.max(np.abs(w - w_hat)) <= gap * amax / 2 + 1e-9

    def test_int_groups_decode_on_int_grid(self, rng):
        codec = MantCodec(group_size=32, fp16_scales=False)
        w = rng.normal(size=(2, 32))
        a = np.full((2, 1), INT_A)
        enc = codec.encode(w, a)
        deq = codec.decode(enc)
        scaled = deq / enc.scale[..., None].reshape(2, 1)
        # Every dequantized value / scale must be an integer in [-7, 7].
        assert np.allclose(scaled, np.rint(scaled))
        assert np.max(np.abs(scaled)) <= 7

    def test_qdq_idempotent(self, rng):
        codec = MantCodec(group_size=64, fp16_scales=False)
        w = rng.normal(size=(4, 128))
        a = uniform_a(4, 2, 17.0)
        once = codec.qdq(w, a)
        twice = codec.qdq(once, a)
        assert np.allclose(once, twice)

    def test_mixed_a_per_group(self, rng):
        codec = MantCodec(group_size=16, fp16_scales=False)
        w = rng.normal(size=(1, 32))
        a = np.array([[0.0, INT_A]])
        enc = codec.encode(w, a)
        assert enc.a_coeff[0, 0] == 0.0 and enc.a_coeff[0, 1] == INT_A
        deq = codec.decode(enc)
        assert deq.shape == (1, 32)

    def test_padding_handled(self, rng):
        codec = MantCodec(group_size=64, fp16_scales=False)
        w = rng.normal(size=(2, 100))
        a = uniform_a(2, 2, 17.0)
        w_hat = codec.qdq(w, a)
        assert w_hat.shape == (2, 100)

    def test_fp16_scale_rounding(self, rng):
        codec = MantCodec(group_size=64, fp16_scales=True)
        w = rng.normal(size=(2, 64))
        enc = codec.encode(w, uniform_a(2, 1))
        assert np.array_equal(
            enc.scale, enc.scale.astype(np.float16).astype(np.float64)
        )

    def test_shape_validation(self):
        codec = MantCodec(group_size=64)
        with pytest.raises(ValueError):
            codec.encode(np.zeros((2, 64, 3)), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            codec.encode(np.zeros((2, 64)), np.zeros((3, 1)))

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            MantCodec(bits=8)


class TestMetadataAccounting:
    def test_bits_per_element(self, rng):
        codec = MantCodec(group_size=64, fp16_scales=False)
        enc = codec.encode(rng.normal(size=(1, 64)), uniform_a(1, 1))
        assert enc.bits_per_element() == pytest.approx(4 + 24 / 64)
        assert enc.metadata_bits_per_element() == pytest.approx(0.375)


@given(
    st.integers(1, 6),
    st.integers(8, 80),
    st.sampled_from([0.0, 5.0, 17.0, 60.0, 120.0, float(INT_A)]),
)
@settings(max_examples=40, deadline=None)
def test_roundtrip_never_increases_groupwise_absmax(rows, cols, a):
    rng = np.random.default_rng(int(rows * 997 + cols * 31 + a))
    codec = MantCodec(group_size=16, fp16_scales=False)
    w = rng.normal(size=(rows, cols))
    n_groups = -(-cols // 16)
    enc = codec.encode(w, np.full((rows, n_groups), a))
    w_hat = codec.decode(enc)
    assert w_hat.shape == w.shape
    # Absmax scaling can never produce values beyond the group max.
    assert np.max(np.abs(w_hat)) <= np.max(np.abs(w)) * (1 + 1e-3) + 1e-9


# Coefficient pools for the qdq ≡ decode∘encode property: the canonical
# 16-type set (the searchsorted fast path) and off-set values that force
# the np.unique fallback with per-set tables.
_CANONICAL_A = [0.0, 5.0, 10.0, 17.0, 20.0, 60.0, 120.0, float(INT_A)]
_EXOTIC_A = [3.0, 7.5, 33.0, 64.0, 127.0]


@given(
    bits=st.sampled_from([2, 3, 4]),
    group_size=st.sampled_from([4, 8, 16, 32]),
    rows=st.integers(1, 6),
    cols=st.integers(1, 70),
    exotic=st.booleans(),
    fp16_scales=st.booleans(),
    magnitude=st.sampled_from([1.0, 1e-3, 1e-8, 1e-30]),
    zero_frac=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=120, deadline=None)
def test_qdq_byte_equal_to_decode_of_encode(bits, group_size, rows, cols, exotic,
                                            fp16_scales, magnitude, zero_frac, seed):
    """The single-gather fake-quant is the reference codec, bit for bit:
    padded tail groups, all-zero groups, INT groups, exotic coefficient
    sets and fp16-underflowing scales (1e-8 and below flush the fp16
    scale to zero or a subnormal) included."""
    rng = np.random.default_rng(seed)
    codec = MantCodec(bits=bits, group_size=group_size, fp16_scales=fp16_scales)
    n_groups = -(-cols // group_size)
    w = rng.normal(size=(rows, cols)) * magnitude
    # Zero whole groups (the scale-base-1 branch of the absmax).
    dead = rng.random((rows, n_groups)) < zero_frac
    w[np.repeat(dead, group_size, axis=1)[:, :cols]] = 0.0
    pool = _CANONICAL_A + (_EXOTIC_A if exotic else [])
    a = rng.choice(pool, size=(rows, n_groups))
    ref = codec.decode(codec.encode(w, a))
    out = codec.qdq(w, a)
    assert out.shape == w.shape and out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()


class TestAllZeroGroups:
    """A MANT grid's smallest magnitude is a·0 + 2^0, so an all-zero
    group needs a zero scale to read back as 0."""

    @pytest.mark.parametrize("a", [0.0, 17.0, float(INT_A)])
    def test_zero_group_reads_back_plus_zero(self, a):
        codec = MantCodec(group_size=32)
        zeros = np.zeros((1, 32))
        out = codec.qdq(zeros, np.full((1, 1), a))
        assert out.tobytes() == zeros.tobytes()
        enc = codec.encode(zeros, np.full((1, 1), a))
        assert enc.scale[0, 0] == 0.0
        assert codec.decode(enc).tobytes() == zeros.tobytes()

    def test_zero_group_beside_nonzero_group(self, rng):
        codec = MantCodec(group_size=32)
        w = rng.normal(size=(3, 64))
        w[1, :32] = 0.0
        a = np.full((3, 2), 17.0)
        out = codec.qdq(w, a)
        assert out[1, :32].tobytes() == np.zeros(32).tobytes()
        alone = codec.qdq(w[:, 32:], a[:, 1:])
        assert out[:, 32:].tobytes() == alone.tobytes()
        assert out.tobytes() == codec.decode(codec.encode(w, a)).tobytes()

    def test_select_paths_zero_group(self, rng):
        codec = MantCodec(group_size=32)
        sel = VarianceSelector(bits=4, group_size=32)
        x = rng.normal(size=(4, 64))
        x[2, 32:] = 0.0
        out = codec.select_qdq(x, sel)
        assert out[2, 32:].tobytes() == np.zeros(32).tobytes()
        groups = to_groups(x, 32).groups
        assert out.tobytes() == codec.qdq(x, sel.select_batch(groups)).tobytes()
        from repro.core.selection import MseSearchSelector
        mse = MseSearchSelector(bits=4, group_size=32)
        enc = mse.select_and_encode(x, codec=codec)
        ref = codec.encode(x, mse.select(x))
        for name in ("sign", "magnitude", "scale", "a_coeff"):
            assert getattr(enc, name).tobytes() == getattr(ref, name).tobytes()
        assert codec.decode(enc)[2, 32:].tobytes() == np.zeros(32).tobytes()


class TestFp16ScaleOverflow:
    """A group absmax past 65504·grid_max would overflow its fp16 scale
    to inf: every quantize path raises instead of returning inf."""

    def test_every_path_raises(self, rng):
        codec = MantCodec(group_size=32)
        w = rng.normal(size=(2, 64))
        w[1, 40] = 1e9
        a = np.full((2, 2), 17.0)
        sel = VarianceSelector(bits=4, group_size=32)
        for call in (lambda: codec.qdq(w, a), lambda: codec.encode(w, a),
                     lambda: codec.select_qdq(w, sel)):
            with pytest.raises(ValueError, match="overflows fp16"):
                call()
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="overflows fp16"):
                codec.qdq(np.full((1, 32), bad), a[:1, :1])

    def test_largest_finite_scale_passes(self):
        codec = MantCodec(group_size=32)
        w = np.zeros((1, 32))
        w[0, 3] = 60000.0 * codec.grid(17.0).grid_max
        out = codec.qdq(w, np.full((1, 1), 17.0))
        assert np.isfinite(out).all()

    def test_float64_scales_never_overflow(self):
        codec = MantCodec(group_size=32, fp16_scales=False)
        w = np.zeros((1, 32))
        w[0, 3] = 1e9
        assert np.isfinite(codec.qdq(w, np.full((1, 1), 17.0))).all()


def test_qdq_rejects_bad_shapes():
    codec = MantCodec(group_size=8)
    with pytest.raises(ValueError, match="2-D"):
        codec.qdq(np.zeros(8), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="a_per_group shape"):
        codec.qdq(np.zeros((2, 8)), np.zeros((1, 1)))


@lru_cache(maxsize=None)
def _variance_selector(kind, bits, group_size):
    """The three selector shapes serving can hold: theoretical ranges,
    ranges fitted to calibration groups, and an off-canonical set."""
    if kind == "exotic":
        return VarianceSelector(bits=bits, group_size=group_size,
                                a_candidates=_EXOTIC_A)
    sel = VarianceSelector(bits=bits, group_size=group_size)
    if kind == "fitted":
        rng = np.random.default_rng(bits * 100 + group_size)
        # Heavy- and light-tailed groups so several coefficients win.
        calib = rng.normal(size=(256, group_size))
        calib *= rng.gamma(0.5, size=(256, 1)) ** rng.choice([0.5, 3.0], size=(256, 1))
        calib[::7] = rng.uniform(-1, 1, size=calib[::7].shape)
        sel.fit(calib)
    return sel


@given(
    bits=st.sampled_from([2, 3, 4]),
    group_size=st.sampled_from([32, 64]),
    kind=st.sampled_from(["theoretical", "fitted", "exotic"]),
    rows=st.integers(1, 6),
    cols=st.integers(1, 150),
    magnitude=st.sampled_from([1.0, 1e-3, 1e-8, 1e-30]),
    zero_frac=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=120, deadline=None)
def test_select_qdq_byte_equal_to_select_batch_then_qdq(bits, group_size, kind, rows,
                                                        cols, magnitude, zero_frac, seed):
    """The group-once entry is the coefficient-level composition, bit for
    bit: padded tails, all-zero groups and fp16-underflowing scales
    included, under canonical and off-canonical coefficient sets."""
    rng = np.random.default_rng(seed)
    sel = _variance_selector(kind, bits, group_size)
    codec = MantCodec(bits=bits, group_size=group_size)
    n_groups = -(-cols // group_size)
    x = rng.normal(size=(rows, cols)) * rng.gamma(1.0, size=(rows, 1)) ** 2 * magnitude
    dead = rng.random((rows, n_groups)) < zero_frac
    x[np.repeat(dead, group_size, axis=1)[:, :cols]] = 0.0
    ref = codec.qdq(x, sel.select_batch(to_groups(x, group_size).groups))
    out = codec.select_qdq(x, sel)
    assert out.shape == x.shape and out.tobytes() == ref.tobytes()
    # Any leading shape groups the same last axis.
    assert codec.select_qdq(x[None], sel).tobytes() == ref.tobytes()


def test_select_qdq_follows_a_refit(rng):
    """The selector's lazily resolved grid map is rebuilt when ``fit``
    moves its ranges."""
    sel = VarianceSelector(group_size=32)
    codec = MantCodec(group_size=32)
    x = rng.normal(size=(40, 32)) * rng.gamma(0.5, size=(40, 1)) ** 3
    codec.select_qdq(x, sel)
    sel.fit(rng.normal(size=(128, 32)) * rng.gamma(0.5, size=(128, 1)) ** 3)
    ref = codec.qdq(x, sel.select_batch(to_groups(x, 32).groups))
    assert codec.select_qdq(x, sel).tobytes() == ref.tobytes()


@pytest.mark.parametrize("a_set", [
    _CANONICAL_SORTED,                        # the serving table
    (17.0,),                                  # a uniform encode's table
    tuple(sorted(_EXOTIC_A + [float(INT_A)])),
])
@pytest.mark.parametrize("bits", [2, 3, 4])
def test_ladder_positions_match_binary_search(a_set, bits, rng):
    """The bucket LUT is exact, including values sitting on a boundary,
    one ulp either side of one, on a bucket edge and at ±1 and 0."""
    ladder = _merged_ladder(a_set, bits)
    b = ladder.boundaries
    edges = -1.0 + np.arange(ladder.n_buckets + 1) * (2.0 / ladder.n_buckets)
    values = np.concatenate([
        b, np.nextafter(b, -2.0), np.nextafter(b, 2.0),
        edges, np.nextafter(edges[1:], -2.0), [-1.0, -0.0, 0.0, 1.0],
        rng.uniform(-1, 1, 5000), rng.normal(scale=0.05, size=5000).clip(-1, 1),
    ])
    assert np.array_equal(ladder.positions(values), np.searchsorted(b, values, side="left"))
