"""Tests for coefficient selection (Eq. 6 search, Eq. 7 variance map)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codec import INT_A, MantCodec
from repro.core.mant import MANT_WEIGHT_A_SET, MantGrid
from repro.core.selection import (
    GroupStats,
    MseSearchSelector,
    VarianceSelector,
    _variance_lastaxis,
    group_stats,
)


class TestGroupStats:
    def test_matches_numpy(self, rng):
        v = rng.normal(size=64)
        st = group_stats(v)
        assert st.variance == pytest.approx(float(np.var(v)))
        assert st.abs_max == pytest.approx(float(np.max(np.abs(v))))

    def test_normalized_variance(self, rng):
        v = rng.normal(size=64)
        st = group_stats(v)
        norm = v / np.max(np.abs(v))
        assert st.normalized_variance == pytest.approx(float(np.var(norm)))

    def test_streaming_equivalence(self, rng):
        # The RQU accumulates (n, Σx, Σx², max) incrementally.
        v = rng.normal(size=64)
        acc = GroupStats(n=0, total=0.0, total_sq=0.0, abs_max=0.0)
        for x in v:
            acc = GroupStats(
                n=acc.n + 1,
                total=acc.total + x,
                total_sq=acc.total_sq + x * x,
                abs_max=max(acc.abs_max, abs(x)),
            )
        assert acc.variance == pytest.approx(group_stats(v).variance)

    def test_zero_group(self):
        st = group_stats(np.zeros(8))
        assert st.normalized_variance == 0.0

    def test_variance_never_negative(self):
        # E[x²] − E[x]² cancels catastrophically on near-constant groups;
        # accumulators crafted so the raw difference is a tiny negative.
        st = GroupStats(n=3, total=0.30000000000000004, total_sq=0.03, abs_max=0.1)
        assert st.variance >= 0.0
        assert st.normalized_variance >= 0.0

    def test_constant_group_variance_clipped(self):
        for c in (0.1, 1e8, -3.7e-5):
            st = group_stats(np.full(64, c))
            assert st.variance >= 0.0
            assert st.normalized_variance >= 0.0


class TestMseSearchSelector:
    def test_uniform_data_prefers_int_like(self, rng):
        sel = MseSearchSelector(group_size=64)
        w = rng.uniform(-1, 1, size=(4, 64))
        a = sel.select(w)
        # Uniform data wants a uniform grid: INT or large a.
        assert np.all((a == INT_A) | (a >= 80))

    def test_peaked_data_prefers_small_a(self, rng):
        sel = MseSearchSelector(group_size=64)
        w = rng.laplace(scale=0.01, size=(4, 64))
        w[:, 0] = 1.0  # one large value forces wide dynamic range
        a = sel.select(w)
        assert np.all(a <= 20)

    def test_selection_minimises_error(self, rng):
        sel = MseSearchSelector(group_size=32)
        codec = MantCodec(group_size=32, fp16_scales=False)
        w = rng.normal(size=(6, 64))
        chosen = sel.select(w)
        err_best = np.mean((codec.qdq(w, chosen) - w) ** 2)
        for a in (0.0, 17.0, 60.0, 120.0, float(INT_A)):
            err = np.mean((codec.qdq(w, np.full_like(chosen, a)) - w) ** 2)
            assert err_best <= err + 1e-12

    def test_act_weighted_selection_changes_choice(self, rng):
        # Heavily weighting some input channels must be able to change
        # the per-group optimum (the point of Eq. 6 vs raw weight MSE).
        sel = MseSearchSelector(group_size=32)
        w = rng.normal(size=(8, 64))
        h = np.ones(64)
        h[:8] = 1e4
        a_plain = sel.select(w)
        a_weighted = sel.select(w, act_sq_mean=h)
        assert a_plain.shape == a_weighted.shape

    def test_act_stat_shape_validated(self, rng):
        sel = MseSearchSelector(group_size=32)
        with pytest.raises(ValueError):
            sel.select(rng.normal(size=(2, 64)), act_sq_mean=np.ones(32))


class TestVarianceSelector:
    def test_theoretical_thresholds_monotone(self):
        sel = VarianceSelector()
        assert np.all(np.diff(sel._thresholds) > 0)

    def test_low_variance_gets_small_a(self):
        sel = VarianceSelector()
        a_low = sel.select_from_variance(0.001)
        a_high = sel.select_from_variance(0.5)
        v_low = MantGrid(max(a_low, 0)).normalized_variance() if a_low != INT_A else 1.0
        v_high = MantGrid(max(a_high, 0)).normalized_variance() if a_high != INT_A else 1.0
        assert v_low <= v_high

    def test_fit_agrees_with_mse_majority(self, rng):
        # After calibration, the variance map should agree with the MSE
        # search on a clear majority of held-out Gaussian groups.
        sel = VarianceSelector(group_size=64)
        calib = rng.normal(size=(800, 64))
        sel.fit(calib)
        mse = MseSearchSelector(group_size=64)
        test = rng.normal(size=(200, 64))
        a_var = sel.select_batch(test)
        a_mse = mse.select(test.reshape(1, -1)).ravel()
        # Compare the implied grid variance rather than exact a matches.
        def gv(a):
            return 0.35 if a == INT_A else MantGrid(a).normalized_variance()

        diffs = [abs(gv(x) - gv(y)) for x, y in zip(a_var, a_mse)]
        assert np.mean(diffs) < 0.08

    def test_select_batch_shape(self, rng):
        sel = VarianceSelector(group_size=32)
        out = sel.select_batch(rng.normal(size=(5, 7, 32)))
        assert out.shape == (5, 7)

    def test_fit_requires_2d(self):
        with pytest.raises(ValueError):
            VarianceSelector().fit(np.zeros(10))

    def test_degenerate_calibration_keeps_defaults(self):
        sel = VarianceSelector(group_size=16)
        before = sel._thresholds.copy()
        sel.fit(np.ones((20, 16)))  # constant groups: degenerate
        assert sel._thresholds is not None
        assert len(sel._thresholds) >= 1 or np.array_equal(before, sel._thresholds)


@given(
    shape=st.lists(st.integers(1, 9), min_size=0, max_size=2).map(tuple),
    g=st.sampled_from([1, 2, 7, 32, 64]),
    magnitude=st.sampled_from([1.0, 1e-300, 1e150, 3.7e-8]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_variance_lastaxis_is_numpy_var_bytes(shape, g, magnitude, seed):
    """The selector's variance must be numpy's to the last bit: a range
    threshold compares against it, so one ulp can flip a coefficient."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape + (g,)) * magnitude + rng.choice([0.0, 5.0])
    with np.errstate(over="ignore", invalid="ignore"):
        assert _variance_lastaxis(x).tobytes() == x.var(axis=-1).tobytes()
