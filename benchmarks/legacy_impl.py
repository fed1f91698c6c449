"""Seed (pre-fast-path) implementations of the MANT hot loops.

These are verbatim-behaviour copies of the library's original
per-candidate-loop selection, per-unique-``a`` mask-loop encode,
list+concatenate KV cache, always-masked cached attention and
page-by-page paged gather.  They
exist only so the benchmark harness (``bench_micro_codec.py``,
``bench_decode_scaling.py``, ``check_perf.py``) can measure the fast paths against a fixed baseline
inside one process — they are not part of the library API.
"""

from __future__ import annotations

import numpy as np

from repro.core.codec import INT_A, MantCodec, MantEncoded
from repro.core.groups import to_groups
from repro.core.mant import MANT_WEIGHT_A_SET, MantGrid
from repro.datatypes.int_type import IntType


def _legacy_nearest_grid_index(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(grid, values)
    idx = np.clip(idx, 1, len(grid) - 1)
    left = grid[idx - 1]
    right = grid[idx]
    choose_left = (values - left) <= (right - values)
    return np.where(choose_left, idx - 1, idx)


class LegacyMseSearchSelector:
    """Seed selection: one nearest-point encode per candidate per call."""

    def __init__(self, bits=4, group_size=64, a_candidates=MANT_WEIGHT_A_SET,
                 include_int=True):
        self.bits = bits
        self.group_size = group_size
        self.a_candidates = tuple(float(a) for a in a_candidates)
        self.include_int = include_int
        self._int_type = IntType(bits)

    def _candidate_errors(self, groups, col_weight):
        amax = np.max(np.abs(groups), axis=-1, keepdims=True)
        amax = np.where(amax <= 0, 1.0, amax)
        candidates = list(self.a_candidates)
        if self.include_int:
            candidates.append(INT_A)
        errs = np.empty((len(candidates),) + groups.shape[:-1])
        for k, a in enumerate(candidates):
            if a == INT_A:
                gmax = self._int_type.qmax
                scale = amax / gmax
                q = self._int_type.round_clip(groups / scale)
                recon = q * scale
            else:
                grid = MantGrid(a, self.bits)
                scale = amax / grid.grid_max
                scaled = groups / scale
                gi = _legacy_nearest_grid_index(scaled, grid.grid)
                recon = grid.grid[gi] * scale
            diff = recon - groups
            if col_weight is not None:
                diff = diff * np.sqrt(col_weight)
            errs[k] = np.mean(diff * diff, axis=-1)
        return errs, candidates

    def select(self, w, act_sq_mean=None):
        w = np.asarray(w, dtype=np.float64)
        view = to_groups(w, self.group_size, axis=-1)
        col_weight = None
        if act_sq_mean is not None:
            h = np.asarray(act_sq_mean, dtype=np.float64)
            hview = to_groups(h[None, :], self.group_size, axis=-1)
            col_weight = hview.groups[0]
        errs, candidates = self._candidate_errors(view.groups, col_weight)
        best = np.argmin(errs, axis=0)
        return np.asarray(candidates)[best]


class LegacyMantCodec(MantCodec):
    """Seed encode: per-unique-``a`` Python loop with boolean masks."""

    def encode(self, w, a_per_group) -> MantEncoded:
        w = np.asarray(w, dtype=np.float64)
        view = to_groups(w, self.group_size, axis=-1)
        groups = view.groups
        rows, n_groups, g = groups.shape
        a_per_group = np.asarray(a_per_group, dtype=np.float64)

        sign = np.empty((rows, n_groups, g), dtype=np.int8)
        magnitude = np.empty((rows, n_groups, g), dtype=np.uint8)
        scale = np.empty((rows, n_groups), dtype=np.float64)

        amax = np.max(np.abs(groups), axis=-1)
        amax = np.where(amax <= 0, 1.0, amax)

        for a in np.unique(a_per_group):
            mask = a_per_group == a
            vals = groups[mask]
            if a == INT_A:
                gmax = self._int_type.qmax
                s = self._round_scale(amax[mask] / gmax)
                q = self._int_type.round_clip(vals / s[:, None])
                sign[mask] = np.where(q < 0, -1, 1).astype(np.int8)
                magnitude[mask] = np.abs(q).astype(np.uint8)
            else:
                grid = MantGrid(float(a), self.bits)
                s = self._round_scale(amax[mask] / grid.grid_max)
                gi = _legacy_nearest_grid_index(vals / s[:, None], grid.grid)
                L = grid.levels_per_sign
                sign[mask] = np.where(gi >= L, 1, -1).astype(np.int8)
                magnitude[mask] = np.where(gi >= L, gi - L, L - 1 - gi).astype(np.uint8)
            scale[mask] = s
        return MantEncoded(
            sign=sign, magnitude=magnitude, scale=scale,
            a_coeff=a_per_group.copy(), bits=self.bits,
            group_size=self.group_size, original_shape=w.shape, pad=view.pad,
        )


class LegacyListKVCache:
    """Seed MANT KV cache *storage*: Python lists + concatenate per read.

    Quantization arithmetic delegates to a wrapped
    :class:`repro.quant.kvcache.MantKVCache` (so a storage-layout
    comparison isolates the buffer behaviour); reads rebuild the full
    history with ``np.concatenate``/``np.stack`` exactly like the seed,
    which is what made a T-token generation O(T²).
    """

    def __init__(self, inner):
        self._inner = inner   # MantKVCache providing the quantizers
        self._k: list[np.ndarray] = []
        self._v_final: list[np.ndarray] = []
        self._v_staging: list[np.ndarray] = []

    def prefill(self, k, v):
        inner = self._inner
        inner.prefill(k, v)
        self._k = [np.array(inner.keys())]
        seq = np.asarray(v).shape[1]
        staged = inner.staging_fill
        vals = np.array(inner.values())
        self._v_final = [vals[:, : seq - staged]] if seq > staged else []
        self._v_staging = [vals[:, t] for t in range(seq - staged, seq)]

    def append(self, k_t, v_t):
        inner = self._inner
        staging_before = inner.staging_fill
        inner.append(k_t, v_t)
        self._k.append(np.array(inner.keys()[:, -1:, :]))
        if inner.staging_fill == 0 and staging_before == inner.window - 1:
            # Window closed: staged tail becomes one finalized chunk.
            self._v_staging = []
            self._v_final.append(np.array(inner.values()[:, -inner.window :, :]))
        else:
            self._v_staging.append(np.array(inner.values()[:, -1, :]))

    def keys(self):
        return np.concatenate(self._k, axis=1)

    def values(self):
        parts = list(self._v_final)
        if self._v_staging:
            parts.append(np.stack(self._v_staging, axis=1))
        return np.concatenate(parts, axis=1)


def legacy_cached_attention_fwd(q, keys, values, offset=0):
    """Cached attention as it was before the mask-free decode path:
    every call builds the causal mask and softmaxes a masked copy of the
    scores through fresh temporaries, also when the query sees every
    key."""
    if hasattr(keys, "gather"):
        keys = keys.gather()
    if hasattr(values, "gather"):
        values = values.gather()
    d_head = q.shape[-1]
    t = q.shape[-2]
    s = keys.shape[-2]
    scores = q @ np.swapaxes(keys, -1, -2) / np.sqrt(d_head)
    qpos = offset + np.arange(t)[:, None]
    kpos = np.arange(s)[None, :]
    scores = np.where(kpos <= qpos, scores, -np.inf)
    z = scores - np.max(scores, axis=-1, keepdims=True)
    e = np.exp(z)
    probs = e / np.sum(e, axis=-1, keepdims=True)
    return probs @ values


def legacy_paged_gather(view):
    """``PagedView.gather`` of a non-contiguous page table as it was
    before the one-take gather: a Python loop copying the live tokens
    page by page into a fresh array (here of the slab's dtype, so the
    two compare like for like)."""
    slab, length = view._slab, view._len
    heads, _, bt, d_head = slab.shape
    blocks = view._table.blocks
    out = np.empty((heads, length, d_head), dtype=slab.dtype)
    pos = page = 0
    while pos < length:
        c = min(bt, length - pos)
        out[:, pos : pos + c] = slab[:, blocks[page], :c]
        pos += c
        page += 1
    return out
