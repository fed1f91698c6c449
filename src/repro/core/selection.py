"""Coefficient selection: offline MSE search and real-time variance mapping.

Two selectors, matching the paper's two deployment regimes:

* :class:`MseSearchSelector` — weights, offline (Sec. V-A, Eq. 6).
  Searches the 16-type set (15 coefficients + INT) per group, minimising
  output-weighted quantization MSE against calibration activation
  statistics.  The full ``argmin_a ||X·Ŵ_a − X·W||²`` is approximated
  per group with a diagonal Hessian: each weight column ``j`` is
  weighted by ``E[x_j²]`` from calibration, which decouples groups and
  keeps the search O(groups × types).

  The search itself runs against a *combined decision-boundary table*:
  the normalized boundaries of every candidate grid are merged into one
  sorted array, so a single ``searchsorted`` per element locates the
  value in every candidate's grid at once, and per-candidate codes and
  reconstructions fall out of two tiny LUT gathers.  Because the codes
  are produced during the search, :meth:`MseSearchSelector.select_and_encode`
  hands the winning candidate's codes straight to
  :meth:`repro.core.codec.MantCodec.from_codes` — no re-quantization
  pass after selection.

* :class:`VarianceSelector` — KV cache, real time (Sec. V-C, Eq. 7).
  Maps a group's normalised variance to a coefficient through ranges
  calibrated offline: sample calibration groups, find each group's
  MSE-optimal ``a``, record the mean variance per ``a``, and cut ranges
  at the midpoints.  At run time only ``Σx``, ``Σx²`` and ``max|x|`` are
  needed — all computable streaming, which is what the RQU provides.

  Selection is id-level underneath: :meth:`VarianceSelector.variance_ids`
  and :meth:`VarianceSelector.batch_ids` return range indices into the
  sorted coefficients, and :meth:`VarianceSelector.grid_map` maps an index
  to a grid id of the codec's stacked tables (resolved once per
  selector).  ``select_batch`` / ``select_from_variances`` are those ids
  taken through the coefficient array; the serving path skips that step
  and hands ids to :meth:`repro.core.codec.MantCodec.select_qdq`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.codec import (
    MantCodec,
    MantEncoded,
    INT_A,
    grid_tables,
    _CANONICAL_ARRAY,
    _CANONICAL_SORTED,
    _group_absmax,
    _scale_base,
    _stacked_tables,
)
from repro.core.groups import to_groups
from repro.core.mant import MANT_WEIGHT_A_SET, get_mant_grid
from repro.datatypes.int_type import IntType

__all__ = ["MseSearchSelector", "VarianceSelector", "GroupStats", "group_stats"]

# Cap on the per-chunk position-histogram allocation in
# MseSearchSelector._search: each chunk materialises two
# (chunk_groups, n_bins) float64 histograms, where n_bins is the merged
# boundary-ladder size (~200 for the canonical candidate set), so the
# chunk length is chosen as _SEARCH_CHUNK_BINS // n_bins groups.
_SEARCH_CHUNK_BINS = 1 << 19


@dataclass
class GroupStats:
    """Streaming statistics of one group: what the RQU accumulates."""

    n: int
    total: float        # Σ x_i
    total_sq: float     # Σ x_i²
    abs_max: float      # max |x_i|

    @property
    def variance(self) -> float:
        """Population variance (paper Eq. 7).

        Clipped at 0: the ``E[x²] − E[x]²`` form can go slightly
        negative from floating-point cancellation on near-constant
        groups.
        """
        mean = self.total / self.n
        return max(0.0, self.total_sq / self.n - mean * mean)

    @property
    def normalized_variance(self) -> float:
        """Variance after scaling the group so max|x| = 1 (Sec. V-C)."""
        if self.abs_max <= 0:
            return 0.0
        return self.variance / (self.abs_max * self.abs_max)


def group_stats(values: np.ndarray) -> GroupStats:
    """Compute :class:`GroupStats` for a 1-D group in one pass."""
    v = np.asarray(values, dtype=np.float64)
    return GroupStats(
        n=v.size,
        total=float(v.sum()),
        total_sq=float((v * v).sum()),
        abs_max=float(np.max(np.abs(v))) if v.size else 0.0,
    )


@dataclass(frozen=True)
class _CandidateTables:
    """Merged decision boundaries of a whole candidate set.

    ``merged_boundaries`` is the sorted union of every candidate's
    normalized boundaries.  For a value with insertion position ``p``
    (``searchsorted(merged_boundaries, v, side='left')``),
    ``code_table[c, p]`` is that value's grid index in candidate ``c``
    and ``recon_table[c, p]`` the matching normalized reconstruction —
    position in the merged ladder determines the code in *every* grid
    simultaneously, which is what collapses the 16-pass search into one.
    ``recon_sq_table`` is the elementwise square, precomputed for the
    sufficient-statistics error expansion (see
    :meth:`MseSearchSelector._search`).
    """

    candidates: tuple
    ladder: object                 # _MergedLadder over all candidates
    code_table: np.ndarray         # (n_candidates, B+1) intp
    recon_table: np.ndarray        # (n_candidates, B+1) float64
    recon_sq_table: np.ndarray     # (n_candidates, B+1) float64


@lru_cache(maxsize=None)
def _candidate_tables(candidates: tuple, bits: int) -> _CandidateTables:
    # The merged ladder and per-candidate code tables are the codec's
    # (one construction of the position→code invariant, shared with
    # encode/from_codes); this only adds the reconstruction tables the
    # error expansion contracts against.
    key = tuple(float(a) for a in candidates)
    st = _stacked_tables(key, bits)
    recon_table = np.stack(
        [
            grid_tables(a, bits).grid_norm[st.code_table[c]]
            for c, a in enumerate(key)
        ]
    )
    return _CandidateTables(
        candidates=key,
        ladder=st.ladder,
        code_table=st.code_table,
        recon_table=recon_table,
        recon_sq_table=recon_table * recon_table,
    )


class MseSearchSelector:
    """Offline per-group coefficient search (Eq. 6, diagonal surrogate).

    Parameters
    ----------
    bits, group_size:
        Code width and group length (paper: 4 and 64).
    a_candidates:
        Coefficients to search; the INT option is always included.
    include_int:
        Whether plain INT participates (the paper's 16th type).
    """

    def __init__(
        self,
        bits: int = 4,
        group_size: int = 64,
        a_candidates=MANT_WEIGHT_A_SET,
        include_int: bool = True,
    ):
        self.bits = bits
        self.group_size = group_size
        self.a_candidates = tuple(float(a) for a in a_candidates)
        self.include_int = include_int
        self._codec = MantCodec(bits=bits, group_size=group_size, fp16_scales=False)
        self._int_type = IntType(bits)

    # ------------------------------------------------------------------
    def _all_candidates(self) -> tuple:
        if self.include_int:
            return self.a_candidates + (float(INT_A),)
        return self.a_candidates

    def _search(self, groups: np.ndarray, col_weight: np.ndarray | None):
        """Vectorised candidate sweep over ``(..., n_groups, g)`` groups.

        One ``searchsorted`` against the merged boundary ladder places
        every (normalized) element in every candidate grid at once.  The
        weighted MSE then expands into sufficient statistics::

            Σ w·(r − v)² = Σ w·r² − 2·Σ w·r·v + Σ w·v²

        where the reconstruction ``r`` only depends on the merged
        position, so the per-group sums reduce to two position
        histograms (``Σw`` and ``Σw·v`` per position) contracted with
        the precomputed ``r`` / ``r²`` tables — a (groups × positions) @
        (positions × candidates) matmul instead of 16 full
        quantize-reconstruct passes.

        Returns ``(errs, candidates, pos, amax)`` where ``errs`` has
        shape ``(n_candidates, ..., n_groups)``, ``pos`` the per-element
        merged-boundary positions (reusable to recover any candidate's
        codes without re-quantizing) and ``amax`` the per-group absmax.
        """
        candidates = list(self._all_candidates())
        tab = _candidate_tables(tuple(candidates), self.bits)
        n_cand = len(candidates)

        amax = _group_absmax(groups)
        base = _scale_base(amax)
        vnorm = groups / base[..., None]
        pos = tab.ladder.positions(vnorm)

        g = groups.shape[-1]
        m = groups.size // g
        n_bins = tab.ladder.boundaries.size + 1
        flat_vn = vnorm.reshape(m, g)
        flat_pos = pos.reshape(m, g)
        flat_w = None
        if col_weight is not None:
            flat_w = np.broadcast_to(col_weight, groups.shape).reshape(m, g)
            const = (flat_w * flat_vn * flat_vn).sum(axis=-1)
        else:
            const = (flat_vn * flat_vn).sum(axis=-1)

        errs = np.empty((n_cand, m))
        block = max(1, _SEARCH_CHUNK_BINS // n_bins)
        for s in range(0, m, block):
            e = min(m, s + block)
            keys = (flat_pos[s:e] + np.arange(e - s)[:, None] * n_bins).ravel()
            if flat_w is None:
                hist_w = np.bincount(keys, minlength=(e - s) * n_bins)
                hist_wv = np.bincount(
                    keys, weights=flat_vn[s:e].ravel(), minlength=(e - s) * n_bins
                )
            else:
                wchunk = flat_w[s:e].ravel()
                hist_w = np.bincount(
                    keys, weights=wchunk, minlength=(e - s) * n_bins
                )
                hist_wv = np.bincount(
                    keys,
                    weights=wchunk * flat_vn[s:e].ravel(),
                    minlength=(e - s) * n_bins,
                )
            hist_w = hist_w.reshape(e - s, n_bins)
            hist_wv = hist_wv.reshape(e - s, n_bins)
            # (chunk, n_cand): Σw·r² − 2·Σw·v·r per candidate.
            quad = hist_w @ tab.recon_sq_table.T - 2.0 * (hist_wv @ tab.recon_table.T)
            errs[:, s:e] = quad.T + const[s:e]
        errs *= (base.reshape(m) ** 2 / g)[None, :]
        return errs.reshape((n_cand,) + groups.shape[:-1]), candidates, pos, amax

    def _candidate_errors(
        self, groups: np.ndarray, col_weight: np.ndarray | None
    ) -> tuple[np.ndarray, list[float]]:
        """Weighted MSE of every candidate for every group.

        ``groups``: (..., n_groups, g); ``col_weight``: broadcastable
        per-element importance (E[x²] of the matching input channels) or
        None for unweighted.
        Returns ``(errors, candidate_list)`` with errors shaped
        ``(len(candidates), ..., n_groups)``.
        """
        errs, candidates, _, _ = self._search(groups, col_weight)
        return errs, candidates

    # ------------------------------------------------------------------
    def _col_weight(self, w: np.ndarray, act_sq_mean: np.ndarray | None):
        if act_sq_mean is None:
            return None
        h = np.asarray(act_sq_mean, dtype=np.float64)
        if h.shape != (w.shape[-1],):
            raise ValueError(f"act_sq_mean shape {h.shape} != ({w.shape[-1]},)")
        hview = to_groups(h[None, :], self.group_size, axis=-1)
        return hview.groups[0]  # (n_groups, g), broadcasts over rows

    def select(
        self, w: np.ndarray, act_sq_mean: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-group coefficients for a 2-D weight ``(rows, in_features)``.

        ``act_sq_mean`` is the calibration statistic ``E[x_j²]`` per
        input channel (length ``in_features``); when given, the search
        minimises the output-error surrogate instead of raw weight MSE.
        Returns an ``(rows, n_groups)`` array ready for
        :meth:`MantCodec.encode`.
        """
        w = np.asarray(w, dtype=np.float64)
        view = to_groups(w, self.group_size, axis=-1)
        errs, candidates, _, _ = self._search(
            view.groups, self._col_weight(w, act_sq_mean)
        )
        best = np.argmin(errs, axis=0)
        lut = np.asarray(candidates)
        return lut[best]

    def select_and_encode(
        self,
        w: np.ndarray,
        act_sq_mean: np.ndarray | None = None,
        codec: MantCodec | None = None,
    ) -> MantEncoded:
        """Fused search + encode: one pass instead of 16 + 1.

        The candidate sweep already locates every element in the merged
        boundary ladder; the winning candidate's codes are recovered by
        a table gather and handed to :meth:`MantCodec.from_codes`, so
        the weights are never nearest-point-searched a 17th time.
        Bit-identical to ``codec.encode(w, self.select(w, act_sq_mean))``.
        """
        codec = self._codec if codec is None else codec
        if codec.bits != self.bits or codec.group_size != self.group_size:
            raise ValueError(
                f"codec (bits={codec.bits}, group={codec.group_size}) does not "
                f"match selector (bits={self.bits}, group={self.group_size})"
            )
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"select_and_encode expects 2-D weights, got {w.shape}")
        view = to_groups(w, self.group_size, axis=-1)
        errs, candidates, pos, amax = self._search(
            view.groups, self._col_weight(w, act_sq_mean)
        )
        best = np.argmin(errs, axis=0)                    # (rows, n_groups)
        a = np.asarray(candidates)[best]
        tab = _candidate_tables(tuple(candidates), self.bits)
        # (rows, n_groups, g): the winning grid's codes, recovered from
        # the merged positions the search already computed.
        codes = MantCodec._flat_gather(tab.code_table, best, pos)
        return codec.from_codes(codes, a, amax, w.shape, view.pad)


def _variance_lastaxis(g: np.ndarray) -> np.ndarray:
    """``g.var(axis=-1)``, byte for byte: numpy's own steps (sum → ÷n →
    subtract → square → sum → ÷n) without its per-call dispatch, which
    dominates on the few-row blocks a serving tick quantizes."""
    n = g.shape[-1]
    d = g - np.add.reduce(g, axis=-1, keepdims=True) / n
    np.square(d, out=d)
    return np.add.reduce(d, axis=-1) / n


@lru_cache(maxsize=None)
def _theoretical_ranges(bits: int, a_candidates: tuple, include_int: bool) -> tuple:
    """``(sorted_a, thresholds)`` of the unfitted ranges: candidates in
    ascending grid variance, cut at variance midpoints.  Computed once
    per configuration rather than once per selector (serving builds one
    per KV cache, i.e. per sequence and layer); the arrays are shared
    read-only, so :meth:`VarianceSelector.same_policy` of two unfitted
    selectors is an identity check."""
    pairs = [(get_mant_grid(a, bits).normalized_variance(), a) for a in a_candidates]
    if include_int:
        itype = IntType(bits)
        g = itype.grid / itype.qmax
        pairs.append((float(np.mean(g * g) - np.mean(g) ** 2), INT_A))
    pairs.sort()
    sorted_a = np.asarray([p[1] for p in pairs])
    variances = np.asarray([p[0] for p in pairs])
    thresholds = 0.5 * (variances[:-1] + variances[1:])
    sorted_a.flags.writeable = thresholds.flags.writeable = False
    return sorted_a, thresholds


class VarianceSelector:
    """Real-time coefficient selection from streaming variance (Sec. V-C).

    ``fit`` calibrates the variance ranges; ``select`` is O(log T) per
    group at run time and consumes only streaming statistics.
    An unfitted selector falls back to the theoretical grid variances of
    :meth:`MantGrid.normalized_variance`, which preserve the monotone
    variance↔``a`` relationship without calibration data.
    """

    def __init__(
        self,
        bits: int = 4,
        group_size: int = 64,
        a_candidates=MANT_WEIGHT_A_SET,
        include_int: bool = True,
    ):
        self.bits = bits
        self.group_size = group_size
        self.a_candidates = tuple(float(a) for a in a_candidates)
        self.include_int = include_int
        self._sorted_a: np.ndarray
        self._thresholds: np.ndarray
        self._grids: tuple | None = None
        self._init_theoretical()

    # ------------------------------------------------------------------
    def _init_theoretical(self) -> None:
        """Default ranges from uniform-usage grid variances (Fig. 6)."""
        self._sorted_a, self._thresholds = _theoretical_ranges(
            self.bits, self.a_candidates, self.include_int)
        self._grids = None

    def _set_ranges(self, sorted_a: np.ndarray, variances: np.ndarray) -> None:
        """Install coefficients ordered by variance, cut at midpoints."""
        self._sorted_a = sorted_a
        self._thresholds = 0.5 * (variances[:-1] + variances[1:])
        self._grids = None

    # ------------------------------------------------------------------
    def fit(self, calibration_groups: np.ndarray) -> "VarianceSelector":
        """Calibrate variance ranges from sample groups (Sec. V-C).

        ``calibration_groups``: array of shape ``(n_samples, group_size)``
        drawn from K/V tensors on the calibration set.  For each sample
        we find the MSE-optimal coefficient, then define each
        coefficient's range around the mean variance of the groups that
        chose it, cutting at midpoints (the paper's ``a=40 ↦ [0.104,
        0.118]`` construction).
        """
        groups = np.asarray(calibration_groups, dtype=np.float64)
        if groups.ndim != 2:
            raise ValueError("calibration_groups must be (n_samples, group_size)")
        searcher = MseSearchSelector(
            bits=self.bits,
            group_size=groups.shape[1],
            a_candidates=self.a_candidates,
            include_int=self.include_int,
        )
        errs, candidates = searcher._candidate_errors(groups[:, None, :], None)
        best = np.argmin(errs[:, :, 0], axis=0)  # (n_samples,)

        amax = np.max(np.abs(groups), axis=-1)
        amax = np.where(amax <= 0, 1.0, amax)
        norm = groups / amax[:, None]
        variances = norm.var(axis=-1)

        pairs = []
        for k, a in enumerate(candidates):
            mask = best == k
            if not np.any(mask):
                continue
            pairs.append((float(variances[mask].mean()), float(a)))
        if len(pairs) < 2:
            # Degenerate calibration (e.g. constant data): keep defaults.
            return self
        pairs.sort()
        self._set_ranges(
            np.asarray([p[1] for p in pairs]), np.asarray([p[0] for p in pairs])
        )
        return self

    # ------------------------------------------------------------------
    def select(self, stats: GroupStats) -> float:
        """Coefficient for one group from its streaming statistics."""
        return self.select_from_variance(stats.normalized_variance)

    def select_from_variance(self, normalized_variance) -> float:
        return float(self.select_from_variances(normalized_variance))

    def select_from_variances(self, normalized_variances) -> np.ndarray:
        """Vectorised range lookup: normalized variances → coefficients.

        The public entry point for callers that already hold streaming
        statistics: one ``searchsorted`` against the calibrated
        thresholds, any input shape.
        """
        return self._sorted_a.take(self.variance_ids(normalized_variances))

    def select_batch(self, groups: np.ndarray) -> np.ndarray:
        """Vectorised selection for ``(..., group_size)`` groups."""
        return self._sorted_a.take(self.batch_ids(groups))

    # ------------------------------------------------------------------
    # Id-level selection: what the fused select+quantize entry
    # (:meth:`repro.core.codec.MantCodec.select_qdq`) consumes.  An id
    # indexes ``_sorted_a``; :meth:`grid_map` turns it into a grid id of
    # a stacked codec table without ever materialising coefficients.
    # ------------------------------------------------------------------
    def variance_ids(self, normalized_variances) -> np.ndarray:
        """Range index (into the sorted coefficients) per variance."""
        nv = np.asarray(normalized_variances, dtype=np.float64)
        return self._thresholds.searchsorted(nv)

    def batch_ids(self, groups: np.ndarray, amax: np.ndarray | None = None) -> np.ndarray:
        """Range index per ``(..., group_size)`` group.

        ``amax`` is the per-group absmax with all-zero groups mapped to
        1 (:func:`repro.core.codec._scale_base`), passed by callers that
        already hold it so a quantize computes it once.
        """
        g = np.asarray(groups, dtype=np.float64)
        if amax is None:
            amax = _scale_base(_group_absmax(g))
        return self.variance_ids(_variance_lastaxis(g) / (amax * amax))

    def grid_map(self) -> tuple[tuple, np.ndarray]:
        """``(table_key, grid_ids)``: the stacked-table key this
        selector's coefficients resolve to and, per range index, the
        grid id in that table.

        :meth:`MantCodec._resolve_grids`' rule, applied once per
        selector instead of once per quantize: coefficients inside the
        canonical 16-type set share its table, any other set gets a
        table of its own (ascending).  Resolved lazily — no table is
        built at import — and reset when :meth:`fit` moves the ranges.
        """
        if self._grids is None:
            a = self._sorted_a
            gid = _CANONICAL_ARRAY.searchsorted(a)
            if (_CANONICAL_ARRAY.take(gid, mode="clip") == a).all():
                self._grids = (_CANONICAL_SORTED, gid)
            else:
                uniq = np.unique(a)
                self._grids = (
                    tuple(float(x) for x in uniq), uniq.searchsorted(a)
                )
        return self._grids

    def same_policy(self, other) -> bool:
        """True when both selectors decide identically on every input.

        The decision is fully determined by the sorted coefficient array
        and its variance thresholds, so distinct instances (e.g. one per
        pooled KV cache) compare equal if those match byte for byte —
        which is what lets the caches' pooled KV write share one
        selection call.  It runs per cache per layer, so unfitted
        selectors, which share one pair of range arrays per
        configuration, compare by identity first.  (Comparing raw bytes
        is several times cheaper than ``np.array_equal``.)
        """
        return self is other or (
            isinstance(other, VarianceSelector)
            and (self._sorted_a is other._sorted_a
                 and self._thresholds is other._thresholds
                 or self._sorted_a.tobytes() == other._sorted_a.tobytes()
                 and self._thresholds.tobytes() == other._thresholds.tobytes())
        )
