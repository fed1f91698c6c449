"""Group-wise MANT encoding and decoding (paper Eq. 4 / Fig. 7).

:class:`MantCodec` turns a 2-D weight matrix ``(out_features,
in_features)`` into a :class:`MantEncoded` container holding, per group
of ``group_size`` elements along the input dimension:

* the sign-magnitude codes (what the 4-bit memory words hold),
* the FP16 scaling factor ``s_W = max|W_group| / max(grid_a)``,
* the 8-bit coefficient ``a`` (or the INT sentinel).

Encoding works in the *normalized* domain: each group is divided by its
absmax and snapped against the selected grid's precomputed
decision-boundary LUT (one comparator ladder per grid, shared
process-wide).  That makes nearest-point search a single
``searchsorted`` — and, because coefficient selection (in
:mod:`repro.core.selection`) scores candidates against the same
boundary tables, the winning candidate's codes can be reused verbatim
via :meth:`MantCodec.from_codes` without a final re-quantization pass.

Trade-offs vs the seed implementation (all produce valid nearest-point
codes; reconstruction differs only on boundary-adjacent values):

* With ``fp16_scales=True`` decode multiplies by the fp16-rounded
  scale while codes were chosen under the exact absmax, so the ~0.04%
  of elements whose nearest level differs between the two scales land
  on a marginally suboptimal code (+4e-6 relative MSE measured on
  gaussian weights).  Choosing codes under the rounded scale would
  require a per-candidate normalization domain and break the fused
  search.
* INT groups break ties toward the lower level (the comparator-ladder
  rule, same as the MANT grids) where the seed used ``np.rint``'s
  round-half-to-even; values exactly on a ``.5`` quotient — which INT8
  re-staged data can realistically produce — code to an equal-error
  neighbouring level.
* Values within ~1 ulp of a decision boundary can flip to the adjacent
  level in either direction, because the normalized-domain comparison
  (``v/amax`` vs ``boundary/grid_max``) rounds differently than the
  seed's scaled-domain comparison.

The decode path is cheap and is what the fused kernel in
:mod:`repro.core.fused` folds into the GEMM.

Fake quantization (the real-time KV cache's codec) never materializes
codes: every stacked table also carries the *level value* each
merged-ladder position decodes to in each grid (``pos_value``, the same
float expression :meth:`MantCodec.decode` evaluates), so a qdq is one
tail — ladder positions → one level gather → × the group's fp16 scale —
byte-equal to ``decode(encode(w, a))``, the software image of a decoder
that is a level lookup fused into compute.  Two heads feed that tail:

* :meth:`MantCodec.qdq` takes explicit per-group coefficients and
  resolves them to grid ids per call (the reference entry);
* :meth:`MantCodec.select_qdq` groups once, takes the absmax once and
  lets a :class:`~repro.core.selection.VarianceSelector` pick *grid ids*
  directly (its range index mapped through a grid map resolved once per
  selector), so no coefficient array exists and nothing is grouped or
  reduced twice.  :meth:`MantCodec.qdq_ids` is the same tail for range
  ids from any source (the KV cache's V windows mix streaming-statistics
  ids and data ids in one call).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.groups import GroupView, to_groups, from_groups
from repro.core.mant import MANT_WEIGHT_A_SET, get_mant_grid
from repro.datatypes.base import grid_boundaries
from repro.datatypes.int_type import IntType

__all__ = ["MantCodec", "MantEncoded", "GridTables", "grid_tables", "INT_A"]

# Sentinel stored in the per-group ``a`` array for groups that chose the
# plain INT option (the 16th data type of Sec. V-A).  Encoded in
# hardware as a reserved value of the 8-bit ``a`` field.
INT_A = -1


@dataclass(frozen=True)
class GridTables:
    """Immutable lookup tables for one grid: the LUT codec's ROM image.

    ``grid_norm`` is the grid scaled to max magnitude 1 and
    ``boundaries_norm`` its decision midpoints, so encoding a group is
    ``searchsorted(boundaries_norm, values / absmax)``.  ``sign`` /
    ``magnitude`` map a grid index straight to the stored sign-magnitude
    code.
    """

    a: float
    bits: int
    grid: np.ndarray            # representable values, ascending
    grid_norm: np.ndarray       # grid / grid_max
    boundaries_norm: np.ndarray  # decision midpoints of grid_norm
    sign: np.ndarray            # int8 ±1 per grid index
    magnitude: np.ndarray       # uint8 magnitude per grid index
    grid_max: float


@lru_cache(maxsize=None)
def grid_tables(a: float, bits: int) -> GridTables:
    """Process-wide memoised :class:`GridTables` for coefficient ``a``.

    ``a == INT_A`` yields the plain symmetric INT grid; anything else a
    MANT grid from :func:`repro.core.mant.get_mant_grid`.
    """
    if a == INT_A:
        itype = IntType(bits)
        grid = itype.grid
        gmax = float(itype.qmax)
        sign = np.where(grid < 0, -1, 1).astype(np.int8)
        magnitude = np.abs(grid).astype(np.uint8)
    else:
        g = get_mant_grid(float(a), bits)
        grid = g.grid
        gmax = g.grid_max
        L = g.levels_per_sign
        idx = np.arange(grid.size)
        sign = np.where(idx >= L, 1, -1).astype(np.int8)
        magnitude = np.where(idx >= L, idx - L, L - 1 - idx).astype(np.uint8)
    grid_norm = grid / gmax
    return GridTables(
        a=float(a),
        bits=bits,
        grid=grid,
        grid_norm=grid_norm,
        boundaries_norm=grid_boundaries(grid_norm),
        sign=sign,
        magnitude=magnitude,
        grid_max=gmax,
    )


@dataclass(frozen=True)
class _StackedTables:
    """Merged lookup tables for a set of grids.

    ``merged_boundaries`` is the sorted union of every grid's normalized
    decision boundaries.  A value's insertion position ``p`` in that
    ladder (one ``searchsorted`` for the whole tensor, regardless of how
    many grids are mixed) determines its code in *every* grid at once:
    ``code_table[u, p]`` is the grid index, ``pos_sign``/``pos_magnitude``
    the sign-magnitude code and ``pos_value`` the decoded (unscaled)
    level, for grid ``u``.  ``grid_sign`` /
    ``grid_magnitude`` map per-grid *indices* (rather than merged
    positions) to codes, padded to a common width, for rebuilding an
    encoding from stored indices.
    """

    ladder: "_MergedLadder"
    code_table: np.ndarray         # (n_grids, B+1) intp
    pos_sign: np.ndarray           # (n_grids, B+1) int8
    pos_magnitude: np.ndarray      # (n_grids, B+1) uint8
    pos_value: np.ndarray          # (n_grids, B+1) float64
    grid_sign: np.ndarray          # (n_grids, max_levels) int8
    grid_magnitude: np.ndarray     # (n_grids, max_levels) uint8
    grid_max: np.ndarray           # (n_grids,) float64
    max_levels: int

    @property
    def n_grids(self) -> int:
        return self.grid_max.size


# The paper's 16-type search space: 15 coefficients + INT (the same set
# for every supported bit width), ascending — the codec's canonical
# stacked table is built in this order, so a coefficient's grid id is
# its ``searchsorted`` rank.
_CANONICAL_SORTED = tuple(sorted(float(a) for a in (*MANT_WEIGHT_A_SET, INT_A)))
_CANONICAL_ARRAY = np.asarray(_CANONICAL_SORTED)


def _level_values(a, sign: np.ndarray, magnitude: np.ndarray) -> np.ndarray:
    """Unscaled values of sign-magnitude codes under coefficient ``a``:
    ``±(a·i + 2^i)`` for MANT, ``±i`` for INT.  The one place the
    decode expression lives, shared by :meth:`MantCodec.decode` and the
    ``pos_value`` tables, which is what keeps ``qdq`` byte-equal to
    ``decode(encode())``."""
    mag = magnitude.astype(np.float64)
    sgn = sign.astype(np.float64)
    mant_vals = sgn * (a * mag + 2.0**mag)
    int_vals = sgn * mag
    return np.where(a == INT_A, int_vals, mant_vals)


# The stacked tables and ladders below are keyed by coefficient tuples.
# Encode calls carry data-dependent *subsets* of the searched set
# (whatever the groups of one tensor selected), so subset keys could
# churn without bound over a long generation; any subset of the
# canonical 16-type set is therefore served by one shared canonical
# table (counting positions in a finer merged ladder yields
# bit-identical codes), and the fallback caches for exotic coefficient
# sets are LRU-bounded.
_TABLE_CACHE_SIZE = 64


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _stacked_tables(a_tuple: tuple, bits: int) -> _StackedTables:
    tables = [grid_tables(a, bits) for a in a_tuple]
    ladder = _merged_ladder(a_tuple, bits)
    merged = ladder.boundaries
    n, B = len(tables), merged.size
    lmax = max(t.grid.size for t in tables)
    code_table = np.zeros((n, B + 1), dtype=np.intp)
    pos_sign = np.empty((n, B + 1), dtype=np.int8)
    pos_magnitude = np.empty((n, B + 1), dtype=np.uint8)
    pos_value = np.empty((n, B + 1))
    grid_sign = np.empty((n, lmax), dtype=np.int8)
    grid_magnitude = np.empty((n, lmax), dtype=np.uint8)
    gmax = np.empty(n)
    for u, t in enumerate(tables):
        k = t.grid.size
        # A value at merged position p satisfies merged[p-1] < v, so its
        # code in grid u counts the u-boundaries <= merged[p-1].
        code_table[u, 1:] = np.searchsorted(t.boundaries_norm, merged, side="right")
        pos_sign[u] = t.sign[code_table[u]]
        pos_magnitude[u] = t.magnitude[code_table[u]]
        pos_value[u] = _level_values(t.a, pos_sign[u], pos_magnitude[u])
        # Index-level LUTs padded by repeating the top level.
        grid_sign[u, :k] = t.sign
        grid_sign[u, k:] = t.sign[-1]
        grid_magnitude[u, :k] = t.magnitude
        grid_magnitude[u, k:] = t.magnitude[-1]
        gmax[u] = t.grid_max
    return _StackedTables(
        ladder=ladder,
        code_table=code_table,
        pos_sign=pos_sign,
        pos_magnitude=pos_magnitude,
        pos_value=pos_value,
        grid_sign=grid_sign,
        grid_magnitude=grid_magnitude,
        grid_max=gmax,
        max_levels=lmax,
    )


@dataclass(frozen=True)
class _MergedLadder:
    """Merged decision boundaries of several grids + a bucket LUT.

    ``positions`` computes, for normalized values in ``[-1, 1]``, the
    count of merged boundaries strictly below each value — the quantity
    every per-grid code derives from.  Instead of a binary search per
    element, the range is pre-split into ``n_buckets`` uniform buckets,
    each widened by a one-bucket margin on either side to absorb float
    rounding in the bucket index.  A bucket whose widened interval holds
    at most one boundary resolves exactly as ``bucket_pos`` (the
    boundaries below the interval) plus one comparison against
    ``bucket_edge`` (that boundary, or +inf); only values in buckets
    holding several (``bucket_pos`` -1, none at all for the canonical
    4-bit ladder) fall back to an exact ``searchsorted``.  Bit-identical
    to the plain binary search.
    """

    boundaries: np.ndarray   # (B,) merged normalized boundaries
    bucket_pos: np.ndarray   # (n_buckets + 1,) boundaries below, or -1 if ambiguous
    bucket_edge: np.ndarray  # (n_buckets + 1,) the one boundary inside, else +inf
    n_buckets: int
    exact: bool              # no ambiguous bucket

    def positions(self, values: np.ndarray) -> np.ndarray:
        """Merged-ladder position (#boundaries < v) per value, exact.

        ``v == 1`` lands one past the last bucket; the tables repeat
        that bucket there instead of clamping every index.
        """
        flat = values.ravel()
        idx = flat + 1.0
        idx *= self.n_buckets / 2.0
        idx = idx.astype(np.intp)
        pos = self.bucket_pos.take(idx)
        pos += flat > self.bucket_edge.take(idx)
        if not self.exact:
            # Ambiguous buckets hold -1 and a +inf edge, so stay -1.
            ambiguous = pos < 0
            if ambiguous.any():
                pos[ambiguous] = np.searchsorted(
                    self.boundaries, flat[ambiguous], side="left"
                )
        return pos.reshape(values.shape)


# Fine enough that every widened bucket of the canonical 4-bit ladder
# (smallest boundary gap 4.1e-4 > three bucket widths) holds at most one
# boundary.
_LADDER_BUCKETS = 16384


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _merged_ladder(a_tuple: tuple, bits: int) -> _MergedLadder:
    merged = np.unique(
        np.concatenate([grid_tables(a, bits).boundaries_norm for a in a_tuple])
    )
    k = _LADDER_BUCKETS
    width = 2.0 / k
    edges = -1.0 + np.arange(k + 1) * width
    # The boundaries inside a bucket's margin-extended interval are
    # merged[lo:hi]; the margin absorbs 1-ulp bucket misassignment at the
    # edges, so counting below the interval plus comparing against the
    # ones inside it is exact.
    lo = np.searchsorted(merged, edges[:-1] - width, side="left")
    hi = np.searchsorted(merged, edges[1:] + width, side="right")
    inside = hi - lo
    edge = np.full(k, np.inf)
    one = inside == 1
    edge[one] = merged[lo[one]]
    pos = np.where(inside <= 1, lo, -1)
    return _MergedLadder(
        boundaries=merged,
        bucket_pos=np.append(pos, pos[-1]),
        bucket_edge=np.append(edge, edge[-1]),
        n_buckets=k,
        exact=bool((inside <= 1).all()),
    )


# The smallest float64 that rounds to inf in fp16 (65504 is the largest
# finite value; the tie at 65520 rounds to the even neighbour, 2^16).
_FP16_OVERFLOW = 65520.0


def _group_absmax(groups: np.ndarray) -> np.ndarray:
    """Per-group absmax (0 for an all-zero group)."""
    return np.abs(groups).max(axis=-1)


def _scale_base(amax: np.ndarray) -> np.ndarray:
    """The normalization divisor: ``amax`` with all-zero groups mapped
    to 1, returned as ``amax`` itself when no group is all zero.

    A MANT grid has no zero level (its smallest magnitude is
    ``a·0 + 2^0``), so an all-zero group would snap to the smallest
    negative level; callers seeing a new array (``base is not amax``)
    give those groups a zero scale and read them back as +0.
    """
    if np.count_nonzero(amax) == amax.size:     # the cheap common case
        return amax
    return np.where(amax == 0, 1.0, amax)


@dataclass(frozen=True)
class MantEncoded:
    """Encoded weight tensor: codes + per-group metadata.

    ``sign``/``magnitude`` have the grouped shape ``(rows, n_groups,
    group_size)``; ``scale``/``a_coeff`` have ``(rows, n_groups)``.

    Immutable — fields cannot be rebound and the arrays are
    defensively copied and frozen on construction (caller-owned inputs
    stay writable; view-backed inputs cannot leak mutations through
    their base), so derived data (the fused kernel's precombined
    weight terms) can be cached against the encoding without
    staleness.  To alter codes, build a new encoding (e.g. via
    :meth:`MantCodec.from_codes`).
    """

    sign: np.ndarray          # int8, ±1
    magnitude: np.ndarray     # uint8, 0 .. 2^(bits-1)-1
    scale: np.ndarray         # float (fp16-rounded), per group
    a_coeff: np.ndarray       # float, per group; INT_A marks INT groups
    bits: int
    group_size: int
    original_shape: tuple
    pad: int

    def __post_init__(self):
        for name in ("sign", "magnitude", "scale", "a_coeff"):
            arr = getattr(self, name)
            if arr.base is not None or arr.flags.writeable:
                # Copy rather than freeze in place: freezing the
                # caller's array would be action at a distance, and a
                # view's data stays writable through its base anyway.
                arr = arr.copy()
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)

    @property
    def rows(self) -> int:
        return self.sign.shape[0]

    @property
    def n_groups(self) -> int:
        return self.sign.shape[1]

    def metadata_bits_per_element(self) -> float:
        """Storage overhead of (scale, a) amortised over the group."""
        return (16 + 8) / self.group_size

    def bits_per_element(self) -> float:
        return self.bits + self.metadata_bits_per_element()


class MantCodec:
    """Encoder/decoder for group-wise MANT weights.

    Parameters
    ----------
    bits:
        Code width (4 in the paper; 2 and 3 also supported).
    group_size:
        Elements per group along the input (accumulation) dimension.
    fp16_scales:
        Round scales to IEEE fp16, matching the paper's 16-bit scaling
        factors.  Disable for exact-arithmetic unit tests.
    """

    def __init__(self, bits: int = 4, group_size: int = 64, fp16_scales: bool = True):
        if bits not in (2, 3, 4):
            raise ValueError(f"MANT codes must be 2-4 bits, got {bits}")
        self.bits = bits
        self.group_size = group_size
        self.fp16_scales = fp16_scales

    # ------------------------------------------------------------------
    def grid(self, a: float):
        """Process-wide memoised :class:`MantGrid` for coefficient ``a``."""
        return get_mant_grid(float(a), self.bits)

    def tables(self, a: float) -> GridTables:
        """Process-wide memoised lookup tables for coefficient ``a``."""
        return grid_tables(float(a), self.bits)

    def _round_scale(self, scale: np.ndarray) -> np.ndarray:
        """Round scales to fp16 when the codec stores them so.

        A scale that would overflow fp16 (a group absmax above about
        65504·grid_max) or is not a number raises ``ValueError``, as the
        INT quantizers and KV staging do, instead of reading back as
        inf; the check reads the per-group scales, not the elements, so
        callers round the scale before they locate the values.
        """
        if self.fp16_scales:
            if not scale.max(initial=0.0) < _FP16_OVERFLOW:
                raise ValueError(
                    "cannot quantize: a MANT scale overflows fp16 (group "
                    "absmax above 65504 x grid_max, or non-finite input)")
            return scale.astype(np.float16).astype(np.float64)
        return scale

    # ------------------------------------------------------------------
    def _resolve_grids(self, a_per_group: np.ndarray):
        """Map per-group coefficients to stacked-table grid ids.

        Coefficients inside the canonical 16-type search space (the
        serving path's only case) resolve by one ``searchsorted`` against
        the ascending canonical set and share its one cached table —
        code counts are identical under the finer merged ladder.  Only
        exotic sets pay a ``np.unique`` and build their own table,
        LRU-bounded.
        """
        a0 = a_per_group.flat[0] if a_per_group.size else 0.0
        if (a_per_group == a0).all():
            # One coefficient (a uniform encode): its one-grid table keeps
            # the coarser ladder and the single-row gather.
            gid = np.zeros(a_per_group.shape, dtype=np.intp)
            return _stacked_tables((float(a0),), self.bits), gid
        gid = np.searchsorted(_CANONICAL_ARRAY, a_per_group)
        if (_CANONICAL_ARRAY.take(gid, mode="clip") == a_per_group).all():
            return _stacked_tables(_CANONICAL_SORTED, self.bits), gid
        uniq, inv = np.unique(a_per_group.ravel(), return_inverse=True)
        st = _stacked_tables(tuple(float(a) for a in uniq), self.bits)
        return st, inv.reshape(a_per_group.shape).astype(np.intp)

    @staticmethod
    def _flat_gather(table_rows: np.ndarray, row_sel, col_idx: np.ndarray):
        """``table_rows[row_sel[..., None], col_idx]`` via one flat take.

        Flattening the 2-D gather into ``row·width + col`` indices lets
        numpy run a single contiguous ``take`` instead of a broadcast
        advanced-indexing pass — the hot gather of the encode path.
        """
        if table_rows.shape[0] == 1:
            return table_rows[0].take(col_idx)
        lin = col_idx + (row_sel * table_rows.shape[1])[..., None]
        return table_rows.ravel().take(lin)

    # ------------------------------------------------------------------
    def _locate(self, w: np.ndarray, a_per_group: np.ndarray):
        """The explicit-``a`` head of :meth:`encode` / :meth:`qdq`: group
        ``w``, resolve the grids and compute the group absmax."""
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"MantCodec expects 2-D weights, got {w.shape}")
        view = to_groups(w, self.group_size, axis=-1)
        a_per_group = np.asarray(a_per_group, dtype=np.float64)
        if a_per_group.shape != view.groups.shape[:2]:
            raise ValueError(
                f"a_per_group shape {a_per_group.shape} != {view.groups.shape[:2]}"
            )
        st, gid = self._resolve_grids(a_per_group)
        return view, a_per_group, st, gid, _group_absmax(view.groups)

    def encode(self, w: np.ndarray, a_per_group: np.ndarray) -> MantEncoded:
        """Encode ``w`` with the given per-group coefficients.

        ``a_per_group`` has shape ``(rows, n_groups)`` and may contain
        :data:`INT_A` entries for groups quantized with plain INT.
        Coefficient selection itself lives in
        :mod:`repro.core.selection`; this method only applies it.
        """
        view, a_per_group, st, gid, amax = self._locate(w, a_per_group)
        base = _scale_base(amax)
        # An all-zero group stores scale 0 (and + signs: decodes to +0).
        scale = self._round_scale(amax / st.grid_max[gid])
        # One bucketized lookup against the merged boundary ladder
        # locates every value in every selected grid simultaneously; the
        # per-group grid choice is then a LUT gather by ``(gid, pos)``.
        pos = st.ladder.positions(view.groups / base[..., None])
        sign = self._flat_gather(st.pos_sign, gid, pos)
        magnitude = self._flat_gather(st.pos_magnitude, gid, pos)
        if base is not amax:
            sign[amax == 0] = 1
        # Freshly allocated here — freeze now so MantEncoded skips its
        # defensive copy (reserved for caller-supplied arrays).
        for arr in (sign, magnitude, scale):
            arr.flags.writeable = False

        return MantEncoded(
            sign=sign,
            magnitude=magnitude,
            scale=scale,
            a_coeff=a_per_group,  # __post_init__ copies and freezes
            bits=self.bits,
            group_size=self.group_size,
            original_shape=view.original_shape,
            pad=view.pad,
        )

    # ------------------------------------------------------------------
    def from_codes(
        self,
        codes: np.ndarray,
        a_per_group: np.ndarray,
        amax: np.ndarray,
        original_shape: tuple,
        pad: int = 0,
    ) -> MantEncoded:
        """Build a :class:`MantEncoded` from precomputed grid indices.

        ``codes`` holds per-element indices into each group's grid
        (shape ``(rows, n_groups, group_size)``), ``amax`` the per-group
        absmax — exactly what the fused select+encode search in
        :meth:`repro.core.selection.MseSearchSelector.select_and_encode`
        produces.  No nearest-point search happens here; the codes are
        only gathered through the sign/magnitude LUTs, so the result is
        bit-identical to :meth:`encode` with the same coefficients.
        """
        a_per_group = np.asarray(a_per_group, dtype=np.float64)
        st, gid = self._resolve_grids(a_per_group)
        sign = self._flat_gather(st.grid_sign, gid, codes)
        magnitude = self._flat_gather(st.grid_magnitude, gid, codes)
        scale = self._round_scale(amax / st.grid_max[gid])
        if np.count_nonzero(amax) < amax.size:
            sign[amax == 0] = 1        # all-zero group: scale 0, decodes to +0
        # Freshly allocated here — freeze now so MantEncoded skips its
        # defensive copy (reserved for caller-supplied arrays).
        for arr in (sign, magnitude, scale):
            arr.flags.writeable = False
        return MantEncoded(
            sign=sign,
            magnitude=magnitude,
            scale=scale,
            a_coeff=a_per_group,  # __post_init__ copies and freezes
            bits=self.bits,
            group_size=self.group_size,
            original_shape=tuple(original_shape),
            pad=pad,
        )

    # ------------------------------------------------------------------
    def decode(self, enc: MantEncoded) -> np.ndarray:
        """Dequantize back to float, undoing grouping and padding."""
        vals = _level_values(enc.a_coeff[..., None], enc.sign, enc.magnitude)
        vals = vals * enc.scale[..., None]
        # Rebuild the group view metadata directly — encode only accepts
        # 2-D weights grouped along the last axis, so no throwaway
        # allocation is needed to recover shape/pad.
        view = GroupView(
            groups=vals,
            original_shape=tuple(enc.original_shape),
            axis=len(enc.original_shape) - 1,
            pad=enc.pad,
        )
        return from_groups(view)

    # ------------------------------------------------------------------
    # Fake quantization: one head per way of choosing the grids, one tail
    # ------------------------------------------------------------------
    def _qdq_tail(self, groups, amax, base, st: _StackedTables, gid) -> np.ndarray:
        """Ladder positions → one ``pos_value`` gather → × fp16 scale.

        ``groups`` is ``(..., g)``, ``amax`` its :func:`_group_absmax`,
        ``base`` that absmax's :func:`_scale_base` and ``gid`` the
        per-group grid id into ``st``.  Byte-equal to
        ``decode(encode())`` under the same grids: the positions select
        ``pos_value`` — the level ``decode`` would compute from the
        gathered sign-magnitude code — and the same fp16 scale
        multiplies it, but no codes or :class:`MantEncoded` are built.
        An all-zero group reads back as +0.
        """
        scale = self._round_scale(base / st.grid_max[gid])
        lin = st.ladder.positions(groups / base[..., None])
        if st.n_grids > 1:
            lin += (gid * st.pos_value.shape[1])[..., None]
        vals = st.pos_value.take(lin)
        vals *= scale[..., None]
        if base is not amax:
            vals[amax == 0] = 0.0
        return vals

    def qdq(self, w: np.ndarray, a_per_group: np.ndarray) -> np.ndarray:
        """Encode-then-decode (fake quantization) with explicit
        coefficients, as one level gather; byte-equal to
        ``decode(encode(w, a_per_group))``."""
        view, _, st, gid, amax = self._locate(w, a_per_group)
        return from_groups(
            view, self._qdq_tail(view.groups, amax, _scale_base(amax), st, gid))

    def select_qdq(self, x: np.ndarray, selector) -> np.ndarray:
        """Variance-select then fake-quantize, grouping once.

        Groups the last axis of ``x`` (any leading shape), computes the
        group absmax once, takes ``selector``'s range ids
        (:meth:`repro.core.selection.VarianceSelector.batch_ids`) and runs
        the :meth:`qdq` tail.  Byte-equal to
        ``qdq(x, selector.select_batch(groups))`` for 2-D ``x``, without
        materialising coefficients or resolving them per call.
        """
        view = to_groups(np.asarray(x, dtype=np.float64), self.group_size, axis=-1)
        amax = _group_absmax(view.groups)
        base = _scale_base(amax)
        ids = selector.batch_ids(view.groups, base)
        return from_groups(view, self.qdq_ids(view.groups, amax, selector, ids, base))

    def qdq_ids(self, groups, amax, selector, ids, base=None) -> np.ndarray:
        """The :meth:`qdq` tail for groups whose grids are ``selector``
        range ids (any source: the groups' own variance, or streaming
        accumulators); ``amax`` is the groups' :func:`_group_absmax`,
        ``base`` its :func:`_scale_base` when the caller holds it."""
        key, grid_ids = selector.grid_map()
        return self._qdq_tail(
            groups, amax, _scale_base(amax) if base is None else base,
            _stacked_tables(key, self.bits), grid_ids.take(ids),
        )
