"""Real-time KV-cache quantization (paper Sec. V-C, Fig. 8).

The K and V caches are quantized along their *inner* (matrix-product)
dimensions so scaling factors can be pulled out of the accumulation:

* **K cache — spatial.**  QKᵀ contracts over ``d_head``, and a decode
  step produces a complete K vector per head, so each new vector is
  quantized to 4-bit MANT immediately, groups along ``d_head``.
* **V cache — temporal.**  softmax(·)·V contracts over the sequence, so
  a V group spans ``window`` *decode iterations* of one channel.  The
  two-phase scheme stages incoming vectors in INT8 (channel scales fixed
  at prefill), accumulates Σv, Σv² and max per channel streaming, and
  re-quantizes the staged window to 4-bit MANT once full — picking ``a``
  from the accumulated variance (Eq. 7).

All caches here are *fake-quantized*: they store dequantized float
values of exactly the precision the hardware would see, which is what
accuracy experiments need.  The cycle-level behaviour of the same scheme
is modelled in :mod:`repro.hardware.rqu`.

Storage is a preallocated ``(heads, capacity, d_head)`` buffer per
tensor with amortized doubling (Anda-style grouped layout): appends are
O(1) amortized and ``keys()``/``values()`` return zero-copy views, so a
T-token generation costs O(T) cache work instead of the O(T²) a
concatenate-per-read layout pays.  Returned views are *read-only*,
alias the cache's storage and are only valid until the next ``append``
— consume them (or copy) before mutating the cache, which is exactly
how the attention loop uses them.

For multi-tenant serving, the ``bind_buffer_factory`` seam routes that
storage through the paged block pool (:mod:`repro.serve.paging`): a
:class:`TokenBuffer`-compatible facade over fixed-size ref-counted
pages, with hash-based prompt-prefix sharing and copy-on-write.  Every
cache class here runs unchanged over either a private
:class:`TokenBuffer` or pages — the quantization math never sees the
layout, which is what makes paged caches bit-identical to flat ones.
"""

from __future__ import annotations

import numpy as np

from repro.core.codec import MantCodec, INT_A
from repro.core.groups import to_groups, from_groups
from repro.core.selection import VarianceSelector
from repro.datatypes.int_type import IntType
from repro.quant.config import KVCacheConfig, QuantConfig

__all__ = [
    "KVCache",
    "TokenBuffer",
    "FP16KVCache",
    "IntKVCache",
    "MantKVCache",
    "make_kv_cache",
]

_EMPTY = np.empty((0, 0, 0))


def _promote_token_block(block: np.ndarray, heads: int, d_head: int) -> np.ndarray:
    """Normalize an append block to ``(heads, t, d_head)``, validating shape.

    The single place the token-storage geometry contract lives, shared
    by :class:`TokenBuffer` and the paged token buffers so the
    standalone and pooled paths cannot drift apart.
    """
    if block.ndim == 2:
        block = block[:, None, :]
    if block.shape[0] != heads or block.shape[-1] != d_head:
        raise ValueError(
            f"token block (n_heads, d_head)=({block.shape[0]}, "
            f"{block.shape[-1]}) does not match this buffer's "
            f"({heads}, {d_head})"
        )
    return block


class TokenBuffer:
    """Preallocated ``(heads, capacity, d_head)`` token storage.

    Capacity doubles when exhausted (amortized O(1) appends) and
    :meth:`view` / :meth:`tail` return zero-copy slices of the live
    region, which is what makes per-decode-step cache reads O(1).
    """

    __slots__ = ("_buf", "_len")

    def __init__(self, heads: int, d_head: int, capacity: int = 16):
        self._buf = np.empty((heads, max(1, capacity), d_head))
        self._len = 0

    def __len__(self) -> int:
        return self._len

    @property
    def heads(self) -> int:
        return self._buf.shape[0]

    @property
    def d_head(self) -> int:
        return self._buf.shape[2]

    def _reserve(self, extra: int) -> None:
        need = self._len + extra
        cap = self._buf.shape[1]
        if need <= cap:
            return
        heads, _, d_head = self._buf.shape
        grown = np.empty((heads, max(need, 2 * cap), d_head))
        grown[:, : self._len] = self._buf[:, : self._len]
        self._buf = grown

    def append(self, block: np.ndarray) -> None:
        """Append ``(heads, d_head)`` or ``(heads, t, d_head)`` tokens."""
        block = _promote_token_block(block, self.heads, self.d_head)
        t = block.shape[1]
        self._reserve(t)
        self._buf[:, self._len : self._len + t] = block
        self._len += t

    def view(self) -> np.ndarray:
        """Zero-copy ``(heads, len, d_head)`` view of all live tokens.

        Read-only: the seed returned freshly concatenated arrays, so
        callers mutating the result in place were harmless; a writable
        view here would let them silently corrupt the cache history.
        """
        v = self._buf[:, : self._len]
        v.flags.writeable = False
        return v

    def tail(self, n: int) -> np.ndarray:
        """Zero-copy writable view of the last ``n`` tokens."""
        if n > self._len:
            raise ValueError(f"tail({n}) exceeds buffer length {self._len}")
        return self._buf[:, self._len - n : self._len]


class KVCache:
    """Interface the attention layer drives.

    Shapes: ``prefill`` takes ``(n_heads, seq, d_head)``; ``append``
    takes one token's ``(n_heads, d_head)``.  ``keys()``/``values()``
    return the effective (quantization-degraded) cache contents as
    zero-copy views valid until the next mutation.
    """

    def prefill(self, k: np.ndarray, v: np.ndarray) -> None:
        raise NotImplementedError

    def prefill_chunk(self, k: np.ndarray, v: np.ndarray, final: bool = False) -> None:
        """Extend a prompt prefill by one ``(n_heads, t, d_head)`` chunk.

        Feeding a prompt through successive ``prefill_chunk`` calls
        (``final=True`` on the last) must leave the cache *bit-identical*
        to one :meth:`prefill` of the concatenation — the invariant the
        chunked-prefill serving pipeline rests on.  Non-final chunks of
        caches with temporal quantization state (the MANT V window) must
        be a multiple of that window so no group straddles a chunk
        boundary (serving gets this from chunks that fill whole pages,
        see :func:`repro.serve.paging.validate_block_compat`); the final
        chunk may be ragged, its remainder entering staging exactly as
        in :meth:`prefill`.
        """
        raise NotImplementedError

    def append(self, k_t: np.ndarray, v_t: np.ndarray) -> None:
        raise NotImplementedError

    @classmethod
    def append_batch(cls, caches: list, k_batch: np.ndarray, v_batch: np.ndarray) -> None:
        """Append one token to each of ``caches`` (``k/v_batch`` are
        ``(B, n_heads, d_head)``, row ``b`` for cache ``b``).

        The default is the per-cache loop; quantized subclasses fuse the
        group-wise quantization math across the batch — bit-identical
        (groups are row-independent) but one vectorized call instead of
        ``B``, which is what makes batched decode throughput scale for
        quantized caches.
        """
        for cache, k_t, v_t in zip(caches, k_batch, v_batch):
            cache.append(k_t, v_t)

    def keys(self) -> np.ndarray:
        raise NotImplementedError

    def values(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def seq_len(self) -> int:
        raise NotImplementedError


class _BufferedKVCache(KVCache):
    """Shared buffer plumbing: subclasses only define the quantizers."""

    def __init__(self):
        self._k: TokenBuffer | None = None
        self._v: TokenBuffer | None = None
        self._buffer_factory = None

    def bind_buffer_factory(self, factory) -> None:
        """Route buffer allocation through a pool (see
        :class:`repro.serve.paging.BlockPool`).

        ``factory(role, heads, d_head, capacity)`` must return a
        :class:`TokenBuffer`-compatible object for ``role`` in
        ``("k", "v")``.  Must be bound before the cache holds data.
        """
        if self._k is not None:
            raise RuntimeError("cannot rebind buffers on a cache already holding data")
        self._buffer_factory = factory

    def _reset_buffers(self, heads: int, d_head: int, capacity: int) -> None:
        if self._buffer_factory is None:
            self._k = TokenBuffer(heads, d_head, capacity)
            self._v = TokenBuffer(heads, d_head, capacity)
        else:
            self._k = self._buffer_factory("k", heads, d_head, capacity)
            self._v = self._buffer_factory("v", heads, d_head, capacity)

    def _validate_token(self, name: str, arr: np.ndarray) -> None:
        """Reject appends whose head geometry drifts from the cache's.

        Without this, a ``(n_heads, d_head)`` mismatch against the
        first append surfaces later as a cryptic broadcast error deep
        inside the buffer or the staging quantizer.
        """
        if arr.ndim != 2:
            raise ValueError(
                f"{name} must be one token shaped (n_heads, d_head), "
                f"got {arr.ndim}-D shape {arr.shape}"
            )
        if self._k is not None and arr.shape != (self._k.heads, self._k.d_head):
            raise ValueError(
                f"{name} shape {arr.shape} does not match this cache's "
                f"established (n_heads, d_head)=({self._k.heads}, {self._k.d_head})"
            )

    def keys(self) -> np.ndarray:
        return self._k.view() if self._k is not None else _EMPTY

    def values(self) -> np.ndarray:
        return self._v.view() if self._v is not None else _EMPTY

    @property
    def seq_len(self) -> int:
        return len(self._k) if self._k is not None else 0


class FP16KVCache(_BufferedKVCache):
    """No quantization — the baselines' 16-bit attention path."""

    def prefill(self, k, v):
        k = np.asarray(k, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        heads, seq, d_head = k.shape
        self._reset_buffers(heads, d_head, seq)
        self._k.append(k)
        self._v.append(v)

    def prefill_chunk(self, k, v, final=False):
        # Unquantized storage is trivially chunk-invariant: the first
        # chunk is a plain prefill, later chunks extend.
        if self._k is None:
            self.prefill(k, v)
            return
        self._k.append(np.asarray(k, dtype=np.float64))
        self._v.append(np.asarray(v, dtype=np.float64))

    def append(self, k_t, v_t):
        k_t = np.asarray(k_t, dtype=np.float64)
        v_t = np.asarray(v_t, dtype=np.float64)
        self._validate_token("k_t", k_t)
        self._validate_token("v_t", v_t)
        if self._k is None:
            self._reset_buffers(*k_t.shape, capacity=16)
        self._k.append(k_t)
        self._v.append(v_t)


def _int_qdq_lastaxis(x: np.ndarray, bits: int, group_size: int) -> np.ndarray:
    """Group-wise symmetric INT fake-quant along the last axis."""
    itype = IntType(bits)
    view = to_groups(x, group_size, axis=-1)
    amax = np.max(np.abs(view.groups), axis=-1, keepdims=True)
    amax = np.where(amax <= 0, itype.qmax, amax)
    scale = (amax / itype.qmax).astype(np.float16).astype(np.float64)
    q = itype.round_clip(view.groups / scale)
    return from_groups(view, q * scale)


class IntKVCache(_BufferedKVCache):
    """Baseline INT-quantized cache: per-token groups along ``d_head``.

    The straightforward real-time scheme an INT accelerator would use —
    no temporal windows, no type adaptation.  Used for Tbl. III's
    "INT4" row.
    """

    def __init__(self, bits: int = 4, group_size: int = 64):
        super().__init__()
        self.bits = bits
        self.group_size = group_size

    def _q(self, x: np.ndarray) -> np.ndarray:
        g = min(self.group_size, x.shape[-1])
        return _int_qdq_lastaxis(x, self.bits, g)

    def prefill(self, k, v):
        k = np.asarray(k, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        heads, seq, d_head = k.shape
        self._reset_buffers(heads, d_head, seq)
        self._k.append(self._q(k))
        self._v.append(self._q(v))

    def prefill_chunk(self, k, v, final=False):
        # Group-wise INT quantization is per token (groups along
        # d_head), so chunk composition cannot change any group: the
        # first chunk is a plain prefill, later chunks extend.
        if self._k is None:
            self.prefill(k, v)
            return
        self._k.append(self._q(np.asarray(k, dtype=np.float64)))
        self._v.append(self._q(np.asarray(v, dtype=np.float64)))

    def append(self, k_t, v_t):
        k_t = np.asarray(k_t, dtype=np.float64)
        v_t = np.asarray(v_t, dtype=np.float64)
        self._validate_token("k_t", k_t)
        self._validate_token("v_t", v_t)
        if self._k is None:
            self._reset_buffers(*k_t.shape, capacity=16)
        self._k.append(self._q(k_t))
        self._v.append(self._q(v_t))

    @classmethod
    def append_batch(cls, caches, k_batch, v_batch):
        """Fused batch append: one group-wise INT quantization for all rows."""
        k_batch = np.asarray(k_batch, dtype=np.float64)
        v_batch = np.asarray(v_batch, dtype=np.float64)
        first = caches[0]
        if not all(
            type(c) is cls and c.bits == first.bits
            and c.group_size == first.group_size for c in caches
        ):
            super().append_batch(caches, k_batch, v_batch)
            return
        for c, k_t, v_t in zip(caches, k_batch, v_batch):
            c._validate_token("k_t", k_t)
            c._validate_token("v_t", v_t)
        kq = first._q(k_batch)          # (B, heads, d_head), rows independent
        vq = first._q(v_batch)
        for b, c in enumerate(caches):
            if c._k is None:
                c._reset_buffers(*k_batch[b].shape, capacity=16)
            c._k.append(kq[b])
            c._v.append(vq[b])


class MantKVCache(_BufferedKVCache):
    """MANT real-time KV cache: spatial K + two-phase temporal V.

    K rows and V windows live in :class:`TokenBuffer` storage.  The V
    buffer holds the finalized 4-bit MANT prefix in ``[0, _v_final)``
    and the INT8-staged suffix behind it; closing a window re-quantizes
    the staged region *in place*, so ``values()`` is always one
    zero-copy view regardless of staging state.

    Parameters
    ----------
    selector:
        Fitted :class:`VarianceSelector` (falls back to its theoretical
        ranges when unfitted).
    bits, group_size:
        MANT code width and group length (4 / 64 in the paper).
    window:
        V-cache process window; the paper sets it to the group size.
    """

    def __init__(
        self,
        selector: VarianceSelector | None = None,
        bits: int = 4,
        group_size: int = 64,
        window: int | None = None,
        staging_bits: int = 8,
    ):
        super().__init__()
        self.bits = bits
        self.group_size = group_size
        self.window = window or group_size
        self.staging_bits = staging_bits
        self.selector = selector or VarianceSelector(bits=bits, group_size=group_size)
        self._codec = MantCodec(bits=bits, group_size=group_size)
        self._v_final = 0  # tokens of the V buffer already at 4-bit MANT
        # Streaming accumulators over the current window, per channel.
        self._acc_sum: np.ndarray | None = None      # (heads, d_head)
        self._acc_sqsum: np.ndarray | None = None
        self._acc_max: np.ndarray | None = None
        # Channel-wise INT8 staging scales, fixed at prefill (Fig. 8).
        self._stage_scale: np.ndarray | None = None  # (heads, d_head)
        self._int8 = IntType(staging_bits)
        # Channel maxima accumulated across prefill chunks; non-None
        # exactly while a chunked prefill is in flight.
        self._chunk_ch_max: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Shared: variance-selected MANT fake-quant along the last axis
    # ------------------------------------------------------------------
    def _codec_for(self, g: int) -> MantCodec:
        return self._codec if g == self.group_size else MantCodec(self.bits, g)

    def _mant_qdq_lastaxis(self, x: np.ndarray) -> np.ndarray:
        g = min(self.group_size, x.shape[-1])
        codec = self._codec_for(g)
        flat = x.reshape(-1, x.shape[-1])
        a = self.selector.select_batch(to_groups(flat, g, axis=-1).groups)
        return codec.qdq(flat, a).reshape(x.shape)

    # ------------------------------------------------------------------
    # K cache — spatial quantization
    # ------------------------------------------------------------------
    def _quantize_k(self, k: np.ndarray) -> np.ndarray:
        return self._mant_qdq_lastaxis(k)

    # ------------------------------------------------------------------
    # V cache — temporal two-phase quantization
    # ------------------------------------------------------------------
    def _reset_window(self, heads: int, d_head: int) -> None:
        self._acc_sum = np.zeros((heads, d_head))
        self._acc_sqsum = np.zeros((heads, d_head))
        self._acc_max = np.zeros((heads, d_head))

    def _finalize_window(self) -> None:
        """Phase 2 of Fig. 8: staged INT8 window → 4-bit MANT, in place."""
        staged = self._v.tail(self.window)           # (heads, window, d_head)
        heads, t, d_head = staged.shape
        # Group = one channel across the window (the V inner dimension).
        per_channel = np.moveaxis(staged, 1, -1)     # (heads, d_head, t)
        n = float(t)
        mean = self._acc_sum / n
        var = self._acc_sqsum / n - mean * mean
        amax = np.where(self._acc_max <= 0, 1.0, self._acc_max)
        norm_var = np.clip(var, 0.0, None) / (amax * amax)
        a_sel = self.selector.select_from_variances(norm_var)  # (heads, d_head)
        codec = self._codec_for(t)
        flat = per_channel.reshape(-1, t)
        out = codec.qdq(flat, a_sel.reshape(-1, 1))
        staged[:] = np.moveaxis(out.reshape(heads, d_head, t), -1, 1)
        self._v_final += self.window
        self._reset_window(heads, d_head)

    def _quantize_v_windows(self, body: np.ndarray) -> np.ndarray:
        """Quantize ``(heads, n·window, d_head)`` straight to 4-bit MANT.

        Both inner-dimension data are available for full windows, so
        they skip INT8 staging entirely (phase 1+2 of Fig. 8 collapse).
        Each window is quantized independently, which is what makes the
        result invariant to how a prompt is split into window-aligned
        prefill chunks.
        """
        heads, full, d_head = body.shape
        windows = body.reshape(heads, full // self.window, self.window, d_head)
        per_channel = np.moveaxis(windows, 2, -1)      # (heads, W, d_head, window)
        flat = per_channel.reshape(-1, self.window)
        a = self.selector.select_batch(flat)
        codec = self._codec_for(self.window)
        out = codec.qdq(flat, a[:, None])
        return np.moveaxis(
            out.reshape(heads, full // self.window, d_head, self.window), -1, 2
        ).reshape(heads, full, d_head)

    # ------------------------------------------------------------------
    def prefill(self, k, v):
        k = np.asarray(k, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        heads, seq, d_head = v.shape
        self._reset_buffers(heads, d_head, seq)
        self._k.append(self._quantize_k(k))

        # Channel scales for the decode-stage INT8 staging (Fig. 8).
        ch_max = np.max(np.abs(v), axis=1)            # (heads, d_head)
        ch_max = np.where(ch_max <= 0, 1.0, ch_max)
        self._stage_scale = (ch_max / self._int8.qmax).astype(np.float16).astype(np.float64)

        # Prefill V: full windows quantize straight to MANT (both inner
        # dimension data are available), remainder enters staging.
        full = (seq // self.window) * self.window
        self._v_final = 0
        self._reset_window(heads, d_head)
        if full:
            self._v.append(self._quantize_v_windows(v[:, :full, :]))
            self._v_final = full
        if full < seq:
            # Batched staging: the remainder is < window, so no window
            # can close mid-batch and the accumulators update in bulk.
            self._stage_block(v[:, full:, :])

    def prefill_chunk(self, k, v, final=False):
        """One window-aligned slice of a chunked prompt prefill.

        Bit-identical to :meth:`prefill` of the concatenation: K rows
        and full V windows are quantized per token / per window (chunk-
        composition invariant by construction), while the INT8 staging
        channel scales — which :meth:`prefill` derives from the *whole*
        prompt — accumulate as running channel maxima across chunks and
        are only fixed on the final chunk, immediately before the
        sub-window remainder enters staging.  Non-final chunks must be a
        multiple of ``window``; only the final chunk may be ragged.
        """
        k = np.asarray(k, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        heads, t, d_head = v.shape
        if self._k is None:
            self._reset_buffers(heads, d_head, t)
            self._v_final = 0
            self._reset_window(heads, d_head)
            self._chunk_ch_max = np.zeros((heads, d_head))
        elif self._chunk_ch_max is None:
            raise RuntimeError(
                "prefill_chunk on a cache whose prefill already completed"
            )
        full = (t // self.window) * self.window
        if not final and full != t:
            raise ValueError(
                f"non-final prefill chunk of {t} tokens is not a multiple "
                f"of the MANT V-cache window ({self.window}); temporal "
                "quantization groups must never straddle a chunk boundary"
            )
        self._k.append(self._quantize_k(k))
        np.maximum(
            self._chunk_ch_max, np.max(np.abs(v), axis=1), out=self._chunk_ch_max
        )
        if full:
            self._v.append(self._quantize_v_windows(v[:, :full, :]))
            self._v_final += full
        if final:
            ch_max = np.where(self._chunk_ch_max <= 0, 1.0, self._chunk_ch_max)
            self._stage_scale = (
                (ch_max / self._int8.qmax).astype(np.float16).astype(np.float64)
            )
            self._chunk_ch_max = None
            if full < t:
                self._stage_block(v[:, full:, :])

    def _stage_block(self, block: np.ndarray) -> None:
        """INT8-stage ``(heads, t, d_head)`` tokens + update accumulators.

        The single place the staging quantization and streaming-stat
        semantics live; does not close windows — callers decide that.
        """
        scale = self._stage_scale[:, None, :]
        q = self._int8.round_clip(block / scale)
        self._v.append(q * scale)
        self._accumulate_stats(block)

    def _accumulate_stats(self, block: np.ndarray) -> None:
        """Fold ``(heads, t, d_head)`` raw tokens into the window stats."""
        self._acc_sum += block.sum(axis=1)
        self._acc_sqsum += (block * block).sum(axis=1)
        self._acc_max = np.maximum(self._acc_max, np.max(np.abs(block), axis=1))

    def _close_window_if_full(self) -> None:
        if len(self._v) - self._v_final == self.window:
            self._finalize_window()

    def _stage_append(self, v_t: np.ndarray) -> None:
        self._stage_block(v_t[:, None, :])
        self._close_window_if_full()

    def _stage_prequantized(self, v_raw_t: np.ndarray, v_q_t: np.ndarray) -> None:
        """The tail of :meth:`_stage_append` for callers (the fused batch
        path) that already INT8-staged the token: append + stats +
        window close share one implementation with the per-cache path."""
        self._v.append(v_q_t)
        self._accumulate_stats(v_raw_t[:, None, :])
        self._close_window_if_full()

    def append(self, k_t, v_t):
        k_t = np.asarray(k_t, dtype=np.float64)
        v_t = np.asarray(v_t, dtype=np.float64)
        self._validate_token("k_t", k_t)
        self._validate_token("v_t", v_t)
        if self._chunk_ch_max is not None:
            raise RuntimeError(
                "append during an unfinished chunked prefill — feed the "
                "last chunk with prefill_chunk(..., final=True) first"
            )
        if self._stage_scale is None:
            # Decode without prefill: bootstrap scales from this vector,
            # fp16-rounded like the prefill path (Fig. 8 stores 16-bit
            # channel scales regardless of how the cache started).
            heads, d_head = v_t.shape
            ch_max = np.where(np.abs(v_t) <= 0, 1.0, np.abs(v_t))
            self._stage_scale = (
                (ch_max / self._int8.qmax).astype(np.float16).astype(np.float64)
            )
            self._reset_buffers(heads, d_head, 16)
            self._v_final = 0
            self._reset_window(heads, d_head)
        self._k.append(self._quantize_k(k_t))
        self._stage_append(v_t)

    @classmethod
    def append_batch(cls, caches, k_batch, v_batch):
        """Fused batch append: one MANT select+encode for every K row and
        one INT8 staging round for every V row.

        Group-wise quantization is row-independent, so the fused call is
        bit-identical to per-cache :meth:`append`; caches whose configs
        differ (or that still need bootstrap scales) fall back to the
        loop.  Per-cache streaming accumulators and window finalization
        are untouched — only the heavy per-token math is batched.
        """
        k_batch = np.asarray(k_batch, dtype=np.float64)
        v_batch = np.asarray(v_batch, dtype=np.float64)
        first = caches[0]
        fusable = all(
            type(c) is cls
            and c.selector.same_policy(first.selector)
            and c.bits == first.bits
            and c.group_size == first.group_size
            and c.window == first.window
            and c.staging_bits == first.staging_bits
            and c._stage_scale is not None
            for c in caches
        )
        if not fusable:
            super().append_batch(caches, k_batch, v_batch)
            return
        for c, k_t, v_t in zip(caches, k_batch, v_batch):
            c._validate_token("k_t", k_t)
            c._validate_token("v_t", v_t)
        kq = first._mant_qdq_lastaxis(k_batch)        # (B, heads, d_head)
        scales = np.stack([c._stage_scale for c in caches])
        vq = first._int8.round_clip(v_batch / scales) * scales
        for b, c in enumerate(caches):
            c._k.append(kq[b])
            c._stage_prequantized(v_batch[b], vq[b])

    # ------------------------------------------------------------------
    @property
    def staging_fill(self) -> int:
        """Tokens currently held at INT8 (for tests/analysis)."""
        return len(self._v) - self._v_final if self._v is not None else 0


def make_kv_cache(config: KVCacheConfig, selector: VarianceSelector | None = None) -> KVCache:
    """Instantiate the cache implementation a config describes."""
    if config.is_fp16:
        return FP16KVCache()
    if config.key.method == "mant":
        return MantKVCache(
            selector=selector,
            bits=config.key.bits,
            group_size=config.key.group_size,
            window=config.window,
        )
    if config.key.method == "int":
        return IntKVCache(bits=config.key.bits, group_size=config.key.group_size)
    raise ValueError(f"no KV cache implementation for method {config.key.method!r}")
