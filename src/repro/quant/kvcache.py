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

Writes are pooled per layer: the model hands each layer's whole tick —
one token for every decoding sequence plus every prompt chunk — to one
:meth:`KVCache.write_layer` call, the one write each cache class
implements.  Its caches share one class and quantization config (a
mixed write raises before any cache changes).  FP16 and INT caches
answer it with one quantize over every K row and one over every V row
(groups along ``d_head``); :class:`MantKVCache` with
one K quantize (every row written:
:meth:`~repro.core.codec.MantCodec.select_qdq`, grouped and reduced
once) and one V quantize (every window completing: full prompt windows
selected from their data and staging windows closed by this tick's
tokens selected from their streaming statistics, concatenated into one
:meth:`~repro.core.codec.MantCodec.qdq_ids` call), each a single level
gather; no per-group coefficient array is built.  Quantization
groups are row-independent, so the pooled result is byte-equal to
per-cache writes; the per-cache streaming state and storage writes keep
the per-cache order.  For every class, ``prefill_chunk``, ``append``
and ``append_batch`` are that same writer with one segment, and
``prefill`` is one final chunk on an emptied cache.

Storage is a preallocated ``(heads, capacity, d_head)`` buffer per
tensor with amortized doubling (Anda-style grouped layout): appends are
O(1) amortized and ``keys()``/``values()`` return zero-copy views, so a
T-token generation costs O(T) cache work instead of the O(T²) a
concatenate-per-read layout pays.  Returned views are *read-only*,
alias the cache's storage and are only valid until the next write
— consume them (or copy) before mutating the cache, which is exactly
how the attention loop uses them.

For multi-tenant serving, the ``bind_buffer_factory`` seam routes that
storage through the paged block pool (:mod:`repro.serve.paging`): a
:class:`TokenBuffer`-compatible facade over fixed-size ref-counted
pages, with hash-based prompt-prefix sharing and copy-on-write.  Every
cache class here runs unchanged over either a private
:class:`TokenBuffer` or pages — the quantization math never sees the
layout, which is what makes paged caches bit-identical to flat ones.
A cache over pages can also start part-way into a prompt whose first
pages another sequence wrote (:meth:`KVCache.adopt_prefix`), taking
that writer's :meth:`KVCache.prefix_state` — for MANT, the running V
channel maxima the staging scales are fixed from.
"""

from __future__ import annotations

import numpy as np

from repro.core.codec import (
    _FP16_OVERFLOW, INT_A, MantCodec, _group_absmax, _scale_base,
)
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

    Each cache class implements one write, :meth:`write_layer`: a
    layer's whole tick of K/V.  :meth:`prefill_chunk`, :meth:`append`
    and :meth:`append_batch` are one-segment calls of it, the same for
    every class.  ``keys()``/``values()`` return the effective
    (quantization-degraded) cache contents as zero-copy views valid
    until the next mutation.
    """

    @classmethod
    def write_layer(cls, decode_caches: list, k_dec, v_dec, chunks: list) -> None:
        """Write one layer's K/V for a whole forward tick.

        ``decode_caches`` each take one token (``k_dec``/``v_dec`` are
        ``(B, n_heads, d_head)``, row ``b`` for cache ``b``); ``chunks``
        is a list of ``(cache, k, v, final)`` prompt chunks
        (``(n_heads, t, d_head)``).  The result is that of the
        per-segment writes — each decode row, then each chunk, in order
        — and per-cache state and storage writes keep that order.

        Feeding a prompt through successive chunks (``final=True`` on
        the last) must leave the cache *bit-identical* to one final
        chunk of the concatenation on an empty cache — the invariant
        the chunked-prefill serving pipeline rests on.  Non-final chunks
        of caches with temporal quantization state (the MANT V window)
        must be a multiple of that window so no group straddles a chunk
        boundary (serving gets this from chunks that fill whole pages,
        see :func:`repro.serve.paging.validate_block_compat`); the final
        chunk may be ragged.

        The whole write is validated before any cache changes: caches
        that do not share one class and quantization config raise
        ``ValueError``.
        """
        raise NotImplementedError

    def prefill_chunk(self, k: np.ndarray, v: np.ndarray, final: bool = False) -> None:
        """Extend a prompt prefill by one ``(n_heads, t, d_head)`` chunk."""
        type(self).write_layer([], None, None, [(self, k, v, final)])

    def append(self, k_t: np.ndarray, v_t: np.ndarray) -> None:
        """Append one token's ``(n_heads, d_head)`` K and V."""
        type(self).write_layer([self], np.asarray(k_t)[None], np.asarray(v_t)[None], [])

    @classmethod
    def append_batch(cls, caches: list, k_batch: np.ndarray, v_batch: np.ndarray) -> None:
        """Append one token to each of ``caches`` (``k/v_batch`` are
        ``(B, n_heads, d_head)``, row ``b`` for cache ``b``)."""
        cls.write_layer(caches, k_batch, v_batch, [])

    def prefix_state(self, n_tokens: int):
        """State besides the K/V pages that a sequence adopting this
        cache's first ``n_tokens`` prompt tokens needs, or ``None``.

        Read after the prefill that wrote those tokens and before
        :meth:`drop_prefix_state`; ``n_tokens`` is a page boundary of
        that prefill.  Caches whose prompt pages are a pure function of
        the tokens (FP16, INT) carry none.
        """
        return None

    def adopt_prefix(self, n_tokens: int, heads: int, d_head: int, state) -> None:
        """Start an empty cache ``n_tokens`` into a prompt whose K/V
        pages another sequence already wrote (prefix-cache pages, sealed
        against writes), in exactly the state a chunked prefill has
        after its chunk ending at ``n_tokens``.  ``state`` is the donor's
        :meth:`prefix_state` for those tokens."""
        raise NotImplementedError

    def drop_prefix_state(self) -> None:
        """Free what :meth:`prefix_state` reads (the prefill's pages are
        registered, or the sequence is released)."""

    def keys(self) -> np.ndarray:
        raise NotImplementedError

    def values(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def seq_len(self) -> int:
        raise NotImplementedError


def _unpoolable(first: type, other: type) -> ValueError:
    return ValueError(
        f"cannot write a {other.__name__} in one write_layer call with a "
        f"{first.__name__}: a pooled write takes caches of one class and "
        "one quantization config"
    )


def _check_write(decode_caches: list, k_dec, v_dec, chunks: list):
    """Validate a whole :meth:`KVCache.write_layer` before any cache
    changes; returns its first cache and its arrays as float64.

    Every cache must pool with the first (same class and config), the
    decode block must be one ``(n_heads, d_head)`` token per decode
    cache in each cache's established geometry, and every chunk must
    pass its cache's ``_check_chunk``.
    """
    first = decode_caches[0] if decode_caches else chunks[0][0]
    if decode_caches:
        k_dec = np.asarray(k_dec, dtype=np.float64)
        v_dec = np.asarray(v_dec, dtype=np.float64)
        if k_dec.ndim != 3 or len(k_dec) != len(decode_caches):
            raise ValueError(
                "k_t must be one token shaped (n_heads, d_head) per decode "
                f"cache, got {k_dec.shape} for {len(decode_caches)} caches"
            )
        if v_dec.shape != k_dec.shape:
            raise ValueError(
                f"v_t shape {v_dec.shape[1:]} does not match k_t's {k_dec.shape[1:]}")
        geom = k_dec.shape[1:]
        for c in decode_caches:
            if c is not first and not first._pools_with(c):
                raise _unpoolable(type(first), type(c))
            buf = c._k
            if buf is not None and (buf.heads, buf.d_head) != geom:
                raise ValueError(
                    f"k_t shape {geom} does not match this cache's established "
                    f"(n_heads, d_head)=({buf.heads}, {buf.d_head})"
                )
    chunks = [
        (c, np.asarray(k, dtype=np.float64), np.asarray(v, dtype=np.float64), final)
        for c, k, v, final in chunks
    ]
    for c, k, v, final in chunks:
        if c is not first and not first._pools_with(c):
            raise _unpoolable(type(first), type(c))
        c._check_chunk(k, v, final)
    return first, k_dec, v_dec, chunks


def _pooled_rows(block, chunks: list, role: int, d_head: int) -> np.ndarray:
    """Every K (``role`` 1) or V (``role`` 2) row a write stores, as one
    ``(rows, d_head)`` array: the decode block's, then each chunk's."""
    parts = [] if block is None else [block.reshape(-1, d_head)]
    parts += [seg[role].reshape(-1, d_head) for seg in chunks]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class _BufferedKVCache(KVCache):
    """Buffer plumbing, plus the pooled write of caches that quantize
    per token (groups along ``d_head``): subclasses define ``_q``."""

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

    def adopt_prefix(self, n_tokens, heads, d_head, state):
        if self._k is not None or self._buffer_factory is None:
            raise RuntimeError(
                "adopt_prefix needs an empty cache over pooled pages")
        self._reset_buffers(heads, d_head, n_tokens)
        self._k.adopt(n_tokens)
        self._v.adopt(n_tokens)

    def prefill(self, k: np.ndarray, v: np.ndarray) -> None:
        """Whole-prompt prefill of ``(n_heads, seq, d_head)``: the cache
        emptied, then one final chunk."""
        self._k = self._v = None
        self.prefill_chunk(k, v, final=True)

    def _q(self, x: np.ndarray) -> np.ndarray:
        """Fake-quantize ``(rows, d_head)`` K or V rows (FP16: none)."""
        return x

    def _pools_with(self, other) -> bool:
        """True when ``other``'s writes can share this cache's
        quantization calls (same class and config)."""
        return type(other) is type(self)

    def _check_chunk(self, k: np.ndarray, v: np.ndarray, final: bool) -> None:
        """Reject a prefill chunk this cache cannot take, before any write."""
        if k.ndim != 3 or k.shape != v.shape:
            raise ValueError(
                f"prefill chunk k/v must be matching (n_heads, t, d_head), "
                f"got {k.shape} and {v.shape}"
            )
        if self._k is not None and (k.shape[0], k.shape[2]) != (
                self._k.heads, self._k.d_head):
            raise ValueError(
                f"prefill chunk (n_heads, d_head)=({k.shape[0]}, "
                f"{k.shape[2]}) does not match this cache's "
                f"({self._k.heads}, {self._k.d_head})"
            )

    @classmethod
    def write_layer(cls, decode_caches, k_dec, v_dec, chunks):
        """One ``_q`` over every K row written this tick (decode rows and
        chunk tokens alike), one over every V row, then each cache's
        appends in order.  Groups run along ``d_head``, so the pooled
        rows quantize exactly as per-cache writes do."""
        if not decode_caches and not chunks:
            return
        first, k_dec, v_dec, chunks = _check_write(decode_caches, k_dec, v_dec, chunks)
        d_head = (k_dec if decode_caches else chunks[0][1]).shape[-1]
        kq = first._q(_pooled_rows(k_dec, chunks, 1, d_head))
        vq = first._q(_pooled_rows(v_dec, chunks, 2, d_head))
        off = 0
        for c in decode_caches:
            heads = k_dec.shape[1]
            if c._k is None:
                c._reset_buffers(heads, d_head, 16)
            c._k.append(kq[off:off + heads])
            c._v.append(vq[off:off + heads])
            off += heads
        for c, k, _, _ in chunks:
            heads, t, _ = k.shape
            if c._k is None:
                c._reset_buffers(heads, d_head, t)
            c._k.append(kq[off:off + heads * t].reshape(heads, t, d_head))
            c._v.append(vq[off:off + heads * t].reshape(heads, t, d_head))
            off += heads * t

    def keys(self) -> np.ndarray:
        return self._k.view() if self._k is not None else _EMPTY

    def values(self) -> np.ndarray:
        return self._v.view() if self._v is not None else _EMPTY

    @property
    def seq_len(self) -> int:
        return len(self._k) if self._k is not None else 0


class FP16KVCache(_BufferedKVCache):
    """No quantization — the baselines' 16-bit attention path."""


def _fp16_nonzero(scale: np.ndarray) -> np.ndarray:
    """Round scales to fp16; a zero fp16 scale becomes 1.

    :meth:`repro.quant.quantizer.GroupQuantizer._round_scale`'s rule: a
    scale is zero for an all-zero group or for a nonzero absmax below
    the fp16 subnormal range, and scale 1 quantizes either to zeros
    instead of dividing 0 by 0.  A scale that would overflow fp16 (an
    absmax above about 65504·qmax) raises ``ValueError``, as NaN/inf
    input does, instead of dequantizing its group to NaN; the check
    reads the per-group scales, not the tensor.
    """
    if scale.max(initial=0.0) >= _FP16_OVERFLOW:
        raise ValueError(
            "cannot quantize: a scale overflows fp16 (absmax above "
            "65504 x qmax, or infinite input) and would dequantize to NaN")
    scale = scale.astype(np.float16).astype(np.float64)
    return np.where(scale == 0, 1.0, scale)


def _int_qdq_lastaxis(x: np.ndarray, bits: int, group_size: int) -> np.ndarray:
    """Group-wise symmetric INT fake-quant along the last axis."""
    itype = IntType(bits)
    view = to_groups(x, group_size, axis=-1)
    scale = _fp16_nonzero(np.abs(view.groups).max(axis=-1, keepdims=True) / itype.qmax)
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

    def _pools_with(self, other) -> bool:
        return (type(other) is type(self) and other.bits == self.bits
                and other.group_size == self.group_size)


def _fp16_scale(ch_max: np.ndarray, itype: IntType) -> np.ndarray:
    """Channel staging scales ``ch_max / qmax``, stored as fp16 (Fig. 8)."""
    return _fp16_nonzero(ch_max / itype.qmax)


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
        # The prefill's cumulative raw-V channel maxima at the end of
        # each full window it computed (entry w: window w; None for
        # adopted windows), kept until drop_prefix_state: what
        # prefix_state hands a sequence adopting this prompt's pages.
        self._win_max: list | None = None

    # ------------------------------------------------------------------
    # Shared: variance-selected MANT fake-quant along the last axis
    # ------------------------------------------------------------------
    def _q(self, x: np.ndarray) -> np.ndarray:
        g = min(self.group_size, x.shape[-1])
        codec = self._codec if g == self.group_size else MantCodec(self.bits, g)
        return codec.select_qdq(x, self.selector)

    def _pools_with(self, other) -> bool:
        return (
            type(other) is type(self)
            and other.selector.same_policy(self.selector)
            and other.bits == self.bits
            and other.group_size == self.group_size
            and other.window == self.window
            and other.staging_bits == self.staging_bits
        )

    # ------------------------------------------------------------------
    # V cache — temporal two-phase quantization state
    # ------------------------------------------------------------------
    def _reset_window(self, heads: int, d_head: int) -> None:
        self._acc_sum = np.zeros((heads, d_head))
        self._acc_sqsum = np.zeros((heads, d_head))
        self._acc_max = np.zeros((heads, d_head))

    def _check_chunk(self, k: np.ndarray, v: np.ndarray, final: bool) -> None:
        super()._check_chunk(k, v, final)
        if self._k is not None and self._chunk_ch_max is None:
            raise RuntimeError(
                "prefill_chunk on a cache whose prefill already completed")
        t = k.shape[1]
        if not final and t % self.window:
            raise ValueError(
                f"non-final prefill chunk of {t} tokens is not a multiple "
                f"of the MANT V-cache window ({self.window}); temporal "
                "quantization groups must never straddle a chunk boundary"
            )

    # ------------------------------------------------------------------
    def prefix_state(self, n_tokens):
        """The cumulative raw-V channel maxima through ``n_tokens`` —
        the staging scales of Fig. 8 come from the *whole* prompt's
        maxima, so a sequence skipping this prefix inherits them."""
        w, rest = divmod(n_tokens, self.window)
        wins = self._win_max or ()
        state = wins[w - 1] if not rest and 0 < w <= len(wins) else None
        if state is None:
            raise ValueError(
                f"no prefill channel maxima recorded through token {n_tokens}")
        return state

    def adopt_prefix(self, n_tokens, heads, d_head, state):
        """Mid-prefill state at ``n_tokens``: every V window final, the
        window accumulators zero, no staging scales yet, and the channel
        maxima so far taken from the donor (copied: its pool row is
        rewritten once the page is evicted)."""
        if n_tokens % self.window:
            raise ValueError(
                f"adopted prefix of {n_tokens} tokens is not a multiple of "
                f"the MANT V-cache window ({self.window})")
        super().adopt_prefix(n_tokens, heads, d_head, state)
        self._v_final = n_tokens
        self._reset_window(heads, d_head)
        self._stage_scale = None
        self._chunk_ch_max = np.array(state, dtype=np.float64)
        self._win_max = [None] * (n_tokens // self.window)

    def drop_prefix_state(self):
        self._win_max = None

    @classmethod
    def write_layer(cls, decode_caches, k_dec, v_dec, chunks):
        """One layer's KV writes for a tick, quantized in pooled calls.

        Group-wise quantization is row-independent, so pooling is
        bit-identical to per-cache writes.  Every write is validated
        and every quantize of the tick runs before the first storage
        write, so a rejected or overflowing write changes no cache.
        Across all caches of the layer:

        * one :meth:`~repro.core.codec.MantCodec.select_qdq` over every
          K row written (the decode rows and every chunk's tokens —
          spatial groups along ``d_head``);
        * one INT8 staging round for the decode V rows (phase 1 of
          Fig. 8, against each cache's fixed channel scales);
        * one :meth:`~repro.core.codec.MantCodec.qdq_ids` over every V
          window completing (phase 2), its range ids concatenated from
          the windows this tick's decode rows close (their streaming
          accumulators plus the row) and the chunks' full windows (their
          data; full prompt windows skip staging, both inner-dimension
          data being available), its absmax taken from the rows.  A
          closing window's rows are its staged rows, read through the
          read-only :meth:`values` view, plus the new staged row.

        Chunked prefill: K rows and full V windows are quantized per
        token / per window (chunk-composition invariant by
        construction), while the INT8 staging channel scales — which a
        whole-prompt prefill derives from the *whole* prompt —
        accumulate as running channel maxima across chunks and are only
        fixed on the final chunk, immediately before the sub-window
        remainder enters staging.  A decode row on an empty cache
        bootstraps its staging scales from its own first vector.

        Per-cache accumulators, staging scales and storage writes stay
        per cache, in :meth:`KVCache.write_layer`'s order (every decode
        cache's K then V row, a closed window rewritten in place, then
        each chunk's K, full V windows and staged remainder), so page
        allocation is that of per-segment writes.
        """
        if not decode_caches and not chunks:
            return
        first, k_dec, v_dec, chunks = _check_write(decode_caches, k_dec, v_dec, chunks)
        for c in decode_caches:
            if c._chunk_ch_max is not None and c._k is not None:
                raise RuntimeError(
                    "append during an unfinished chunked prefill — feed "
                    "the last chunk with prefill_chunk(..., final=True) first"
                )
        window = first.window
        n_dec = len(decode_caches)
        d_head = (k_dec if n_dec else chunks[0][1]).shape[-1]

        # -- every quantize of the tick, before any cache changes ----
        kq = first._q(_pooled_rows(k_dec, chunks, 1, d_head))
        heads = k_dec.shape[1] if n_dec else 0
        rows, closing = [], []
        if n_dec:
            # Decode on an empty cache bootstraps its staging scales
            # from its first vector, fp16-rounded like the prefill path
            # (Fig. 8 stores 16-bit channel scales however the cache
            # started).
            boot = [c._k is None for c in decode_caches]
            scales = np.stack([
                _fp16_scale(np.where(np.abs(v_t) <= 0, 1.0, np.abs(v_t)), c._int8)
                if b else c._stage_scale
                for c, v_t, b in zip(decode_caches, v_dec, boot)
            ])
            vq = first._int8.round_clip(v_dec / scales) * scales
            # One token's window stats (Σv, Σv², max|v|) for every row.
            v_sq, v_abs = v_dec * v_dec, np.abs(v_dec)
            closes = [(0 if fresh else len(c._v) - c._v_final) == window - 1
                      for c, fresh in zip(decode_caches, boot)]
            closing = [b for b, shut in enumerate(closes) if shut]
            for b in closing:
                c = decode_caches[b]
                win = vq[b][:, None, :]
                if window > 1:
                    win = np.concatenate(
                        [np.asarray(c.values())[:, c._v_final:], win], axis=1)
                rows.append(np.moveaxis(win, 1, -1).reshape(-1, window))
        # Per chunk: its running channel maxima at each full window's
        # end, at its end, and the staging scales a final chunk fixes.
        plans = []
        for c, _, v, final in chunks:
            heads_c, t, _ = v.shape
            v_abs_c = np.abs(v)
            full = (t // window) * window
            ch_max = (np.zeros((heads_c, d_head)) if c._k is None
                      else c._chunk_ch_max)
            w_max = None
            if full:
                w_max = v_abs_c[:, :full].reshape(
                    heads_c, full // window, window, d_head).max(axis=2)
                np.maximum(w_max[:, 0], ch_max, out=w_max[:, 0])
                np.maximum.accumulate(w_max, axis=1, out=w_max)
                ch_max = w_max[:, -1].copy()
                w = v[:, :full].reshape(heads_c, full // window, window, d_head)
                rows.append(np.moveaxis(w, 2, -1).reshape(-1, window))
            if full < t:
                ch_max = np.maximum(ch_max, v_abs_c[:, full:].max(axis=1))
            scale = None
            if final:
                scale = _fp16_scale(np.where(ch_max <= 0, 1.0, ch_max), c._int8)
            plans.append((w_max, ch_max, scale))
        if rows:
            # (n_windows·channels, 1, window): one group per row.
            groups = np.concatenate(rows)[:, None, :]
            amax = _group_absmax(groups)
            base = _scale_base(amax)
            n_close = len(closing) * heads * d_head
            ids = []
            if closing:
                # Closing windows select from their streaming stats (a
                # cache's accumulators plus this tick's row; an empty
                # cache has none) ...
                def stat(attr, row, op):
                    return np.stack([
                        op(0.0 if boot[b] else getattr(decode_caches[b], attr), row[b])
                        for b in closing])

                n = float(window)
                mean = stat("_acc_sum", v_dec, np.add) / n
                var = stat("_acc_sqsum", v_sq, np.add) / n - mean * mean
                acc_max = stat("_acc_max", v_abs, np.maximum)
                acc_max = np.where(acc_max <= 0, 1.0, acc_max)
                norm_var = np.clip(var, 0.0, None) / (acc_max * acc_max)
                ids.append(first.selector.variance_ids(norm_var).reshape(-1, 1))
            if n_close < len(groups):
                # ... prompt windows from their data.
                ids.append(first.selector.batch_ids(groups[n_close:], base[n_close:]))
            vout = first._codec.qdq_ids(
                groups, amax, first.selector, np.concatenate(ids), base
            ).reshape(-1, window)

        # -- decode rows: K row, staged V row, closed window in place -
        off = 0
        for b, c in enumerate(decode_caches):
            if boot[b]:
                c._stage_scale = scales[b]
                c._chunk_ch_max = None
                c._reset_buffers(heads, d_head, 16)
                c._v_final = 0
                c._reset_window(heads, d_head)
            c._k.append(kq[b * heads:(b + 1) * heads])
            c._v.append(vq[b])
            if closes[b]:
                out = vout[off:off + heads * d_head].reshape(heads, d_head, window)
                c._v.tail(window)[:] = np.moveaxis(out, -1, 1)
                off += heads * d_head
                c._v_final += window
                c._reset_window(heads, d_head)
            else:
                c._acc_sum += v_dec[b]
                c._acc_sqsum += v_sq[b]
                np.maximum(c._acc_max, v_abs[b], out=c._acc_max)

        # -- chunks: K rows, full V windows, staged remainder --------
        k_off = n_dec * heads
        for (c, k, v, final), (w_max, ch_max, scale) in zip(chunks, plans):
            heads_c, t, _ = v.shape
            if c._k is None:
                c._reset_buffers(heads_c, d_head, t)
                c._v_final = 0
                c._reset_window(heads_c, d_head)
                c._win_max = []
            c._k.append(kq[k_off:k_off + heads_c * t].reshape(heads_c, t, d_head))
            k_off += heads_c * t
            full = (t // window) * window
            if full:
                c._win_max.extend(w_max.transpose(1, 0, 2))
                out = vout[off:off + heads_c * (full // window) * d_head]
                off += out.shape[0]
                c._v.append(np.moveaxis(
                    out.reshape(heads_c, full // window, d_head, window), -1, 2
                ).reshape(heads_c, full, d_head))
                c._v_final += full
            c._chunk_ch_max = None if final else ch_max
            if final:
                c._stage_scale = scale
                if full < t:
                    # The sub-window remainder enters INT8 staging and
                    # opens the first window's streaming stats.
                    rest = v[:, full:, :]
                    s = scale[:, None, :]
                    c._v.append(c._int8.round_clip(rest / s) * s)
                    c._acc_sum += rest.sum(axis=1)
                    c._acc_sqsum += (rest * rest).sum(axis=1)
                    c._acc_max = np.maximum(c._acc_max, np.max(np.abs(rest), axis=1))

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
