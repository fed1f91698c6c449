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
is modelled in :mod:`repro.hardware.rqu`.  These classes are the one
implementation of each KV format: generation, the serving engine and
the teacher-forced perplexity hook of
:func:`repro.model.quantized.build_ptq` (each batch row one final
prefill chunk) all write through :meth:`KVCache.write_layer`.

Each cache stores its values at the narrowest float width that holds
every one of them exactly (:attr:`_BufferedKVCache.storage_dtype`).  A
MANT or INT value is an integer level times an fp16 scale (11
significant bits), so float32 holds it exactly while the level is
below 2**13: ``MantKVCache`` with integer coefficients and
``IntKVCache`` up to 14 bits store float32, half the bytes of float64;
``FP16KVCache`` (unrounded activations) and non-integer coefficient
sets store float64.  Every read widens to float64 explicitly before
any arithmetic (attention, the perplexity hook, the MANT window
close), so results are bitwise those of float64 storage: numpy's mixed
float64 @ float32 matmul is not the float64 GEMM bit for bit.

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
per-cache writes.  Every row of the tick — one token per decode cache,
then each chunk's, in cache order — is then stored with one
``store`` call over the caches' buffers (on paged buffers each page
reserved once for K and V together, in that order, then one store per
slab), after every quantize and before any per-cache state changes: a
write that raises, whether a quantize or a pool running dry, changes
no cache.  Page allocation is that of per-cache writes.  A caller that
has validated the tick itself (the model's forwards check every layer
once) writes with :meth:`KVCache.write_checked`.  For every class,
``prefill_chunk``, ``append`` and ``append_batch`` are
:meth:`KVCache.write_layer` with one segment, and ``prefill`` is one
final chunk on an emptied cache.

Each cache owns one token buffer holding its K and V: a preallocated
``(2, heads, capacity, d_head)`` array with amortized doubling
(Anda-style grouped layout), so stores are O(1) amortized and
``keys()``/``values()`` return zero-copy views, and a T-token
generation costs O(T) cache work instead of the O(T²) a
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
A pool's lease holds these caches themselves, and copies one for a
forked sequence with :meth:`_BufferedKVCache.fork`; one write takes
caches that all store over pages or none that do.
A cache over pages can also start part-way into a prompt whose first
pages another sequence wrote (:meth:`KVCache.adopt_prefix`), taking
that writer's :meth:`KVCache.prefix_state` — for MANT, the running V
channel maxima the staging scales are fixed from.
"""

from __future__ import annotations

import copy
from functools import lru_cache

import numpy as np

from repro.core.codec import (
    _FP16_OVERFLOW, INT_A, MantCodec, _group_absmax, _scale_base, grid_tables,
)
from repro.core.selection import VarianceSelector
from repro.datatypes.int_type import IntType
from repro.quant.config import Granularity
from repro.quant.quantizer import GroupQuantizer

__all__ = [
    "KVCache",
    "TokenBuffer",
    "FP16KVCache",
    "IntKVCache",
    "MantKVCache",
]

_EMPTY = np.empty((0, 0, 0))

# A quantized cache stores integer levels times fp16 scales.  An fp16
# scale has 11 significant bits and an exponent float32 represents
# normally, so the product fits float32's 24-bit significand exactly
# while the level has at most 13 bits.
_F32_EXACT_LEVEL = 2**13


def _exact_dtype(levels) -> type:
    """``np.float32`` when every one of ``levels`` (arrays of the
    unscaled values a cache's quantizers produce, each stored times an
    fp16 scale) is an integer below ``_F32_EXACT_LEVEL`` in magnitude,
    else ``np.float64``."""
    mags = np.abs(np.concatenate([np.ravel(lv) for lv in levels]))
    exact = (mags == np.floor(mags)).all() and mags.max() < _F32_EXACT_LEVEL
    return np.float32 if exact else np.float64


class TokenBuffer:
    """Preallocated K and V token storage of one cache: one
    ``(2, heads, capacity, d_head)`` array, K at ``[0]`` and V at ``[1]``.

    Capacity doubles when exhausted (amortized O(1) stores) and
    :meth:`keys` / :meth:`values` return zero-copy slices of the live
    region, which is what makes per-decode-step cache reads O(1).
    """

    __slots__ = ("_buf", "_len")

    def __init__(self, heads: int, d_head: int, capacity: int = 16,
                 dtype=np.float64):
        self._buf = np.empty((2, heads, max(1, capacity), d_head), dtype=dtype)
        self._len = 0

    def __len__(self) -> int:
        return self._len

    @property
    def heads(self) -> int:
        return self._buf.shape[1]

    @property
    def d_head(self) -> int:
        return self._buf.shape[3]

    def _reserve(self, extra: int) -> None:
        need = self._len + extra
        cap = self._buf.shape[2]
        if need <= cap:
            return
        _, heads, _, d_head = self._buf.shape
        grown = np.empty((2, heads, max(need, 2 * cap), d_head), dtype=self._buf.dtype)
        grown[:, :, : self._len] = self._buf[:, :, : self._len]
        self._buf = grown

    @classmethod
    def store(cls, buffers: list, counts: list, k: np.ndarray, v: np.ndarray) -> None:
        """Append ``counts[i]`` tokens to ``buffers[i]``: ``k``/``v`` are
        ``(heads, sum(counts), d_head)``, buffer ``i``'s tokens after
        buffer ``i - 1``'s.  Every buffer grows before the first store.
        Each buffer owns its array, so each role is one slice store per
        buffer; the paged buffers store every token with one store per
        slab."""
        for buf, n in zip(buffers, counts):
            buf._reserve(n)
        off = 0
        for buf, n in zip(buffers, counts):
            end = buf._len + n
            buf._buf[0, :, buf._len : end] = k[:, off : off + n]
            buf._buf[1, :, buf._len : end] = v[:, off : off + n]
            buf._len = end
            off += n

    def _live(self, role: int) -> np.ndarray:
        # Read-only: the seed returned freshly concatenated arrays, so
        # callers mutating the result in place were harmless; a writable
        # view here would let them silently corrupt the cache history.
        out = self._buf[role, :, : self._len]
        out.flags.writeable = False
        return out

    def keys(self) -> np.ndarray:
        """Zero-copy read-only ``(heads, len, d_head)`` view of every K."""
        return self._live(0)

    def values(self) -> np.ndarray:
        """Zero-copy read-only ``(heads, len, d_head)`` view of every V."""
        return self._live(1)

    def values_tail(self, n: int) -> np.ndarray:
        """Zero-copy writable view of the last ``n`` tokens' V."""
        if n > self._len:
            raise ValueError(f"tail({n}) exceeds buffer length {self._len}")
        return self._buf[1, :, self._len - n : self._len]

    def values_recent(self, n: int) -> np.ndarray:
        """Zero-copy read-only view of the last ``n`` tokens' V."""
        out = self.values_tail(n)
        out.flags.writeable = False
        return out


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
        — and per-cache state and page allocation keep that order.

        Feeding a prompt through successive chunks (``final=True`` on
        the last) must leave the cache *bit-identical* to one final
        chunk of the concatenation on an empty cache — the invariant
        the chunked-prefill serving pipeline rests on.  Non-final chunks
        of caches with temporal quantization state (the MANT V window)
        must be a multiple of that window so no group straddles a chunk
        boundary (serving gets this from chunks that fill whole pages,
        see :func:`repro.serve.paging.validate_block_compat`); the final
        chunk may be ragged.

        The whole write is validated before any cache changes (the
        arrays' shapes, then :meth:`check_write`): caches that do not
        share one class and quantization config raise ``ValueError``.
        Then :meth:`write_checked` writes it.
        """
        if not decode_caches and not chunks:
            return
        first = decode_caches[0] if decode_caches else chunks[0][0]
        geom = None
        if decode_caches:
            k_dec, v_dec = np.asarray(k_dec), np.asarray(v_dec)
            if k_dec.ndim != 3 or len(k_dec) != len(decode_caches):
                raise ValueError(
                    "k_t must be one token shaped (n_heads, d_head) per decode "
                    f"cache, got {k_dec.shape} for {len(decode_caches)} caches"
                )
            if v_dec.shape != k_dec.shape:
                raise ValueError(
                    f"v_t shape {v_dec.shape[1:]} does not match k_t's {k_dec.shape[1:]}")
            geom = k_dec.shape[1:]
        type(first).check_write(
            decode_caches,
            [(c, _chunk_shape(np.asarray(k), np.asarray(v)), final)
             for c, k, v, final in chunks],
            geom)
        type(first).write_checked(decode_caches, k_dec, v_dec, chunks)

    @classmethod
    def check_write(cls, decode_caches: list, chunks: list, geom) -> None:
        """Raise what :meth:`write_layer` would raise about its caches,
        before any K/V exist: ``decode_caches`` each taking one
        ``geom`` = ``(n_heads, d_head)`` token, ``chunks`` a list of
        ``(cache, (n_heads, t, d_head), final)``.  A forward checks
        every layer with it once, before its first layer writes."""
        raise NotImplementedError

    @classmethod
    def write_checked(cls, decode_caches: list, k_dec, v_dec, chunks: list) -> None:
        """:meth:`write_layer` without its checks, for a write whose
        arrays are shaped as it requires and whose caches passed
        :meth:`check_write`.  It stores every row of the write with one
        buffer store and raises before that store or not at all, so a
        write that raises changes no cache."""
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
        f"{first.__name__}: a pooled write takes caches of one class, one "
        "quantization config and one storage (all over pool pages or none)"
    )


def _chunk_shape(k: np.ndarray, v: np.ndarray) -> tuple:
    """The ``(n_heads, t, d_head)`` of a prefill chunk's K and V, which
    must match."""
    if k.ndim != 3 or k.shape != v.shape:
        raise ValueError(
            f"prefill chunk k/v must be matching (n_heads, t, d_head), "
            f"got {k.shape} and {v.shape}"
        )
    return k.shape


def _packed(block, chunks: list, role: int) -> np.ndarray:
    """Every K (``role`` 1) or V (``role`` 2) token a write stores, as
    one ``(n_heads, tokens, d_head)`` float64 array: the decode block's
    (one token per decode cache), then each chunk's."""
    parts = [] if block is None else [np.asarray(block).transpose(1, 0, 2)]
    parts += [seg[role] for seg in chunks]
    if len(parts) == 1:
        return np.ascontiguousarray(parts[0], dtype=np.float64)
    return np.concatenate(parts, axis=1, dtype=np.float64)


def _store(decode_caches: list, chunks: list, k: np.ndarray, v: np.ndarray) -> None:
    """Store a write's packed ``(n_heads, tokens, d_head)`` K and V rows
    — one token per decode cache, then each chunk's — with one store
    call over every cache's buffer.  A fresh cache's buffer is made
    here and kept only once the store has succeeded."""
    caches = [*decode_caches, *(seg[0] for seg in chunks)]
    counts = [1] * len(decode_caches) + [seg[1].shape[1] for seg in chunks]
    heads, _, d_head = k.shape
    bufs = [c._buf if c._buf is not None else c._new_buffer(heads, d_head, max(16, n))
            for c, n in zip(caches, counts)]
    type(bufs[0]).store(bufs, counts, k, v)
    for c, buf in zip(caches, bufs):
        c._buf = buf


class _BufferedKVCache(KVCache):
    """Buffer plumbing, plus the pooled write of caches that quantize
    per token (groups along ``d_head``): subclasses define ``_q``.

    ``storage_dtype`` is the float width the K/V buffer stores: the
    narrowest that holds every value the cache writes exactly (see the
    module docstring), float64 unless a subclass proves less suffices.
    Readers widen to float64 before any arithmetic.
    """

    storage_dtype = np.float64

    def __init__(self):
        self._buf: TokenBuffer | None = None
        self._buffer_factory = None

    def bind_buffer_factory(self, factory) -> None:
        """Route buffer allocation through a pool (see
        :class:`repro.serve.paging.BlockPool`).

        ``factory(heads, d_head, capacity, dtype)`` must return a
        :class:`TokenBuffer`-compatible object storing this cache's K
        and V at ``dtype`` (its :attr:`storage_dtype`).  Must be bound
        before the cache holds data.
        """
        if self._buf is not None:
            raise RuntimeError("cannot rebind buffers on a cache already holding data")
        self._buffer_factory = factory

    def _new_buffer(self, heads: int, d_head: int, capacity: int):
        make = self._buffer_factory or TokenBuffer
        return make(heads, d_head, capacity, self.storage_dtype)

    def adopt_prefix(self, n_tokens, heads, d_head, state):
        if self._buf is not None or self._buffer_factory is None:
            raise RuntimeError(
                "adopt_prefix needs an empty cache over pooled pages")
        self._buf = self._new_buffer(heads, d_head, n_tokens)
        self._buf.adopt(n_tokens)

    def prefill(self, k: np.ndarray, v: np.ndarray) -> None:
        """Whole-prompt prefill of ``(n_heads, seq, d_head)``: the cache
        emptied, then one final chunk.  The prompt must match the
        ``(n_heads, d_head)`` the cache holds, and a prefill that raises
        leaves the cache as it was (the write changes nothing before
        its store)."""
        # The base class's check: MANT's own also rejects a chunk after
        # a completed prefill, which is what a new prefill replaces.
        _BufferedKVCache._check_chunk(
            self, _chunk_shape(np.asarray(k), np.asarray(v)), True)
        old, self._buf = self._buf, None
        try:
            self.prefill_chunk(k, v, final=True)
        except BaseException:
            self._buf = old
            raise

    def _q(self, x: np.ndarray) -> np.ndarray:
        """Fake-quantize ``(rows, d_head)`` K or V rows (FP16: none)."""
        return x

    def _pools_with(self, other) -> bool:
        """True when ``other``'s writes can share this cache's
        quantization calls (same class and config) and its store: both
        store through a buffer factory (pool pages) or neither does."""
        return (type(other) is type(self)
                and (other._buffer_factory is None) == (self._buffer_factory is None))

    def fork(self, buffer_factory, buf) -> "_BufferedKVCache":
        """A copy of this cache that stores through ``buffer_factory``
        and holds ``buf``, a copy of this cache's buffer (``None`` while
        it holds none).  Its array and list state is copied, so neither
        cache's later writes reach the other's; the quantization config
        is shared."""
        clone = copy.copy(self)
        for name, val in list(vars(clone).items()):
            if isinstance(val, (np.ndarray, list)):
                setattr(clone, name, val.copy())
        clone._buf = buf
        clone._buffer_factory = buffer_factory
        return clone

    def _check_decode(self, geom) -> None:
        """Reject a decode token of ``geom`` = ``(n_heads, d_head)`` this
        cache cannot take, before any write."""
        buf = self._buf
        if buf is not None and (buf.heads, buf.d_head) != geom:
            raise ValueError(
                f"k_t shape {geom} does not match this cache's established "
                f"(n_heads, d_head)=({buf.heads}, {buf.d_head})"
            )

    def _check_chunk(self, shape, final: bool) -> None:
        """Reject a prefill chunk of ``shape`` = ``(n_heads, t, d_head)``
        this cache cannot take, before any write."""
        buf = self._buf
        if buf is not None and (shape[0], shape[2]) != (buf.heads, buf.d_head):
            raise ValueError(
                f"prefill chunk (n_heads, d_head)=({shape[0]}, "
                f"{shape[2]}) does not match this cache's "
                f"({buf.heads}, {buf.d_head})"
            )

    @classmethod
    def check_write(cls, decode_caches, chunks, geom):
        """Every cache must pool with the first (same class and config)
        and take its token or chunk in its established geometry, and
        every segment must share one ``(n_heads, d_head)``."""
        first = decode_caches[0] if decode_caches else chunks[0][0]
        for c in decode_caches:
            if c is not first and not first._pools_with(c):
                raise _unpoolable(type(first), type(c))
            c._check_decode(geom)
        for c, shape, final in chunks:
            if c is not first and not first._pools_with(c):
                raise _unpoolable(type(first), type(c))
            if geom is None:
                geom = (shape[0], shape[2])
            elif (shape[0], shape[2]) != tuple(geom):
                raise ValueError(
                    f"prefill chunk (n_heads, d_head)=({shape[0]}, {shape[2]}) "
                    f"differs from the write's {tuple(geom)}: one write_layer "
                    "call stores one geometry")
            c._check_chunk(shape, final)

    @classmethod
    def write_checked(cls, decode_caches, k_dec, v_dec, chunks):
        """One ``_q`` over every K row written this tick (decode rows and
        chunk tokens alike), one over every V row, then one store of
        every row.  Groups run along ``d_head``, so the pooled rows
        quantize exactly as per-cache writes do."""
        first = decode_caches[0] if decode_caches else chunks[0][0]
        k, v = _packed(k_dec, chunks, 1), _packed(v_dec, chunks, 2)
        d_head = k.shape[-1]
        _store(decode_caches, chunks,
               first._q(k.reshape(-1, d_head)).reshape(k.shape),
               first._q(v.reshape(-1, d_head)).reshape(v.shape))

    def keys(self) -> np.ndarray:
        return self._buf.keys() if self._buf is not None else _EMPTY

    def values(self) -> np.ndarray:
        return self._buf.values() if self._buf is not None else _EMPTY

    @property
    def seq_len(self) -> int:
        return len(self._buf) if self._buf is not None else 0


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
    reads the per-group scales, not the tensor, and is written so that
    a NaN scale fails it too.
    """
    if not scale.max(initial=0.0) < _FP16_OVERFLOW:
        raise ValueError(
            "cannot quantize: a scale overflows fp16 or is NaN (absmax "
            "above 65504 x qmax, or NaN or infinite input)")
    scale = scale.astype(np.float16).astype(np.float64)
    return np.where(scale == 0, 1.0, scale)


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
        # Levels are the integers up to qmax: float32 up to 14 bits.
        self.storage_dtype = _exact_dtype([2 ** (bits - 1) - 1])

    def _q(self, x: np.ndarray) -> np.ndarray:
        return _int_quantizer(self.bits, min(self.group_size, x.shape[-1])).qdq(x)

    def _pools_with(self, other) -> bool:
        return (super()._pools_with(other) and other.bits == self.bits
                and other.group_size == self.group_size)


@lru_cache(maxsize=None)
def _int_quantizer(bits: int, group_size: int) -> GroupQuantizer:
    """:class:`IntKVCache`'s row quantizer for one configuration, built
    once: ``IntType`` derives its grid on construction."""
    return GroupQuantizer(IntType(bits), Granularity.GROUP, group_size)


@lru_cache(maxsize=None)
def _mant_storage_dtype(bits: int, a_candidates: tuple, include_int: bool,
                        staging_bits: int) -> type:
    """:attr:`MantKVCache.storage_dtype` of one configuration, computed
    once (serving builds a cache per sequence and layer).  Stored values
    are levels of the selector's candidate grids (K rows, final V
    windows; fitting only narrows the set) or INT staging levels, times
    fp16 scales."""
    coeffs = a_candidates + ((INT_A,) if include_int else ())
    return _exact_dtype([grid_tables(a, bits).grid for a in coeffs]
                        + [IntType(staging_bits).qmax])


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
        self.storage_dtype = _mant_storage_dtype(
            bits, self.selector.a_candidates, self.selector.include_int, staging_bits)
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
            super()._pools_with(other)
            and other.selector.same_policy(self.selector)
            and other.bits == self.bits
            and other.group_size == self.group_size
            and other.window == self.window
            and other.staging_bits == self.staging_bits
            and other.storage_dtype is self.storage_dtype
        )

    # ------------------------------------------------------------------
    # V cache — temporal two-phase quantization state
    # ------------------------------------------------------------------
    def _reset_window(self, heads: int, d_head: int) -> None:
        self._acc_sum = np.zeros((heads, d_head))
        self._acc_sqsum = np.zeros((heads, d_head))
        self._acc_max = np.zeros((heads, d_head))

    def _check_decode(self, geom) -> None:
        super()._check_decode(geom)
        if self._chunk_ch_max is not None and self._buf is not None:
            raise RuntimeError(
                "append during an unfinished chunked prefill — feed "
                "the last chunk with prefill_chunk(..., final=True) first"
            )

    def _check_chunk(self, shape, final: bool) -> None:
        super()._check_chunk(shape, final)
        if self._buf is not None and self._chunk_ch_max is None:
            raise RuntimeError(
                "prefill_chunk on a cache whose prefill already completed")
        t = shape[1]
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
    def write_checked(cls, decode_caches, k_dec, v_dec, chunks):
        """One layer's KV writes for a tick, quantized in pooled calls.

        Group-wise quantization is row-independent, so pooling is
        bit-identical to per-cache writes.  Every quantize of the tick
        runs before the one store, and every cache's own state changes
        after it, so an overflowing write (or a pool that runs dry)
        changes no cache.  Across all caches of the layer:

        * one :meth:`~repro.core.codec.MantCodec.select_qdq` over every
          K row written (the decode rows and every chunk's tokens —
          spatial groups along ``d_head``);
        * one INT8 staging round for the decode V rows (phase 1 of
          Fig. 8, against each cache's fixed channel scales) and one for
          each final chunk's sub-window remainder, both
          :meth:`~repro.datatypes.int_type.IntType.qdq` (which rejects
          NaN);
        * one :meth:`~repro.core.codec.MantCodec.qdq_ids` over every V
          window completing (phase 2), its range ids concatenated from
          the windows this tick's decode rows close (their streaming
          accumulators plus the row) and the chunks' full windows (their
          data; full prompt windows skip staging, both inner-dimension
          data being available), its absmax taken from the rows.  A
          closing window's rows are its staged rows, read through the
          buffer's read-only ``values_recent``, plus the new staged row.

        Chunked prefill: K rows and full V windows are quantized per
        token / per window (chunk-composition invariant by
        construction), while the INT8 staging channel scales — which a
        whole-prompt prefill derives from the *whole* prompt —
        accumulate as running channel maxima across chunks and are only
        fixed on the final chunk, immediately before the sub-window
        remainder enters staging.  A decode row on an empty cache
        bootstraps its staging scales from its own first vector.

        Storage follows :meth:`KVCache.write_layer`'s order: one store
        of every K and V row — each decode row's K and staged V, then
        each chunk's K and V (full windows, then the staged remainder)
        — then each closed window's V rewritten in place in the same
        buffer; so page allocation and copy-on-write clones are those
        of per-segment writes.  Accumulators and staging scales stay
        per cache.
        """
        first = decode_caches[0] if decode_caches else chunks[0][0]
        window = first.window
        n_dec = len(decode_caches)

        # -- every quantize of the tick, before any cache changes ----
        k = _packed(k_dec, chunks, 1)
        heads, _, d_head = k.shape
        kq = first._q(k.reshape(-1, d_head)).reshape(k.shape)
        chunks = [(c, kc, np.asarray(v, dtype=np.float64), final)
                  for c, kc, v, final in chunks]
        rows, closing, v_parts = [], [], []
        if n_dec:
            v_dec = np.asarray(v_dec, dtype=np.float64)
            # Decode on an empty cache bootstraps its staging scales
            # from its first vector, fp16-rounded like the prefill path
            # (Fig. 8 stores 16-bit channel scales however the cache
            # started).
            boot = [c._buf is None for c in decode_caches]
            # (np.concatenate: np.stack costs ~0.6 us more per row.)
            scales = np.concatenate([
                _fp16_scale(np.where(np.abs(v_t) <= 0, 1.0, np.abs(v_t)), c._int8)
                if b else c._stage_scale
                for c, v_t, b in zip(decode_caches, v_dec, boot)
            ]).reshape(v_dec.shape)
            vq = first._int8.qdq(v_dec, scales)
            v_parts.append(vq.transpose(1, 0, 2))
            # One token's window stats (Σv, Σv², max|v|) for every row.
            v_sq, v_abs = v_dec * v_dec, np.abs(v_dec)
            closes = [(0 if fresh else len(c._buf) - c._v_final) == window - 1
                      for c, fresh in zip(decode_caches, boot)]
            closing = [b for b, shut in enumerate(closes) if shut]
            for b in closing:
                win = vq[b][:, None, :]
                if window > 1:
                    # The window's staged rows: the open window's page,
                    # widened to float64 with the new row.
                    win = np.concatenate(
                        [decode_caches[b]._buf.values_recent(window - 1), win],
                        axis=1, dtype=np.float64)
                rows.append(np.moveaxis(win, 1, -1).reshape(-1, window))
        # Per chunk: its running channel maxima at each full window's
        # end, at its end, and the staging scales a final chunk fixes.
        plans = []
        for c, _, v, final in chunks:
            t = v.shape[1]
            v_abs_c = np.abs(v)
            full = (t // window) * window
            fresh = c._buf is None
            ch_max = np.zeros((heads, d_head)) if fresh else c._chunk_ch_max
            w_max = None
            if full:
                w_max = v_abs_c[:, :full].reshape(
                    heads, full // window, window, d_head).max(axis=2)
                np.maximum(w_max[:, 0], ch_max, out=w_max[:, 0])
                np.maximum.accumulate(w_max, axis=1, out=w_max)
                ch_max = w_max[:, -1].copy()
                w = v[:, :full].reshape(heads, full // window, window, d_head)
                rows.append(np.moveaxis(w, 2, -1).reshape(-1, window))
            if full < t:
                ch_max = np.maximum(ch_max, v_abs_c[:, full:].max(axis=1))
            scale = staged = None
            if final:
                scale = _fp16_scale(np.where(ch_max <= 0, 1.0, ch_max), c._int8)
                if full < t:
                    staged = c._int8.qdq(v[:, full:], scale[:, None, :])
            plans.append((fresh, w_max, ch_max, scale, staged))
        off = 0
        if rows:
            # (n_windows·channels, 1, window): one group per row.
            groups = np.concatenate(rows)[:, None, :]
            amax = _group_absmax(groups)
            base = _scale_base(amax)
            off = len(closing) * heads * d_head
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
            if off < len(groups):
                # ... prompt windows from their data.
                ids.append(first.selector.batch_ids(groups[off:], base[off:]))
            vout = first._codec.qdq_ids(
                groups, amax, first.selector, np.concatenate(ids), base
            ).reshape(-1, window)
        # Each chunk's V: its full windows, then its staged remainder.
        for _, w_max, _, _, staged in plans:
            if w_max is not None:
                n_win = w_max.shape[1]
                out = vout[off:off + heads * n_win * d_head]
                off += out.shape[0]
                v_parts.append(np.moveaxis(
                    out.reshape(heads, n_win, d_head, window), -1, 2
                ).reshape(heads, n_win * window, d_head))
            if staged is not None:
                v_parts.append(staged)

        _store(decode_caches, chunks, kq, v_parts[0] if len(v_parts) == 1
               else np.concatenate(v_parts, axis=1))

        # -- per-cache state: decode rows, closed windows in place ----
        off = 0
        for b, c in enumerate(decode_caches):
            if boot[b]:
                c._stage_scale = scales[b]
                c._chunk_ch_max = None
                c._v_final = 0
                c._reset_window(heads, d_head)
            if closes[b]:
                out = vout[off:off + heads * d_head].reshape(heads, d_head, window)
                c._buf.values_tail(window)[:] = np.moveaxis(out, -1, 1)
                off += heads * d_head
                c._v_final += window
                c._reset_window(heads, d_head)
            else:
                c._acc_sum += v_dec[b]
                c._acc_sqsum += v_sq[b]
                np.maximum(c._acc_max, v_abs[b], out=c._acc_max)

        # -- chunks: window history, staging scales, remainder stats --
        for (c, _, v, final), (fresh, w_max, ch_max, scale, staged) in zip(chunks, plans):
            if fresh:
                c._v_final = 0
                c._reset_window(heads, d_head)
                c._win_max = []
            if w_max is not None:
                c._win_max.extend(w_max.transpose(1, 0, 2))
                c._v_final += w_max.shape[1] * window
            c._chunk_ch_max = None if final else ch_max
            if final:
                c._stage_scale = scale
            if staged is not None:
                # The sub-window remainder entered INT8 staging and
                # opens the first window's streaming stats.
                rest = v[:, v.shape[1] - staged.shape[1]:, :]
                c._acc_sum += rest.sum(axis=1)
                c._acc_sqsum += (rest * rest).sum(axis=1)
                c._acc_max = np.maximum(c._acc_max, np.max(np.abs(rest), axis=1))

    # ------------------------------------------------------------------
    @property
    def staging_fill(self) -> int:
        """Tokens currently held at INT8 (for tests/analysis)."""
        return len(self._buf) - self._v_final if self._buf is not None else 0

