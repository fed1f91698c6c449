"""Tiny transformer language models in pure numpy.

Two architecture families mirror the paper's model zoo:

* ``"llama"`` — RMSNorm, rotary position embeddings, SwiGLU FFN,
  pre-norm, tied embeddings (LLaMA-1/2 structure).
* ``"opt"`` — LayerNorm (gain+bias), learned absolute position
  embeddings, ReLU FFN, pre-norm, tied embeddings (OPT structure).

The training path (:func:`loss_and_grads`) does a full manual backward
pass.  The inference forwards share one layer body
(:meth:`TransformerLM._block`) and differ only in how they split
heads, rotate, write caches and attend:

* :func:`forward_logits` — teacher-forced ``(B, T, d)``, no caches;
* :func:`forward_mixed` — the one cached forward: any mix of decode
  rows and prompt chunks packed as ``(1, T, d)``.  :func:`prefill`,
  :func:`decode_step` and :func:`prefill_chunk` are its one-segment
  faces, and the serving engine runs one call per tick;
* :func:`decode_step_batch` — batched decode as ``(B, 1, d)``, whose
  rows are bitwise the single-stream :func:`decode_step`; the packed
  ``(1, B, d)`` GEMMs of a multi-segment :func:`forward_mixed` are
  token-identical to it, not bitwise.

All of them accept the quantization hooks the accuracy experiments
plug in:

``weights``
    Substituted (fake-quantized) weight dict.
``act_quant(name, x)``
    Applied to the *input* of every linear projection — this is where
    group-wise INT8/INT4 activation quantization happens.  A hook whose
    ``per_token`` attribute is true promises that each token's output
    depends only on that token's row (scales reduce along the last axis
    alone), so the batched paths call it once on the packed tensor;
    any other hook is called once per sequence.
``kv_cache_factory()``
    Builds one :class:`repro.quant.kvcache.KVCache` per layer for
    generation; prefill-style evaluation uses ``kv_quant`` instead.

Caches may store tokens contiguously or in non-contiguous pages
(:mod:`repro.serve.paging`): ``keys()``/``values()`` results flow
straight into :func:`repro.model.layers.cached_attention_fwd`, which
gathers paged views before the attention math, so every generation
path here is storage-layout agnostic and bit-identical across
backends.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from repro.model import layers as L

# Shared no-op context for untraced cache writes: generation methods
# accept an optional ``trace`` span factory (the serving engine's tick
# tracer) and must cost nothing when it is absent.
_NULL_CTX = nullcontext()

__all__ = ["ModelConfig", "MixedSegment", "TransformerLM", "init_params",
           "param_count"]


class MixedSegment:
    """One sequence's slice of a mixed prefill+decode forward.

    ``offset`` is the absolute position of ``ids[0]``, which must equal
    the length of the per-layer ``caches`` it is written to.  ``kind``
    selects the KV-cache write path:

    * ``DECODE`` — one already-sampled token appended at ``offset``
      (the continuous-batching decode row; ``ids`` has length 1);
    * ``CHUNK`` — a window-aligned slice of a prompt prefill written at
      ``offset`` via :meth:`~repro.quant.kvcache.KVCache.prefill_chunk`;
    * ``CHUNK_FINAL`` — the prompt's last chunk (may be ragged); its
      last-position logits seed the sequence's first sampled token.
    """

    DECODE = "decode"
    CHUNK = "chunk"
    CHUNK_FINAL = "chunk_final"

    __slots__ = ("ids", "caches", "offset", "kind")

    def __init__(self, ids, caches: list, offset: int, kind: str):
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            raise ValueError(f"segment ids must be non-empty 1-D, got {ids.shape}")
        if kind not in (self.DECODE, self.CHUNK, self.CHUNK_FINAL):
            raise ValueError(f"unknown segment kind {kind!r}")
        if kind == self.DECODE and ids.size != 1:
            raise ValueError("decode segments carry exactly one token")
        self.ids = ids
        self.caches = caches
        self.offset = int(offset)
        self.kind = kind

    @property
    def wants_logits(self) -> bool:
        return self.kind != self.CHUNK


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters."""

    vocab_size: int = 256
    d_model: int = 128
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 256
    max_seq: int = 512
    arch: str = "llama"          # "llama" | "opt"
    rope_base: float = 10000.0
    seed: int = 0

    def __post_init__(self):
        if self.d_model % self.n_heads:
            raise ValueError("d_model must divide by n_heads")
        if self.arch not in ("llama", "opt"):
            raise ValueError(f"unknown arch {self.arch!r}")
        if self.arch == "llama" and (self.d_model // self.n_heads) % 2:
            raise ValueError("RoPE needs an even head dimension")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def linear_names(self) -> list[str]:
        """Names of every projection weight, in forward order."""
        names = []
        for i in range(self.n_layers):
            p = f"layers.{i}."
            names += [p + "attn.wq", p + "attn.wk", p + "attn.wv", p + "attn.wo"]
            if self.arch == "llama":
                names += [p + "ffn.wgate", p + "ffn.wup", p + "ffn.wdown"]
            else:
                names += [p + "ffn.w1", p + "ffn.w2"]
        return names


def init_params(config: ModelConfig) -> dict[str, np.ndarray]:
    """Scaled-Gaussian initialisation; deterministic given the seed."""
    rng = np.random.default_rng(config.seed)
    d, f = config.d_model, config.d_ff
    params: dict[str, np.ndarray] = {}

    def w(shape, fan_in):
        return rng.standard_normal(shape) * (1.0 / np.sqrt(fan_in))

    params["embed"] = rng.standard_normal((config.vocab_size, d)) * 0.02
    if config.arch == "opt":
        params["pos_embed"] = rng.standard_normal((config.max_seq, d)) * 0.02
    for i in range(config.n_layers):
        p = f"layers.{i}."
        for name in ("attn.wq", "attn.wk", "attn.wv"):
            params[p + name] = w((d, d), d)
        # Residual-branch outputs scaled down for depth stability.
        params[p + "attn.wo"] = w((d, d), d) / np.sqrt(2 * config.n_layers)
        if config.arch == "llama":
            params[p + "ffn.wgate"] = w((f, d), d)
            params[p + "ffn.wup"] = w((f, d), d)
            params[p + "ffn.wdown"] = w((d, f), f) / np.sqrt(2 * config.n_layers)
            params[p + "norm1.g"] = np.ones(d)
            params[p + "norm2.g"] = np.ones(d)
        else:
            params[p + "ffn.w1"] = w((f, d), d)
            params[p + "ffn.w2"] = w((d, f), f) / np.sqrt(2 * config.n_layers)
            params[p + "norm1.g"] = np.ones(d)
            params[p + "norm1.b"] = np.zeros(d)
            params[p + "norm2.g"] = np.ones(d)
            params[p + "norm2.b"] = np.zeros(d)
    if config.arch == "llama":
        params["norm_f.g"] = np.ones(d)
    else:
        params["norm_f.g"] = np.ones(d)
        params["norm_f.b"] = np.zeros(d)
    return params


def param_count(params: dict[str, np.ndarray]) -> int:
    return int(sum(p.size for p in params.values()))


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _act_quantizer(act_quant, axis=0, cuts=()):
    """``q(name, val)`` of every inference forward.  A ``per_token``
    hook (scales never cross rows) sees the whole packed tensor in one
    call, each row bit-identical to its single-sequence call; any other
    hook may couple rows through tensor-wide scales, so it is called
    once per sequence, on each part of ``val`` split at ``cuts`` along
    ``axis``."""
    if act_quant is None:
        return lambda name, val: val
    if not cuts or getattr(act_quant, "per_token", False):
        return act_quant

    def q(name, val):
        return np.concatenate(
            [act_quant(name, part) for part in np.split(val, cuts, axis=axis)],
            axis=axis,
        )
    return q


class TransformerLM:
    """Stateless model wrapper: params dict in, logits/grads out."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray] | None = None):
        self.config = config
        self.params = params if params is not None else init_params(config)
        if config.arch == "llama":
            self._cos, self._sin = L.rope_tables(
                config.d_head, config.max_seq, config.rope_base
            )
        else:
            self._cos = self._sin = None

    # ==================================================================
    # Shared layer pieces
    # ==================================================================
    def _norm_fwd(self, x, params, prefix):
        if self.config.arch == "llama":
            return L.rmsnorm_fwd(x, params[prefix + ".g"])
        return L.layernorm_fwd(x, params[prefix + ".g"], params[prefix + ".b"])

    def _rope(self, rope, qh, kh, pos):
        """Rotate ``qh``/``kh`` with ``rope`` (one of the
        ``L.apply_rope*`` variants) at ``pos``; OPT has no rotation."""
        if self._cos is None:
            return qh, kh
        return (rope(qh, self._cos, self._sin, pos),
                rope(kh, self._cos, self._sin, pos))

    def _check_caches(self, caches, offset) -> None:
        """Reject a sequence whose per-layer caches cannot take its
        tokens at ``offset`` — before the forward writes any cache."""
        n = self.config.n_layers
        if len(caches) != n:
            raise ValueError(f"expected {n} per-layer caches, got {len(caches)}")
        if offset != caches[0].seq_len:
            raise ValueError(f"offset {offset} disagrees with the cache "
                             f"length {caches[0].seq_len}")

    def _block(self, x, p, i, q, mixer):
        """Layer ``i`` of every inference forward: norm1 → act-quant →
        QKV → *mixer* → O → residual → norm2 → FFN → residual.

        ``q(name, val)`` quantizes each projection input
        (:func:`_act_quantizer`); ``mixer(i, qp, kp, vp)`` maps the
        layer's Q/K/V projections, shaped like ``x``, to the merged
        attention output.  Head split, RoPE variant, cache writes and
        attention are all a forward does differently; every other op
        runs on the caller's own ``x`` shape, so each forward keeps its
        GEMM shapes and therefore its bits.
        """
        pre = f"layers.{i}."
        h, _ = self._norm_fwd(x, p, pre + "norm1")
        h_in = q(pre + "attn.wq", h)
        qp, _ = L.linear_fwd(h_in, p[pre + "attn.wq"])
        kp, _ = L.linear_fwd(h_in, p[pre + "attn.wk"])
        vp, _ = L.linear_fwd(h_in, p[pre + "attn.wv"])
        att = mixer(i, qp, kp, vp)
        o, _ = L.linear_fwd(q(pre + "attn.wo", att), p[pre + "attn.wo"])
        x = x + o

        h2, _ = self._norm_fwd(x, p, pre + "norm2")
        if self.config.arch == "llama":
            h2q = q(pre + "ffn.wgate", h2)
            g, _ = L.linear_fwd(h2q, p[pre + "ffn.wgate"])
            u, _ = L.linear_fwd(h2q, p[pre + "ffn.wup"])
            act, _ = L.silu_fwd(g)
            ff, _ = L.linear_fwd(q(pre + "ffn.wdown", act * u), p[pre + "ffn.wdown"])
        else:
            h2q = q(pre + "ffn.w1", h2)
            a1, _ = L.linear_fwd(h2q, p[pre + "ffn.w1"])
            act, _ = L.relu_fwd(a1)
            ff, _ = L.linear_fwd(q(pre + "ffn.w2", act), p[pre + "ffn.w2"])
        return x + ff

    def _stack(self, x, p, q, mixer):
        """Every layer's :meth:`_block`, then the final norm."""
        for i in range(self.config.n_layers):
            x = self._block(x, p, i, q, mixer)
        xf, _ = self._norm_fwd(x, p, "norm_f")
        return xf

    # ==================================================================
    # Inference forward (with quantization hooks)
    # ==================================================================
    def forward_logits(
        self,
        ids: np.ndarray,
        weights: dict[str, np.ndarray] | None = None,
        act_quant=None,
        kv_quant=None,
    ) -> np.ndarray:
        """Teacher-forced full-sequence logits ``(B, T, V)``.

        ``kv_quant(layer_idx, q, k, v) -> (q, k, v)`` intercepts the
        per-layer attention operands ``(B, H, T, d_head)`` —
        prefill-style KV cache quantization plus the 8-bit attention
        activation path (what the Wikitext rows of Tbl. II measure).
        """
        cfg = self.config
        p = self.params if weights is None else weights
        ids = np.atleast_2d(ids)
        x, _ = L.embedding_fwd(ids, p["embed"])
        if cfg.arch == "opt":
            x = x + p["pos_embed"][: ids.shape[1]]

        def mixer(i, qp, kp, vp):
            qh, kh, vh = (_split_heads(a, cfg.n_heads) for a in (qp, kp, vp))
            qh, kh = self._rope(L.apply_rope, qh, kh, 0)
            if kv_quant is not None:
                qh, kh, vh = kv_quant(i, qh, kh, vh)
            att, _ = L.causal_attention_fwd(qh, kh, vh)
            return _merge_heads(att)

        xf = self._stack(x, p, _act_quantizer(act_quant), mixer)
        return xf @ p["embed"].T

    # ==================================================================
    # Generation with per-layer KV caches
    # ==================================================================
    def prefill(self, ids: np.ndarray, caches: list, weights=None, act_quant=None) -> np.ndarray:
        """Run the prompt, filling one KVCache per layer.

        ``ids``: 1-D prompt.  Returns logits of the last position (V,).
        Caches receive per-head tensors shaped ``(H, T, d_head)`` —
        batch size 1 is assumed for generation, as in the paper's
        single-batch decode scenario.

        One ``CHUNK_FINAL`` segment at offset 0 through
        :meth:`forward_mixed`'s packed body (``prefill_chunk(final=True)``
        on an empty cache *is* a prefill).  Unlike :meth:`forward_mixed`
        it projects every prompt row onto the vocabulary: the last row
        of a ``(T, d)`` GEMM is not bitwise the lone-row GEMV, and the
        whole-prompt logits stay those of the full projection.
        """
        p = self.params if weights is None else weights
        seg = MixedSegment(ids, caches, 0, MixedSegment.CHUNK_FINAL)
        xf, _ = self._forward_packed([seg], p, act_quant)
        return (xf @ p["embed"].T)[0, -1]

    def decode_step(self, token: int, caches: list, pos: int, weights=None, act_quant=None) -> np.ndarray:
        """One decode iteration: append to caches, return logits (V,).

        A single ``DECODE`` segment through :meth:`forward_mixed`.
        """
        seg = MixedSegment([token], caches, pos, MixedSegment.DECODE)
        return self.forward_mixed([seg], weights=weights, act_quant=act_quant)[0]

    def decode_step_batch(
        self,
        tokens,
        caches_per_seq: list[list],
        positions,
        weights=None,
        act_quant=None,
        trace=None,
    ) -> np.ndarray:
        """One fused decode step for ``B`` independent sequences.

        ``tokens``: length-``B`` ints (the token each sequence feeds in);
        ``caches_per_seq``: per-sequence lists of per-layer KV caches;
        ``positions``: length-``B`` absolute positions of those tokens.
        Returns logits ``(B, V)``.  ``trace``, when given, is a span
        factory (``trace("append")`` returns a context manager) and the
        per-layer cache writes are timed under ``append`` spans.

        The dense projections and FFN run batched ``(B, 1, d)`` while
        attention walks each sequence's own cache at its own position.
        Every per-sequence op has the same operand shapes as
        :meth:`decode_step` (numpy matmul applies the ``(1, d)``
        kernels per batch row), so row ``b`` of the result is
        bit-identical to the single-stream step.  The serving engine
        runs :meth:`forward_mixed` instead, whose packed ``(1, B, d)``
        GEMMs are token-identical, not bitwise; this method is the
        model-level bitwise oracle for batched decode.
        """
        cfg = self.config
        p = self.params if weights is None else weights
        bsz = len(tokens)
        if not (bsz == len(caches_per_seq) == len(positions)):
            raise ValueError("tokens, caches_per_seq and positions must align")
        positions = np.asarray(positions, dtype=np.int64)
        for caches, pos in zip(caches_per_seq, positions):
            self._check_caches(caches, pos)
        ids = np.asarray(tokens, dtype=np.int64).reshape(bsz, 1)
        x, _ = L.embedding_fwd(ids, p["embed"])               # (B, 1, d)
        if cfg.arch == "opt":
            x = x + p["pos_embed"][positions][:, None, :]

        def mixer(i, qp, kp, vp):
            qh, kh, vh = (_split_heads(a, cfg.n_heads) for a in (qp, kp, vp))
            qh, kh = self._rope(L.apply_rope_at, qh, kh, positions)  # (B, H, 1, dh)
            layer_caches = [caches[i] for caches in caches_per_seq]
            with _NULL_CTX if trace is None else trace("append"):
                type(layer_caches[0]).append_batch(
                    layer_caches, kh[:, :, 0, :], vh[:, :, 0, :]
                )
            att = [
                L.cached_attention_fwd(qh[b], cache.keys(), cache.values(),
                                       offset=int(positions[b]))
                for b, cache in enumerate(layer_caches)
            ]
            return _merge_heads(np.stack(att))                # (B, 1, d)

        q = _act_quantizer(act_quant, axis=0, cuts=list(range(1, bsz)))
        xf = self._stack(x, p, q, mixer)
        return (xf @ p["embed"].T)[:, -1]                     # (B, V)

    def prefill_chunk(self, ids, caches, offset=0, final=False,
                      weights=None, act_quant=None):
        """Run one window-aligned prompt chunk at ``offset`` into ``caches``.

        The single-sequence face of :meth:`forward_mixed`: chunk tokens
        attend to everything already in the caches plus themselves
        (causally), and the caches extend via
        :meth:`~repro.quant.kvcache.KVCache.prefill_chunk`, so feeding a
        prompt chunk by chunk (``final=True`` on the last call) leaves
        the caches bit-identical to one :meth:`prefill`.  Returns the
        chunk's last-position logits ``(V,)`` when ``final``, else
        ``None``.
        """
        kind = MixedSegment.CHUNK_FINAL if final else MixedSegment.CHUNK
        return self.forward_mixed(
            [MixedSegment(ids, caches, offset, kind)],
            weights=weights, act_quant=act_quant,
        )[0]

    def forward_mixed(self, segments, weights=None, act_quant=None,
                      trace=None):
        """One fused forward over decode rows *and* prefill chunks.

        ``segments`` is a list of :class:`MixedSegment`s — any mix of
        single-token decode rows and multi-token prompt chunks, each
        with its own per-layer caches and absolute ``offset``, which
        must equal the caches' current length.  All segments are packed
        along one time axis so every dense op (the projections, the
        FFN, the norms — all position-independent per token) runs once
        for the whole tick, while RoPE gathers each token's own
        rotation row and attention walks each segment's own cache at
        its ragged position through the
        :func:`~repro.model.layers.cached_attention_fwd` seam.  Decode
        rows fuse their cache appends into one ``append_batch``; chunk
        segments extend their caches with ``prefill_chunk``.  Every
        segment is validated before any cache is written.  ``trace`` is
        :meth:`decode_step_batch`'s span factory.

        Returns one entry per segment: last-position logits ``(V,)``
        for decode rows and final chunks, ``None`` for non-final chunks
        (their logits are never sampled, so the vocabulary projection
        skips them entirely).

        Numerics: per-token cache quantization is exactly the
        single-sequence math (group-wise ops are row-independent), but
        the packed GEMMs may differ from the per-sequence ones by float
        rounding in the last ulp — BLAS kernels are not bitwise
        invariant to row count — so a multi-segment forward is
        guaranteed token-identical (quantization grids absorb ulp
        noise), not logits-bitwise-identical, to the single-sequence
        calls.  A one-segment forward is the single-sequence call.
        ``act_quant``: a ``per_token`` hook is called once on the packed
        ``(1, T, d)`` tensor, any other hook once per segment.  Chunked
        prefill is exact only for per-token hooks; a hook with
        tensor-wide scales sees one chunk at a time instead of the
        whole prompt.
        """
        if not segments:
            return []
        p = self.params if weights is None else weights
        xf, ends = self._forward_packed(segments, p, act_quant, trace)
        # Vocabulary projection only for rows something will sample.
        need = [j for j, seg in enumerate(segments) if seg.wants_logits]
        logits = xf[0, [ends[j] - 1 for j in need]] @ p["embed"].T  # (n, V)
        out: list = [None] * len(segments)
        for r, j in enumerate(need):
            out[j] = logits[r]
        return out

    def _forward_packed(self, segments, p, act_quant, trace=None):
        """:meth:`forward_mixed` up to the final norm: the packed hidden
        states ``(1, T, d)`` and each segment's end in the pack."""
        cfg = self.config
        for seg in segments:
            self._check_caches(seg.caches, seg.offset)
        lens = [seg.ids.size for seg in segments]
        ends = list(accumulate(lens))
        spans = [(e - k, e) for e, k in zip(ends, lens)]
        positions = np.repeat(
            [seg.offset - s for seg, (s, _) in zip(segments, spans)], lens
        ) + np.arange(ends[-1])
        ids = np.concatenate([seg.ids for seg in segments])[None, :]
        x, _ = L.embedding_fwd(ids, p["embed"])              # (1, T, d)
        if cfg.arch == "opt":
            x = x + p["pos_embed"][positions][None, :, :]

        decode = [seg for seg in segments if seg.kind == MixedSegment.DECODE]
        rows = [s for seg, (s, _) in zip(segments, spans)
                if seg.kind == MixedSegment.DECODE]
        if rows and rows[-1] - rows[0] == len(rows) - 1:
            # Contiguous decode rows (the engine packs them first) are
            # one slice of the pack: the K/V writes skip a gather.
            rows = slice(rows[0], rows[-1] + 1)
        chunks = [(seg, s, e) for seg, (s, e) in zip(segments, spans)
                  if seg.kind != MixedSegment.DECODE]

        def mixer(i, qp, kp, vp):
            qh, kh, vh = (_split_heads(a, cfg.n_heads)[0] for a in (qp, kp, vp))
            qh, kh = self._rope(L.apply_rope_ragged, qh, kh, positions)  # (H, T, dh)
            with _NULL_CTX if trace is None else trace("append"):
                if decode:
                    layer_caches = [seg.caches[i] for seg in decode]
                    type(layer_caches[0]).append_batch(
                        layer_caches,
                        kh[:, rows, :].transpose(1, 0, 2),
                        vh[:, rows, :].transpose(1, 0, 2),
                    )
                for seg, s, e in chunks:
                    seg.caches[i].prefill_chunk(
                        kh[:, s:e, :], vh[:, s:e, :],
                        final=seg.kind == MixedSegment.CHUNK_FINAL,
                    )
            att = [
                L.cached_attention_fwd(qh[:, s:e, :], seg.caches[i].keys(),
                                       seg.caches[i].values(), offset=seg.offset)
                for seg, (s, e) in zip(segments, spans)
            ]
            return _merge_heads(np.concatenate(att, axis=1)[None])  # (1, T, d)

        q = _act_quantizer(act_quant, axis=1, cuts=ends[:-1])
        return self._stack(x, p, q, mixer), ends

    # ==================================================================
    # Training: loss + full gradients
    # ==================================================================
    def loss_and_grads(self, ids: np.ndarray, targets: np.ndarray):
        """Mean next-token NLL and gradients for every parameter."""
        cfg = self.config
        p = self.params
        grads = {k: np.zeros_like(v) for k, v in p.items()}
        tapes = []

        x, emb_cache = L.embedding_fwd(ids, p["embed"])
        if cfg.arch == "opt":
            x = x + p["pos_embed"][: ids.shape[1]]

        for i in range(cfg.n_layers):
            pre = f"layers.{i}."
            tape: dict = {}
            h, tape["n1"] = self._norm_fwd(x, p, pre + "norm1")
            qp, tape["wq"] = L.linear_fwd(h, p[pre + "attn.wq"])
            kp, tape["wk"] = L.linear_fwd(h, p[pre + "attn.wk"])
            vp, tape["wv"] = L.linear_fwd(h, p[pre + "attn.wv"])
            qh = _split_heads(qp, cfg.n_heads)
            kh = _split_heads(kp, cfg.n_heads)
            vh = _split_heads(vp, cfg.n_heads)
            if cfg.arch == "llama":
                qh, tape["rope_q"] = L.rope_fwd(qh, self._cos, self._sin)
                kh, tape["rope_k"] = L.rope_fwd(kh, self._cos, self._sin)
            att, tape["attn"] = L.causal_attention_fwd(qh, kh, vh)
            att_m = _merge_heads(att)
            o, tape["wo"] = L.linear_fwd(att_m, p[pre + "attn.wo"])
            x = x + o

            h2, tape["n2"] = self._norm_fwd(x, p, pre + "norm2")
            if cfg.arch == "llama":
                g, tape["wgate"] = L.linear_fwd(h2, p[pre + "ffn.wgate"])
                u, tape["wup"] = L.linear_fwd(h2, p[pre + "ffn.wup"])
                act, tape["silu"] = L.silu_fwd(g)
                gated = act * u
                tape["gate_mul"] = (act, u)
                ff, tape["wdown"] = L.linear_fwd(gated, p[pre + "ffn.wdown"])
            else:
                a1, tape["w1"] = L.linear_fwd(h2, p[pre + "ffn.w1"])
                act, tape["relu"] = L.relu_fwd(a1)
                ff, tape["w2"] = L.linear_fwd(act, p[pre + "ffn.w2"])
            x = x + ff
            tapes.append(tape)

        xf, nf_cache = self._norm_fwd(x, p, "norm_f")
        logits = xf @ p["embed"].T
        loss, ce_cache = L.cross_entropy_fwd(logits, targets)

        # ----------------------------- backward -----------------------
        dlogits = L.cross_entropy_bwd(ce_cache)
        dxf = dlogits @ p["embed"]
        grads["embed"] += dlogits.reshape(-1, dlogits.shape[-1]).T @ xf.reshape(
            -1, xf.shape[-1]
        )
        if cfg.arch == "llama":
            dx, dg = L.rmsnorm_bwd(dxf, nf_cache)
            grads["norm_f.g"] += dg
        else:
            dx, dg, db = L.layernorm_bwd(dxf, nf_cache)
            grads["norm_f.g"] += dg
            grads["norm_f.b"] += db

        for i in reversed(range(cfg.n_layers)):
            pre = f"layers.{i}."
            tape = tapes[i]
            # FFN branch
            if cfg.arch == "llama":
                dgated, dwdown = L.linear_bwd(dx, tape["wdown"])
                grads[pre + "ffn.wdown"] += dwdown
                act, u = tape["gate_mul"]
                dact = dgated * u
                du = dgated * act
                dg_ = L.silu_bwd(dact, tape["silu"])
                dh2a, dwgate = L.linear_bwd(dg_, tape["wgate"])
                dh2b, dwup = L.linear_bwd(du, tape["wup"])
                grads[pre + "ffn.wgate"] += dwgate
                grads[pre + "ffn.wup"] += dwup
                dh2 = dh2a + dh2b
                dxn, dgain = L.rmsnorm_bwd(dh2, tape["n2"])
                grads[pre + "norm2.g"] += dgain
            else:
                dact, dw2 = L.linear_bwd(dx, tape["w2"])
                grads[pre + "ffn.w2"] += dw2
                da1 = L.relu_bwd(dact, tape["relu"])
                dh2, dw1 = L.linear_bwd(da1, tape["w1"])
                grads[pre + "ffn.w1"] += dw1
                dxn, dgain, dbias = L.layernorm_bwd(dh2, tape["n2"])
                grads[pre + "norm2.g"] += dgain
                grads[pre + "norm2.b"] += dbias
            dx = dx + dxn

            # Attention branch
            datt_m, dwo = L.linear_bwd(dx, tape["wo"])
            grads[pre + "attn.wo"] += dwo
            b, t, _ = datt_m.shape
            datt = _split_heads(datt_m, cfg.n_heads)
            dqh, dkh, dvh = L.causal_attention_bwd(datt, tape["attn"])
            if cfg.arch == "llama":
                dqh = L.rope_bwd(dqh, tape["rope_q"])
                dkh = L.rope_bwd(dkh, tape["rope_k"])
            dqp = _merge_heads(dqh)
            dkp = _merge_heads(dkh)
            dvp = _merge_heads(dvh)
            dh_q, dwq = L.linear_bwd(dqp, tape["wq"])
            dh_k, dwk = L.linear_bwd(dkp, tape["wk"])
            dh_v, dwv = L.linear_bwd(dvp, tape["wv"])
            grads[pre + "attn.wq"] += dwq
            grads[pre + "attn.wk"] += dwk
            grads[pre + "attn.wv"] += dwv
            dh = dh_q + dh_k + dh_v
            if cfg.arch == "llama":
                dxn, dgain = L.rmsnorm_bwd(dh, tape["n1"])
                grads[pre + "norm1.g"] += dgain
            else:
                dxn, dgain, dbias = L.layernorm_bwd(dh, tape["n1"])
                grads[pre + "norm1.g"] += dgain
                grads[pre + "norm1.b"] += dbias
            dx = dx + dxn

        if cfg.arch == "opt":
            grads["pos_embed"][: ids.shape[1]] += dx.sum(axis=0)
        grads["embed"] += L.embedding_bwd(dx, emb_cache)
        return loss, grads
