"""Per-layer spans for the benchmark's traced run.

:func:`instrumented` wraps the public functions each layer of the
serving stack exposes — the engine tick, the model forwards, the dense
kernels in ``repro.model.layers``, the activation quantizer, the KV
cache writes, the MANT codec and selector, paged gathers and the
sampler — for the duration of a ``with`` block, and restores them on
exit.  Nothing under ``src/`` changes; the wrappers live here.

A :class:`SpanRecorder` keeps per-name totals (calls, inclusive time,
self time and work units such as MACs, elements or bytes) for every
call, and the first ``SPANS_PER_PHASE`` spans of each phase themselves,
with name, start, end, parent span and tick id, for the Chrome-trace
file.
Self time is a span's duration minus the time its child spans cover.
A function that re-enters a span of the same name directly (a public
selector calling the other public selector) is folded into the outer
span, so calls are counted once.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

SPANS_PER_PHASE = 10_000

# Span names whose inclusive time is "the model forward" of a tick.
FORWARD_SPANS = ("model.decode_step_batch", "model.forward_mixed")


class SpanRecorder:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.work = defaultdict(float)      # "<span>.<unit>" -> amount
        self.tick = -1
        self.tick_s: list[float] = []
        self.spans: list[list] = []          # [name, start, end, parent, tick]
        self.dropped = 0
        self._save_until = 0
        self._stack: list[list] = []         # [name, child_s, span index]

    def new_phase(self) -> None:
        """Save the next ``SPANS_PER_PHASE`` spans."""
        self._save_until = len(self.spans) + SPANS_PER_PHASE

    def wrap(self, name: str, fn, work=None):
        """``fn`` under a span ``name``; ``work(args, out)`` returns a
        ``{unit: amount}`` dict added to this span's work counters."""
        rec = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = rec._stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if name == "serve.tick":
                rec.tick += 1
            parent = stack[-1][2] if stack else -1
            if len(rec.spans) < rec._save_until:
                index = len(rec.spans)
                span = [name, 0.0, 0.0, parent, rec.tick]
                rec.spans.append(span)
            else:
                index, span = -1, None
                rec.dropped += 1
            frame = [name, 0.0, index]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                rec.calls[name] += 1
                rec.total_s[name] += dur
                rec.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if span is not None:
                    span[1], span[2] = start, end
                if name == "serve.tick":
                    rec.tick_s.append(dur)
            if work is not None:
                for unit, amount in work(args, out).items():
                    rec.work[f"{name}.{unit}"] += amount
            return out

        return traced

    # -- reporting -----------------------------------------------------
    def layer_table(self) -> list[tuple[str, int, float, float]]:
        """(span, calls, self ms per tick, inclusive ms per tick), by
        descending self time."""
        ticks = max(1, len(self.tick_s))
        rows = [(n, self.calls[n], 1e3 * self.self_s[n] / ticks,
                 1e3 * self.total_s[n] / ticks) for n in self.calls]
        return sorted(rows, key=lambda r: -r[2])

    def save_chrome_trace(self, path: str, extra_events=(), metadata=None) -> int:
        """Write the saved spans (plus ``extra_events``, whose ``ts`` and
        ``dur`` are seconds on a clock of their own) as Chrome-trace JSON;
        returns the number of events written."""
        starts = [s[1] for s in self.spans]
        base = min(starts) if starts else 0.0
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - base) * 1e6, "dur": (end - start) * 1e6,
             "args": {"span": i, "parent": parent, "tick": tick}}
            for i, (name, start, end, parent, tick) in enumerate(self.spans)
        ]
        for ev in extra_events:
            ev = dict(ev)
            ev["ts"] *= 1e6
            ev["dur"] *= 1e6
            events.append(ev)
        doc = {"traceEvents": events, "displayTimeUnit": "ms",
               "metadata": dict(metadata or {}, dropped_spans=self.dropped)}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return len(events)


def _attention(rec: SpanRecorder, fn):
    """``cached_attention_fwd`` with the paged gathers done up front, so
    context length and bytes read are counted from the materialized K/V
    arrays (the gathers still run through the wrapped
    ``PagedView.gather``)."""
    def attention(q, keys, values, offset=0):
        if hasattr(keys, "gather"):
            keys = keys.gather()
        if hasattr(values, "gather"):
            values = values.gather()
        rec.work["model.attn.queries"] += q.shape[-2]
        rec.work["model.attn.ctx_tokens"] += keys.shape[-2]
        rec.work["model.attn.bytes"] += keys.nbytes + values.nbytes
        return fn(q, keys, values, offset=offset)

    return rec.wrap("model.attn", attention)


@contextlib.contextmanager
def instrumented(rec: SpanRecorder):
    """Patch the layer boundaries to record into ``rec``; restore after."""
    from repro.core.codec import MantCodec
    from repro.core.selection import VarianceSelector
    from repro.model import layers
    from repro.model.transformer import TransformerLM
    from repro.quant.quantizer import GroupQuantizer
    from repro.sampling import Sampler
    from repro.serve.engine import GenerationEngine
    from repro.serve.paging import PagedKVCache, PagedView

    def method(owner, attr, name, work=None):
        return owner, attr, rec.wrap(name, vars(owner)[attr], work)

    def classmethod_(owner, attr, name, work=None):
        fn = vars(owner)[attr].__func__
        return owner, attr, classmethod(rec.wrap(name, fn, work))

    patches = [
        method(GenerationEngine, "step", "serve.tick"),
        method(TransformerLM, "decode_step_batch", "model.decode_step_batch"),
        method(TransformerLM, "forward_mixed", "model.forward_mixed"),
        method(layers, "linear_fwd", "model.linear",
               lambda a, out: {"macs": a[0].size * a[1].shape[0]}),
        (layers, "cached_attention_fwd",
         _attention(rec, layers.cached_attention_fwd)),
        method(layers, "apply_rope_at", "model.rope"),
        method(layers, "apply_rope_ragged", "model.rope"),
        method(layers, "apply_rope", "model.rope"),
        method(GroupQuantizer, "qdq", "quant.act",
               lambda a, out: {"elems": a[1].size}),
        classmethod_(PagedKVCache, "append_batch", "quant.kv_append",
                     lambda a, out: {"rows": len(a[1])}),
        method(PagedKVCache, "prefill_chunk", "quant.kv_prefill",
               lambda a, out: {"tokens": a[1].shape[1]}),
        method(VarianceSelector, "select_batch", "core.select"),
        method(VarianceSelector, "select_from_variances", "core.select"),
        method(MantCodec, "encode", "core.encode",
               lambda a, out: {"elems": a[1].size}),
        method(MantCodec, "decode", "core.decode",
               lambda a, out: {"elems": out.size}),
        method(PagedView, "gather", "paging.gather"),
        method(Sampler, "sample", "sampling"),
    ]
    saved = []
    try:
        for owner, attr, new in patches:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)
        yield rec
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
