"""Continuous-batching generation engine over pooled quantized KV caches.

The engine turns the repo's single-stream ``prefill``/``decode_step``
generation into multi-tenant serving:

* clients :meth:`~GenerationEngine.submit` concurrent
  :class:`GenerationRequest`s and get back a
  :class:`~repro.serve.request.RequestHandle` (a ``str`` equal to the
  request id, with ``.stream()``/``.result()``/``.cancel()`` attached);
* a :class:`~repro.serve.scheduler.Scheduler` admits them into a
  dynamic decode batch (new requests join as others finish) under a
  batch-size cap, an optional KV token budget and the pool's actually
  free pages (prefix-aware: pages a prefix-cache match covers are not
  charged).  Every *ordering* decision — who admits first, who
  receives prefill chunks, who gets preempted — is
  delegated to the config's :class:`~repro.serve.policy.
  SchedulerPolicy` (FCFS by default, bit-for-bit the pre-policy
  engine; strict-priority and EDF-deadline policies ship alongside);
* each :meth:`~GenerationEngine.step` runs *one* fused tick for every
  running sequence, each attending through its own pooled
  FP16/INT/MANT cache at its own position: the decode rows *plus* a
  set of prompt chunks packed into one
  :meth:`~repro.model.transformer.TransformerLM.forward_mixed` call.
  Admission runs no forward; a prompt is one chunk, or, with
  ``ServeConfig.prefill_chunk_tokens`` set, window-aligned chunks
  under a token budget (``max_tokens_per_tick``, Sarathi-style);
* a request with ``n > 1`` prefills its prompt **once**; when the
  prefill completes, the engine forks the paged lease copy-on-write
  per extra sample (:meth:`~repro.serve.paging.PagedLease.fork`), and
  every sample decodes as its own batch lane with an RNG stream
  derived from ``(seed, sample_index)``;
* requests can be :meth:`cancelled <GenerationEngine.cancel>` in any
  state — queued, mid-chunked-prefill, or decoding — releasing their
  pool blocks and finishing with ``FINISH_CANCELLED``;
* tokens stream out per request through :class:`TokenEvent`s (iterator
  via :meth:`run`, a per-request ``on_token`` callback, or
  ``handle.stream()``), optionally carrying incremental text from a
  pluggable ``detokenize`` callback; per-request TTFT and inter-token
  latencies aggregate into :class:`EngineStats` percentiles;
* every statistic lives in a :class:`~repro.serve.observe.
  MetricsRegistry` (``engine.metrics`` — Prometheus-exportable,
  fleet-mergeable); with ``ServeConfig.observe`` (default on) each
  tick's phases are traced into named nested spans (``engine.trace``,
  Chrome-trace/Perfetto export via ``engine.trace.save(path)``) and
  every request records a lifecycle timeline
  (:class:`~repro.serve.observe.RequestTrace`: submit → admit →
  prefill chunks → preemptions/retries/faults → first token → finish)
  retrievable via ``handle.trace()`` and serialized into
  :attr:`~repro.serve.request.GenerationResult.trace`.

KV storage is fixed-size pages from one
:class:`~repro.serve.paging.BlockPool`: admission on actually-free
blocks instead of worst-case token budgets, on-demand page allocation
each tick, hash-based prefix sharing of identical full prompt pages
(matched just before a prompt's first chunk, so requests admitted in
one wave share the pages the first of them computes, and the matched
pages' compute is skipped),
copy-on-write forks for ``n > 1``, and preemption-by-recompute
(policy-chosen victim, back to the queue) when the pool runs dry
mid-decode.

Determinism guarantee: every tick is one
:meth:`~repro.model.transformer.TransformerLM.forward_mixed` call
(decode-only ticks are all-``DECODE`` segments), and every sample draws
from its own seeded RNG, so a request's output never depends on which
other requests shared its batch — under the default FCFS policy, greedy
engine output == the plain ``prefill`` + ``decode_step`` loop, token
for token, for every cache type, with and without prefix sharing,
whole-prompt or chunked.  The guarantee is token-level, not bitwise: cache
quantization is per token (and chunk boundaries land on
quantization-window boundaries by construction), so the one thing
separating a tick from the single-stream loop is that the packed
``(1, T, d)`` GEMMs may wobble in the last float ulp against the
single-stream ``(1, 1, d)`` ones — BLAS kernels are not bitwise
row-count-invariant — and quantization grids absorb that wobble.  A
whole prompt's first-token logits, too, come from ``forward_mixed``'s
one-row projection, not from ``prefill``'s all-row one.  The
bitwise batched-decode oracle lives at model level:
:meth:`~repro.model.transformer.TransformerLM.decode_step_batch` rows
equal ``decode_step`` byte for byte.  (Preemption is the one
exception: a preempted request's suffix is *recomputed* through the
prefill path, which re-quantizes decode-staged MANT windows from
scratch — the same trade every recompute-based paged server makes.  A
preempted half-prefilled prompt simply replays from token zero.)
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.model.transformer import MixedSegment
from repro.serve.config import ServeConfig
from repro.serve.faults import ALLOC, CALLBACK, FORWARD, InjectedFault
from repro.serve.observe import MetricsRegistry, RequestTrace, TickTracer
from repro.serve.paging import BlockPool, PoolExhausted, validate_block_compat
from repro.serve.request import (
    FINISH_CANCELLED,
    FINISH_ERROR,
    FINISH_LENGTH,
    FINISH_STOP,
    FINISH_TIMEOUT,
    GenerationRequest,
    GenerationResult,
    PrefillCursor,
    RequestHandle,
    SampleOutput,
    TokenEvent,
)
from repro.sampling import Sampler, SamplingParams
from repro.serve.scheduler import QueueFullError, Scheduler

__all__ = ["GenerationEngine", "EngineStats"]

# Finish reasons that mean "the request did not complete normally" —
# excluded from the requests_completed / queue-latency statistics.
_ABNORMAL_FINISH = (FINISH_CANCELLED, FINISH_TIMEOUT, FINISH_ERROR)

# Samples retained per latency histogram (TTFT / inter-token); the
# EngineStats percentiles describe the most recent window of traffic.
# (Also the Histogram reservoir size, so registry-backed percentiles
# are computed over exactly the same window as before the registry.)
LATENCY_WINDOW = 4096

# ServeConfig fields that version-1 snapshots written by older engines
# carry but the config no longer has (the retired contiguous-storage
# switch and its initial capacity, and the per-engine strict-mode
# switch REPRO_SERVE_STRICT=1 replaces).  restore() drops them, so such
# a snapshot resumes on pages — token-identical for fp16/int4.
_RETIRED_CONFIG_KEYS = frozenset({"paged", "initial_cache_capacity",
                                  "check_invariants"})


class _Sequence:
    """Engine-internal state of one in-flight sample lane.

    A request with ``n == 1`` is exactly one sequence.  With ``n > 1``
    the submitted sequence is *sample 0* and reserves ``n`` batch lanes
    (``lanes``); its siblings are materialized by the engine when the
    shared prefill completes, each holding its own lease and sampler
    but the same ``family`` list and request.
    """

    __slots__ = (
        "request", "sampler", "on_token", "lease", "pos", "next_token",
        "tokens", "finished", "finish_reason", "decode_steps",
        "submit_time", "admit_time", "resuming", "text_len",
        "cursor", "pending_ids", "hashes", "prefill_chunks",
        "first_token_time", "last_token_time",
        "arrival_seq", "sample_index", "lanes", "family", "retired",
        "retries", "error", "timeout_s", "cancelled_samples",
    )

    def __init__(self, request: GenerationRequest, on_token, submit_time: float,
                 sample_index: int = 0):
        self.request = request
        self.sampler = Sampler(request.sampling, sample_index=sample_index)
        self.on_token = on_token
        self.lease = None
        self.pos = 0
        self.next_token = None
        self.tokens: list[int] = []
        self.finished = False
        self.finish_reason: str | None = None
        self.decode_steps = 0
        self.submit_time = submit_time
        self.admit_time = float("nan")
        self.resuming = False        # preempted: rebuild cache, don't re-emit
        self.text_len = 0            # detokenized chars already streamed
        self.cursor: PrefillCursor | None = None   # prefill progress
        self.pending_ids = None      # ids the in-flight prefill covers
        self.hashes = None           # their page hashes (prefix cache)
        self.prefill_chunks = 0      # chunks this request's prompt took
        self.first_token_time = float("nan")       # TTFT endpoint
        self.last_token_time = float("nan")        # inter-token latency anchor
        self.arrival_seq = 0         # engine-wide submission order stamp
        self.sample_index = sample_index
        # Sample 0 reserves every sibling's lane until the fork happens.
        self.lanes = request.n if sample_index == 0 else 1
        self.family: list[_Sequence] = [self]
        self.retired = False         # storage released, awaiting siblings
        self.retries = 0             # transient-fault recomputes charged so far
        self.error = None            # first fault/exception message, if any
        self.timeout_s = None        # effective hard budget, stamped at submit
        # Sample indices cancelled before the fork (held by sample 0):
        # the fork materializes these as already-cancelled stubs.
        self.cancelled_samples: set[int] = set()

    @property
    def prefill_len(self) -> int:
        """Tokens the next prefill must run (grows after preemption)."""
        n = int(self.request.prompt.size)
        if self.resuming:
            n += max(0, len(self.tokens) - 1)
        return n

    @property
    def token_footprint(self) -> int:
        """Worst-case KV tokens this sequence still accounts for
        (pre-fork sample 0 carries the whole family)."""
        return self.lanes * self.request.token_footprint

    def prefill_ids(self) -> np.ndarray:
        """Prompt ids — plus already-generated tokens when resuming.

        ``tokens[-1]`` (== ``next_token``) is excluded: it has been
        emitted but not yet fed, exactly as in the uninterrupted loop.
        """
        prompt = self.request.prompt
        if self.resuming and len(self.tokens) > 1:
            return np.concatenate(
                [prompt, np.asarray(self.tokens[:-1], dtype=np.int64)]
            )
        return prompt


@dataclass(frozen=True)
class EngineStats:
    """Aggregate serving statistics since engine construction.

    Every field is a read of the engine's
    :class:`~repro.serve.observe.MetricsRegistry` (``engine.metrics``)
    — the registry is the single source of truth, this dataclass just a
    stable snapshot of it (``STATS_METRICS`` maps the integer fields to
    their registered metric names; the float fields derive from the
    registry's histograms and gauges).

    Two elapsed-time views, both driven by the engine's *injectable*
    clock (the one faults can skew — the ``observe`` tracer keeps its
    own):

    * ``elapsed_s`` — time spent *inside* :meth:`GenerationEngine.step`,
      idle gaps between ticks excluded; the denominator of
      ``tokens_per_s``.
    * ``wall_elapsed_s`` — first engine clock read to the latest one
      (submit or tick, whichever came first/last), idle gaps included.
      ``0.0`` before the clock is ever read.

    The queue-latency fields (``mean_queue_latency_s`` /
    ``max_queue_latency_s``) measure submit → first admission on that
    same injectable clock, over *normally completed* requests only.
    """

    scheduler_policy: str         # name of the active SchedulerPolicy
    requests_submitted: int
    requests_completed: int
    requests_queued: int          # current queue depth
    requests_running: int
    requests_rejected: int        # submit-time backpressure/budget rejections
    requests_cancelled: int       # client cancellations (any state)
    requests_timed_out: int       # hard per-request timeout expirations
    requests_failed: int          # finished FINISH_ERROR (fault / bad callback)
    retries: int                  # transient-fault recompute replays
    snapshot_restores: int        # requests re-queued by GenerationEngine.restore
    tokens_generated: int
    decode_ticks: int
    mean_batch_occupancy: float   # sequences per decode tick
    batch_lanes: int              # configured max_batch_size (occupancy ceiling)
    elapsed_s: float              # time spent inside step(), idle gaps excluded
    wall_elapsed_s: float         # first -> last engine clock read, idle included
    tokens_per_s: float           # aggregate serving throughput over elapsed_s
    mean_queue_latency_s: float
    max_queue_latency_s: float
    cache_slots: int              # pool blocks total
    cache_slots_high_water: int
    preemptions: int              # sequences bumped back to the queue
    prefix_hit_tokens: int        # prompt tokens served from shared pages
    prefill_chunks: int           # prompt chunks run in mixed ticks (a whole
                                  # prompt is one)
    prefill_tokens: int           # prompt tokens actually run through the model
    ttft_p50_s: float             # submit -> first token percentiles (NaN if none)
    ttft_p95_s: float
    inter_token_p50_s: float      # gap between consecutive tokens of one request
    inter_token_p95_s: float
    prompt_tokens: int = 0        # prompt tokens admitted: computed + skipped

    # Stats-field -> registry-metric-name contract.  Every field listed
    # here is, by construction, a verbatim read of that metric's current
    # value; the test suite enforces the mapping (and that every integer
    # field is covered) so no counter can silently drift off the
    # registry.  Unlisted fields are derived (ratios, percentiles) or
    # non-numeric (scheduler_policy).
    STATS_METRICS = {
        "requests_submitted": "requests_submitted",
        "requests_completed": "requests_completed",
        "requests_queued": "requests_queued",
        "requests_running": "requests_running",
        "requests_rejected": "requests_rejected",
        "requests_cancelled": "requests_cancelled",
        "requests_timed_out": "requests_timed_out",
        "requests_failed": "requests_failed",
        "retries": "retries",
        "snapshot_restores": "snapshot_restores",
        "tokens_generated": "tokens_generated",
        "decode_ticks": "decode_ticks",
        "batch_lanes": "batch_lanes",
        "cache_slots": "cache_slots",
        "cache_slots_high_water": "cache_slots_high_water",
        "preemptions": "preemptions",
        "prefix_hit_tokens": "prefix_hit_tokens",
        "prefill_chunks": "prefill_chunks",
        "prefill_tokens": "prefill_tokens",
        "prompt_tokens": "prompt_tokens",
        "elapsed_s": "engine_busy_seconds",
        "wall_elapsed_s": "wall_seconds",
    }

    def summary(self) -> dict:
        """Field dict for reporting: NaN placeholders render as ``None``.

        Before any token exists the TTFT/inter-token percentiles are
        NaN internally; a dashboard serializing this summary gets
        ``None`` (JSON ``null``) instead of a not-a-number literal.

        The extra ``"derived"`` section carries the ratios a fleet
        dashboard wants precomputed: ``tokens_per_s``,
        ``occupancy_pct`` (mean decode occupancy over ``batch_lanes``),
        ``prefix_hit_ratio`` (prompt tokens whose pages came from the
        prefix cache, over all prompt tokens admitted — computed or
        skipped) and
        ``retry_rate`` (transient-fault replays per submitted request).
        Zero denominators yield ``0.0``, never a division error.
        """
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and math.isnan(value):
                value = None
            out[f.name] = value
        out["derived"] = {
            "tokens_per_s": self.tokens_per_s,
            "occupancy_pct": (
                100.0 * self.mean_batch_occupancy / self.batch_lanes
                if self.batch_lanes else 0.0
            ),
            "prefix_hit_ratio": (
                self.prefix_hit_tokens / self.prompt_tokens
                if self.prompt_tokens else 0.0
            ),
            "retry_rate": (
                self.retries / self.requests_submitted
                if self.requests_submitted else 0.0
            ),
        }
        return out


class GenerationEngine:
    """Schedule many :class:`GenerationRequest`s through one model.

    ``cache_factory`` builds one buffered KV cache (FP16/INT/MANT —
    anything the paged storage can carve); the engine owns a
    :class:`~repro.serve.paging.BlockPool` of fixed-size pages shared
    by all lanes.  ``weights``/``act_quant`` are the usual quantization
    hooks, applied identically to every request.  ``detokenize`` is an
    optional ``(token_ids) -> str`` callback; when given, every emitted
    :class:`TokenEvent` carries the incremental ``text`` suffix.
    ``policy`` overrides the config's ``scheduler_policy`` with a
    ready-made :class:`~repro.serve.policy.SchedulerPolicy` instance.
    ``faults`` takes a :class:`~repro.serve.faults.FaultInjector`; its
    armed rules fire at the engine's named injection sites (``forward``,
    ``alloc``, ``callback``, ``clock``) and exercise exactly the
    recovery paths real faults take.

    ``metrics`` supplies the :class:`~repro.serve.observe.
    MetricsRegistry` the engine registers every statistic in (a fresh
    one by default; pass labeled registries to tell replicas apart in a
    fleet export).  ``trace_clock`` overrides the tick tracer's clock —
    deliberately a *separate* clock from the engine's injectable
    ``clock`` so tracing never changes the engine-clock read count the
    fault injector's ``clock_skew`` rules key off, i.e. observability
    on/off cannot perturb scheduling or determinism.
    """

    def __init__(
        self,
        model,
        cache_factory,
        config: ServeConfig = ServeConfig(),
        weights=None,
        act_quant=None,
        clock=time.perf_counter,
        detokenize=None,
        policy=None,
        faults=None,
        metrics: MetricsRegistry | None = None,
        trace_clock=None,
    ):
        self.model = model
        self.config = config
        self.weights = weights
        self.act_quant = act_quant
        self._faults = faults
        if faults is not None:
            clock = faults.wrap_clock(clock)
        self._clock = clock
        self._t_first = None         # first/latest engine-clock reads:
        self._t_last = None          # the wall_elapsed_s anchors
        self._detokenize = detokenize
        self._cache_factory = cache_factory
        self._observe = bool(config.observe)
        self._tracer = TickTracer(clock=trace_clock, enabled=self._observe)
        self._tracer.extra_provider = self._trace_extra
        # Span factory handed down into the model so cache appends get
        # honest "append" spans inside "forward"; None disables the
        # nested spans without the model importing anything from serve.
        self._model_trace = self._tracer.span if self._observe else None
        self._req_traces: dict[str, RequestTrace] = {}
        if faults is not None and self._observe:
            # Join fired faults into the victim's timeline + tick trace.
            faults.on_fire(self._fault_fired)
        self.scheduler = Scheduler(config, policy=policy)
        # Chunks are whole pages (ServeConfig) and pages whole V windows
        # (here), so no temporal quantization group straddles either.
        validate_block_compat(cache_factory(), config.block_tokens)
        num_blocks = config.num_blocks
        if num_blocks is None:
            # Worst case (every lane at max_seq); smaller pools turn on
            # real admission control and preemption.
            num_blocks = (
                math.ceil(model.config.max_seq / config.block_tokens)
                * config.max_batch_size
            )
        self.pool = BlockPool(
            n_layers=model.config.n_layers,
            block_tokens=config.block_tokens,
            num_blocks=num_blocks,
            enable_prefix_cache=config.enable_prefix_cache,
            faults=faults,
        )
        self.scheduler.bind_block_gauge(
            lambda: self.pool.blocks_available, config.block_tokens,
            prefix_probe=self._attached_pages,
        )
        self._results: dict[str, GenerationResult] = {}
        self._active_ids: set[str] = set()
        self._arrivals = 0           # submission-order stamp, not a metric
        # Every statistic is a registry instrument from birth — stats()
        # is a *read* of the registry, never a separate tally.  The
        # private attributes keep their historical names so every
        # counting site below just swaps `+= n` for `.inc(n)`.
        m = self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._submitted = m.counter(
            "requests_submitted", "Requests accepted by submit()")
        self._completed = m.counter(
            "requests_completed", "Requests finished normally (length/stop)")
        self._rejected = m.counter(
            "requests_rejected", "Submit-time backpressure/budget rejections")
        self._cancelled = m.counter(
            "requests_cancelled", "Client cancellations, any state")
        self._timed_out = m.counter(
            "requests_timed_out", "Hard per-request timeout expirations")
        self._failed = m.counter(
            "requests_failed", "Requests finished FINISH_ERROR")
        self._retries = m.counter(
            "retries", "Transient-fault recompute replays")
        self._restored = m.counter(
            "snapshot_restores", "Requests re-queued by restore()")
        self._preemptions = m.counter(
            "preemptions", "Sequences bumped back to the queue")
        self._tokens_generated = m.counter(
            "tokens_generated", "Output tokens emitted")
        self._decode_ticks = m.counter(
            "decode_ticks", "Ticks that ran at least one decode row")
        self._occupancy_sum = m.counter(
            "decode_lane_ticks", "Sum of decode rows over decode ticks "
            "(mean occupancy numerator)")
        self._busy_s = m.counter(
            "engine_busy_seconds", "Injectable-clock seconds spent inside step()")
        self._prefill_chunks = m.counter(
            "prefill_chunks", "Prompt chunks run in mixed ticks")
        self._prefill_tokens = m.counter(
            "prefill_tokens", "Prompt tokens actually run through the model")
        self._prompt_tokens = m.counter(
            "prompt_tokens", "Prompt tokens admitted (computed + skipped "
            "by prefix-cache hits; replays included)")
        # Latency histograms: log-scale buckets for the exposition plus a
        # bounded exact reservoir (LATENCY_WINDOW samples) so the
        # EngineStats percentiles stay bit-identical to the pre-registry
        # rolling-deque implementation.
        self._ttfts = m.histogram(
            "ttft_seconds", "Submit -> first emitted token",
            reservoir=LATENCY_WINDOW)
        self._itls = m.histogram(
            "inter_token_seconds", "Gap between consecutive tokens of one request",
            reservoir=LATENCY_WINDOW)
        self._queue_lat = m.histogram(
            "queue_latency_seconds",
            "Submit -> first admission (normally completed requests)",
            reservoir=LATENCY_WINDOW)
        # Live gauges over the scheduler, the storage backend and the
        # engine itself — sampled at read time, zero steady-state cost.
        self.scheduler.bind_metrics(m)
        self.pool.bind_metrics(m)
        self._g_cache_slots = m.gauge(
            "cache_slots", "Pool blocks total", fn=lambda: self.pool.num_blocks)
        self._g_cache_high = m.gauge(
            "cache_slots_high_water", "Peak pool blocks in use",
            fn=lambda: self.pool.high_water)
        self._g_prefix_hits = m.gauge(
            "prefix_hit_tokens", "Prompt tokens served from shared pages",
            fn=lambda: self.pool.prefix_hit_tokens)
        m.gauge("batch_lanes", "Configured max_batch_size",
                fn=lambda: self.config.max_batch_size)
        m.gauge("wall_seconds", "First -> latest engine clock read",
                fn=self._wall_elapsed)
        self._stepping = False       # guards reentrant cancel from callbacks
        self._draining = False       # drain(): admission stopped
        # Timeout sweeps cost a pass over queue + running set per tick;
        # skip them entirely until some request actually has a budget.
        self._timeouts_armed = config.request_timeout_s is not None
        # Strict mode: check_invariants() after every tick (O(blocks)).
        # The test suite sets REPRO_SERVE_STRICT=1 so every serving test
        # runs checked.
        self._strict = os.environ.get("REPRO_SERVE_STRICT", "") == "1"

    # ------------------------------------------------------------------
    # Clock & observability plumbing
    # ------------------------------------------------------------------
    def _now(self) -> float:
        """The engine's single seam over the injectable clock.

        Every read routes through here so the wall-clock anchors behind
        ``EngineStats.wall_elapsed_s`` are stamped without adding clock
        reads — the fault injector's ``clock_skew(after=N)`` rules count
        reads, so the read schedule must be identical with or without
        observability.
        """
        t = self._clock()
        if self._t_first is None:
            self._t_first = t
        self._t_last = t
        return t

    def _wall_elapsed(self) -> float:
        if self._t_first is None:
            return 0.0
        return self._t_last - self._t_first

    @property
    def trace(self) -> TickTracer:
        """The engine's tick tracer.  ``engine.trace.save(path)``
        exports Chrome-trace/Perfetto JSON — phase spans, fault
        instants, a metrics snapshot and every live request timeline."""
        return self._tracer

    def request_trace(self, request_id: str) -> RequestTrace | None:
        """One request's live lifecycle timeline, or ``None`` when
        observability is off, the id is unknown, or the result was
        already popped (``GenerationResult.trace`` keeps a copy)."""
        return self._req_traces.get(str(request_id))

    def _trace_extra(self) -> dict:
        """Extra top-level sections for the exported trace JSON."""
        return {
            "metrics": self.metrics.to_dict(),
            "requestTimelines": {
                rid: t.to_events() for rid, t in self._req_traces.items()
            },
        }

    def _tl(self, seq: _Sequence, event: str, **detail) -> None:
        """Append one lifecycle event to the request's timeline (no-op
        with observability off).  Sibling samples share one timeline;
        non-zero lanes tag their events with ``sample``."""
        if not self._observe:
            return
        trace = self._req_traces.get(seq.request.request_id)
        if trace is not None:
            if seq.sample_index:
                detail.setdefault("sample", seq.sample_index)
            trace.add(event, self._tracer.now(), **detail)

    def _fault_fired(self, index: int, site: str, request_id) -> None:
        """:meth:`FaultInjector.on_fire` observer: join the fired fault
        into the victim's timeline and drop an instant marker into the
        tick trace.  ``index`` is the fault's position in the
        injector's ``log``, so trace events correlate 1:1 with it."""
        detail = {"site": site, "log_index": index}
        if request_id is not None:
            detail["request_id"] = request_id
            trace = self._req_traces.get(request_id)
            if trace is not None:
                trace.add("fault", self._tracer.now(), site=site,
                          log_index=index)
        self._tracer.instant("fault", detail)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: GenerationRequest, on_token=None) -> RequestHandle:
        """Queue a request; returns its :class:`RequestHandle`.

        The handle *is* the request id (a ``str`` subclass), so callers
        that stored the old raw-id return value are unchanged;
        ``on_token(event)`` streams as before.  Raises on capacity
        rejection — worst case over the model's ``max_seq``, more
        parallel samples than batch lanes, over the token budget, over
        the pool's total size, or a full queue
        (:class:`QueueFullError`); rejections are counted in
        :class:`EngineStats`.
        """
        rid = request.request_id
        if rid in self._active_ids or rid in self._results:
            raise ValueError(f"duplicate request_id {rid!r}")
        seq = None
        try:
            if self._draining:
                raise RuntimeError(
                    "engine is draining: admission is stopped "
                    "(resume_admission() re-opens it)"
                )
            max_seq = self.model.config.max_seq
            if request.token_footprint > max_seq:
                raise ValueError(
                    f"request {rid!r} needs {request.token_footprint} positions, "
                    f"over the model's max_seq of {max_seq}"
                )
            if request.n > self.config.max_batch_size:
                raise ValueError(
                    f"request {rid!r} asks for n={request.n} parallel samples, "
                    f"over max_batch_size={self.config.max_batch_size} lanes — "
                    "it could never be scheduled"
                )
            # Feasibility is per sample: forked samples share prompt
            # pages copy-on-write, and under pool pressure the engine
            # preempts samples until one runs alone — so a request is
            # only hopeless if a *single* sample's worst case cannot fit
            # the pool.
            pages = -(-request.token_footprint // self.pool.block_tokens)
            if pages > self.pool.num_blocks:
                raise ValueError(
                    f"request {rid!r} can need {pages} pages, over the "
                    f"pool's num_blocks of {self.pool.num_blocks} — it "
                    "could never be scheduled"
                )
            seq = _Sequence(request, on_token, self._now())
            seq.arrival_seq = self._arrivals
            seq.timeout_s = (
                request.timeout_s if request.timeout_s is not None
                else self.config.request_timeout_s
            )
            self.scheduler.submit(seq)   # may reject (budget / queue full)
        except Exception:
            # A rejected request must leave no trace behind: not queued,
            # not registered — the same id can be resubmitted right away.
            if seq is not None:
                self.scheduler.remove_queued(seq)
            self._rejected.inc()
            raise
        if seq.timeout_s is not None:
            self._timeouts_armed = True
        self._active_ids.add(rid)
        self._submitted.inc()
        self._arrivals += 1
        if self._observe:
            trace = self._req_traces[rid] = RequestTrace(rid)
            detail = dict(prompt_tokens=int(request.prompt.size),
                          max_tokens=request.max_tokens, n=request.n)
            if request.traffic_class is not None:
                detail["traffic_class"] = request.traffic_class
            trace.add("submit", self._tracer.now(), **detail)
        return RequestHandle(rid, self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def cancel(self, request_id: str, sample_index: int | None = None) -> bool:
        """Cancel a request in any state; True if it was still live.

        Queued requests are dropped before ever touching the model;
        running ones — mid-chunked-prefill or decoding, every parallel
        sample — finish immediately with ``FINISH_CANCELLED``, their
        pool blocks released and a finish :class:`TokenEvent`
        delivered to the request's ``on_token`` callback.  Safe to call
        from inside an ``on_token`` callback: storage release then
        defers to the end of the in-flight tick.  Returns False for
        ids that already finished (or were never submitted).

        ``sample_index`` cancels just one parallel sample of an ``n>1``
        request: a forked sample's lease is released immediately while
        its siblings keep decoding untouched; an index cancelled before
        the fork is simply never materialized (the result still carries
        a ``FINISH_CANCELLED`` entry for it, and the reserved lane is
        freed right away).  Cancelling the last live sample cancels the
        request.
        """
        rid = str(request_id)
        if sample_index is not None:
            return self._cancel_sample(rid, int(sample_index))
        if rid not in self._active_ids:
            return False
        family = None
        live = False
        # A request that already had samples cancelled one-by-one was
        # counted in requests_cancelled then; don't double-count it.
        already_counted = any(
            (seq.family[0].cancelled_samples
             or any(m.finish_reason == FINISH_CANCELLED for m in seq.family))
            for seq in [*self.scheduler.find_queued(rid),
                        *self.scheduler.running]
            if seq.request.request_id == rid
        )
        for seq in self.scheduler.find_queued(rid):
            self.scheduler.remove_queued(seq)
            self._finish_cancel(seq)
            self._release_storage(seq)
            seq.retired = True
            family = seq.family
            live = True
        for seq in self.scheduler.running:
            if seq.request.request_id == rid:
                family = seq.family
                if not seq.finished:
                    self._finish_cancel(seq)
                    live = True
        if not live:
            # Nothing left to cancel (e.g. a repeated cancel inside the
            # same tick, before the retire phase ran): idempotent no-op.
            return False
        if not already_counted:
            self._cancelled.inc()
        if not self._stepping:
            # Outside a tick it is safe to release storage right away;
            # mid-tick (a reentrant cancel from an on_token callback)
            # the step's own retire phase finishes the job.  The last
            # _retire also records the family's result.
            for seq in [s for s in self.scheduler.running
                        if s.request.request_id == rid]:
                self._retire(seq)
        if (family is not None and rid in self._active_ids
                and all(m.retired for m in family)):
            # Queued-only cancellation: no _retire ran, record here.
            self._record_result(family, self._now())
        return True

    def _cancel_sample(self, rid: str, idx: int) -> bool:
        """Cancel one parallel sample of an ``n>1`` request.

        Post-fork, the sample's lease is released immediately (outside
        a tick) and its siblings decode on untouched.  Pre-fork, the
        index is recorded on the sample-0 carrier: the fork skips
        materializing it (its cancel event fires then) and the reserved
        lane is freed now.  Cancelling the last live sample falls back
        to whole-request cancellation.
        """
        if rid not in self._active_ids:
            return False
        family = None
        for seq in [*self.scheduler.find_queued(rid), *self.scheduler.running]:
            if seq.request.request_id == rid:
                family = seq.family
                break
        if family is None:
            return False
        request = family[0].request
        if not 0 <= idx < request.n:
            raise ValueError(
                f"sample_index {idx} out of range for n={request.n}")
        if request.n == 1:
            return self.cancel(rid)
        if len(family) == 1:
            # Pre-fork: only the sample-0 carrier exists.
            parent = family[0]
            if parent.finished or idx in parent.cancelled_samples:
                return False
            parent.cancelled_samples.add(idx)
            if len(parent.cancelled_samples) >= request.n:
                return self.cancel(rid)     # every sample cancelled
            if len(parent.cancelled_samples) == 1:
                self._cancelled.inc()
            parent.lanes = request.n - len(parent.cancelled_samples)
            self._tl(parent, "cancel_sample", sample=idx)
            return True
        target = next((m for m in family if m.sample_index == idx), None)
        if target is None or target.finished:
            return False
        if not any(m is not target and not m.finished for m in family):
            return self.cancel(rid)         # last live sample
        first = not any(m.finish_reason == FINISH_CANCELLED for m in family)
        self._finish_cancel(target)
        if first:
            self._cancelled.inc()
        if not self._stepping:
            self._retire(target)   # forked lease released immediately
        return True

    def has_result(self, request_id: str) -> bool:
        return str(request_id) in self._results

    def _finish_cancel(self, seq: _Sequence) -> None:
        seq.finished = True
        # lint: allow[finish-release-pairing] release is owned by the caller:
        # cancel()/_cancel_sample() retire immediately outside a tick, and a
        # reentrant mid-tick cancel defers to step()'s retire phase.
        seq.finish_reason = FINISH_CANCELLED
        self._tl(seq, "finish", reason=FINISH_CANCELLED,
                 tokens=len(seq.tokens))
        event = TokenEvent(
            seq.request.request_id, None, len(seq.tokens), True,
            FINISH_CANCELLED, sample=seq.sample_index,
        )
        self._deliver(seq, event)

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def step(self) -> list[TokenEvent]:
        """One engine tick: admit, one fused forward, retire finished.

        Admission only leases cache storage and opens a
        :class:`~repro.serve.request.PrefillCursor` over the prompt.
        The plan phase matches each prompt against the prefix cache
        just before its first chunk — adopting the matched pages, whose
        compute is skipped — and picks prompt chunks: the whole rest of
        the prompt, or with ``prefill_chunk_tokens`` set one chunk per
        prompt under the tick's token budget.  The tick then packs
        every decode row plus the chunks into one ``forward_mixed``
        call — a decode-only tick is all-``DECODE`` segments —
        token-identical to the single-stream loop.
        """
        if not self.scheduler.has_work():
            return []
        tracer = self._tracer
        now = self._now()
        events: list[TokenEvent] = []
        with tracer.span("tick"):
            # 0. Timeout sweep, at the tick boundary (before admission,
            # so an expired queued request never wastes a prefill):
            # expired sequences finish FINISH_TIMEOUT and free their
            # storage *now*.
            with tracer.span("sweep"):
                self._sweep_timeouts(now, events)
            self._stepping = True
            try:
                # 1. Admission, one request at a time (each admission's
                # page allocations must be visible to the next fit
                # check).  Draining engines skip it: in-flight work runs
                # dry while queued work waits for the snapshot.
                with tracer.span("admit"):
                    self._admit(now, events)

                # 2. Plan this tick's work under the pool's block
                # supply, then run it as one fused forward.  A fault
                # mid-batch poisons every participant's cache-position
                # bookkeeping, so recovery is collective: evict them all
                # back through the recompute path and charge the retry
                # budget of the attributable ones.
                with tracer.span("plan"):
                    decode, chunks = self._plan_tick(events)
                try:
                    if decode or chunks:
                        self._mixed_tick(decode, chunks, events)
                except PoolExhausted:
                    raise            # genuine capacity error, not a fault
                except Exception as exc:
                    self._tick_failure(decode, chunks, exc, events)

                # 3. Retire finished sequences, recycling their storage.
                with tracer.span("finish"):
                    for seq in [s for s in self.scheduler.running
                                if s.finished]:
                        self._retire(seq)
            finally:
                self._stepping = False
        # Busy time accumulates per tick so throughput reflects time
        # spent serving, not idle gaps between bursts.
        self._busy_s.inc(self._now() - now)
        if self._strict:
            self.check_invariants()
        return events

    def _admit(self, now: float, events: list) -> None:
        """The tick's admission loop (factored out of :meth:`step` so
        the whole phase sits under one ``admit`` span).  Admission runs
        no forward: it leases storage, counts the prompt and opens its
        :class:`~repro.serve.request.PrefillCursor`."""
        while (not self._draining
               and (seq := self.scheduler.admit_one()) is not None):
            if math.isnan(seq.admit_time):
                seq.admit_time = now     # queue latency: first admission only
            self._tl(seq, "admit", resumed=seq.resuming)
            try:
                # Admission is where pool leases are taken — the alloc
                # fault site for this sequence.
                self._fire(ALLOC, seq)
                seq.lease = self.pool.acquire(self._cache_factory)
            except Exception as exc:
                self._on_fault(seq, exc, events)
                continue
            seq.pending_ids = seq.prefill_ids()
            seq.cursor = PrefillCursor(seq.pending_ids.size)
            self._prompt_tokens.inc(int(seq.pending_ids.size))

    def _hashes(self, seq: _Sequence) -> list:
        """``seq``'s prefill page hashes, computed once per admission
        (none without a prefix cache)."""
        if seq.hashes is None and self.config.enable_prefix_cache:
            seq.hashes = list(self.pool.page_hashes(seq.prefill_ids()))
        return seq.hashes or []

    def _attached_pages(self, seqs: list) -> int:
        """The scheduler's admission probe: prefill pages of ``seqs``
        that take no free block.  A matched lease already holds its
        pages; an unmatched prefill will attach its leading pages that
        are live in the pool or that a prefill the policy orders ahead
        of it computes (those it waits for, see :meth:`_match_prefixes`)."""
        attached, pending = 0, set()
        for seq in self.scheduler.policy.order_queue(seqs):
            hashes, lease = self._hashes(seq), seq.lease
            attached += (lease.table.n_pages if lease and lease.matched
                         else self.pool.probe_prefix(hashes, pending))
            pending.update(hashes)
        return attached

    def _match_prefixes(self, prefilling: list) -> list:
        """Match prompts against the prefix cache before their first
        chunk; return the prefills ready for a chunk, in policy order.

        A match adopts the pages it attached (their compute is skipped)
        and restarts the cursor after them, short of the last prompt
        token, whose logits sample the first token.  An unmatched
        sequence whose first unregistered page is one a prefill ordered
        ahead of it computes waits instead: once that donor registers
        its pages, the match attaches them.
        """
        ready, pending = [], set()
        for seq in self.scheduler.policy.order_queue(prefilling):
            hashes, lease = self._hashes(seq), seq.lease
            if not lease.matched:
                m = self.pool.probe_prefix(hashes, live=False)
                if m < len(hashes) and hashes[m] in pending:
                    pending.update(hashes)
                    continue
                lease.match_prefix(seq.pending_ids, hashes)
                total, bt = seq.cursor.total, self.pool.block_tokens
                skip = min(lease.sealed_tokens, total - 1) // bt * bt
                lease.adopt_prefix(skip)
                seq.cursor = PrefillCursor(total, start=skip)
            pending.update(hashes)
            ready.append(seq)
        return ready

    # ------------------------------------------------------------------
    # Tick assembly
    # ------------------------------------------------------------------
    def _plan_tick(self, events: list):
        """Pick this tick's decode rows and prefill chunks; reserve pages.

        The decode rows are every running, unfinished, fully prefilled
        sequence; the chunk set comes from the scheduler's token-budget
        policy (decode tokens are charged against
        ``max_tokens_per_tick`` first).  The engine then checks that
        the blocks the tick takes (new pages plus copy-on-write clones)
        fit the pool — page *allocation* stays on demand inside the
        cache appends — preempting the
        policy-chosen victim (decoding or half-prefilled alike) back to
        the queue until they do, instead of reserving worst-case
        ``prompt + max_tokens`` up front.

        This is also where per-sequence injected faults fire: the plan
        phase runs *before* any model call or cache write of the tick,
        so a victim is pulled out (retried or failed) while every
        bystander's cache is untouched — their outputs stay
        token-for-token identical to a fault-free run.
        """
        while True:
            running = self.scheduler.running
            decode = [s for s in running if not s.finished and s.cursor is None]
            prefilling = self._match_prefixes(
                [s for s in running if s.cursor is not None and not s.finished])
            budget = math.inf
            if self.config.max_tokens_per_tick is not None:
                budget = max(0, self.config.max_tokens_per_tick - len(decode))
            chunks = self.scheduler.policy.pick_chunk_recipients(prefilling, budget)
            if self._faults is not None:
                decode = [s for s in decode if self._gate(FORWARD, s, events)]
                chunks = [(s, n) for s, n in chunks
                          if self._gate(FORWARD, s, events)]
                # Alloc faults target sequences that need new pages this
                # tick (mid-decode block-boundary growth).
                decode = [s for s in decode
                          if s.lease.new_pages_for(s.pos + 1) == 0
                          or self._gate(ALLOC, s, events)]
                chunks = [(s, n) for s, n in chunks
                          if s.lease.new_pages_for(s.cursor.done + n) == 0
                          or self._gate(ALLOC, s, events)]
            need = sum(s.lease.new_pages_for(s.pos + 1) for s in decode)
            need += sum(s.lease.new_pages_for(s.cursor.done + n) for s, n in chunks)
            need += self._cow_clones(decode, chunks)
            if need <= self.pool.blocks_available:
                return decode, chunks
            victims = [s for s in running if not s.finished]
            if len(victims) <= 1:
                # Cannot happen for pools that passed the submit-time
                # size check unless shared pages are pinned elsewhere.
                raise PoolExhausted(
                    "BlockPool exhausted with a single running sequence: "
                    f"{self.pool.blocks_available} blocks free, {need} needed"
                )
            self._evict(self.scheduler.policy.choose_preemption_victim(victims))

    def _cow_clones(self, decode: list, chunks: list) -> int:
        """Blocks the tick's copy-on-write clones take.  Each of the
        ``w`` writers of a block with ``r`` references clones it while
        another reference remains, so the block costs ``min(w, r - 1)``
        clones (fork siblings sharing their last, partial page)."""
        writers = Counter()
        for s in decode:
            writers.update(s.lease.shared_pages_for(s.pos, s.pos + 1))
        for s, n in chunks:
            done = s.cursor.done
            writers.update(s.lease.shared_pages_for(done, done + n))
        return sum(min(w, self.pool.refcount(b) - 1) for b, w in writers.items())

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def _fire(self, site: str, seq: _Sequence) -> None:
        """Raise :class:`InjectedFault` if an armed rule matches ``seq``."""
        if self._faults is not None:
            self._faults.fire(site, seq.request.request_id)

    def _gate(self, site: str, seq: _Sequence, events: list) -> bool:
        """Plan-phase fault gate: False drops ``seq`` from this tick."""
        try:
            self._fire(site, seq)
            return True
        except InjectedFault as fault:
            self._on_fault(seq, fault, events)
            return False

    def _sweep_timeouts(self, now: float, events: list) -> None:
        if not self._timeouts_armed:
            return
        for seq in self.scheduler.pop_expired(now):
            self._fail(seq, FINISH_TIMEOUT, events)
            self._retire(seq)
        for seq in self.scheduler.running:
            if (not seq.finished and seq.timeout_s is not None
                    and now - seq.submit_time >= seq.timeout_s):
                self._fail(seq, FINISH_TIMEOUT, events)
                self._retire(seq)    # storage released immediately

    def _tick_failure(self, decode, chunks, exc, events: list) -> None:
        """A fused forward raised mid-batch: collective recovery.

        The model may have mutated any participant's cache before
        raising, so every participant is evicted back through the
        recompute path.  Attributable participants (an
        :class:`InjectedFault` carrying their request id, or everyone
        when unattributed) are charged against their retry budget;
        provably-innocent bystanders get a free recompute, counted as a
        preemption.
        """
        rid = getattr(exc, "request_id", None)
        for seq in [*decode, *(s for s, _ in chunks)]:
            if seq.finished:
                continue
            if rid is None or seq.request.request_id == rid:
                self._on_fault(seq, exc, events)
            else:
                self._evict(seq)

    def _on_fault(self, seq: _Sequence, exc, events: list) -> None:
        """One sequence hit a fault: bounded retry, then quarantine.

        Injected faults declare their transience; real exceptions are
        assumed transient (a poison request exhausts its retry budget
        replaying and then fails — bounded either way).
        """
        transient = exc.transient if isinstance(exc, InjectedFault) else True
        if seq.error is None:
            seq.error = f"{type(exc).__name__}: {exc}"
        if not isinstance(exc, InjectedFault):
            # Injected faults reach the timeline via the injector's
            # on_fire observer; real exceptions are recorded here.
            self._tl(seq, "fault", error=f"{type(exc).__name__}: {exc}")
        if transient and seq.retries < self.config.max_retries:
            seq.retries += 1
            self._retries.inc()
            self._tl(seq, "retry", retries=seq.retries)
            self._evict(seq, count_preemption=False)
        else:
            # lint: allow[finish-release-pairing] the quarantined victim stays
            # in scheduler.running; step()'s retire phase releases its storage
            # at the end of the failing tick.
            self._fail(seq, FINISH_ERROR, events)

    def _fail(self, seq: _Sequence, reason: str, events: list) -> None:
        """Finish ``seq`` abnormally and deliver the finish event."""
        seq.finished = True
        seq.finish_reason = reason
        self._tl(seq, "finish", reason=reason, tokens=len(seq.tokens))
        # Per-request counters: only the family's first member to finish
        # with this reason bumps them (n>1 siblings expire together).
        if not any(m is not seq and m.finish_reason == reason
                   for m in seq.family):
            if reason == FINISH_TIMEOUT:
                self._timed_out.inc()
            elif reason == FINISH_ERROR:
                self._failed.inc()
        event = TokenEvent(
            seq.request.request_id, None, len(seq.tokens), True, reason,
            sample=seq.sample_index,
        )
        events.append(event)
        self._deliver(seq, event)

    def _deliver(self, seq: _Sequence, event: TokenEvent,
                 events: list | None = None) -> None:
        """Invoke ``seq.on_token`` under the callback quarantine.

        A raising callback (real, or the ``callback`` injection site)
        poisons only its own request: the callback is dropped, the
        sequence finishes ``FINISH_ERROR`` (if still live) and every
        other request keeps streaming — a misbehaving client cannot
        take the batch down.
        """
        if seq.on_token is None:
            return
        try:
            with self._tracer.span("deliver"):
                self._fire(CALLBACK, seq)
                seq.on_token(event)
        except Exception as exc:
            seq.on_token = None      # quarantined: never called again
            seq.error = f"on_token callback failed: {type(exc).__name__}: {exc}"
            self._tl(seq, "callback_error", error=seq.error)
            if not seq.finished:
                seq.finished = True
                # lint: allow[finish-release-pairing] callback quarantine can
                # fire mid-tick while the row is still in the fused batch; the
                # tick's retire phase releases the storage.
                seq.finish_reason = FINISH_ERROR
                self._tl(seq, "finish", reason=FINISH_ERROR,
                         tokens=len(seq.tokens))
                if not any(m is not seq and m.finish_reason == FINISH_ERROR
                           for m in seq.family):
                    self._failed.inc()
                if events is not None:
                    events.append(TokenEvent(
                        seq.request.request_id, None, len(seq.tokens), True,
                        FINISH_ERROR, sample=seq.sample_index,
                    ))

    def _mixed_tick(self, decode: list, chunks: list, events: list) -> None:
        """The tick's one forward: a packed ``forward_mixed`` over the
        decode rows plus any prompt chunks."""
        tracer = self._tracer
        with tracer.span("pack_prefill"):
            segments = [
                MixedSegment([s.next_token], s.lease.caches, s.pos,
                             MixedSegment.DECODE)
                for s in decode
            ]
            for seq, n in chunks:
                start = seq.cursor.done
                final = start + n == seq.cursor.total
                segments.append(MixedSegment(
                    seq.pending_ids[start : start + n], seq.lease.caches, start,
                    MixedSegment.CHUNK_FINAL if final else MixedSegment.CHUNK,
                ))
        with tracer.span("forward"):
            outs = self.model.forward_mixed(
                segments, weights=self.weights, act_quant=self.act_quant,
                trace=self._model_trace,
            )
        if decode:
            self._decode_ticks.inc()
            self._occupancy_sum.inc(len(decode))
        with tracer.span("sample"):
            for seq, logits in zip(decode, outs):
                seq.pos += 1
                seq.decode_steps += 1
                if seq.finished:
                    continue   # cancelled mid-tick by a reentrant callback
                self._emit(seq, seq.sampler.sample(logits), events)
            for (seq, n), logits in zip(chunks, outs[len(decode):]):
                seq.cursor.advance(n)
                seq.prefill_chunks += 1
                self._prefill_chunks.inc()
                self._prefill_tokens.inc(n)
                self._tl(seq, "prefill_chunk", tokens=n,
                         done=seq.cursor.done, total=seq.cursor.total)
                if seq.cursor.complete:
                    seq.pos = seq.cursor.total
                    seq.lease.register_prefix(seq.pending_ids, seq.hashes)
                    seq.cursor = seq.pending_ids = seq.hashes = None
                    if not seq.finished:
                        self._finish_prefill(seq, logits, events)

    def _finish_prefill(self, seq: _Sequence, logits, events: list) -> None:
        """Prompt fully in cache: sample first token(s), fork siblings."""
        if seq.resuming:
            # Preempted sequence: the cache is rebuilt, the next token
            # was already sampled and emitted before eviction.
            seq.resuming = False
            return
        if 0 in seq.cancelled_samples:
            # Sample 0 was cancelled before its prefill finished: emit
            # nothing for it, fork the surviving siblings off its
            # prefill logits, then let it retire this tick.
            self._spawn_samples(seq, logits, events)
            self._finish_cancel(seq)
            return
        self._emit(seq, seq.sampler.sample(logits), events)
        # A cancel from the first token's on_token callback must stop
        # the whole request: never fork siblings for a cancelled parent
        # (finishing normally — max_tokens=1, stop token — still forks;
        # each sibling owes its own sample).
        if (seq.request.n > 1 and seq.sample_index == 0
                and len(seq.family) == 1
                and seq.finish_reason != FINISH_CANCELLED):
            self._spawn_samples(seq, logits, events)

    def _spawn_samples(self, seq: _Sequence, logits, events: list) -> None:
        """Materialize samples 1..n-1 off sample 0's completed prefill.

        :meth:`~repro.serve.paging.PagedLease.fork` shares every prompt
        page copy-on-write, so there is no extra prefill compute.  Each
        sibling samples its *first* token from the parent's prefill
        logits — the distributions are identical by construction, and
        reusing the parent's avoids a spurious dependence on packed-GEMM
        ulp wobble — and then decodes as an independent lane.  The
        parent's reserved lanes shrink to 1; each sibling carries its
        own lane from here on.
        """
        seq.lanes = 1
        self._tl(seq, "fork", n=seq.request.n)
        for i in range(1, seq.request.n):
            if i in seq.cancelled_samples:
                # Cancelled before the fork: never allocate a lane or
                # lease — a finished stub carries the sample's
                # FINISH_CANCELLED entry (and its cancel event) instead.
                stub = _Sequence(seq.request, seq.on_token, seq.submit_time,
                                 sample_index=i)
                stub.arrival_seq = seq.arrival_seq
                stub.admit_time = seq.admit_time
                stub.family = seq.family
                seq.family.append(stub)
                self._finish_cancel(stub)
                stub.retired = True
                continue
            sibling = _Sequence(seq.request, seq.on_token, seq.submit_time,
                                sample_index=i)
            sibling.arrival_seq = seq.arrival_seq
            sibling.admit_time = seq.admit_time
            sibling.family = seq.family
            seq.family.append(sibling)
            sibling.lease = seq.lease.fork()
            sibling.pos = seq.pos
            self.scheduler.add_running(sibling)
            self._emit(sibling, sibling.sampler.sample(logits), events)

    def _evict(self, seq: _Sequence, count_preemption: bool = True) -> None:
        """Running → head of the queue, storage released, replay later.

        The shared recompute path under preemption (pool pressure),
        transient-fault retries and batch-failure recovery: on
        re-admission :meth:`_Sequence.prefill_ids` replays prompt +
        emitted tokens and ``resuming`` suppresses re-emission, so the
        sequence continues exactly where it left off.
        """
        self.scheduler.requeue_front(seq)
        self._release_storage(seq)
        # Discard any chunked-prefill progress: the evicted pages are
        # gone, so resume must rebuild a cursor over the whole (by then
        # grown) prompt via prefill_len and replay it from the first
        # page the prefix cache no longer matches.
        seq.cursor = seq.pending_ids = seq.hashes = None
        # Mid-prefill victims emitted nothing yet — their re-admission
        # is a plain first prefill, not a resume.
        seq.resuming = bool(seq.tokens)
        if count_preemption:
            self._preemptions.inc()
            self._tl(seq, "preempt")

    def _emit(self, seq: _Sequence, token: int, events: list[TokenEvent]) -> None:
        """Record one sampled token, deciding emission and finish state."""
        rid = seq.request.request_id
        if token in seq.request.stop_tokens:
            seq.finished = True
            # lint: allow[finish-release-pairing] normal finishes (stop token /
            # max_tokens) are retired by step()'s finish phase the same tick —
            # release here would free the lease while the batch still runs.
            seq.finish_reason = FINISH_STOP
            event = TokenEvent(rid, None, len(seq.tokens), True, FINISH_STOP,
                               sample=seq.sample_index)
        else:
            seq.tokens.append(token)
            seq.next_token = token
            if len(seq.tokens) >= seq.request.max_tokens:
                seq.finished = True
                seq.finish_reason = FINISH_LENGTH
            text = None
            if self._detokenize is not None:
                full = self._detokenize(list(seq.tokens))
                text = full[seq.text_len:]
                seq.text_len = len(full)
            event = TokenEvent(
                rid, token, len(seq.tokens) - 1, seq.finished, seq.finish_reason,
                text, sample=seq.sample_index,
            )
        if event.token is not None:
            # Latency histograms: TTFT on the first emitted token,
            # inter-token gaps between consecutive ones.
            t_emit = self._now()
            if math.isnan(seq.first_token_time):
                seq.first_token_time = t_emit
                self._ttfts.observe(t_emit - seq.submit_time)
                self._tl(seq, "first_token")
            else:
                self._itls.observe(t_emit - seq.last_token_time)
            seq.last_token_time = t_emit
        self._tokens_generated.inc(event.token is not None)
        if seq.finished:
            self._tl(seq, "finish", reason=seq.finish_reason,
                     tokens=len(seq.tokens))
        events.append(event)
        self._deliver(seq, event, events)

    # ------------------------------------------------------------------
    # Retirement
    # ------------------------------------------------------------------
    def _release_storage(self, seq: _Sequence) -> None:
        if seq.lease is None:
            return               # queued / preempted: nothing leased
        seq.lease.release()
        seq.lease = None

    def _retire(self, seq: _Sequence) -> None:
        if seq.retired:
            return               # fault/timeout/cancel paths may race
        now = self._now()
        self.scheduler.release(seq)
        self._release_storage(seq)
        seq.retired = True
        if all(m.retired for m in seq.family):
            self._record_result(seq.family, now)

    def _record_result(self, family: list, now: float) -> None:
        """All samples done: build the request's :class:`GenerationResult`."""
        parent = family[0]
        rid = parent.request.request_id
        self._active_ids.discard(rid)
        samples = [
            SampleOutput(
                m.sample_index, m.tokens, m.finish_reason,
                text=(self._detokenize(list(m.tokens))
                      if self._detokenize is not None else None),
                error=m.error,
            )
            for m in sorted(family, key=lambda m: m.sample_index)
        ]
        admitted = not math.isnan(parent.admit_time)
        latency = (parent.admit_time - parent.submit_time) if admitted else float("nan")
        if parent.finish_reason in _ABNORMAL_FINISH:
            pass    # counted in requests_cancelled/timed_out/failed instead
        else:
            self._completed.inc()
            self._queue_lat.observe(latency)
        trace = self._req_traces.get(rid)
        self._results[rid] = GenerationResult(
            request_id=rid,
            tokens=samples[0].tokens,
            finish_reason=samples[0].finish_reason,
            queue_latency_s=latency,
            service_time_s=(now - parent.admit_time) if admitted else 0.0,
            decode_steps=parent.decode_steps,
            ttft_s=parent.first_token_time - parent.submit_time,
            prefill_chunks=parent.prefill_chunks,
            samples=samples,
            error=next((s.error for s in samples if s.error is not None), None),
            trace=trace.to_events() if trace is not None else None,
            traffic_class=parent.request.traffic_class,
        )

    # ------------------------------------------------------------------
    # Driving loops
    # ------------------------------------------------------------------
    def has_work(self) -> bool:
        return self.scheduler.has_work()

    def run(self, requests=()):
        """Submit ``requests`` then step until idle, yielding every event."""
        for request in requests:
            self.submit(request)
        while self.has_work():
            yield from self.step()

    def generate(self, requests=()) -> dict[str, GenerationResult]:
        """Drain :meth:`run` and return results for the drained requests.

        With no ``requests``, drains already-submitted work and returns
        the results of the requests that finished *during this call*
        (results retained from earlier calls are not re-reported).
        """
        requests = list(requests)    # may be a generator; iterated twice
        ids = [r.request_id for r in requests]
        finished = []
        for event in self.run(requests):
            if event.finished:
                finished.append(event.request_id)
        return {rid: self._results[rid] for rid in (ids or finished)}

    def result(self, request_id: str) -> GenerationResult:
        return self._results[str(request_id)]

    def pop_result(self, request_id: str) -> GenerationResult:
        """Retrieve and evict one finished request's result.

        Long-lived engines must consume results this way: retained
        results hold their token lists and reserve the request id, so a
        server that only ever reads with :meth:`result` grows without
        bound.  After eviction the id may be reused by a new request.
        (The request's live timeline is evicted with it; the popped
        result's ``trace`` field keeps the serialized copy.)
        """
        self._req_traces.pop(str(request_id), None)
        return self._results.pop(str(request_id))

    # ------------------------------------------------------------------
    # Drain / snapshot / restore
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def stop_admission(self) -> None:
        """Stop admitting queued work; in-flight sequences keep running.

        New :meth:`submit` calls are rejected while draining.
        """
        self._draining = True

    def resume_admission(self) -> None:
        self._draining = False

    def drain(self) -> list[TokenEvent]:
        """Run the *admitted* work to completion, admitting nothing new.

        The graceful-shutdown half of snapshot/restore: after ``drain``
        the running set is empty and every still-queued request is
        untouched, ready for :meth:`snapshot`.  Admission stays stopped
        until :meth:`resume_admission`.  Returns the events emitted
        while draining.
        """
        self.stop_admission()
        events: list[TokenEvent] = []
        while self.scheduler.n_running:
            events.extend(self.step())
        return events

    def snapshot(self) -> dict:
        """Serialize every live (queued or running) request.

        The snapshot is pure JSON-compatible data: the config, each
        request's full submission parameters and, per sample, the
        emitted tokens and the sampler's RNG state.  KV-cache contents
        are deliberately *not* captured — :meth:`restore` replays each
        in-flight sequence through the preemption recompute path, which
        rebuilds the cache and (with the restored RNG state) continues
        token-for-token where the snapshot stopped.  Finished samples
        of partially-done families are carried verbatim.
        """
        if self._stepping:
            raise RuntimeError("snapshot() must run at a tick boundary, "
                               "not from inside an on_token callback")
        families: dict[str, list] = {}
        order: dict[str, int] = {}
        for seq in [*self.scheduler.queued, *self.scheduler.running]:
            rid = seq.request.request_id
            families.setdefault(rid, seq.family)
            order.setdefault(rid, seq.arrival_seq)
        records = []
        for rid, family in families.items():
            req = family[0].request
            cancelled = sorted(family[0].cancelled_samples)
            records.append({
                **({"cancelled_samples": cancelled} if cancelled else {}),
                "request": {
                    "request_id": req.request_id,
                    "prompt": [int(t) for t in req.prompt],
                    "max_tokens": req.max_tokens,
                    "sampling": dataclasses.asdict(req.sampling),
                    "stop_tokens": sorted(int(t) for t in req.stop_tokens),
                    "priority": req.priority,
                    "deadline_s": req.deadline_s,
                    "n": req.n,
                    "timeout_s": req.timeout_s,
                    "traffic_class": req.traffic_class,
                },
                "arrival_seq": order[rid],
                "samples": [
                    {
                        "index": m.sample_index,
                        "tokens": [int(t) for t in m.tokens],
                        "finished": m.finished,
                        "finish_reason": m.finish_reason,
                        "error": m.error,
                        "rng_state": m.sampler.get_state(),
                    }
                    for m in sorted(family, key=lambda m: m.sample_index)
                ],
            })
        records.sort(key=lambda r: r["arrival_seq"])
        return {
            "version": 1,
            "config": dataclasses.asdict(self.config),
            "requests": records,
        }

    @classmethod
    def restore(cls, snapshot: dict, model, cache_factory, *,
                config: ServeConfig | None = None, on_token=None,
                **engine_kwargs) -> "GenerationEngine":
        """Build a fresh engine resuming a :meth:`snapshot`.

        ``config`` overrides the snapshotted one (same model required
        either way).  ``on_token`` re-attaches streaming callbacks —
        callbacks are process-local and cannot be serialized — either
        one callable for every request or a ``{request_id: callable}``
        mapping.  Each restored sequence replays prompt + emitted
        tokens through the recompute path and continues from its
        restored RNG state; for deterministic cache types (fp16/int4)
        the continuation is token-for-token what the original engine
        would have produced (MANT recompute re-quantizes the replayed
        window — the standing recompute trade).
        """
        if snapshot.get("version") != 1:
            raise ValueError(
                f"unsupported snapshot version {snapshot.get('version')!r}"
            )
        if config is None:
            fields = {k: v for k, v in snapshot["config"].items()
                      if k not in _RETIRED_CONFIG_KEYS}
            config = ServeConfig(**fields)
        engine = cls(model, cache_factory, config, **engine_kwargs)
        for record in sorted(snapshot["requests"], key=lambda r: r["arrival_seq"]):
            engine._restore_request(record, on_token)
        return engine

    def adopt(self, record: dict, on_token=None) -> RequestHandle:
        """Resume one snapshot-format request record in this *live* engine.

        The failover half of snapshot/restore: where :meth:`restore`
        builds a fresh engine from a whole snapshot, ``adopt`` takes a
        single request record (one entry of ``snapshot()["requests"]``)
        and resubmits it here — a fleet router uses this to move a
        crashed replica's in-flight requests onto survivors.  The
        record replays through the recompute path exactly as under
        :meth:`restore` (``force``-submitted past ``max_queue_len``,
        RNG state restored, deterministic caches continue
        token-for-token).  Raises ``ValueError`` if the request id is
        already live or finished here.
        """
        if self._stepping:
            raise RuntimeError("adopt() must run at a tick boundary, "
                               "not from inside an on_token callback")
        self._restore_request(record, on_token)
        return RequestHandle(record["request"]["request_id"], self)

    def _restore_request(self, record: dict, on_token=None) -> None:
        r = record["request"]
        request = GenerationRequest(
            request_id=r["request_id"],
            prompt=np.asarray(r["prompt"], dtype=np.int64),
            max_tokens=r["max_tokens"],
            sampling=SamplingParams(**r["sampling"]),
            stop_tokens=frozenset(r["stop_tokens"]),
            priority=r.get("priority", 0),
            deadline_s=r.get("deadline_s"),
            n=r.get("n", 1),
            timeout_s=r.get("timeout_s"),
            traffic_class=r.get("traffic_class"),
        )
        rid = request.request_id
        if rid in self._active_ids or rid in self._results:
            raise ValueError(f"duplicate request_id {rid!r} in snapshot")
        cb = (on_token if on_token is None or callable(on_token)
              else on_token.get(rid))
        now = self._now()
        family: list[_Sequence] = []
        live: list[_Sequence] = []
        for s in sorted(record["samples"], key=lambda s: s["index"]):
            seq = _Sequence(request, cb, now, sample_index=s["index"])
            seq.arrival_seq = self._arrivals
            seq.timeout_s = (
                request.timeout_s if request.timeout_s is not None
                else self.config.request_timeout_s
            )
            seq.tokens = [int(t) for t in s["tokens"]]
            seq.next_token = seq.tokens[-1] if seq.tokens else None
            seq.error = s.get("error")
            seq.family = family
            family.append(seq)
            if s["finished"]:
                seq.finished = True
                seq.finish_reason = s["finish_reason"]
                seq.retired = True
            else:
                seq.resuming = bool(seq.tokens)
                seq.sampler.set_state(s.get("rng_state"))
                live.append(seq)
        if not live:
            return               # fully-finished family: nothing to resume
        # Lane accounting: a pre-fork n>1 parent (single tokenless
        # sample) still reserves the whole family's lanes; a post-fork
        # family restores each live sample as its own single lane.
        if not (request.n > 1 and len(family) == 1 and not family[0].tokens):
            for m in live:
                m.lanes = 1
        else:
            family[0].cancelled_samples = set(
                record.get("cancelled_samples", ()))
            family[0].lanes = max(
                1, request.n - len(family[0].cancelled_samples))
        for m in live:
            # ``force``: formerly-*running* sequences legitimately
            # exceed max_queue_len; the token budget still applies.
            self.scheduler.submit(m, force=True)
        if any(m.timeout_s is not None for m in live):
            self._timeouts_armed = True
        self._active_ids.add(rid)
        self._submitted.inc()
        self._arrivals += 1
        self._restored.inc()
        if self._observe:
            trace = self._req_traces[rid] = RequestTrace(rid)
            trace.add("restore", self._tracer.now(),
                      samples=len(record["samples"]),
                      tokens=sum(len(m.tokens) for m in live))

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify engine-wide resource accounting; raises on violation.

        Checked: pool block refcounts against the running leases' page
        tables, scheduler lane
        bookkeeping against ``max_batch_size``, and request-id
        registration.  Runs after every tick in strict mode
        (``REPRO_SERVE_STRICT=1``, the test suite's default); call it at
        tick boundaries.
        """
        sched = self.scheduler
        running = sched.running
        queued = sched.queued
        lanes = sched.lanes_in_flight
        if lanes > self.config.max_batch_size:
            raise RuntimeError(
                f"lane bookkeeping violated: {lanes} lanes in flight, "
                f"max_batch_size={self.config.max_batch_size}"
            )
        for seq in running:
            if seq.retired:
                raise RuntimeError(
                    f"retired sequence {seq.request.request_id!r} still in "
                    "the running set"
                )
        for seq in queued:
            if seq.lease is not None:
                raise RuntimeError(
                    f"queued sequence {seq.request.request_id!r} holds "
                    "cache storage"
                )
        live_ids = {s.request.request_id for s in [*running, *queued]}
        unregistered = live_ids - self._active_ids
        if unregistered:
            raise RuntimeError(
                f"live sequences not registered as active: {unregistered}"
            )
        stale = live_ids & set(self._results)
        if stale:
            raise RuntimeError(
                f"requests both live and holding a recorded result: {stale}"
            )
        expected: dict[int, int] = {}
        for seq in running:
            if seq.lease is not None:
                for bid in seq.lease.table.blocks:
                    expected[bid] = expected.get(bid, 0) + 1
        self.pool.check_integrity(expected)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> EngineStats:
        """Snapshot the metrics registry as an :class:`EngineStats`.

        Pure read — every field comes from a registry instrument (see
        ``EngineStats.STATS_METRICS``) or is a ratio/percentile derived
        from one, so ``stats()``, ``metrics.to_prometheus()`` and a
        fleet ``MetricsRegistry.merge`` all describe the same numbers.
        """
        m = self.metrics
        elapsed = self._busy_s.value
        completed = self._completed.value
        tokens = self._tokens_generated.value
        decode_ticks = self._decode_ticks.value
        return EngineStats(
            scheduler_policy=self.scheduler.policy.name,
            requests_submitted=self._submitted.value,
            requests_completed=completed,
            requests_queued=m.get("requests_queued").value,
            requests_running=m.get("requests_running").value,
            requests_rejected=self._rejected.value,
            requests_cancelled=self._cancelled.value,
            requests_timed_out=self._timed_out.value,
            requests_failed=self._failed.value,
            retries=self._retries.value,
            snapshot_restores=self._restored.value,
            tokens_generated=tokens,
            decode_ticks=decode_ticks,
            mean_batch_occupancy=(
                self._occupancy_sum.value / decode_ticks if decode_ticks else 0.0
            ),
            batch_lanes=self.config.max_batch_size,
            elapsed_s=elapsed,
            wall_elapsed_s=self._wall_elapsed(),
            tokens_per_s=tokens / elapsed if elapsed > 0 else 0.0,
            mean_queue_latency_s=(
                self._queue_lat.sum / completed if completed else 0.0
            ),
            max_queue_latency_s=self._queue_lat.max_value,
            cache_slots=self._g_cache_slots.value,
            cache_slots_high_water=self._g_cache_high.value,
            preemptions=self._preemptions.value,
            prefix_hit_tokens=self._g_prefix_hits.value,
            prefill_chunks=self._prefill_chunks.value,
            prefill_tokens=self._prefill_tokens.value,
            prompt_tokens=self._prompt_tokens.value,
            ttft_p50_s=self._ttfts.percentile(50),
            ttft_p95_s=self._ttfts.percentile(95),
            inter_token_p50_s=self._itls.percentile(50),
            inter_token_p95_s=self._itls.percentile(95),
        )
