"""Request/response types of the serving engine.

A :class:`GenerationRequest` is everything one client asks for: prompt,
output budget, sampling policy, optional stop tokens — plus, in the v2
API, its *lifecycle* fields: a scheduling ``priority``, a soft
``deadline_s`` SLO (both consumed by the pluggable
:mod:`~repro.serve.policy` implementations) and ``n`` parallel samples
per prompt (served from one shared prefill via
:meth:`~repro.serve.paging.PagedLease.fork`).  The engine streams
:class:`TokenEvent`s while the request runs and retires it into a
:class:`GenerationResult` carrying one :class:`SampleOutput` per sample
(the classic single-sample fields alias ``samples[0]``).

:meth:`GenerationEngine.submit` returns a :class:`RequestHandle` — a
``str`` subclass equal to the request id, so every pre-v2 call site
keeps working — with ``.stream()`` / ``.result()`` / ``.cancel()``
attached, so callers stop juggling raw ids.

Every request-shape error (``max_tokens < 1``, negative or duplicate
stop tokens, ``n < 1``, ``deadline_s <= 0``, non-1-D or empty prompts)
raises a precise ``ValueError`` at construction — i.e. at submit time —
never mid-tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sampling import GREEDY, SamplingParams

__all__ = [
    "GenerationRequest",
    "PrefillCursor",
    "RequestHandle",
    "SampleOutput",
    "TokenEvent",
    "GenerationResult",
    "FINISH_LENGTH",
    "FINISH_STOP",
    "FINISH_CANCELLED",
    "FINISH_TIMEOUT",
    "FINISH_ERROR",
]

FINISH_LENGTH = "length"       # produced max_tokens tokens
FINISH_STOP = "stop"           # sampled a stop token (not emitted)
FINISH_CANCELLED = "cancelled"  # client cancelled (queued or mid-flight)
FINISH_TIMEOUT = "timeout"     # per-request deadline expired at a tick boundary
FINISH_ERROR = "error"         # quarantined by a fault (forward/alloc/callback)


@dataclass(frozen=True, eq=False)
class GenerationRequest:
    """One client request: prompt tokens plus generation policy.

    ``stop_tokens`` end generation when *sampled*; the stop token
    itself is not emitted.  ``request_id`` must be unique among the
    requests an engine currently knows about.

    ``priority`` orders admission/preemption under the ``"priority"``
    scheduling policy (higher = more urgent; other policies ignore it).
    ``deadline_s`` is a soft SLO in seconds from submission, consumed
    by the ``"deadline"`` (EDF) policy; ``None`` means no deadline.
    ``n`` asks for that many independent samples of the same prompt:
    the prompt is prefilled once and the KV pages are forked
    copy-on-write per extra sample, each sample drawing from its own
    RNG stream derived from ``sampling.seed``.

    ``timeout_s`` is a *hard* per-request wall-clock budget from
    submission: the engine finishes the request with
    ``FINISH_TIMEOUT`` (releasing its storage immediately) at the
    first tick boundary past the deadline — unlike the soft
    ``deadline_s`` SLO, which only influences scheduling order.
    ``None`` falls back to ``ServeConfig.request_timeout_s``.

    ``traffic_class`` is a free-form tenant/workload tag the engine
    carries through untouched — onto the submit timeline event, the
    :class:`GenerationResult`, and snapshots — so load harnesses and
    SLO evaluation (:mod:`repro.serve.loadgen` /
    :mod:`repro.serve.slo`) can group per-class without a side table.
    It never influences scheduling; use ``priority``/``deadline_s``
    for that.
    """

    request_id: str
    prompt: np.ndarray
    max_tokens: int = 16
    sampling: SamplingParams = GREEDY
    stop_tokens: frozenset = frozenset()
    priority: int = 0
    deadline_s: float | None = None
    n: int = 1
    timeout_s: float | None = None
    traffic_class: str | None = None

    def __post_init__(self):
        prompt = np.asarray(self.prompt, dtype=np.int64)
        if prompt.ndim != 1:
            raise ValueError(f"prompt must be 1-D, got shape {prompt.shape}")
        if prompt.size == 0:
            raise ValueError("empty prompt rejected: nothing to prefill")
        object.__setattr__(self, "prompt", prompt)
        stops = list(self.stop_tokens)
        if len(stops) != len(set(stops)):
            raise ValueError(
                f"duplicate stop tokens in {sorted(stops)} (each id once)"
            )
        if any(int(t) < 0 for t in stops):
            raise ValueError(
                f"negative stop tokens in {sorted(int(t) for t in stops)} "
                "(token ids are non-negative)"
            )
        object.__setattr__(self, "stop_tokens", frozenset(int(t) for t in stops))
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1 sample, got {self.n}")
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError(
                f"deadline_s must be > 0 seconds (or None), got {self.deadline_s}"
            )
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError(
                f"timeout_s must be > 0 seconds (or None), got {self.timeout_s}"
            )

    @property
    def token_footprint(self) -> int:
        """Worst-case KV-cache tokens *one sample* of this request needs."""
        return int(self.prompt.size) + self.max_tokens

    @property
    def total_token_footprint(self) -> int:
        """Worst-case KV tokens across all ``n`` samples (the token-budget
        bound: copy-on-write prompt sharing is not credited)."""
        return self.n * self.token_footprint


class PrefillCursor:
    """Progress of one prefill through a request's prompt.

    ``done`` counts prompt tokens already in the KV caches: it starts
    at ``start``, the prefix whose compute a prefix-cache hit skipped
    (whole matched pages, always short of ``total`` so the last prompt
    token runs and yields the first sampled token's logits — the
    engine opens the cursor at 0 on admission and reopens it there
    when the prompt matches, just before its first chunk), and the
    engine advances it one scheduled chunk at a time.  Preemption must
    *discard* the cursor — the evicted pages make the prefilled prefix
    unreachable, so resume rebuilds a fresh cursor over the full
    (possibly grown) prompt, which replays from its first page the
    prefix cache does not match.
    """

    __slots__ = ("total", "done")

    def __init__(self, total: int, start: int = 0):
        if total < 1:
            raise ValueError(f"prefill cursor needs >= 1 tokens, got {total}")
        if not 0 <= start < total:
            raise ValueError(
                f"prefill cursor start {start} outside [0, {total})")
        self.total = int(total)
        self.done = int(start)

    @property
    def remaining(self) -> int:
        return self.total - self.done

    @property
    def complete(self) -> bool:
        return self.done >= self.total

    def advance(self, n: int) -> None:
        if n < 1 or self.done + n > self.total:
            raise ValueError(
                f"cannot advance cursor by {n} (done {self.done} of {self.total})"
            )
        self.done += n

    def __repr__(self) -> str:
        return f"PrefillCursor({self.done}/{self.total})"


class RequestHandle(str):
    """A request id with its lifecycle attached.

    Subclasses ``str`` (the handle *is* the request id), so existing
    code that treats :meth:`GenerationEngine.submit`'s return value as
    a plain id — dict keys, comparisons, formatting — is unchanged.
    The convenience methods drive the owning engine:

    * :meth:`cancel` — stop the request in whatever state it is in.
    * :meth:`result` — step the engine until this request finishes.
    * :meth:`stream` — iterate this request's :class:`TokenEvent`s,
      stepping the engine as needed (other requests keep being served;
      their events are still delivered to their own callbacks).
    * :meth:`trace` — the live lifecycle timeline
      (:class:`~repro.serve.observe.RequestTrace`) recorded so far,
      ``None`` on engines built with ``ServeConfig(observe=False)``.
    """

    def __new__(cls, request_id: str, engine):
        handle = super().__new__(cls, request_id)
        handle._engine = engine
        return handle

    @property
    def request_id(self) -> str:
        return str(self)

    @property
    def done(self) -> bool:
        """True once a :class:`GenerationResult` is available."""
        return self._engine.has_result(self)

    def cancel(self, sample_index: int | None = None) -> bool:
        """Cancel in any state; True if the request was still live.

        ``sample_index`` cancels just one parallel sample of an ``n>1``
        request — its forked lease is released immediately while the
        siblings keep decoding (see :meth:`GenerationEngine.cancel
        <repro.serve.engine.GenerationEngine.cancel>`).
        """
        return self._engine.cancel(self, sample_index=sample_index)

    def trace(self):
        """This request's :class:`~repro.serve.observe.RequestTrace`
        (lifecycle timeline), or ``None`` when observability is off or
        the result was already popped."""
        return self._engine.request_trace(self)

    def result(self):
        """Drive the engine until this request's result exists."""
        while not self._engine.has_result(self) and self._engine.has_work():
            self._engine.step()
        return self._engine.result(self)

    def stream(self):
        """Yield this request's events, stepping the engine to make them."""
        while not self._engine.has_result(self) and self._engine.has_work():
            for event in self._engine.step():
                if event.request_id == self:
                    yield event


@dataclass(frozen=True)
class TokenEvent:
    """One streamed output token (or a bare finish notification).

    ``token`` is ``None`` only on a finish event that emitted nothing
    new (a sampled stop token, or a cancellation); ``index`` is the
    token's position in the sample's output and ``sample`` which of the
    request's ``n`` parallel samples produced it.  ``finished``/
    ``finish_reason`` are set on each sample's last event.  ``text`` is
    the newly decoded text for this token when the engine was built
    with a ``detokenize`` callback (the *incremental* suffix —
    concatenating a sample's event texts yields its full detokenized
    output, which keeps multi-token glyphs correct), ``None`` otherwise.
    """

    request_id: str
    token: int | None
    index: int
    finished: bool = False
    finish_reason: str | None = None
    text: str | None = None
    sample: int = 0


@dataclass
class SampleOutput:
    """One of a request's ``n`` parallel samples."""

    index: int
    tokens: list[int]
    finish_reason: str
    text: str | None = None     # full detokenized output (engines with
                                # a detokenize callback), else None
    error: str | None = None    # fault description when finish_reason
                                # is FINISH_ERROR (else None)

    @property
    def n_tokens(self) -> int:
        return len(self.tokens)


@dataclass
class GenerationResult:
    """Final state of one served request.

    ``samples`` holds every parallel sample in index order; the classic
    single-sample fields (``tokens``, ``finish_reason``) alias
    ``samples[0]`` — same list object, not a copy — so pre-v2 callers
    read sample 0 exactly as before.

    ``error`` carries the first fault description among the samples
    when any lane finished with ``FINISH_ERROR`` (a raised ``on_token``
    callback, an injected or real forward/allocation failure after the
    retry budget), ``None`` for clean finishes.

    ``trace`` is the request's serialized lifecycle timeline — the
    :meth:`~repro.serve.observe.RequestTrace.to_events` event-dict list
    (submit, admit, prefill chunks, preemptions, retries, faults, first
    token, finish) — when the engine ran with ``ServeConfig.observe``
    on, else ``None``.
    """

    request_id: str
    tokens: list[int]
    finish_reason: str
    queue_latency_s: float      # submit -> admission into the batch
    service_time_s: float       # admission -> finish
    decode_steps: int           # batched decode ticks this request rode
    ttft_s: float = float("nan")      # submit -> first emitted token
    prefill_chunks: int = 0     # prompt chunks run (a whole prompt is one)
    samples: list[SampleOutput] = field(default=None)
    error: str | None = None    # first fault among the samples, else None
    trace: list | None = None   # lifecycle event dicts (observe=True), else None
    traffic_class: str | None = None  # tenant tag, copied from the request

    def __post_init__(self):
        if self.samples is None:
            # Pre-v2 construction sites pass only the single-sample
            # fields; synthesize the aliasing samples list.
            self.samples = [SampleOutput(0, self.tokens, self.finish_reason)]

    @property
    def n_tokens(self) -> int:
        return len(self.tokens)

    @property
    def n_samples(self) -> int:
        return len(self.samples)
