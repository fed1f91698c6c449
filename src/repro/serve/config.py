"""Serving configuration: one validated, frozen knob surface.

:class:`ServeConfig` is the single source of truth for every engine and
scheduler knob — paged KV storage shape, admission budgets,
chunked-prefill shape, and the pluggable ``scheduler_policy``.  All
cross-field validation lives here, in ``__post_init__``, so an invalid
configuration fails at construction instead of mid-tick; the only check
left elsewhere is the one that needs a live cache instance (page/window
alignment, performed by the engine via
:func:`~repro.serve.paging.validate_block_compat`).  Chunks are a
multiple of ``block_tokens`` (checked here) and pages of the MANT V
window (checked there), so chunks are window-aligned transitively.

Every engine prefills in the mixed tick: ``ServeConfig()`` runs each
prompt as one chunk, the :meth:`ServeConfig.chunked` preset is the
Sarathi-style chunked shape, accepting any field as a keyword
override, e.g.
``ServeConfig.chunked(max_batch_size=16, scheduler_policy="priority")``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.serve.policy import POLICIES

__all__ = ["ServeConfig", "FleetConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Engine/scheduler knobs.

    ``max_tokens_in_flight = None`` disables the token budget (the
    batch-size cap alone bounds concurrency).  ``max_queue_len = None``
    leaves the waiting queue unbounded.

    ``scheduler_policy`` names the :class:`~repro.serve.policy.
    SchedulerPolicy` ordering every queue/chunk/preemption decision:
    ``"fcfs"`` (default — bit-for-bit the pre-policy engine),
    ``"priority"`` (strict :attr:`~repro.serve.request.
    GenerationRequest.priority` with FCFS tiebreak) or ``"deadline"``
    (EDF over ``GenerationRequest.deadline_s`` with starvation-free
    aging).

    Paged KV storage (see :mod:`repro.serve.paging`):

    ``block_tokens``
        Page size in tokens.  Must be a multiple of the cache's
        temporal quantization group (the MANT V window) so per-page
        quantization is bit-identical to the flat caches.  The default
        32 pairs with window-32 MANT caches; a ``MantKVCache()`` keeps
        its 64-token default window (the paper's group size), so it
        needs ``block_tokens=64`` (or a multiple) — engine construction
        rejects the mismatch and names that size.
    ``num_blocks``
        Pool size.  ``None`` sizes it for the worst case
        (``ceil(max_seq / block_tokens) × max_batch_size``); smaller
        values enable real admission control, on-demand growth and
        preemption under memory pressure.
    ``enable_prefix_cache``
        Deduplicate identical full prompt-prefix pages across requests
        (hash-chained, copy-on-write protected) and skip the prefill
        compute of the pages a request matched.  A prompt matches just
        before its first chunk; one whose next page a prefill ordered
        ahead of it is computing waits a tick for it, so requests
        admitted together share the pages the first of them computes.

    Chunked prefill (the mixed prefill+decode tick):

    ``prefill_chunk_tokens``
        Split each admitted prompt into chunks of this many tokens,
        one per tick, run through the batched mixed tick alongside the
        decode rows.  Must be a multiple of ``block_tokens`` — and so,
        transitively, of the cache's temporal quantization window (the
        MANT V window) — so chunk boundaries always land on page and
        quantization-group boundaries and chunked output stays
        token-identical to unchunked.  ``None`` (default) runs each
        prompt as one chunk, in the same mixed tick.
    ``max_tokens_per_tick``
        Sarathi-style per-tick token budget for the mixed tick: the
        decode rows (one token each) are charged first, and prefill
        chunks are only scheduled into what remains, keeping every
        tick's forward-pass cost — and therefore decode inter-token
        latency — bounded regardless of prompt length.  Requires
        ``prefill_chunk_tokens`` and must be at least as large, so an
        all-prefill tick always makes progress.  ``None`` leaves tick
        size bounded only by one chunk per prefilling sequence.

    Fault tolerance (see :mod:`repro.serve.faults`):

    ``request_timeout_s``
        Default hard per-request wall-clock budget from submission,
        enforced at tick boundaries: an expired request finishes with
        ``FINISH_TIMEOUT`` and its storage is released immediately.
        ``GenerationRequest.timeout_s`` overrides it per request;
        ``None`` (default) disables the engine-wide timeout.
    ``max_retries``
        Bounded retry budget for *transient* faults (injected
        transient forward/allocation faults, real forward exceptions):
        each retry replays the victim through the preemption recompute
        path; past the budget the sequence finishes with
        ``FINISH_ERROR``.

    Observability (see :mod:`repro.serve.observe`):

    ``observe``
        Enable the tick-phase tracer and per-request lifecycle
        timelines (default on — a span costs two clock reads, gated
        to <= 1.05x steady-state overhead by ``bench_observability``).
        ``False`` makes the tracing layer a no-op; the metrics
        registry behind :meth:`~repro.serve.engine.GenerationEngine.
        stats` stays live either way (it *is* the engine's counters).
        Tracer clock reads never touch the engine's injectable clock,
        so scheduling — and therefore token output — is bit-identical
        with observability on or off.
    """

    max_batch_size: int = 8
    max_tokens_in_flight: int | None = None
    max_queue_len: int | None = None
    block_tokens: int = 32
    num_blocks: int | None = None
    enable_prefix_cache: bool = True
    prefill_chunk_tokens: int | None = None
    max_tokens_per_tick: int | None = None
    scheduler_policy: str = "fcfs"
    request_timeout_s: float | None = None
    max_retries: int = 1
    observe: bool = True

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_tokens_in_flight is not None and self.max_tokens_in_flight < 1:
            raise ValueError("max_tokens_in_flight must be >= 1 (or None)")
        if self.max_queue_len is not None and self.max_queue_len < 1:
            raise ValueError("max_queue_len must be >= 1 (or None)")
        if self.block_tokens < 1:
            raise ValueError("block_tokens must be >= 1")
        if self.num_blocks is not None and self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1 (or None)")
        if self.prefill_chunk_tokens is not None:
            if self.prefill_chunk_tokens < 1:
                raise ValueError("prefill_chunk_tokens must be >= 1 (or None)")
            if self.prefill_chunk_tokens % self.block_tokens:
                raise ValueError(
                    f"prefill_chunk_tokens={self.prefill_chunk_tokens} must be "
                    f"a multiple of block_tokens ({self.block_tokens}) so every "
                    "non-final chunk fills whole pages and never straddles a "
                    "temporal quantization group"
                )
        if self.max_tokens_per_tick is not None:
            if self.prefill_chunk_tokens is None:
                raise ValueError(
                    "max_tokens_per_tick requires prefill_chunk_tokens (the "
                    "budget throttles the chunked-prefill mixed tick)"
                )
            if self.max_tokens_per_tick < self.prefill_chunk_tokens:
                raise ValueError(
                    f"max_tokens_per_tick ({self.max_tokens_per_tick}) must be "
                    f">= prefill_chunk_tokens ({self.prefill_chunk_tokens}) so "
                    "a tick with no decode rows still fits one chunk"
                )
        if self.request_timeout_s is not None and not self.request_timeout_s > 0:
            raise ValueError(
                f"request_timeout_s must be > 0 seconds (or None), got "
                f"{self.request_timeout_s}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.scheduler_policy not in POLICIES:
            raise ValueError(
                f"unknown scheduler_policy {self.scheduler_policy!r}; "
                f"available: {sorted(POLICIES)}"
            )

    @classmethod
    def chunked(cls, **overrides) -> "ServeConfig":
        """Chunked mixed-tick prefill.

        Defaults ``block_tokens=32``, ``prefill_chunk_tokens=32`` and
        ``max_tokens_per_tick=64`` — the shapes the chunked benchmarks
        gate — all overridable.
        """
        overrides.setdefault("block_tokens", 32)
        overrides.setdefault("prefill_chunk_tokens", overrides["block_tokens"])
        overrides.setdefault(
            "max_tokens_per_tick", 2 * overrides["prefill_chunk_tokens"]
        )
        return cls(**overrides)

    def with_policy(self, scheduler_policy: str) -> "ServeConfig":
        """Same configuration under a different scheduling policy."""
        return replace(self, scheduler_policy=scheduler_policy)


@dataclass(frozen=True)
class FleetConfig:
    """Knob surface of the multi-replica :class:`~repro.serve.fleet.
    FleetRouter` (every replica shares one :class:`ServeConfig`).

    Routing:

    ``n_replicas``
        In-process :class:`~repro.serve.engine.GenerationEngine`
        replicas the router owns.
    ``affinity_tokens``
        Prompt-head length hashed for prefix-affinity routing: requests
        sharing their first ``affinity_tokens`` ids land on the same
        replica (whose block pool already holds those prefix pages).
        ``0`` disables affinity (pure least-loaded routing).
    ``affinity_load_slack``
        Load-based fallback threshold: if the affinity target holds
        this many more queued+running requests than the least-loaded
        admitting replica, the request falls back to the latter
        (affinity never overrides a replica that is drowning).

    Health / circuit breaker (evaluated every router tick — the probe
    tick — from each replica's own metrics registry):

    ``degrade_errors``
        Failed+timed-out requests since the replica's last clean window
        that mark it DEGRADED (routed to only when no healthy replica
        admits).
    ``quarantine_errors``
        Error budget whose burn trips the breaker: the replica goes
        QUARANTINED (breaker open, no new admissions) for
        ``breaker_open_s``, then half-open — one probe request is
        admitted, and its outcome closes the breaker (HEALTHY, budgets
        reset) or re-opens it.
    ``breaker_open_s``
        Seconds the breaker stays open before the half-open probe.
    ``error_window_s``
        A replica with no new errors for this long gets its budget
        counters re-anchored (old errors age out).

    Hedging:

    ``hedge_after_s``
        Explicit straggler delay: a request with no first token after
        this many seconds is duplicated onto a second replica, first
        finisher wins, loser cancelled.  ``None`` derives the delay
        from observed TTFTs instead (below) — if those are also
        unavailable, hedging is off.
    ``hedge_ttft_percentile``
        Fleet-wide TTFT percentile used as the hedge delay when
        ``hedge_after_s`` is ``None`` (e.g. ``95.0``).  ``None``
        disables percentile-derived hedging.
    ``hedge_min_samples``
        Observed TTFTs required before the percentile is trusted.

    Crash recovery:

    ``snapshot_interval_s``
        Period of per-replica background snapshots written to
        ``snapshot_dir`` with keep-last-``snapshot_keep`` rotation;
        ``None`` disables disk snapshots (crash recovery then replays
        purely from the router's live token journal — still exact for
        greedy requests, but sampled requests restart their RNG
        streams).
    ``snapshot_dir`` / ``snapshot_keep``
        Rotation directory (one subdirectory per replica) and depth.
    """

    n_replicas: int = 2
    affinity_tokens: int = 16
    affinity_load_slack: int = 4
    degrade_errors: int = 2
    quarantine_errors: int = 5
    breaker_open_s: float = 1.0
    error_window_s: float = 60.0
    hedge_after_s: float | None = None
    hedge_ttft_percentile: float | None = None
    hedge_min_samples: int = 32
    snapshot_interval_s: float | None = None
    snapshot_dir: str | None = None
    snapshot_keep: int = 3

    def __post_init__(self):
        if self.n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {self.n_replicas}")
        if self.affinity_tokens < 0:
            raise ValueError("affinity_tokens must be >= 0")
        if self.affinity_load_slack < 0:
            raise ValueError("affinity_load_slack must be >= 0")
        if self.degrade_errors < 1:
            raise ValueError("degrade_errors must be >= 1")
        if self.quarantine_errors < self.degrade_errors:
            raise ValueError(
                f"quarantine_errors ({self.quarantine_errors}) must be >= "
                f"degrade_errors ({self.degrade_errors})")
        if not self.breaker_open_s > 0:
            raise ValueError("breaker_open_s must be > 0 seconds")
        if not self.error_window_s > 0:
            raise ValueError("error_window_s must be > 0 seconds")
        if self.hedge_after_s is not None and not self.hedge_after_s > 0:
            raise ValueError("hedge_after_s must be > 0 seconds (or None)")
        if (self.hedge_ttft_percentile is not None
                and not 0 < self.hedge_ttft_percentile <= 100):
            raise ValueError(
                "hedge_ttft_percentile must be in (0, 100] (or None)")
        if self.hedge_min_samples < 1:
            raise ValueError("hedge_min_samples must be >= 1")
        if (self.snapshot_interval_s is not None
                and not self.snapshot_interval_s > 0):
            raise ValueError("snapshot_interval_s must be > 0 seconds (or None)")
        if self.snapshot_interval_s is not None and self.snapshot_dir is None:
            raise ValueError("snapshot_interval_s requires snapshot_dir")
        if self.snapshot_keep < 1:
            raise ValueError(f"snapshot_keep must be >= 1, got {self.snapshot_keep}")

