"""Multi-tenant serving: continuous batching over quantized KV caches.

The serving layer on top of the MANT quantization stack — an engine
that schedules many concurrent generation requests into one fused
decode batch, with per-request streaming (token ids plus optional
incremental detokenized text), paged per-layer KV caches (FP16/INT/
MANT) recycled across requests, and aggregate throughput / occupancy /
latency statistics.

The v2 API is layered:

* **Configuration** — :class:`~repro.serve.config.ServeConfig`, one
  validated frozen dataclass; every prompt prefills in the mixed
  prefill+decode tick, whole in ``ServeConfig()`` and in
  window-aligned chunks under the ``ServeConfig.chunked()`` preset.
* **Policy** — every ordering decision (admission order, chunk
  recipients, preemption victim) goes through a pluggable
  :class:`~repro.serve.policy.SchedulerPolicy`:
  :class:`~repro.serve.policy.FCFSPolicy` (default, bit-for-bit the
  pre-policy engine), :class:`~repro.serve.policy.PriorityPolicy`
  (strict ``GenerationRequest.priority``, FCFS tiebreak) and
  :class:`~repro.serve.policy.DeadlinePolicy` (EDF over
  ``deadline_s`` with starvation-free aging), selected by
  ``ServeConfig(scheduler_policy=...)``.
* **Lifecycle** — :meth:`~repro.serve.engine.GenerationEngine.submit`
  returns a :class:`~repro.serve.request.RequestHandle` (a ``str``
  equal to the request id) with ``.stream()`` / ``.result()`` /
  ``.cancel()``; :meth:`~repro.serve.engine.GenerationEngine.cancel`
  works in every state — queued, mid-chunked-prefill, decoding —
  releasing pool blocks and finishing with ``FINISH_CANCELLED``.
* **Parallel sampling** — ``GenerationRequest(n=...)`` prefills the
  prompt once and forks the paged lease copy-on-write per extra
  sample (:meth:`~repro.serve.paging.PagedLease.fork`), each sample
  drawing from an RNG stream derived from ``(seed, sample_index)``;
  :class:`~repro.serve.request.GenerationResult.samples` carries one
  :class:`~repro.serve.request.SampleOutput` per sample and the
  classic single-sample fields alias ``samples[0]``.
* **Fault tolerance** — hard per-request timeouts
  (``GenerationRequest.timeout_s`` / ``ServeConfig.request_timeout_s``
  → ``FINISH_TIMEOUT``), per-request fault isolation (a raising
  ``on_token`` callback or a forward/allocation failure quarantines
  only its own request as ``FINISH_ERROR``, after a bounded
  retry-with-recompute for transient faults; bystanders stay
  token-identical), a deterministic seeded chaos harness
  (:class:`~repro.serve.faults.FaultInjector` with named injection
  sites), and graceful drain + snapshot/restore
  (:meth:`~repro.serve.engine.GenerationEngine.drain` /
  :meth:`~repro.serve.engine.GenerationEngine.snapshot` /
  :meth:`~repro.serve.engine.GenerationEngine.restore`) that replays
  in-flight requests through the recompute path, RNG state included.
* **Fleet** — :class:`~repro.serve.fleet.FleetRouter` puts N replica
  engines behind one engine-shaped surface
  (:class:`~repro.serve.config.FleetConfig`): prefix-affinity routing
  with load fallback and composed backpressure, a per-replica health
  model (HEALTHY/DEGRADED/QUARANTINED) with a circuit breaker fed by
  each replica's own metrics, replica-scoped chaos sites
  (``REPLICA_STALL`` / ``REPLICA_CRASH``) with crash failover onto
  survivors via :meth:`~repro.serve.engine.GenerationEngine.adopt`,
  hedged straggler requests, and periodic per-replica snapshot
  rotation for crash recovery.
* **Observability** — every engine statistic is an instrument in a
  :class:`~repro.serve.observe.MetricsRegistry` (``engine.metrics``,
  Prometheus text exposition via ``to_prometheus()``, fleet
  aggregation via :meth:`~repro.serve.observe.MetricsRegistry.merge`);
  with ``ServeConfig.observe`` (default on) each tick's phases record
  nested spans into a :class:`~repro.serve.observe.TickTracer`
  (Chrome-trace/Perfetto export: ``engine.trace.save(path)``) and each
  request keeps a :class:`~repro.serve.observe.RequestTrace` lifecycle
  timeline (``handle.trace()`` / ``GenerationResult.trace``), with
  fired faults joined in from the injector's log.
* **Load & SLOs** — :mod:`repro.serve.loadgen` generates seeded,
  replayable multi-tenant workloads (Poisson/bursty arrivals, length
  mixtures, shared-prefix cohorts, per-class priority/deadline/n
  knobs) and drives them open-loop through a
  :class:`~repro.serve.loadgen.LoadHarness` (wall or deterministic
  virtual clock); :mod:`repro.serve.slo` declares per-class objectives
  (:class:`~repro.serve.slo.SLOSpec`), judges runs into scorecards
  (:func:`~repro.serve.slo.evaluate` — attainment, goodput), watches
  them live (:class:`~repro.serve.slo.SLOMonitor`, per-class labeled
  registries) and binary-searches the saturation knee
  (:func:`~repro.serve.slo.find_knee`).

One storage backend: the paged :class:`~repro.serve.paging.BlockPool`
(fixed-size ref-counted pages with hash-based prompt-prefix sharing,
copy-on-write and prefix-aware block admission).  One prefill path:
admission runs no forward, and every prompt matches the prefix cache
just before its first chunk (skipping the compute of the pages it
attaches) and then runs as mixed prefill+decode tick segments.  With
``ServeConfig(prefill_chunk_tokens=...)`` those are window-aligned
chunks under a Sarathi-style ``max_tokens_per_tick`` budget, keeping
decode inter-token latency flat while long prompts stream in; without
it the whole prompt is one chunk.  See
:mod:`repro.serve.engine` for the determinism guarantees and
:mod:`repro.serve.paging` for the paging design.
"""

from repro.serve.sampling import GREEDY, Sampler, SamplingParams, greedy_sample
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
from repro.serve.config import FleetConfig, ServeConfig
from repro.serve.policy import (
    DeadlinePolicy,
    FCFSPolicy,
    PriorityPolicy,
    SchedulerPolicy,
    get_policy,
)
from repro.serve.faults import (
    ALLOC,
    CALLBACK,
    CLOCK,
    FORWARD,
    REPLICA_CRASH,
    REPLICA_STALL,
    SITES,
    FaultInjector,
    InjectedFault,
)
from repro.serve.fleet import (
    DEGRADED,
    HEALTHY,
    QUARANTINED,
    FleetRouter,
    FleetStats,
    ReplicaStatus,
)
from repro.serve.observe import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RequestTrace,
    TickTracer,
)
from repro.serve.scheduler import QueueFullError, Scheduler
from repro.serve.paging import (
    BlockPool,
    PagedKVCache,
    PagedLease,
    PagedTokenBuffer,
    PagedView,
    PageTable,
    PoolExhausted,
)
from repro.serve.engine import EngineStats, GenerationEngine
from repro.serve.loadgen import (
    ArrivalProcess,
    HarnessResult,
    LengthDist,
    LoadHarness,
    RequestRecord,
    TickCostModel,
    TraceEntry,
    TrafficClass,
    VirtualClock,
    WorkloadSpec,
    WorkloadTrace,
    generate_trace,
)
from repro.serve.slo import (
    ClassReport,
    ClassSLO,
    SLOMonitor,
    SLOReport,
    SLOSpec,
    attainment_gap,
    evaluate,
    find_knee,
    request_compliant,
)

__all__ = [
    "GREEDY",
    "Sampler",
    "SamplingParams",
    "greedy_sample",
    "FINISH_CANCELLED",
    "FINISH_ERROR",
    "FINISH_LENGTH",
    "FINISH_STOP",
    "FINISH_TIMEOUT",
    "GenerationRequest",
    "GenerationResult",
    "PrefillCursor",
    "RequestHandle",
    "SampleOutput",
    "TokenEvent",
    "Scheduler",
    "ServeConfig",
    "QueueFullError",
    "SchedulerPolicy",
    "FCFSPolicy",
    "PriorityPolicy",
    "DeadlinePolicy",
    "get_policy",
    "BlockPool",
    "PageTable",
    "PagedTokenBuffer",
    "PagedView",
    "PagedKVCache",
    "PagedLease",
    "PoolExhausted",
    "FaultInjector",
    "InjectedFault",
    "FORWARD",
    "ALLOC",
    "CALLBACK",
    "CLOCK",
    "REPLICA_STALL",
    "REPLICA_CRASH",
    "SITES",
    "FleetConfig",
    "FleetRouter",
    "FleetStats",
    "ReplicaStatus",
    "HEALTHY",
    "DEGRADED",
    "QUARANTINED",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RequestTrace",
    "TickTracer",
    "EngineStats",
    "GenerationEngine",
    "ArrivalProcess",
    "HarnessResult",
    "LengthDist",
    "LoadHarness",
    "RequestRecord",
    "TickCostModel",
    "TraceEntry",
    "TrafficClass",
    "VirtualClock",
    "WorkloadSpec",
    "WorkloadTrace",
    "generate_trace",
    "ClassReport",
    "ClassSLO",
    "SLOMonitor",
    "SLOReport",
    "SLOSpec",
    "attainment_gap",
    "evaluate",
    "find_knee",
    "request_compliant",
]
