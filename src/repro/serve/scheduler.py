"""Continuous-batching admission control under a pluggable policy.

The scheduler decides *which* requests share the decode batch; it owns
no model or cache state.  Mechanism (budgets, gauges, head-of-line
admission) lives here; *ordering* is delegated to a
:class:`~repro.serve.policy.SchedulerPolicy`:

* **Policy-ordered, head-of-line.**  The waiting queue is viewed
  through ``policy.order_queue`` and only the ordered head is
  considered for admission; if it does not fit, nothing behind it is
  admitted (no starvation of large requests by small ones).  The
  default :class:`~repro.serve.policy.FCFSPolicy` keeps arrival order
  — bit-for-bit the pre-policy scheduler.
* **Batch-size cap.**  At most ``max_batch_size`` sample lanes decode
  per tick.  A request asking for ``n`` parallel samples reserves ``n``
  lanes at admission (its forked samples join the running set once the
  shared prefill completes).
* **Token-budget admission.**  If ``max_tokens_in_flight`` is set, the
  sum of worst-case KV footprints (all samples' ``prompt + max_tokens``
  per running request) stays under it, modelling a bounded
  cache-memory pool.
* **Block-aware admission.**  When a block gauge is bound (the engine
  always binds its pool's), the head is admitted iff its *prefill* —
  not its worst case; for a resumed sequence, plus its emitted, not
  yet fed token — fits in the pool's actually-free pages, after the
  outstanding pages of admitted, not yet prefilled sequences;
  decode-time growth allocates on demand and the engine preempts back
  into this queue (at the front, preserving arrival order) on pool
  exhaustion.  This is what lets the engine admit far more work than
  worst-case token budgets would.
* **Prefix-aware admission.**  A bound ``prefix_probe`` reports how
  many of those prefill pages attach without a free block: pages
  backed by live shared blocks, or computed by an admitted prefill the
  policy orders ahead.  Only the pages a prefix-cache hit *won't*
  cover are charged against the gauge, so a request repeating a
  popular system prompt admits as soon as its unique tail fits — also
  beside the request that computes the prompt.
* **Chunked-prefill budget** (``prefill_chunk_tokens``).  Prompts run
  through the mixed prefill+decode tick; the engine's plan phase asks
  ``policy.pick_chunk_recipients`` for the tick's chunks: at most one
  chunk per prefilling sequence per tick (the whole rest of the prompt
  without ``prefill_chunk_tokens``), policy-ordered head-of-line,
  under the Sarathi-style ``max_tokens_per_tick`` token budget (decode
  rows are charged first, leftover budget feeds prefill).
* **Bounded queue.**  ``max_queue_len`` caps the waiting line;
  ``submit`` raises :class:`QueueFullError` instead of growing the
  deque without bound (backpressure — callers retry or shed load).

Admission happens between decode ticks: as requests finish mid-batch,
their slots free up and the next tick's :meth:`Scheduler.admit_one`
pulls queued requests in.
"""

from __future__ import annotations

from collections import deque

from repro.serve.config import ServeConfig
from repro.serve.policy import FCFSPolicy, SchedulerPolicy, get_policy

__all__ = ["Scheduler", "QueueFullError"]


class QueueFullError(RuntimeError):
    """Submission rejected: the scheduler's queue is at ``max_queue_len``."""


def _lanes(seq) -> int:
    """Batch lanes the sequence will occupy once fully admitted."""
    return getattr(seq, "lanes", 1)


def _footprint(seq) -> int:
    """Worst-case KV tokens across the sequence's remaining samples."""
    return getattr(seq, "token_footprint", None) or seq.request.token_footprint


class Scheduler:
    """Waiting queue + running set under the :class:`ServeConfig` policy.

    ``policy`` defaults to the config's ``scheduler_policy`` name; an
    explicit :class:`~repro.serve.policy.SchedulerPolicy` instance
    overrides it (e.g. a :class:`~repro.serve.policy.DeadlinePolicy`
    with a custom aging cap).
    """

    def __init__(self, config: ServeConfig, policy: SchedulerPolicy | None = None):
        self.config = config
        self.policy = get_policy(
            policy if policy is not None
            else getattr(config, "scheduler_policy", "fcfs")
        )
        bind = getattr(self.policy, "bind", None)
        if bind is not None:
            bind(config.prefill_chunk_tokens)
        self._queue: deque = deque()
        self._running: list = []
        self._block_gauge = None      # () -> free blocks, bound by the engine
        self._block_tokens = 0
        self._prefix_probe = None     # (ids) -> pages covered by live shared blocks

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def n_running(self) -> int:
        return len(self._running)

    @property
    def running(self) -> list:
        return list(self._running)

    @property
    def queued(self) -> list:
        """The queued sequences in raw (arrival/requeue) order."""
        return list(self._queue)

    @property
    def tokens_in_flight(self) -> int:
        """Worst-case KV tokens the running set may occupy."""
        return sum(_footprint(seq) for seq in self._running)

    @property
    def lanes_in_flight(self) -> int:
        """Batch lanes held by the running set, counting lanes still
        reserved for not-yet-forked parallel samples."""
        return sum(_lanes(seq) for seq in self._running)

    def has_work(self) -> bool:
        return bool(self._queue or self._running)

    # ------------------------------------------------------------------
    def bind_block_gauge(self, gauge, block_tokens: int, prefix_probe=None) -> None:
        """Enable block-aware admission: ``gauge()`` reports free pages.

        Admission then requires the head's prefill (its current token
        count, not its worst case) and the admitted prefills' pages to
        fit in actually-free pages.  ``prefix_probe(seqs)``, when given,
        reports how many of those sequences' prefill pages need no free
        block (pages a lease already holds, or a prefix-cache match
        will attach live); they are subtracted from the demand — the
        prefix-aware admission that lets shared-prompt requests in
        while a cold prompt of the same length would still wait.
        """
        self._block_gauge = gauge
        self._block_tokens = block_tokens
        self._prefix_probe = prefix_probe

    def bind_metrics(self, registry) -> None:
        """Register live queue/running gauges on the engine's
        :class:`~repro.serve.observe.MetricsRegistry` — bound callables,
        so the gauges always read current depths with no update calls
        on the admission path."""
        registry.gauge("requests_queued", "Current waiting-queue depth",
                       fn=lambda: self.queue_depth)
        registry.gauge("requests_running", "Sequences in the running set",
                       fn=lambda: self.n_running)
        registry.gauge("lanes_in_flight",
                       "Batch lanes held by the running set (reserved "
                       "parallel-sample lanes included)",
                       fn=lambda: self.lanes_in_flight)

    # ------------------------------------------------------------------
    def submit(self, seq, force: bool = False) -> None:
        # A request that can never fit the budget must be rejected at
        # submission: queued, it would reach the head and wedge the
        # head-of-line queue forever (admission never skips the head).
        budget = self.config.max_tokens_in_flight
        if budget is not None and _footprint(seq) > budget:
            raise ValueError(
                f"request {seq.request.request_id!r} needs "
                f"{_footprint(seq)} tokens, over the "
                f"max_tokens_in_flight budget of {budget}"
            )
        # ``force`` bypasses the backpressure cap (never the budget):
        # snapshot restore re-queues formerly *running* sequences, which
        # legitimately exceed max_queue_len — they were not queue
        # occupants when the snapshot was taken.
        limit = self.config.max_queue_len
        if not force and limit is not None and len(self._queue) >= limit:
            raise QueueFullError(
                f"request {seq.request.request_id!r} rejected: queue is at "
                f"max_queue_len={limit} (backpressure — retry later)"
            )
        self._queue.append(seq)

    def pop_expired(self, now: float) -> list:
        """Remove and return queued sequences past their hard timeout.

        The engine's tick-boundary timeout sweep: a queued sequence
        whose ``timeout_s`` budget (stamped at submission) has elapsed
        is dropped here before it can waste an admission slot; the
        engine finishes it with ``FINISH_TIMEOUT``.  Sequences without
        a timeout are never touched.
        """
        expired = [
            s for s in self._queue
            if getattr(s, "timeout_s", None) is not None
            and now - s.submit_time >= s.timeout_s
        ]
        for seq in expired:
            self._queue.remove(seq)
        return expired

    def _fits(self, seq) -> bool:
        if self.lanes_in_flight + _lanes(seq) > self.config.max_batch_size:
            return False
        budget = self.config.max_tokens_in_flight
        if budget is not None:
            if self.tokens_in_flight + _footprint(seq) > budget:
                return False
        if self._block_gauge is not None:
            # Admitted prefills hold no pages until their chunks run, so
            # the gauge alone cannot see their demand: charge the head's
            # prefill pages plus theirs — a resumed head also backs its
            # emitted, not yet fed token, or it is re-admitted only to
            # be preempted at its next decode — less the pages the probe
            # says attach without a free block.
            prefills = [s for s in self._running
                        if getattr(s, "cursor", None) is not None]
            tokens = [s.cursor.total for s in prefills]
            tokens.append(seq.prefill_len + bool(getattr(seq, "resuming", False)))
            pages = sum(-(-n // self._block_tokens) for n in tokens)
            if self._prefix_probe is not None:
                pages -= self._prefix_probe([*prefills, seq])
            if pages > self._block_gauge():
                return False
        return True

    def admit_one(self):
        """Admit the policy-ordered head if it fits, else ``None``.

        Head-of-line over the *ordered* queue: only the request the
        policy ranks first is considered.  The engine admits one
        request at a time so each admission's page allocations are
        visible to the next fit check.
        """
        if not self._queue:
            return None
        if isinstance(self.policy, FCFSPolicy):
            head = self._queue[0]          # fast path: no ordering pass
        else:
            head = self.policy.order_queue(list(self._queue))[0]
        if self._fits(head):
            self._queue.remove(head)
            self._running.append(head)
            return head
        return None

    def admit(self) -> list:
        """Move queued requests into the running set while they fit."""
        admitted = []
        while (seq := self.admit_one()) is not None:
            admitted.append(seq)
        return admitted

    def add_running(self, seq) -> None:
        """Place an engine-materialized sequence (a forked parallel
        sample) directly into the running set, bypassing the queue —
        its lanes were reserved when its parent was admitted."""
        self._running.append(seq)

    def remove_queued(self, seq) -> bool:
        """Drop a still-queued sequence (cancellation); False if absent."""
        try:
            self._queue.remove(seq)
            return True
        except ValueError:
            return False

    def find_queued(self, request_id: str):
        """The queued sequences belonging to ``request_id`` (0 or 1)."""
        return [s for s in self._queue if s.request.request_id == request_id]

    def requeue_front(self, seq) -> None:
        """Preemption path: running → head of the queue (arrival order
        preserved — the FCFS engine preempts youngest-first, so
        successive calls restore the original arrival order ahead of
        everything already queued; sorting policies re-rank the queue
        on every admission anyway)."""
        self._running.remove(seq)
        self._queue.appendleft(seq)

    def release(self, seq) -> None:
        """Drop a sequence from the running set; idempotent.

        Fault, timeout and cancellation paths can race to retire the
        same sequence within one tick (e.g. a timeout sweep finishing a
        sequence a reentrant callback already cancelled), so releasing
        an already-released sequence is a no-op, not an error.
        """
        try:
            self._running.remove(seq)
        except ValueError:
            pass
