"""Pluggable scheduling policies: queue order, chunk budget, preemption.

The v2 serving API separates *mechanism* (the scheduler's budgets and
the engine's tick assembly) from *policy* (which request goes first).
A :class:`SchedulerPolicy` answers exactly three questions, and the
scheduler/engine delegate every ordering decision to it:

``order_queue(waiting)``
    The admission order of the waiting queue.  Admission stays
    head-of-line over this *ordered* view: if the first request does
    not fit, nothing behind it is considered, so whatever the policy
    ranks first can never be starved by smaller requests behind it.
``pick_chunk_recipients(prefilling, budget)``
    Which half-prefilled sequences receive a chunk this mixed tick, as
    ``[(seq, n_tokens)]`` under the Sarathi-style token ``budget``
    (at most one chunk per sequence per tick; without a chunk size the
    chunk is the rest of the prompt).
``choose_preemption_victim(running)``
    Which running sequence the engine evicts back to the queue
    when the block pool runs dry.

Three implementations ship:

* :class:`FCFSPolicy` — arrival order everywhere, youngest-first
  preemption.  **Bit-for-bit the pre-policy engine behaviour** and the
  default; the token-level determinism suites (``test_serve_engine`` /
  ``_paging`` / ``_chunked``) run against it unchanged.
* :class:`PriorityPolicy` — strict :attr:`~repro.serve.request.
  GenerationRequest.priority` (higher first), FCFS tiebreak; preemption
  evicts the lowest-priority (youngest among equals) sequence, so a
  high-priority request can displace background work but never the
  other way around.
* :class:`DeadlinePolicy` — earliest-deadline-first over
  ``submit_time + deadline_s``, with starvation-free aging: a
  request's effective deadline is capped at ``submit_time +
  aging_cap_s``, so deadline-less (or far-deadline) requests still
  drain — once a request has waited past the cap, every later arrival
  (whose effective deadline is at least its own submit time) sorts
  behind it.  Preemption is *recompute-aware*, not pure EDF: eviction
  discards a sequence's whole KV cache and replays prompt + emitted
  tokens on re-admission, so among slack-rich candidates the policy
  prefers the one with the fewest tokens already decoded
  (``preempt_token_cost_s`` converts invested tokens into deadline
  credit).

Policies hold no per-request state — they are pure order functions
over the engine's sequence objects (``seq.request`` carries
``priority``/``deadline_s``; ``seq.submit_time``/``seq.arrival_seq``
are stamped at submission).  The scheduler does :meth:`bind
<_OrderingPolicy.bind>` its config's chunk size into the instance,
though, so use one policy instance per engine.
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

__all__ = [
    "SchedulerPolicy",
    "FCFSPolicy",
    "PriorityPolicy",
    "DeadlinePolicy",
    "POLICIES",
    "get_policy",
]


def _arrival(seq) -> int:
    """Submission order stamp (engine-set; stubs without one tie at 0)."""
    return getattr(seq, "arrival_seq", 0)


@runtime_checkable
class SchedulerPolicy(Protocol):
    """The three ordering decisions a serving policy owns."""

    name: str

    def order_queue(self, waiting: list) -> list:
        """Admission order over the waiting queue (head-of-line)."""
        ...

    def pick_chunk_recipients(self, prefilling: list, budget: float) -> list:
        """``[(seq, n_tokens)]`` chunk plan for one mixed tick."""
        ...

    def choose_preemption_victim(self, running: list):
        """The running sequence to evict when the block pool runs dry."""
        ...


class _OrderingPolicy:
    """Shared mechanics: policies only define the sort key.

    ``chunk_tokens`` is bound by the scheduler (:meth:`bind`; ``None``
    makes each chunk the rest of its prompt); the chunk plan walks the
    policy-ordered prefilling set head-of-line under the token budget
    — for FCFS this is exactly the pre-policy chunk loop.
    """

    name = "?"

    def __init__(self):
        self.chunk_tokens: int | None = None

    def bind(self, chunk_tokens: int | None) -> None:
        self.chunk_tokens = chunk_tokens

    # -- the sort key; FCFS overrides order_queue to skip sorting ------
    def _key(self, seq):
        raise NotImplementedError

    def order_queue(self, waiting: list) -> list:
        return sorted(waiting, key=self._key)   # stable: FCFS tiebreak

    def pick_chunk_recipients(self, prefilling: list, budget: float) -> list:
        plan = []
        for seq in self.order_queue(prefilling):
            n = min(self.chunk_tokens or math.inf, seq.cursor.remaining)
            if n > budget:
                break
            plan.append((seq, n))
            budget -= n
        return plan

    def choose_preemption_victim(self, running: list):
        # Highest key = least urgent; youngest among equals, so the
        # evict/recompute churn lands on the request that has invested
        # the least work.
        return max(running, key=lambda s: (self._key(s), _arrival(s)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FCFSPolicy(_OrderingPolicy):
    """Arrival order everywhere — the pre-policy engine, bit for bit."""

    name = "fcfs"

    def _key(self, seq):
        return _arrival(seq)

    def order_queue(self, waiting: list) -> list:
        # The queue is already in arrival order (preempted sequences
        # re-enter at the front, which FCFS must preserve) — returning
        # it unchanged is what makes this policy exactly the old code.
        return list(waiting)

    def choose_preemption_victim(self, running: list):
        return running[-1]    # youngest admitted (old engine behaviour)


class PriorityPolicy(_OrderingPolicy):
    """Strict priority (higher first), FCFS among equals."""

    name = "priority"

    def _key(self, seq):
        return (-seq.request.priority, _arrival(seq))


class DeadlinePolicy(_OrderingPolicy):
    """EDF over ``submit_time + deadline_s`` with aging.

    ``aging_cap_s`` bounds every request's effective deadline at
    ``submit_time + aging_cap_s``: deadline-less requests behave like
    requests due in ``aging_cap_s`` seconds, and no request — however
    lax its SLO — can be overtaken forever by a stream of later,
    tighter-deadline arrivals (starvation freedom: later arrivals'
    effective deadlines grow with their submit times).

    Preemption weighs recompute cost alongside deadline slack: evicting
    a sequence throws away every token it has decoded (the recompute
    path replays them all), so each decoded token earns the sequence
    ``preempt_token_cost_s`` seconds of effective-deadline credit when
    ranking victims.  The victim is the sequence maximizing
    ``effective_deadline - preempt_token_cost_s * len(tokens)`` —
    with the weight at 0 this is exactly latest-deadline-first (pure
    EDF).  Admission order is unaffected.
    """

    name = "deadline"

    def __init__(self, aging_cap_s: float = 30.0,
                 preempt_token_cost_s: float = 0.002):
        super().__init__()
        if aging_cap_s <= 0:
            raise ValueError(f"aging_cap_s must be > 0, got {aging_cap_s}")
        if preempt_token_cost_s < 0:
            raise ValueError(
                f"preempt_token_cost_s must be >= 0, got {preempt_token_cost_s}")
        self.aging_cap_s = aging_cap_s
        self.preempt_token_cost_s = preempt_token_cost_s

    def _key(self, seq):
        deadline = seq.request.deadline_s
        eff = min(deadline if deadline is not None else math.inf, self.aging_cap_s)
        return (seq.submit_time + eff, _arrival(seq))

    def choose_preemption_victim(self, running: list):
        w = self.preempt_token_cost_s
        return max(running, key=lambda s: (
            self._key(s)[0] - w * len(s.tokens), _arrival(s)))


POLICIES: dict[str, type] = {
    FCFSPolicy.name: FCFSPolicy,
    PriorityPolicy.name: PriorityPolicy,
    DeadlinePolicy.name: DeadlinePolicy,
}


def get_policy(policy) -> SchedulerPolicy:
    """Resolve a policy name (or pass a ready instance through)."""
    if isinstance(policy, str):
        try:
            return POLICIES[policy]()
        except KeyError:
            raise ValueError(
                f"unknown scheduler_policy {policy!r}; available: "
                f"{sorted(POLICIES)}"
            ) from None
    return policy
