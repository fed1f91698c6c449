"""Deterministic fault injection (chaos harness) for the serving engine.

Production serving engines fail in ways unit tests never exercise: a
model forward raises mid-batch, the block pool refuses an allocation
under pressure, a client's streaming callback throws, the wall clock
jumps.  This module makes every one of those paths *testable and
reproducible*: a :class:`FaultInjector` is armed with named injection
points and threaded through engine, scheduler and pool, and fires
deterministically — either at scripted occurrences (:meth:`FaultInjector.
arm`: "the 3rd forward of request r2 raises") or pseudo-randomly from a
seeded RNG (:meth:`FaultInjector.chaos`), so a chaos run replays
bit-for-bit from its seed.

Injection sites (the engine documents where each fires):

``FORWARD``
    A model forward pass for one sequence raises.  Checked per sequence
    at the tick boundary *before* the fused call, so an injected
    forward fault never half-mutates bystander caches — the offender is
    quarantined, everyone else's tick proceeds untouched.
``ALLOC``
    KV storage allocation fails — at admission (the pool lease) or
    when a sequence needs new pages this tick.  Also
    consulted by :meth:`~repro.serve.paging.BlockPool.allocate` itself,
    which covers allocations the planner cannot anticipate
    (copy-on-write clones).
``CALLBACK``
    A request's ``on_token`` callback raises (the engine also catches
    *real* callback exceptions through the same quarantine path).
``CLOCK``
    The engine's clock jumps forward by an armed skew
    (:meth:`FaultInjector.clock_skew`) — exercises timeout enforcement
    under clock trouble.
``REPLICA_STALL`` / ``REPLICA_CRASH``
    Replica-scoped sites consulted by the fleet router
    (:class:`~repro.serve.fleet.FleetRouter`), once per replica per
    fleet tick, with the *replica name* in the ``request_id`` slot of
    the replayable log.  A fired stall wedges the replica for that tick
    (arm ``times=K`` to wedge K consecutive ticks); a fired crash kills
    the replica outright — its in-flight requests fail over to
    survivors.  Engines never consult these sites themselves.

Faults armed ``transient=True`` model recoverable trouble: the engine
retries the victim through its recompute path (bounded by
``ServeConfig.max_retries``) instead of failing it outright.

The injector records every fault it fires in :attr:`FaultInjector.log`,
so a failing chaos run can be replayed as a scripted one.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FORWARD",
    "ALLOC",
    "CALLBACK",
    "CLOCK",
    "REPLICA_STALL",
    "REPLICA_CRASH",
    "SITES",
    "InjectedFault",
    "FaultInjector",
]

FORWARD = "forward"
ALLOC = "alloc"
CALLBACK = "callback"
CLOCK = "clock"
REPLICA_STALL = "replica_stall"
REPLICA_CRASH = "replica_crash"
SITES = (FORWARD, ALLOC, CALLBACK, CLOCK, REPLICA_STALL, REPLICA_CRASH)


class InjectedFault(RuntimeError):
    """The exception a fired injection point raises.

    ``request_id`` is the sequence the fault was attributed to (``None``
    for unattributed sites like a pool-internal allocation);
    ``transient`` marks faults the engine should retry-with-recompute
    rather than fail outright.
    """

    def __init__(self, site: str, request_id: str | None = None,
                 transient: bool = False):
        self.site = site
        self.request_id = request_id
        self.transient = transient
        target = f" for request {request_id!r}" if request_id is not None else ""
        kind = "transient " if transient else ""
        super().__init__(f"injected {kind}{site} fault{target}")


class _Rule:
    """One armed injection: site + target + firing schedule."""

    __slots__ = ("site", "request_id", "after", "times", "transient",
                 "probability", "skew_s")

    def __init__(self, site, request_id, after, times, transient,
                 probability=None, skew_s=0.0):
        self.site = site
        self.request_id = request_id
        self.after = after            # matching occasions to skip first
        self.times = times            # firings left (None = unlimited)
        self.transient = transient
        self.probability = probability  # None = always fire when eligible
        self.skew_s = skew_s          # CLOCK site: seconds to jump

    def matches(self, site, request_id) -> bool:
        if self.site != site:
            return False
        return self.request_id is None or self.request_id == request_id


class FaultInjector:
    """Seeded, scripted chaos source for one engine.

    Use one injector per engine (rules are consumed as they fire).  All
    scheduling is deterministic: scripted rules count *matching
    occasions* (``after``/``times``), and :meth:`chaos` rules draw from
    the injector's private seeded RNG in engine call order — the same
    seed against the same workload fires the same faults.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._rules: list[_Rule] = []
        self._skew = 0.0              # accumulated CLOCK skew
        self.log: list[tuple[str, str | None]] = []
        self._observers: list = []    # (log_index, site, request_id) callbacks

    def on_fire(self, callback) -> "FaultInjector":
        """Register ``callback(log_index, site, request_id)``, invoked
        synchronously whenever a fault fires (before the exception
        propagates).  ``log_index`` indexes :attr:`log`, so observers —
        the engine's observability layer joins fired faults into the
        victim request's timeline this way — can correlate without
        changing the log's replayable ``(site, request_id)`` shape.
        Observers must not raise; they run inside the firing path.
        """
        self._observers.append(callback)
        return self

    def _notify(self, site: str, request_id: str | None) -> None:
        index = len(self.log) - 1
        for callback in self._observers:
            callback(index, site, request_id)

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def _check_site(self, site: str) -> None:
        if site not in SITES:
            raise ValueError(f"unknown fault site {site!r}; available: {SITES}")

    def arm(self, site: str, request_id: str | None = None, *,
            after: int = 0, times: int = 1,
            transient: bool = False) -> "FaultInjector":
        """Script a fault: fire at the ``after``-th matching occasion.

        ``request_id=None`` matches any sequence at the site; ``after``
        skips that many matching occasions first (``after=2``: the 3rd
        forward of the target raises); ``times`` bounds total firings.
        Returns ``self`` for chaining.
        """
        self._check_site(site)
        if after < 0:
            raise ValueError(f"after must be >= 0, got {after}")
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        self._rules.append(_Rule(site, request_id, after, times, transient))
        return self

    def chaos(self, site: str, probability: float,
              request_id: str | None = None, *, times: int | None = None,
              transient: bool = True) -> "FaultInjector":
        """Fire pseudo-randomly at ``probability`` per matching occasion.

        Draws come from the injector's seeded RNG in call order, so a
        chaos schedule is reproducible from ``seed`` alone.  Defaults to
        ``transient`` faults (the chaos-testing common case: trouble the
        engine should survive, not a poison request).
        """
        self._check_site(site)
        if not 0.0 < probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1], got {probability}")
        if times is not None and times < 1:
            raise ValueError(f"times must be >= 1 (or None), got {times}")
        self._rules.append(
            _Rule(site, request_id, 0, times, transient, probability=probability)
        )
        return self

    def clock_skew(self, skew_s: float, *, after: int = 0) -> "FaultInjector":
        """Arm a one-shot clock jump of ``skew_s`` seconds.

        The skew applies permanently from the ``after``-th clock read
        of a :meth:`wrap_clock`-wrapped clock onward (a forward jump —
        the shape of clock trouble that falsely expires timeouts).
        """
        if after < 0:
            raise ValueError(f"after must be >= 0, got {after}")
        self._rules.append(_Rule(CLOCK, None, after, 1, False, skew_s=skew_s))
        return self

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def fire(self, site: str, request_id: str | None = None) -> None:
        """Consult the rules at one injection occasion; raise if armed.

        Rules are consulted in arming order and the first eligible one
        fires (consuming one of its ``times``); a not-yet-eligible
        matching rule ticks its ``after`` counter down instead.  No-op
        when nothing is armed for the site.
        """
        for rule in self._rules:
            if rule.site == CLOCK or not rule.matches(site, request_id):
                continue
            if rule.after > 0:
                rule.after -= 1
                continue
            if rule.probability is not None and self._rng.random() >= rule.probability:
                continue
            if rule.times is not None:
                rule.times -= 1
                if rule.times == 0:
                    self._rules.remove(rule)
            self.log.append((site, request_id))
            self._notify(site, request_id)
            raise InjectedFault(site, request_id, rule.transient)

    def wrap_clock(self, clock):
        """Wrap an engine clock so armed :meth:`clock_skew` rules apply."""

        def skewed_clock() -> float:
            t = clock()
            for rule in list(self._rules):
                if rule.site != CLOCK:
                    continue
                if rule.after > 0:
                    rule.after -= 1
                    continue
                self._skew += rule.skew_s
                self._rules.remove(rule)
                self.log.append((CLOCK, None))
                self._notify(CLOCK, None)
            return t + self._skew

        return skewed_clock

    # ------------------------------------------------------------------
    @property
    def fired(self) -> int:
        """Total faults fired so far (all sites)."""
        return len(self.log)

    def fired_at(self, site: str) -> int:
        """Faults fired at one site."""
        return sum(1 for s, _ in self.log if s == site)

    def __repr__(self) -> str:
        return (f"FaultInjector(seed={self.seed}, armed={len(self._rules)}, "
                f"fired={len(self.log)})")
