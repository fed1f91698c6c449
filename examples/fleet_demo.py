"""Fleet demo: N replicas, one engine-shaped surface, survivable faults.

A three-replica :class:`~repro.serve.fleet.FleetRouter` serves greedy
requests over INT4-quantized KV caches while the demo breaks things on
purpose:

1. **Prefix-affinity routing** — cohorts sharing a system prompt land
   on one replica (whose block pool already holds the prefix pages),
   spreading distinct cohorts across the fleet.
2. **Crash failover** — a seeded ``REPLICA_CRASH`` kills a replica
   mid-decode; its in-flight requests fail over to survivors through
   the journal recompute path and every token matches an undisturbed
   fleet bit-for-bit (greedy + deterministic INT4 cache), while the
   dead replica is rebuilt under a new incarnation.
3. **Hedged requests** — a ``REPLICA_STALL`` wedges one replica; after
   the hedge delay the straggling request is duplicated onto a healthy
   replica, the fast copy wins with exact output and the loser is
   cancelled.
4. **Snapshot rotation** — periodic per-replica snapshots with
   keep-last-K disk rotation let a *sampled* (temperature > 0) request
   crashed mid-decode recover RNG-exactly from the last rotation.

Everything runs on a manual clock with the unit-test model, so the
whole demo is seconds-scale and deterministic.

Run:  PYTHONPATH=src python examples/fleet_demo.py
"""

import functools
import os
import tempfile

import numpy as np

from repro.model.zoo import get_model
from repro.quant.kvcache import IntKVCache
from repro.serve import (
    REPLICA_CRASH,
    REPLICA_STALL,
    FaultInjector,
    FleetConfig,
    FleetRouter,
    GenerationRequest,
    SamplingParams,
    ServeConfig,
)

SEED = 11
MAX_TOKENS = 10

print("loading unit-test model ...")
model, _ = get_model("unit-test")
VOCAB = model.config.vocab_size
cache_factory = functools.partial(IntKVCache, bits=4, group_size=16)


class ManualClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def make_fleet(fleet_cfg, *, faults=None, clock=None):
    return FleetRouter(
        model, cache_factory, ServeConfig(max_batch_size=4),
        fleet_cfg, clock=clock if clock is not None else ManualClock(),
        faults=faults,
    )


def run_to_completion(router, reqs, *, tick_s=0.01, clock=None):
    """Submit everything, step until idle, return {rid: tokens}."""
    for r in reqs:
        router.submit(r)
    while router.has_work():
        router.step()
        if clock is not None:
            clock.advance(tick_s)
    return {r.request_id: router.pop_result(r.request_id).tokens
            for r in reqs}


# ----------------------------------------------------------------------
# 1. Prefix-affinity routing
# ----------------------------------------------------------------------
print("\n== 1. prefix-affinity routing ==")
rng = np.random.default_rng(SEED)
system_prompts = [rng.integers(0, VOCAB, size=16) for _ in range(3)]
reqs = []
for c, sys_prompt in enumerate(system_prompts):
    for i in range(4):
        user = rng.integers(0, VOCAB, size=6)
        reqs.append(GenerationRequest(
            f"cohort{c}-{i}", np.concatenate([sys_prompt, user]),
            max_tokens=MAX_TOKENS))

router = make_fleet(FleetConfig(n_replicas=3, affinity_load_slack=16))
run_to_completion(router, reqs)
fleet = router.stats().summary()["fleet"]
per_replica = {
    name: summary["requests_completed"]
    for name, summary in router.stats().summary()["replicas"].items()
}
print(f"  12 requests in 3 shared-prefix cohorts -> "
      f"{fleet['affinity_hits']} affinity hits, "
      f"{fleet['fallback_routes']} load fallbacks")
print(f"  per-replica completions: {per_replica}")
print("  each cohort decodes over its home replica's cached prefix pages")

# ----------------------------------------------------------------------
# 2. Seeded crash + exact failover
# ----------------------------------------------------------------------
print("\n== 2. replica crash mid-decode, failover to survivors ==")
crash_reqs = [GenerationRequest(f"c{i}", p, max_tokens=MAX_TOKENS)
              for i, p in enumerate(
                  rng.integers(0, VOCAB, size=8) for _ in range(6))]


def crash_run(faults):
    router = make_fleet(FleetConfig(n_replicas=3), faults=faults)
    out = run_to_completion(router, [GenerationRequest(
        r.request_id, r.prompt, max_tokens=r.max_tokens) for r in crash_reqs])
    return router, out


_, undisturbed = crash_run(None)
fi = FaultInjector(seed=SEED)
fi.arm(REPLICA_CRASH, "replica-0", after=3)   # dies on its 4th router tick
router, crashed = crash_run(fi)

assert all(crashed[rid] == undisturbed[rid] for rid in crashed)
fleet = router.stats().summary()["fleet"]
status = router.replica_status()["replica-0"]
print(f"  replica-0 killed mid-decode (seeded, tick 4): "
      f"{fleet['replica_crashes']} crash, {fleet['failovers']} requests "
      "failed over via journal recompute")
print(f"  replica-0 rebuilt as incarnation {status.incarnation}, "
      f"state {status.state}")
print("  every request's tokens identical to the undisturbed fleet "
      "(greedy + INT4 => exact recompute)")

# ----------------------------------------------------------------------
# 3. Hedged requests under a wedged replica
# ----------------------------------------------------------------------
print("\n== 3. hedging: straggler on a wedged replica ==")
clock = ManualClock()
fi = FaultInjector(seed=SEED)
fi.arm(REPLICA_STALL, "replica-0", times=100)   # wedge replica-0 hard
router = make_fleet(FleetConfig(n_replicas=2, hedge_after_s=0.5),
                    faults=fi, clock=clock)

prompt = rng.integers(0, VOCAB, size=8)
reference = make_fleet(FleetConfig(n_replicas=1))
ref_tokens = run_to_completion(
    reference, [GenerationRequest("ref", prompt, max_tokens=MAX_TOKENS)])["ref"]

# The idle fleet routes the request to the wedged replica (stalls are
# invisible to the health model until errors accrue); the hedge layer
# is what rescues it.
router.submit(GenerationRequest("slow", prompt, max_tokens=MAX_TOKENS))
for _ in range(200):
    if not router.has_work():
        break
    router.step()
    clock.advance(0.25)
fleet = router.stats().summary()["fleet"]
tokens = router.pop_result("slow").tokens
assert tokens == ref_tokens
print(f"  hedge_after_s=0.5, wedged replica skipped its ticks -> "
      f"{fleet['hedges_launched']} hedge launched, "
      f"{fleet['hedges_won']} won, {fleet['hedges_cancelled']} loser "
      "cancelled" if fleet["hedges_launched"] else
      "  request routed straight to the healthy replica (no hedge needed)")
print("  winner's tokens exact vs a single-replica reference")

# ----------------------------------------------------------------------
# 4. Snapshot rotation + sampled crash recovery
# ----------------------------------------------------------------------
print("\n== 4. snapshot rotation: sampled request survives a crash ==")
sampled = SamplingParams(temperature=1.0, top_k=8, seed=13)


def sampled_run(snapshot_dir, crash):
    clock = ManualClock()
    cfg = FleetConfig(n_replicas=2, snapshot_interval_s=0.05,
                      snapshot_dir=snapshot_dir, snapshot_keep=2)
    router = make_fleet(cfg, clock=clock)
    router.submit(GenerationRequest("s0", rng_prompt, max_tokens=16,
                                    sampling=sampled))
    for tick in range(400):
        if not router.has_work():
            break
        router.step()
        clock.advance(0.02)
        if crash and tick == 6:
            router.crash_replica(owner)
    return router, router.pop_result("s0").tokens


rng_prompt = np.random.default_rng(SEED + 1).integers(0, VOCAB, size=8)
with tempfile.TemporaryDirectory() as d0, tempfile.TemporaryDirectory() as d1:
    probe = make_fleet(FleetConfig(n_replicas=2))
    probe.submit(GenerationRequest("s0", rng_prompt, max_tokens=16,
                                   sampling=sampled))
    owner = next(name for name, s in probe.replica_status().items()
                 if s.load > 0)
    probe.cancel("s0")

    _, baseline_tokens = sampled_run(d0, crash=False)
    router, recovered_tokens = sampled_run(d1, crash=True)
    snaps = sorted(os.listdir(os.path.join(d1, owner)))
    print(f"  rotation for {owner}: {snaps} (keep-last-2)")

assert recovered_tokens == baseline_tokens
fleet = router.stats().summary()["fleet"]
print(f"  {owner} crashed mid-decode; sampled request restored from the "
      "last rotation snapshot (tokens + RNG state), delta replayed")
print(f"  {fleet['snapshots_written']} snapshots written, "
      f"{fleet['failovers']} failover; recovered tokens identical to the "
      "undisturbed run")

print("\nfleet demo complete: affinity, failover, hedging and snapshot "
      "recovery all verified exact")
