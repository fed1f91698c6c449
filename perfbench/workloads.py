"""The benchmark's three serving workloads, as plain numbers.

Every workload runs two phases on the committed ``unit-test`` model
through ``ServeConfig.chunked(max_batch_size=16, observe=False)``:

* **saturation** — the whole trace is submitted at t=0 and the engine
  is stepped until it drains (offline capacity: tok/s, req/s, KV peak);
* **open loop** — Poisson arrivals at a fixed rate (latency, SLO), on
  ``LoadHarness``'s virtual clock; the schedule is decided on the
  workload's ``nominal_cost`` clock, then charged by a tick cost model
  fitted to the run's own tick timings (see ``run.py``).

The numbers were set on a shared 2-vCPU machine whose speed varied
about 1.5x from minute to minute.  Each open-loop rate is about 25-40 %
of the workload's offline capacity in a prototype.  A
request meets its SLO when its TTFT and the p90 of its own inter-token
gaps are both within the workload's limits; each limit is 3x to 6x the
p50 the benchmark reports, so attainment falls only when latency
really grows.

``nominal_cost`` is the tick cost model fitted on that machine (its
fast state, as ``run.py`` fits it), rounded.  It only decides which
requests share a tick; a schedule decided on a clock that follows the
machine's speed changed with it from run to run.  A nominal model far
from the fitted one would batch requests the charged clock says never
overlapped, or keep apart requests it says queued together.

The rates below are constants on purpose: a rate derived at run time
from a measured capacity would move with the code under test and hide
the very slowdown the latency metrics exist to show.  ``sat_capacity``
and ``open_served`` only size the traces for the run's ``--seconds``.

This module imports nothing from ``repro``: the set-up timer measures
the package import, so workload tables must not trigger it early.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    quantized: bool                 # W4A8 MANT weights/activations + MANT KV4
    prompt_len: tuple               # LengthDist constructor: (kind, *args)
    output_len: tuple
    open_rate: float                # open-loop Poisson rate, req/s
    sat_capacity: float             # nominal offline req/s, sizes the trace
    open_served: float              # nominal open-loop requests per second
                                    # of compute, sizes the open-loop trace
    ttft_limit_ms: float            # SLO limits, see below
    itl_limit_ms: float
    nominal_cost: tuple             # open-loop scheduling clock, see below:
                                    # (base, per decode row, per prefill token) s
    prefix_tokens: int = 0
    prefix_pool: int = 1


WORKLOADS = {
    w.name: w for w in (
        # Decode-bound: every token pays activation quantization on 14
        # projections plus a MANT K quantize-append and V-window close.
        Workload(
            name="chat_mant",
            quantized=True,
            prompt_len=("lognormal", 48, 0.6, 8, 160),
            output_len=("uniform", 16, 64),
            # 5 rather than 6 req/s: at 6 the tail of the inter-token
            # gaps was mostly 3-row ticks, a queueing regime rather than
            # the light load the open loop is meant to show.
            open_rate=5.0,
            sat_capacity=17.0,
            open_served=12.0,
            ttft_limit_ms=40.0,
            itl_limit_ms=5.0,
            nominal_cost=(0.7e-3, 0.8e-3, 0.11e-3),
        ),
        # The same traffic unquantized: bypasses quant and core, so the
        # prediction for any codec change is "no change".  Not in
        # BENCHMARK.json's list (run time there is shared by the gated
        # workloads); run it by hand as the control for a codec change.
        Workload(
            name="chat_fp16",
            quantized=False,
            prompt_len=("lognormal", 48, 0.6, 8, 160),
            output_len=("uniform", 16, 64),
            open_rate=25.0,
            sat_capacity=63.0,
            open_served=45.0,
            ttft_limit_ms=9.0,
            itl_limit_ms=1.3,
            nominal_cost=(0.23e-3, 0.17e-3, 0.035e-3),
        ),
        # Prefill-bound: a 256-token shared document prefix (pool of 4)
        # plus a unique question, so prefix-cache hits and long-context
        # KV reads; the only workload prefix-cache changes should move.
        Workload(
            name="rag_mant",
            quantized=True,
            prompt_len=("uniform", 32, 96),
            output_len=("uniform", 4, 16),
            open_rate=5.0,
            sat_capacity=13.0,
            open_served=12.0,
            ttft_limit_ms=150.0,
            itl_limit_ms=7.5,
            nominal_cost=(0.55e-3, 1.7e-3, 0.13e-3),
            prefix_tokens=256,
            prefix_pool=4,
        ),
    )
}

# The saturation phase runs SAT_PASSES traces from the seed, each on a
# fresh engine, then the first again (its schedule must repeat); on the
# shared 2-vCPU machine one pass took anywhere from 2.3 s to 3.7 s, so
# throughput charges the passes' ticks by a cost model fitted to all of
# their timings (see run.py).  Distinct traces, rather than one trace
# repeated, also average the seed's draw of prompt and output lengths.
# The open-loop phase gets the larger share: its percentiles need every
# sample they can get (the p90 TTFT of chat_mant still moves about 15 %
# from seed to seed).  It runs in run.OPEN_PARTS parts, each on a fresh
# engine whose prefix cache starts cold; more parts would spread the
# tick timings wider but restart the cache more often.
SAT_PASSES = 6
# Share of --seconds given to each phase (the rest of a run is set-up,
# the correctness checks and, with --trace 1, the traced repeat).
SAT_SHARE = 0.35
OPEN_SHARE = 0.55

# Greedy requests of the saturation trace checked against the
# single-stream reference.
TOKEN_MATCH_REQUESTS = 8

# Held-out perplexity slice: rows x (seq_len + 1) tokens of the corpus.
PPL_TOKENS = 2048
PPL_SEQ_LEN = 64


def phase_sizes(workload: Workload, seconds: float) -> tuple[int, int]:
    """(requests in the saturation trace, open-loop requests) for a
    ``seconds`` run."""
    n_sat = max(16, round(SAT_SHARE * seconds * workload.sat_capacity / (SAT_PASSES + 1)))
    n_open = max(16, round(OPEN_SHARE * seconds * workload.open_served))
    return n_sat, n_open


def make_spec(workload: Workload, n_requests: int, seed: int, vocab_size: int,
              max_seq: int):
    """The workload's :class:`~repro.serve.loadgen.WorkloadSpec`."""
    from repro.serve import ArrivalProcess, LengthDist, TrafficClass, WorkloadSpec

    def dist(spec):
        kind, *args = spec
        return getattr(LengthDist, kind)(*args)

    cls = TrafficClass(
        workload.name,
        prompt_len=dist(workload.prompt_len),
        output_len=dist(workload.output_len),
        prefix_tokens=workload.prefix_tokens,
        prefix_pool=workload.prefix_pool,
    )
    return WorkloadSpec(
        classes=(cls,),
        arrivals=ArrivalProcess.poisson(workload.open_rate),
        n_requests=n_requests,
        vocab_size=vocab_size,
        seed=seed,
        max_seq=max_seq,
    )
