"""Serving benchmark for the paper's W4A8KV4 MANT configuration.

Runs one workload (see ``workloads.py``) through the public serving API
— ``GenerationEngine`` for the saturation phase, ``LoadHarness`` for
the open-loop phase — on the committed ``unit-test`` model, checks the
outputs, and prints every metric by name with its unit and sample
count.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

How the timings are taken.  The shared machine this was built on
runs the same work anywhere from its fastest speed to about 1.8x
slower, switching every few hundred milliseconds, and the share of
slow time drifts from minute to minute.  A minimum or low quantile of
a few timings depends on whether a fast moment happened to fall on
them, so each timing pools many samples spread across the run:

* saturation: ``SAT_PASSES`` traces, each on a fresh engine, in turns
  with the open loop's parts, then the first trace again, whose
  schedule must repeat tick for tick (checked); throughput is tokens
  (or requests) over the passes' ticks, each charged by a tick cost
  model fitted as below to all of the passes' tick timings;
* open loop: ``LoadHarness`` on its virtual clock, which skips idle
  gaps, over ``OPEN_PARTS`` consecutive parts of the trace.  The clock
  advances each tick by the workload's fixed nominal ``TickCostModel``
  — a fixed cost plus a cost per decode row and per prefill token — so
  which requests share a tick depends on the seed and the code, not on
  the machine's speed.  The engine really runs
  every tick and each is timed; the schedule is then charged tick by
  tick by a model fitted to the low ``COST_QUANTILE`` of those several
  thousand timings.  Only the clock is modelled, so the latencies
  leave out the harness's own overhead and sleep wake-ups;
* set-up: the median of ``SETUP_REPEATS`` cold set-ups, spread over the
  start and the end of the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
untraced saturation passes, then both phases again with every layer's
public functions wrapped (``layertrace.py``), and reports the
per-layer metrics, a layer table of self time per tick, a Chrome-trace
span file under ``.bench_out/`` and, for reference only, what
``repro.hardware.simulator`` models for the same shapes.

Load comes from this one single-threaded process, pinned to one CPU
with BLAS pinned to one thread.  Run from the repository root::

    python3 perfbench/run.py --workload chat_mant --seed 1 --seconds 45 --trace 0
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: unpinned OpenBLAS turned identical runs
# into anything from 41 ms to 341 ms on a 2-core machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# The strict invariant checker is a test-suite setting, not a serving one.
os.environ.pop("REPRO_SERVE_STRICT", None)

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

# numpy and scipy load outside the set-up timer: the scipy.stats import
# that repro.datatypes pulls in costs about 1.4 s and varied enough
# between runs to swamp every other part of set-up.
import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.optimize  # noqa: E402
import scipy.sparse  # noqa: E402
import scipy.stats  # noqa: E402,F401

import layertrace  # noqa: E402
from workloads import (  # noqa: E402
    PPL_SEQ_LEN, PPL_TOKENS, SAT_PASSES, TOKEN_MATCH_REQUESTS, WORKLOADS,
    make_spec, phase_sizes,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

MODEL = "unit-test"
MAX_BATCH = 16
GROUP = 32                 # MANT group size for weights, activations and KV
SETUP_REPEATS = 9          # set-up is timed this many times; median reported
WARMUP_PROMPT = 40
WARMUP_TOKENS = 8
COST_QUANTILE = 0.02       # the tick cost model fits this quantile of tick times
COST_FIT_TICKS = 12000     # a cost fit uses at most this many ticks, evenly spaced
OPEN_PARTS = 2             # the open loop runs in this many parts, see OpenLoop


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
class Stack:
    """The live objects of one set-up: model, quantization, engine maker."""

    def __init__(self, workload, modules, model, corpus, ptq, cache_factory):
        self.workload = workload
        self.serve = modules["repro.serve"]
        self.model = model
        self.corpus = corpus
        self.ptq = ptq
        self.weights = ptq.weights
        self.act_quant = ptq.act_quant
        self.cache_factory = cache_factory
        self.config = self.serve.ServeConfig.chunked(
            max_batch_size=MAX_BATCH, observe=False)

    def engine(self, clock=time.perf_counter):
        return self.serve.GenerationEngine(
            self.model, self.cache_factory, self.config,
            weights=self.weights, act_quant=self.act_quant, clock=clock,
        )


def _purge_repro() -> None:
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]


def build_stack(workload):
    """One timed set-up from a cold ``repro`` import to a warmed engine.

    Returns ``(stack, [seconds of each set-up stage])``; the stages are
    the imports with ``get_model``, ``build_ptq``, and the engine with
    its warm-up request.
    """
    _purge_repro()
    t0 = time.perf_counter()
    modules = {name: importlib.import_module(name) for name in (
        "repro", "repro.serve", "repro.model.zoo", "repro.model.quantized",
        "repro.quant.kvcache")}
    model, corpus = modules["repro.model.zoo"].get_model(MODEL)
    t1 = time.perf_counter()
    kvcache = modules["repro.quant.kvcache"]
    q = modules["repro.model.quantized"]
    if workload.quantized:
        # kv_method only adds the prefill-style KV hook the perplexity
        # forward uses; serving quantizes KV in MantKVCache.
        cfg = q.PTQConfig(method="mant", w_bits=4, a_bits=8, group_size=GROUP,
                          kv_method="mant", kv_bits=4)
        cache_factory = functools.partial(
            kvcache.MantKVCache, group_size=GROUP, window=GROUP)
    else:
        cfg = q.PTQConfig(method="fp16", w_bits=16, a_bits=16)
        cache_factory = kvcache.FP16KVCache
    ptq = q.build_ptq(model, cfg)
    t2 = time.perf_counter()
    stack = Stack(workload, modules, model, corpus, ptq, cache_factory)
    engine = stack.engine()
    prompt = np.arange(WARMUP_PROMPT, dtype=np.int64) % model.config.vocab_size
    engine.generate([stack.serve.GenerationRequest(
        "warmup", prompt, max_tokens=WARMUP_TOKENS)])
    t3 = time.perf_counter()
    return stack, [t1 - t0, t2 - t1, t3 - t2]


def set_up(workload, repeats: int):
    """The last of ``repeats`` set-ups, and every set-up's stage times."""
    stages = []
    for _ in range(repeats):
        stack, stage_s = build_stack(workload)
        stages.append(stage_s)
    return stack, stages


def setup_times(stages) -> tuple[float, float]:
    """(set-up seconds, ``build_ptq`` seconds): the medians over the
    timed set-ups of the whole set-up and of its ``build_ptq`` stage."""
    stages = np.asarray(stages)
    return float(np.median(stages.sum(axis=1))), float(np.median(stages[:, 1]))


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def make_traces(stack, seed: int, seconds: float) -> tuple[list, object]:
    """(``SAT_PASSES`` saturation traces, open-loop trace) for ``seed``;
    each trace is generated twice and must serialize byte-identically."""
    cfg = stack.model.config
    n_sat, n_open = phase_sizes(stack.workload, seconds)

    def trace(n, trace_seed):
        spec = make_spec(stack.workload, n, trace_seed, cfg.vocab_size, cfg.max_seq)
        first = stack.serve.generate_trace(spec)
        if stack.serve.generate_trace(spec).to_json() != first.to_json():
            raise SystemExit(f"trace seed {trace_seed} is not deterministic")
        return first

    return ([trace(n_sat, seed * 1000 + 2 + k) for k in range(SAT_PASSES)],
            trace(n_open, seed * 1000 + 1))


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
class Saturation:
    """Whole trace submitted at t=0, engine stepped until it drains.

    Each tick is timed, with the decode rows and prefill tokens it ran
    (the counters ``LoadHarness`` charges a virtual tick by).
    """

    def __init__(self, stack, trace):
        engine = stack.engine()
        gc.collect()             # no earlier phase's garbage in this one
        for entry in trace:
            engine.submit(entry.to_request())
        rows = engine.metrics.get("decode_lane_ticks")
        prefill = engine.metrics.get("prefill_tokens")
        self.tick_s, self.tick_work = [], []
        while engine.has_work():
            work = (rows.value, prefill.value)
            start = time.perf_counter()
            engine.step()
            self.tick_s.append(time.perf_counter() - start)
            self.tick_work.append((rows.value - work[0], prefill.value - work[1]))
        self.results = {e.request_id: engine.pop_result(e.request_id)
                        for e in trace}
        self.engine = engine
        self.requests = len(trace)
        self.tokens = sum(len(r.tokens) for r in self.results.values())
        self.failed = sum(r.finish_reason not in ("length", "stop")
                          for r in self.results.values())

    def outputs(self) -> dict:
        return {rid: list(r.tokens) for rid, r in self.results.items()}


def same_schedule(passes) -> bool:
    """Whether passes over one trace, each on a fresh engine, repeated
    the first tick for tick: tick count, the work of every tick and the
    outputs."""
    first = passes[0]
    return all(p.tick_work == first.tick_work and p.outputs() == first.outputs()
               for p in passes)


def charged_busy_s(stack, passes) -> float:
    """Seconds the ticks of ``passes`` take when each is charged a tick
    cost model fitted to all of their timings (see ``fit_tick_cost``).
    A median of the passes' own busy times moved with the machine's
    speed: 800 to 1120 tok/s within one set of ten runs."""
    cost = fit_tick_cost(stack, [w for p in passes for w in p.tick_work],
                         [t for p in passes for t in p.tick_s])
    return sum(cost.cost(*w) for p in passes for w in p.tick_work)


def fit_tick_cost(stack, tick_work, tick_s):
    """A ``TickCostModel`` fitted to the ``COST_QUANTILE`` quantile of
    ``tick_s`` against each tick's decode rows and prefill tokens
    (``tick_work``): linear quantile regression, coefficients >= 0.

    The shared machine's speed switches every few hundred milliseconds
    between a fast state and states up to 1.8x slower, and the share of
    slow time drifts from minute to minute.  Of the estimators tried on
    the same logged ticks, a low quantile over the thousands of ticks of
    an open loop moved least between runs: less than a median, and
    less than a fit to each tick's time scaled by the speed of the
    ticks around it.
    """
    keep = np.unique(np.linspace(0, len(tick_s) - 1, COST_FIT_TICKS).astype(int))
    work = np.asarray(tick_work, dtype=float)[keep]
    secs = np.asarray(tick_s, dtype=float)[keep]
    n = len(secs)
    design = np.column_stack([np.ones(n), work])
    # Minimise q * sum(above) + (1 - q) * sum(below), where each timing
    # is design @ coef + above - below.
    q = COST_QUANTILE
    res = scipy.optimize.linprog(
        np.concatenate([np.zeros(3), np.full(n, q), np.full(n, 1.0 - q)]),
        A_eq=scipy.sparse.hstack([design, scipy.sparse.eye(n), -scipy.sparse.eye(n)]),
        b_eq=secs,
        bounds=(0, None), method="highs")
    if not res.success:
        raise SystemExit(f"tick cost fit failed: {res.message}")
    return stack.serve.TickCostModel(*map(float, res.x[:3]))


class TickLog:
    """Engine proxy that logs, per tick, the decode rows and prefill
    tokens it ran, the requests submitted just before it and the
    requests it gave a token, and times the tick."""

    def __init__(self, engine):
        self._engine = engine
        self._rows = engine.metrics.get("decode_lane_ticks")
        self._prefill = engine.metrics.get("prefill_tokens")
        self._submitted = []
        self.ticks = []
        self.tick_s = []

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def submit(self, request):
        handle = self._engine.submit(request)
        self._submitted.append(request.request_id)
        return handle

    def step(self):
        before = (self._rows.value, self._prefill.value)
        start = time.perf_counter()
        events = self._engine.step()
        self.tick_s.append(time.perf_counter() - start)
        work = (self._rows.value - before[0], self._prefill.value - before[1])
        self.ticks.append((work, self._submitted,
                           [e.request_id for e in events if e.token is not None]))
        self._submitted = []
        return events


class OpenLoop:
    """Poisson arrivals through ``LoadHarness`` on its virtual clock,
    which jumps over idle gaps and advances each tick by the workload's
    fixed ``nominal_cost`` model.  That clock only decides the schedule
    — which requests share which tick — so the schedule depends on the
    seed and the code, not on how fast the machine ran.  Every tick is
    timed; :meth:`retime` then charges the schedule by a model fitted to
    those timings (:meth:`fitted_cost`).

    The trace runs in parts (:meth:`run`), each on a fresh engine, with
    saturation passes between them, so the timings the model is fitted
    to span the whole run rather than one stretch of the machine's
    speed.
    """

    def __init__(self, stack):
        self.stack = stack
        self.records, self.engines, self.arrival_s = [], [], {}

    def run(self, trace) -> None:
        harness = self.stack.serve.LoadHarness(
            self.stack.model, self.stack.cache_factory, self.stack.config,
            clock="virtual",
            cost_model=self.stack.serve.TickCostModel(*self.stack.workload.nominal_cost),
            engine_factory=lambda clock: TickLog(self.stack.engine(clock)))
        gc.collect()
        self.records += harness.run(trace).records
        self.engines.append(harness.engine)
        self.arrival_s.update({e.request_id: e.arrival_s for e in trace})
        self.retime(harness.cost_model)

    @property
    def failed(self) -> int:
        return sum(not r.completed for r in self.records)

    def fitted_cost(self):
        return fit_tick_cost(self.stack, [w for e in self.engines for w, _, _ in e.ticks],
                             [t for e in self.engines for t in e.tick_s])

    def retime(self, cost_model) -> None:
        """Submit and token times of the logged schedule, each tick
        charged ``cost_model``: a tick starts once the previous one has
        ended and the requests submitted before it have arrived."""
        self.submit_s, self.token_s = {}, {}
        for engine in self.engines:
            t = 0.0
            for work, submitted, produced in engine.ticks:
                for rid in submitted:
                    self.submit_s[rid] = max(t, self.arrival_s[rid])
                t = max([t] + [self.submit_s[rid] for rid in submitted])
                t += cost_model.cost(*work)
                for rid in produced:
                    self.token_s.setdefault(rid, []).append(t)

    def ttft_s(self, rid) -> float:
        """TTFT from the request's due time, not from its submit, which
        a busy single-threaded loop reaches late."""
        return self.token_s[rid][0] - self.arrival_s[rid]

    def itl_s(self, rid) -> list:
        return list(np.diff(self.token_s[rid]))

    def lag_s(self) -> list:
        return [self.submit_s[rid] - self.arrival_s[rid] for rid in self.submit_s]


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def reference_tokens(stack, entry) -> list[int]:
    """Greedy single-stream ``prefill``/``decode_step`` with the same
    weights, hooks and cache type as the engine."""
    from repro.sampling import greedy_sample

    model = stack.model
    caches = [stack.cache_factory() for _ in range(model.config.n_layers)]
    prompt = np.asarray(entry.prompt, dtype=np.int64)
    logits = model.prefill(prompt, caches, weights=stack.weights,
                           act_quant=stack.act_quant)
    tokens = [greedy_sample(logits)]
    pos = prompt.size
    while len(tokens) < entry.max_tokens:
        logits = model.decode_step(tokens[-1], caches, pos, weights=stack.weights,
                                   act_quant=stack.act_quant)
        tokens.append(greedy_sample(logits))
        pos += 1
    return tokens


def token_match(stack, trace, sat: Saturation) -> tuple[float, int]:
    entries = trace.entries[:TOKEN_MATCH_REQUESTS]
    same = sum(reference_tokens(stack, e) == list(sat.results[e.request_id].tokens)
               for e in entries)
    return same / len(entries), len(entries)


def perplexity(stack) -> tuple[float, int]:
    rows = stack.corpus.eval_tokens(PPL_TOKENS, PPL_SEQ_LEN)
    return stack.ptq.ppl(stack.model, rows), rows[:, 1:].size


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def tail_mean(values, share: float = 0.1) -> float:
    """Mean of the largest ``share`` of ``values``.  Unlike a
    percentile it does not jump between tick costs: inter-token gaps
    take a few discrete values (one per batch size), and whether their
    p90 lands on the two-row or the three-row tick flipped from seed to
    seed."""
    values = np.sort(values)
    return float(values[int(len(values) * (1.0 - share)):].mean())


def kv_bytes_per_block(pool) -> float:
    """Real bytes one page holds across every layer's K and V slab, as
    allocated (the slabs are private to the pool; the benchmark reads
    them to count bytes, not tokens)."""
    return sum(s.nbytes for s in pool._slabs.values()) / pool.num_blocks


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(stack, stages, sats, loop, match, ppl) -> dict:
    workload = stack.workload
    records = loop.records
    done = [r.request_id for r in records if r.completed]
    ttft = [1e3 * loop.ttft_s(rid) for rid in done]
    itl = [1e3 * gap for rid in done for gap in loop.itl_s(rid)]

    def meets_slo(r) -> bool:
        if not r.completed:
            return False
        gaps = loop.itl_s(r.request_id)
        return (1e3 * loop.ttft_s(r.request_id) <= workload.ttft_limit_ms
                and (not gaps or 1e3 * pct(gaps, 90) <= workload.itl_limit_ms))

    sent = sum(s.requests for s in sats) + len(records)
    failed = sum(s.failed for s in sats) + loop.failed
    tokens = sum(s.tokens for s in sats)
    requests = sum(s.requests for s in sats)
    busy = charged_busy_s(stack, sats)
    return {
        "setup_s": (setup_times(stages)[0], "s", len(stages)),
        "sat_tok_per_s": (tokens / busy, "tok/s", tokens),
        "sat_req_per_s": (requests / busy, "req/s", requests),
        "ttft_p50_ms": (pct(ttft, 50), "ms", len(ttft)),
        "ttft_p90_ms": (pct(ttft, 90), "ms", len(ttft)),
        "itl_p50_ms": (pct(itl, 50), "ms", len(itl)),
        "itl_tail10_ms": (tail_mean(itl), "ms", len(itl)),
        "slo_attain": (sum(map(meets_slo, records)) / len(records), "frac",
                       len(records)),
        "success_frac": ((sent - failed) / sent, "frac", sent),
        "kv_mib_peak": (max(s.engine.pool.high_water * kv_bytes_per_block(s.engine.pool)
                            for s in sats) / 2**20, "MiB", requests),
        "peak_rss_mib": (peak_rss_mib(), "MiB", 1),
        "token_match": (match[0], "frac", match[1]),
        "ppl": (ppl[0], "ppl", ppl[1]),
    }


def per_layer_metrics(rec, stages, untraced, sats, loop, traces) -> dict:
    ticks = len(rec.tick_s)
    per_tick = 1.0 / max(1, ticks)
    ms = 1e3 * per_tick
    total, self_s, calls, work = rec.total_s, rec.self_s, rec.calls, rec.work
    engines = [run.engine for run in sats] + loop.engines

    def counter(name):
        return sum(e.metrics.get(name).value for e in engines)

    def rate(unit_key, span, scale):
        return work[unit_key] / total[span] / scale if total[span] else 0.0

    def per_call_us(span, count):
        return 1e6 * total[span] / count if count else 0.0

    forward_s = sum(total[n] for n in layertrace.FORWARD_SPANS)
    prompt_tokens = sum(len(e.prompt) for t in traces for e in t)
    hits = sum(e.stats().prefix_hit_tokens for e in engines)
    pools = [s.engine.pool for s in sats]
    lag = [1e3 * s for s in loop.lag_s()]
    queue_p50 = np.median([e.metrics.get("queue_latency_seconds").percentile(50)
                           for e in loop.engines])
    overhead = float(np.median([sum(t.tick_s) / sum(u.tick_s)
                                for t, u in zip(sats, untraced)])) - 1.0
    return {
        "serve.tick_ms_p50": (1e3 * pct(rec.tick_s, 50), "ms", ticks),
        "serve.overhead_ms_per_tick": ((total["serve.tick"] - forward_s) * ms, "ms", ticks),
        "serve.decode_rows_per_tick": (counter("decode_lane_ticks") * per_tick, "rows", ticks),
        "serve.prefill_tokens_per_tick": (counter("prefill_tokens") * per_tick, "tokens", ticks),
        "serve.queue_wait_ms_p50": (1e3 * queue_p50, "ms", len(lag)),
        "serve.preemptions": (sum(e.stats().preemptions for e in engines), "count", 1),
        "paging.prefix_hit_frac": (hits / prompt_tokens, "frac", prompt_tokens),
        "paging.blocks_live_peak": (max(p.high_water for p in pools), "blocks", len(pools)),
        "paging.kv_bytes_per_token": (kv_bytes_per_block(pools[0]) / pools[0].block_tokens,
                                      "B/token", 1),
        "paging.gather_ms_per_tick": (total["paging.gather"] * ms, "ms",
                                      calls["paging.gather"]),
        "loadgen.lag_ms_p90": (pct(lag, 90), "ms", len(lag)),
        "model.forward_ms_per_tick": (forward_s * ms, "ms", ticks),
        "model.forward_mixed.calls": (calls["model.forward_mixed"], "count", 1),
        "model.decode_step_batch.calls": (calls["model.decode_step_batch"], "count", 1),
        "model.linear.ms_per_tick": (total["model.linear"] * ms, "ms", calls["model.linear"]),
        "model.linear.gmac_per_s": (rate("model.linear.macs", "model.linear", 1e9),
                                    "GMAC/s", calls["model.linear"]),
        "model.attn.ms_per_tick": (total["model.attn"] * ms, "ms", calls["model.attn"]),
        "model.attn.ctx_tokens_per_call": (
            work["model.attn.ctx_tokens"] / max(1, calls["model.attn"]), "tokens",
            calls["model.attn"]),
        "model.attn.mib_read_per_tick": (work["model.attn.bytes"] * per_tick / 2**20,
                                         "MiB", calls["model.attn"]),
        "model.rope.ms_per_tick": (total["model.rope"] * ms, "ms", calls["model.rope"]),
        "model.self_ms_per_tick": (sum(self_s[n] for n in layertrace.FORWARD_SPANS) * ms,
                                   "ms", ticks),
        "quant.act.ms_per_tick": (total["quant.act"] * ms, "ms", calls["quant.act"]),
        "quant.act.melem_per_s": (rate("quant.act.elems", "quant.act", 1e6),
                                  "Melem/s", calls["quant.act"]),
        "quant.kv_append.us_per_row": (
            per_call_us("quant.kv_append", work["quant.kv_append.rows"]), "us",
            int(work["quant.kv_append.rows"])),
        "quant.kv_prefill.us_per_token": (
            per_call_us("quant.kv_prefill", work["quant.kv_prefill.tokens"]), "us",
            int(work["quant.kv_prefill.tokens"])),
        "quant.weights_s": (setup_times(stages)[1], "s", len(stages)),
        "core.select.us_per_call": (per_call_us("core.select", calls["core.select"]),
                                    "us", calls["core.select"]),
        "core.encode.melem_per_s": (rate("core.encode.elems", "core.encode", 1e6),
                                    "Melem/s", calls["core.encode"]),
        "core.decode.melem_per_s": (rate("core.decode.elems", "core.decode", 1e6),
                                    "Melem/s", calls["core.decode"]),
        "sampling.us_per_token": (per_call_us("sampling", calls["sampling"]), "us",
                                  calls["sampling"]),
        "trace.overhead_frac": (overhead, "frac", len(sats)),
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when the checkout is not the
    top of a git repository (a parent directory's repository does not
    count)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or (
            os.path.realpath(lines[0]) != os.path.realpath(ROOT)):
        return "unknown"
    return lines[1]


def print_metrics(title: str, metrics: dict) -> None:
    print(f"# {title}")
    print(f"#   {'metric':34s} {'value':>14s}  {'unit':8s} {'n':>8s}")
    for name, (value, unit, n) in metrics.items():
        print(f"#   {name:34s} {value:14.6g}  {unit:8s} {n:8d}")


def print_hardware_reference(stack, rec) -> None:
    """Measured per-layer figures beside the analytic accelerator model
    for the same shapes — reference only, never a metric."""
    from repro.hardware.configs import get_accelerator, get_policy
    from repro.hardware.simulator import simulate_attention_layer, simulate_linear_layer
    from repro.hardware.workloads import LLMShape

    cfg = stack.model.config
    shape = LLMShape(MODEL, cfg.d_model, cfg.n_heads, cfg.d_ff, cfg.n_layers, cfg.arch)
    ctx = max(1, round(rec.work["model.attn.ctx_tokens"] / max(1, rec.calls["model.attn"])))
    accel, policy = get_accelerator("MANT"), get_policy("MANT", cfg.arch)
    lin = simulate_linear_layer(accel, policy, shape, decode=True)
    att = simulate_attention_layer(accel, policy, shape, ctx, decode=True)
    macs = rec.work["model.linear.macs"]
    layer_tokens = macs / max(1, lin.macs) if lin.macs else 0.0
    print("# measured vs modeled (MANT accelerator model, one decode token, one layer)")
    print(f"#   linear:    modeled {1e6 * lin.latency_s():10.4f} us  {lin.macs:10.0f} MACs;"
          f"  measured {1e6 * rec.total_s['model.linear'] / max(1, layer_tokens):10.4f} us"
          " per token-layer (numpy on CPU)")
    queries = max(1, rec.work["model.attn.queries"])
    print(f"#   attention: modeled {1e6 * att.latency_s():10.4f} us at {ctx} context tokens;"
          f"  measured {1e6 * rec.total_s['model.attn'] / queries:10.4f}"
          " us per query token-layer")


def trace_events(loop: OpenLoop) -> list[dict]:
    """One span per open-loop request, due time to last token, in the
    open loop's charged seconds (process 2 of the trace file)."""
    return [
        {"name": "loadgen.request", "ph": "X", "pid": 2, "tid": 1,
         "ts": loop.arrival_s[rid], "dur": tokens[-1] - loop.arrival_s[rid],
         "args": {"request_id": rid, "parent": -1}}
        for rid, tokens in loop.token_s.items()
    ]


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def saturation_passes(stack, sat_traces):
    return [Saturation(stack, trace) for trace in sat_traces]


def repeat_first(stack, sat_traces, sats) -> None:
    """Run the first saturation trace again; its schedule and outputs
    must repeat the first pass exactly."""
    if not same_schedule([sats[0], Saturation(stack, sat_traces[0])]):
        raise SystemExit("passes over one trace did not repeat exactly")


def open_parts(open_trace, serve) -> list:
    """The open-loop trace cut into ``OPEN_PARTS`` runs of consecutive
    arrivals."""
    cuts = np.linspace(0, len(open_trace.entries), OPEN_PARTS + 1).astype(int)
    return [serve.WorkloadTrace(open_trace.entries[a:b]) for a, b in zip(cuts, cuts[1:])]


def run_untraced(stack, stages, sat_traces, open_trace):
    # Saturation passes and open-loop parts take turns, so the cost fits
    # draw on the machine's speed over the whole run.
    loop = OpenLoop(stack)
    parts = open_parts(open_trace, stack.serve)
    groups = np.array_split(np.arange(len(sat_traces)), OPEN_PARTS + 1)
    sats = saturation_passes(stack, [sat_traces[i] for i in groups[0]])
    for part, group in zip(parts, groups[1:]):
        loop.run(part)
        sats += saturation_passes(stack, [sat_traces[i] for i in group])
    repeat_first(stack, sat_traces, sats)
    cost = loop.fitted_cost()
    print(f"# tick cost model ({sum(len(e.tick_s) for e in loop.engines)}"
          f" open-loop ticks): {cost}")
    loop.retime(cost)
    match = token_match(stack, sat_traces[0], sats[0])
    ppl = perplexity(stack)
    stages = stages + set_up(stack.workload, SETUP_REPEATS - len(stages))[1]
    metrics = end_to_end_metrics(stack, stages, sats, loop, match, ppl)
    print_metrics("end-to-end metrics", metrics)
    attempted = sum(s.requests for s in sats) + len(loop.records)
    failed = sum(s.failed for s in sats) + loop.failed
    # Batched greedy output must equal the single-stream reference exactly.
    correct = failed == 0 and match[0] == 1.0
    return metrics, attempted, failed, correct


def run_traced(stack, stages, sat_traces, open_trace, workload_name: str):
    rec = layertrace.SpanRecorder()
    untraced = saturation_passes(stack, sat_traces)
    repeat_first(stack, sat_traces, untraced)
    sats = []
    for trace in sat_traces:
        rec.new_phase()
        with layertrace.instrumented(rec):
            sats.append(Saturation(stack, trace))
    loop = OpenLoop(stack)
    for part in open_parts(open_trace, stack.serve):
        rec.new_phase()
        with layertrace.instrumented(rec):
            loop.run(part)
    if not all(same_schedule(pair) for pair in zip(untraced, sats)):
        raise SystemExit("wrapping the layers changed the schedule or the outputs")
    metrics = per_layer_metrics(rec, stages, untraced, sats, loop,
                                [*sat_traces, open_trace])
    print_metrics("per-layer metrics (traced run)", metrics)
    print(f"# layer table: self time per tick over {len(rec.tick_s)} ticks")
    print(f"#   {'span':26s} {'calls':>8s} {'self ms':>10s} {'incl ms':>10s}")
    for name, n, self_ms, incl_ms in rec.layer_table():
        print(f"#   {name:26s} {n:8d} {self_ms:10.4f} {incl_ms:10.4f}")
    print_hardware_reference(stack, rec)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace_{workload_name}.json")
    n_events = rec.save_chrome_trace(path, trace_events(loop),
                                     {"workload": workload_name})
    print(f"# wrote {n_events} spans to {os.path.relpath(path, ROOT)}"
          f" ({rec.dropped} beyond the first {layertrace.SPANS_PER_PHASE} of a phase"
          " not saved)")
    runs = (*untraced, *sats)
    attempted = sum(s.requests for s in runs) + len(loop.records)
    failed = sum(s.failed for s in runs) + loop.failed
    return metrics, attempted, failed, failed == 0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: {SRC}/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # One single-threaded process kept on one CPU, so the scheduler never
    # moves it (and its warm caches) between CPUs mid-run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    print("# env " + json.dumps(environment(args.seed), sort_keys=True))
    # Half the set-ups run first and (untraced) half at the end.
    stack, stages = set_up(workload, SETUP_REPEATS // 2 + 1)
    sat_traces, open_trace = make_traces(stack, args.seed, args.seconds)
    if args.trace:
        metrics, attempted, failed, correct = run_traced(
            stack, stages, sat_traces, open_trace, args.workload)
    else:
        metrics, attempted, failed, correct = run_untraced(
            stack, stages, sat_traces, open_trace)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
