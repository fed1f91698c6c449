"""Observability tests: metrics registry, tick tracing, timelines.

Gates, per the PR acceptance criteria:

* the metrics registry is the single source of truth behind
  ``EngineStats``: every integer stats field maps to a registered
  metric (``EngineStats.STATS_METRICS``) whose value it equals, the
  Prometheus text exposition is well-formed, and replica registries
  merge into fleet aggregates;
* the tick tracer records a well-formed span tree — ``tick`` roots,
  phase children nested by time containment, ``forward``/``append``
  spans present on decode ticks — and exports valid Chrome-trace JSON
  (``json.loads`` round-trip, ``ph``/``ts``/``dur`` keys, the metrics
  snapshot and request timelines riding along);
* per-request timelines record lifecycle events in order for the fault
  matrix's scenarios (timeout, transient retry, preemption), with
  fired injected faults joined against the injector's log by index;
* determinism: observe on vs off leaves token output bit-identical for
  every cache type in both admission modes (the tracer clock is
  separate from the engine clock by design), and ``observe=False`` is
  a true no-op — no spans, no timelines, ``result.trace is None``;
* ``wall_elapsed_s`` includes idle gaps the busy-time ``elapsed_s``
  excludes, both on the injectable clock;
* the ``examples/obs_report.py`` dashboard renders an exported trace.
"""

import functools
import json
import math
import os
import subprocess
import sys

import dataclasses

import numpy as np
import pytest

from serve_testlib import assert_storage_baseline, single_stream

from repro.model.transformer import ModelConfig, TransformerLM
from repro.quant.kvcache import FP16KVCache, IntKVCache, MantKVCache
from repro.serve import (
    FORWARD,
    FINISH_ERROR,
    FINISH_TIMEOUT,
    Counter,
    EngineStats,
    FaultInjector,
    Gauge,
    GenerationEngine,
    GenerationRequest,
    Histogram,
    MetricsRegistry,
    RequestTrace,
    ServeConfig,
    TickTracer,
)

VOCAB = 64

CACHE_FACTORIES = {
    "fp16": FP16KVCache,
    "int4": functools.partial(IntKVCache, bits=4, group_size=16),
    "mant4": functools.partial(MantKVCache, group_size=16, window=16),
}
BACKENDS = ["paged", "chunked"]     # whole-prompt vs chunked admission


def _config(backend, **kw):
    kw.setdefault("max_batch_size", 4)
    kw.setdefault("block_tokens", 16)
    if backend == "chunked":
        kw.setdefault("prefill_chunk_tokens", 16)
        kw.setdefault("max_tokens_per_tick", 32)
    return ServeConfig(**kw)


@pytest.fixture(scope="module")
def model():
    cfg = ModelConfig(vocab_size=VOCAB, d_model=32, n_heads=2, n_layers=2,
                      d_ff=64, max_seq=160, seed=5)
    return TransformerLM(cfg)


def prompts(n, seed=0, lo=3, hi=12):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, VOCAB, size=int(rng.integers(lo, hi)))
            for _ in range(n)]


class ManualClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def make_engine(model, backend, cache="fp16", **kwargs):
    cfg_kw = {k: kwargs.pop(k) for k in list(kwargs)
              if k in ServeConfig.__dataclass_fields__}
    return GenerationEngine(
        model, CACHE_FACTORIES[cache], _config(backend, **cfg_kw), **kwargs)


def requests(ps, max_tokens=6, **kw):
    return [GenerationRequest(f"r{i}", p, max_tokens=max_tokens, **kw)
            for i, p in enumerate(ps)]


# ---------------------------------------------------------------------------
# Registry primitives
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        c = reg.counter("reqs", "requests")
        c.inc()
        c.inc(4)
        assert c.value == 5
        g = reg.gauge("depth", fn=lambda: 7)
        assert g.value == 7
        g2 = reg.gauge("manual")
        g2.set(3.5)
        assert g2.value == 3.5
        h = reg.histogram("lat")
        for v in (0.001, 0.01, 0.01, 1.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(1.021)
        assert h.max_value == 1.0
        assert h.mean == pytest.approx(1.021 / 4)
        assert h.percentile(50) == pytest.approx(0.01)
        assert sum(h.counts) == 4
        assert len(reg) == 4 and "lat" in reg

    def test_histogram_empty_percentile_nan(self):
        h = Histogram("h")
        assert math.isnan(h.percentile(50))
        assert h.max_value == 0.0 and h.mean == 0.0

    def test_duplicate_name_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_prometheus_exposition(self):
        reg = MetricsRegistry(labels={"replica": "r0"})
        reg.counter("reqs", "requests served").inc(3)
        reg.gauge("depth", fn=lambda: 2)
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        text = reg.to_prometheus()
        assert '# TYPE repro_serve_reqs counter' in text
        assert 'repro_serve_reqs{replica="r0"} 3' in text
        assert 'repro_serve_depth{replica="r0"} 2' in text
        # Cumulative buckets: 1 sample <= 0.1, still 1 <= 1.0, 2 at +Inf.
        assert 'repro_serve_lat_bucket{replica="r0",le="0.1"} 1' in text
        assert 'repro_serve_lat_bucket{replica="r0",le="1"} 1' in text
        assert 'repro_serve_lat_bucket{replica="r0",le="+Inf"} 2' in text
        assert 'repro_serve_lat_count{replica="r0"} 2' in text

    def test_merge_aggregates(self):
        a, b = MetricsRegistry(labels={"replica": "a"}), MetricsRegistry()
        a.counter("reqs").inc(2)
        b.counter("reqs").inc(3)
        a.gauge("depth", fn=lambda: 1)
        b.gauge("depth", fn=lambda: 4)
        ha, hb = a.histogram("lat"), b.histogram("lat")
        ha.observe(0.1)
        hb.observe(0.3)
        hb.observe(0.5)
        merged = MetricsRegistry.merge([a, b], labels={"fleet": "all"})
        assert merged.get("reqs").value == 5
        assert merged.get("depth").value == 5      # snapshot sum
        h = merged.get("lat")
        assert h.count == 3 and h.sum == pytest.approx(0.9)
        assert h.max_value == 0.5
        assert sorted(h.reservoir) == [0.1, 0.3, 0.5]

    def test_merge_bucket_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", buckets=(1.0,))
        b.histogram("lat", buckets=(2.0,))
        with pytest.raises(ValueError, match="bucket bounds"):
            MetricsRegistry.merge([a, b])

    def test_merge_empty_list_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            MetricsRegistry.merge([])

    def test_merge_empty_registries(self):
        # Registries with no instruments fold into an empty aggregate.
        merged = MetricsRegistry.merge([MetricsRegistry(), MetricsRegistry()])
        assert list(merged) == []
        assert merged.to_prometheus().strip() == ""

    def test_merge_disjoint_metric_sets(self):
        # A metric present in only some replicas keeps its value; the
        # replicas that never registered it contribute nothing (not 0
        # observations that would skew histogram counts).
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("only_a").inc(2)
        b.counter("only_b").inc(7)
        b.histogram("lat").observe(0.5)
        merged = MetricsRegistry.merge([a, b])
        assert merged.get("only_a").value == 2
        assert merged.get("only_b").value == 7
        assert merged.get("lat").count == 1
        assert {m.name for m in merged} == {"only_a", "only_b", "lat"}

    def test_merge_reservoir_pooling_beyond_bound(self):
        # Concatenated reservoirs stay bounded by maxlen: the merged
        # window keeps the most recent samples while bucket counts stay
        # exact over everything observed.
        a, b = MetricsRegistry(), MetricsRegistry()
        ha = a.histogram("lat", reservoir=4)
        hb = b.histogram("lat", reservoir=4)
        for v in (0.1, 0.2, 0.3, 0.4):
            ha.observe(v)
        for v in (0.5, 0.6, 0.7, 0.8):
            hb.observe(v)
        merged = MetricsRegistry.merge([a, b])
        h = merged.get("lat")
        assert h.count == 8                      # exact, from buckets
        assert h.reservoir.maxlen == 4           # bound preserved
        assert list(h.reservoir) == [0.5, 0.6, 0.7, 0.8]  # newest win
        assert h.percentile(50) == pytest.approx(0.65)

    def test_prometheus_label_value_escaping(self):
        # Backslash, double-quote and newline must all be escaped in
        # label values per the Prometheus text exposition format —
        # backslash first, so the others don't get double-escaped.
        reg = MetricsRegistry(labels={
            "path": 'C:\\tmp\\"x"',
            "note": "line1\nline2",
        })
        reg.counter("reqs").inc(1)
        text = reg.to_prometheus()
        # Labels render sorted by key: note, then path.
        assert ('repro_serve_reqs{note="line1\\nline2",'
                'path="C:\\\\tmp\\\\\\"x\\""} 1') in text
        # The exposition itself stays one line per sample.
        sample_lines = [ln for ln in text.splitlines()
                        if ln and not ln.startswith("#")]
        assert len(sample_lines) == 1

    def test_prometheus_help_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", "first\nsecond \\ back")
        text = reg.to_prometheus()
        assert "# HELP repro_serve_c first\\nsecond \\\\ back" in text

    def test_histogram_fraction_below(self):
        h = Histogram("h", buckets=(0.1, 1.0))
        assert h.fraction_below(0.1) == 1.0      # vacuous when empty
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        assert h.fraction_below(0.1) == pytest.approx(1 / 3)
        assert h.fraction_below(1.0) == pytest.approx(2 / 3)
        assert h.fraction_below(0.5) == pytest.approx(1 / 3)  # conservative
        # Samples past the last bound live in +Inf; still conservative.
        assert h.fraction_below(10.0) == pytest.approx(2 / 3)


# ---------------------------------------------------------------------------
# EngineStats <-> registry consistency
# ---------------------------------------------------------------------------
class TestStatsRegistry:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_stats_field_reads_its_metric(self, model, backend):
        eng = make_engine(model, backend)
        eng.generate(requests(prompts(6)))
        stats = eng.stats()
        for field, metric in EngineStats.STATS_METRICS.items():
            assert metric in eng.metrics, f"{metric} not registered"
            assert getattr(stats, field) == eng.metrics.get(metric).value, (
                f"stats.{field} drifted from registry metric {metric}"
            )

    def test_every_integer_field_is_mapped(self, model):
        eng = make_engine(model, "paged")
        eng.generate(requests(prompts(3)))
        stats = eng.stats()
        for f in dataclasses.fields(EngineStats):
            value = getattr(stats, f.name)
            if isinstance(value, int):
                assert f.name in EngineStats.STATS_METRICS, (
                    f"integer stats field {f.name} has no registry metric"
                )

    def test_prometheus_export_from_engine(self, model):
        eng = make_engine(model, "paged",
                          metrics=MetricsRegistry(labels={"replica": "r3"}))
        eng.generate(requests(prompts(4)))
        text = eng.metrics.to_prometheus()
        tokens = eng.stats().tokens_generated
        assert f'repro_serve_tokens_generated{{replica="r3"}} {tokens}' in text
        assert "# TYPE repro_serve_ttft_seconds histogram" in text
        assert "repro_serve_pool_blocks_free" in text

    def test_fleet_merge_across_engines(self, model):
        engines = [
            make_engine(model, "paged",
                        metrics=MetricsRegistry(labels={"replica": f"r{i}"}))
            for i in range(2)
        ]
        for i, eng in enumerate(engines):
            eng.generate(requests(prompts(3, seed=i)))
        fleet = MetricsRegistry.merge([e.metrics for e in engines])
        total = sum(e.stats().tokens_generated for e in engines)
        assert fleet.get("tokens_generated").value == total
        assert fleet.get("requests_submitted").value == 6

    def test_derived_summary_section(self, model):
        eng = make_engine(model, "paged")
        eng.generate(requests(prompts(5)))
        summary = eng.stats().summary()
        derived = summary["derived"]
        assert set(derived) == {"tokens_per_s", "occupancy_pct",
                                "prefix_hit_ratio", "retry_rate"}
        stats = eng.stats()
        assert derived["occupancy_pct"] == pytest.approx(
            100.0 * stats.mean_batch_occupancy / stats.batch_lanes)
        assert derived["retry_rate"] == 0.0
        assert 0.0 <= derived["prefix_hit_ratio"] <= 1.0
        assert json.loads(json.dumps(summary))["derived"] == derived

    def test_derived_zero_denominators(self):
        # A blank stats object must not divide by zero.
        blank = EngineStats(
            scheduler_policy="fcfs", requests_submitted=0,
            requests_completed=0, requests_queued=0, requests_running=0,
            requests_rejected=0, requests_cancelled=0, requests_timed_out=0,
            requests_failed=0, retries=0, snapshot_restores=0,
            tokens_generated=0, decode_ticks=0, mean_batch_occupancy=0.0,
            batch_lanes=0, elapsed_s=0.0, wall_elapsed_s=0.0,
            tokens_per_s=0.0, mean_queue_latency_s=0.0,
            max_queue_latency_s=0.0, cache_slots=0,
            cache_slots_high_water=0, preemptions=0, prefix_hit_tokens=0,
            prefill_chunks=0, prefill_tokens=0, ttft_p50_s=float("nan"),
            ttft_p95_s=float("nan"), inter_token_p50_s=float("nan"),
            inter_token_p95_s=float("nan"),
        )
        derived = blank.summary()["derived"]
        assert all(v == 0.0 for v in derived.values())

    def test_wall_elapsed_includes_idle_gaps(self, model):
        clk = ManualClock()
        eng = make_engine(model, "paged", clock=clk)
        eng.submit(requests(prompts(1))[0])
        while eng.has_work():
            clk.advance(1.0)     # 1 s of "idle" before each tick
            eng.step()
        stats = eng.stats()
        # Busy time only sees the zero-width interval inside step();
        # wall time spans submit -> last tick including the idle gaps.
        assert stats.elapsed_s == 0.0
        assert stats.wall_elapsed_s > 0.0
        assert stats.wall_elapsed_s >= stats.elapsed_s

    def test_queue_latency_on_injectable_clock(self, model):
        clk = ManualClock()
        eng = make_engine(model, "paged", clock=clk, max_batch_size=1)
        for r in requests(prompts(2, lo=4, hi=5), max_tokens=2):
            eng.submit(r)
            clk.advance(0.5)     # r1 submitted 0.5 s after r0
        while eng.has_work():
            clk.advance(0.25)
            eng.step()
        stats = eng.stats()
        # Both latencies measured on the manual clock: r0 admitted at
        # the first tick, r1 waited for r0's lane.
        assert stats.max_queue_latency_s > 0.0
        assert stats.mean_queue_latency_s > 0.0
        assert stats.max_queue_latency_s >= stats.mean_queue_latency_s


# ---------------------------------------------------------------------------
# Tick tracing
# ---------------------------------------------------------------------------
class TestTickTrace:
    def test_span_tree_well_formed(self, model):
        eng = make_engine(model, "chunked")
        eng.generate(requests(prompts(4, lo=20, hi=40), max_tokens=5))
        records = eng.trace.spans()
        ticks = eng.trace.spans("tick")
        assert ticks, "no tick spans recorded"
        for name in ("sweep", "admit", "plan", "forward", "append",
                     "sample", "finish"):
            assert eng.trace.spans(name), f"no {name!r} spans"
        assert eng.trace.spans("pack_prefill"), "chunked run packed no chunks"
        # Containment: every non-root span lies inside exactly the
        # tick whose interval covers it; depths nest monotonically.
        for name, t0, t1, depth, _ in records:
            assert t1 >= t0
            if name == "tick":
                assert depth == 0
                continue
            assert depth >= 1
            covering = [(a, b) for _, a, b, d, _ in ticks if a <= t0 and t1 <= b]
            assert covering, f"{name} span outside every tick"
        # No two same-depth spans overlap (single-threaded engine).
        by_depth: dict = {}
        for _, t0, t1, depth, _ in records:
            by_depth.setdefault(depth, []).append((t0, t1))
        for spans in by_depth.values():
            spans.sort()
            for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
                assert a1 <= b0, "same-depth spans overlap"

    def test_append_nested_in_forward(self, model):
        eng = make_engine(model, "paged")
        eng.generate(requests(prompts(2)))
        forwards = eng.trace.spans("forward")
        for _, t0, t1, depth, _ in eng.trace.spans("append"):
            assert any(a <= t0 and t1 <= b for _, a, b, d, _ in forwards
                       if d == depth - 1), "append span outside forward"

    def test_chrome_trace_roundtrip(self, model, tmp_path):
        eng = make_engine(model, "chunked")
        eng.generate(requests(prompts(3, lo=20, hi=30)))
        path = str(tmp_path / "trace.json")
        assert eng.trace.save(path) == path
        trace = json.loads(open(path).read())
        events = trace["traceEvents"]
        assert events and trace["displayTimeUnit"] == "ms"
        for ev in events:
            assert ev["ph"] in ("X", "i")
            assert "ts" in ev and "name" in ev
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
        assert {"forward", "append"} <= {e["name"] for e in events}
        # The extra sections ride along and mirror live state.
        assert trace["metrics"]["metrics"]["tokens_generated"]["value"] \
            == eng.stats().tokens_generated
        assert set(trace["requestTimelines"]) == {f"r{i}" for i in range(3)}

    def test_ring_buffer_bounded(self):
        tracer = TickTracer(capacity=8)
        for i in range(50):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.records()) == 8
        assert tracer.spans()[0][0] == "s42"   # oldest dropped first
        tracer.clear()
        assert tracer.records() == []

    def test_manual_trace_clock(self, model):
        clk = ManualClock()
        eng = make_engine(model, "paged", trace_clock=clk)
        # Each span reads the tracer clock twice; advance between ticks.
        eng.submit(requests(prompts(1))[0])
        while eng.has_work():
            eng.step()
            clk.advance(1.0)
        for _, t0, t1, _, _ in eng.trace.spans():
            assert t1 >= t0


# ---------------------------------------------------------------------------
# Request timelines
# ---------------------------------------------------------------------------
class TestRequestTimelines:
    def test_normal_lifecycle_order(self, model):
        eng = make_engine(model, "chunked")
        ps = prompts(1, lo=40, hi=41)
        handle = eng.submit(GenerationRequest("r0", ps[0], max_tokens=4))
        eng.generate()
        names = handle.trace().names()
        assert names[0] == "submit"
        assert names[1] == "admit"
        assert names.count("prefill_chunk") >= 2     # 40 tokens, 16/chunk
        assert names[-1] == "finish"
        assert names.index("first_token") < names.index("finish")
        events = handle.trace().to_events()
        assert events[0]["prompt_tokens"] == 40
        assert events[-1]["reason"] == "length"
        # Timestamps are monotone non-decreasing.
        ts = [e["t"] for e in events]
        assert ts == sorted(ts)
        # The serialized copy rides the result and survives JSON.
        result = eng.result("r0")
        assert [e["event"] for e in json.loads(json.dumps(result.trace))] \
            == names

    def test_timeout_timeline(self, model):
        clk = ManualClock()
        eng = make_engine(model, "paged", clock=clk, max_batch_size=1)
        rs = requests(prompts(2, lo=4, hi=5), max_tokens=50)
        eng.submit(rs[0])
        eng.submit(GenerationRequest("late", rs[1].prompt, max_tokens=50,
                                     timeout_s=1.0))
        while eng.has_work():
            clk.advance(0.4)
            eng.step()
        assert eng.result("late").finish_reason == FINISH_TIMEOUT
        names = eng.request_trace("late").names()
        # Never admitted (one lane, r0 decodes 50 tokens): queued ->
        # timeout finish with no admit/first_token between.
        assert names[0] == "submit" and names[-1] == "finish"
        assert eng.request_trace("late").events[-1]["reason"] == FINISH_TIMEOUT
        assert "first_token" not in names
        assert_storage_baseline(eng)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_retry_timeline_joins_fault_log(self, model, backend):
        injector = FaultInjector().arm(FORWARD, "r0", after=3, transient=True)
        eng = make_engine(model, backend, faults=injector)
        eng.generate(requests(prompts(4), max_tokens=8))
        trace = eng.request_trace("r0")
        names = trace.names()
        assert "fault" in names and "retry" in names
        assert names.index("fault") < names.index("retry")
        # Re-admission after the retry, then a resumed finish.
        assert names.count("admit") == 2
        assert names[-1] == "finish"
        # The joined fault indexes the injector's fired-fault log.
        fault_ev = trace.events[names.index("fault")]
        site, rid = injector.log[fault_ev["log_index"]]
        assert (site, rid) == (FORWARD, "r0")
        # ... and the tick trace carries the matching instant marker.
        instants = eng.trace.instants("fault")
        assert len(instants) == 1
        assert instants[0][4]["request_id"] == "r0"
        assert instants[0][4]["log_index"] == fault_ev["log_index"]
        assert eng.result("r0").finish_reason == "length"
        assert_storage_baseline(eng)

    def test_preemption_timeline(self, model):
        # A pool small enough that concurrent decodes collide.
        eng = make_engine(model, "paged", num_blocks=6, block_tokens=16,
                          max_batch_size=3)
        eng.generate(requests(prompts(3, lo=10, hi=12), max_tokens=30))
        assert eng.stats().preemptions > 0
        preempted = [rid for rid in ("r0", "r1", "r2")
                     if "preempt" in eng.request_trace(rid).names()]
        assert preempted, "no request recorded its preemption"
        for rid in preempted:
            names = eng.request_trace(rid).names()
            # Preempt -> re-admission -> eventual finish, in order.
            assert names.index("preempt") < len(names) - 1
            assert "admit" in names[names.index("preempt"):]
            assert names[-1] == "finish"
        assert_storage_baseline(eng)

    def test_quarantined_callback_timeline(self, model):
        def bad(_event):
            raise RuntimeError("client went away")

        eng = make_engine(model, "paged")
        eng.submit(requests(prompts(1))[0], on_token=bad)
        eng.generate()
        names = eng.request_trace("r0").names()
        assert "callback_error" in names
        assert eng.result("r0").finish_reason == FINISH_ERROR

    def test_pop_result_evicts_timeline(self, model):
        eng = make_engine(model, "paged")
        handle = eng.submit(requests(prompts(1))[0])
        eng.generate()
        assert handle.trace() is not None
        result = eng.pop_result("r0")
        assert handle.trace() is None        # live timeline evicted
        assert result.trace[-1]["event"] == "finish"   # copy retained

    def test_timeline_bounded(self):
        trace = RequestTrace("r0", max_events=4)
        for i in range(10):
            trace.add("tick", float(i))
        assert len(trace) == 4 and trace.dropped == 6
        assert trace.duration_s == 3.0


# ---------------------------------------------------------------------------
# observe=False: a true no-op
# ---------------------------------------------------------------------------
class TestObserveOff:
    def test_no_spans_no_timelines(self, model):
        eng = make_engine(model, "paged", observe=False)
        handle = eng.submit(requests(prompts(1))[0])
        eng.generate()
        assert eng.trace.records() == []
        assert handle.trace() is None
        assert eng.result("r0").trace is None
        # The registry still carries the stats (stats() needs it).
        assert eng.stats().requests_completed == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("cache", list(CACHE_FACTORIES))
    def test_tokens_bit_identical_on_off(self, model, backend, cache):
        ps = prompts(5, seed=9, lo=8, hi=16)
        outs = {}
        for observe in (True, False):
            eng = make_engine(model, backend, cache=cache, observe=observe)
            eng.generate(requests(ps, max_tokens=8))
            outs[observe] = [eng.result(f"r{i}").tokens for i in range(5)]
        assert outs[True] == outs[False]
        # And both match the single-stream reference.
        factory = CACHE_FACTORIES[cache]
        for i, p in enumerate(ps):
            assert outs[True][i] == single_stream(model, factory, p, 8)

    def test_on_off_identical_under_faults(self, model):
        """The fault injector's clock-read counting must not see the
        tracer: the same chaos seed fires the same faults either way."""
        ps = prompts(4, seed=3)
        logs, finishes = [], []
        for observe in (True, False):
            injector = FaultInjector(seed=11).chaos(FORWARD, 0.05)
            eng = make_engine(model, "paged", faults=injector,
                              observe=observe, max_retries=1)
            eng.generate(requests(ps, max_tokens=6))
            logs.append(list(injector.log))
            finishes.append([eng.result(f"r{i}").finish_reason
                             for i in range(4)])
        assert logs[0] == logs[1]
        assert finishes[0] == finishes[1]


# ---------------------------------------------------------------------------
# The dashboard CLI
# ---------------------------------------------------------------------------
class TestObsReport:
    def test_report_renders_exported_trace(self, model, tmp_path):
        injector = FaultInjector().arm(FORWARD, "r0", after=2, transient=True)
        eng = make_engine(model, "chunked", faults=injector)
        eng.generate(requests(prompts(3, lo=20, hi=30), max_tokens=6))
        path = str(tmp_path / "trace.json")
        eng.trace.save(path)

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo, "src")
        proc = subprocess.run(
            [sys.executable, os.path.join(repo, "examples", "obs_report.py"),
             path, "--top", "2"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout
        assert "where tick time goes" in out
        assert "forward" in out and "append" in out
        assert "metric distributions" in out
        assert "ttft_seconds" in out
        assert "fired faults" in out and "site=forward" in out
        assert "request timelines" in out and "<-- fault" in out

    def test_report_json_output(self, model, tmp_path):
        eng = make_engine(model, "paged")
        eng.generate(requests(prompts(3), max_tokens=4))
        path = str(tmp_path / "trace.json")
        eng.trace.save(path)

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo, "src")
        proc = subprocess.run(
            [sys.executable, os.path.join(repo, "examples", "obs_report.py"),
             path, "--json", "--top", "2"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)   # machine-readable end to end
        assert report["spans"] > 0
        assert report["request_timelines"] == 3
        phases = {row["phase"] for row in report["phases"]}
        assert {"tick", "forward", "sample"} <= phases
        for row in report["phases"]:
            assert row["count"] > 0 and row["total_s"] >= row["mean_s"] >= 0
        assert "ttft_seconds" in report["histograms"]
        assert report["counters"]["requests_completed"] == 3
        assert len(report["slowest_requests"]) == 2
        for entry in report["slowest_requests"]:
            assert entry["events"][0]["event"] == "submit"
