"""Multi-tenant serving demo: concurrent recall requests, one engine.

Eight clients each plant key->value facts in a long prompt (the
Tbl. III decode scenario) and generate a continuation — but instead of
running one at a time, all eight stream through the continuous-batching
engine concurrently over a pooled MANT4-quantized KV cache: tokens
arrive interleaved, finished requests hand their cache slots to queued
ones, and the engine reports throughput / occupancy / queue latency.

The punchline is the determinism guarantee: every client's tokens are
verified identical to what the single-stream decode loop produces —
continuous batching changes latency and throughput, never the output.

The later sections exercise the v2 API — a priority request jumping a
saturated queue, a deadline (EDF) engine, request cancellation through
a `RequestHandle`, and n=4 parallel sampling served from one prefill
via copy-on-write lease forks — and the fault-tolerance machinery: an
injected mid-decode fault quarantined to one request while bystanders
stay bit-identical, per-request timeouts, and drain + snapshot/restore
moving mid-flight work into a fresh engine.

Run:  python examples/serving_demo.py
"""

import functools
import json

import numpy as np

from repro.analysis.reporting import render_table
from repro.model import calibrate_model, get_model
from repro.model.tasks import RecallTask, _generate
from repro.quant.kvcache import MantKVCache
from repro.serve import (
    FORWARD,
    FaultInjector,
    GenerationEngine,
    GenerationRequest,
    SamplingParams,
    ServeConfig,
)

N_CLIENTS = 8
MAX_BATCH = 4
MAX_TOKENS = 12

print("loading tinyllama-s (trains and caches on first use)...")
model, corpus = get_model("tinyllama-s")
calibration = calibrate_model(model, corpus, n_batches=3, batch_size=4, seq_len=128)

# One recall episode per client: a long prompt with planted key->value
# pairs, ending on a query key.
task = RecallTask(vocab_size=model.config.vocab_size, prompt_len=160, n_pairs=4)
rng = np.random.default_rng(task.seed)
prompts = [task._build_episode(rng)[0] for _ in range(N_CLIENTS)]

cache_factory = functools.partial(
    MantKVCache, selector=calibration.kv_selector, group_size=64, window=64
)
engine = GenerationEngine(model, cache_factory,
                          ServeConfig(max_batch_size=MAX_BATCH, block_tokens=64))

requests = [
    GenerationRequest(f"client-{i}", prompt, max_tokens=MAX_TOKENS)
    for i, prompt in enumerate(prompts)
]

print(f"\nserving {N_CLIENTS} concurrent requests "
      f"({MAX_TOKENS} tokens each, max batch {MAX_BATCH}, MANT4 KV cache)...")
arrivals: dict[str, int] = {}
for event in engine.run(requests):
    if event.token is not None:
        arrivals.setdefault(event.request_id, len(arrivals))
print("first-token arrival order: "
      + " ".join(sorted(arrivals, key=arrivals.get)))

print("\nverifying batched output == single-stream output per client...")
rows = []
all_match = True
for i, prompt in enumerate(prompts):
    result = engine.result(f"client-{i}")
    reference = _generate(model, prompt, MAX_TOKENS, cache_factory)
    match = result.tokens == reference
    all_match &= match
    rows.append([
        f"client-{i}",
        " ".join(str(t) for t in result.tokens[:6]) + " ...",
        "yes" if match else "NO",
        result.finish_reason,
        f"{result.queue_latency_s * 1e3:.1f}",
    ])
print(render_table(
    ["request", "tokens (first 6)", "== single-stream", "finish", "queue ms"],
    rows, title="Per-request results"))

st = engine.stats()
print(f"\nengine stats: {st.requests_completed}/{st.requests_submitted} requests, "
      f"{st.tokens_generated} tokens in {st.elapsed_s * 1e3:.0f} ms "
      f"({st.tokens_per_s:.0f} tok/s aggregate)")
print(f"  decode ticks:    {st.decode_ticks}, "
      f"mean batch occupancy {st.mean_batch_occupancy:.2f} of {st.batch_lanes} "
      f"lanes (pool blocks high water {st.cache_slots_high_water})")
print(f"  queue latency:   mean {st.mean_queue_latency_s * 1e3:.1f} ms, "
      f"max {st.max_queue_latency_s * 1e3:.1f} ms")
print(f"\nall outputs identical to single-stream decoding: "
      f"{'yes' if all_match else 'NO'}")

# ----------------------------------------------------------------------
# Same clients behind one shared system prompt: the prefix cache
# deduplicates the leading KV pages, admission runs on actually-free
# blocks, and the outputs still match bit for bit.
# ----------------------------------------------------------------------
SYSTEM_LEN = 64
system = np.random.default_rng(7).integers(0, model.config.vocab_size,
                                           size=SYSTEM_LEN)
shared_prompts = [np.concatenate([system, p]) for p in prompts]
paged = GenerationEngine(
    model, cache_factory,
    ServeConfig(max_batch_size=MAX_BATCH, block_tokens=64),
    detokenize=lambda toks: " ".join(str(t) for t in toks),
)
paged_results = paged.generate(
    GenerationRequest(f"client-{i}", p, max_tokens=MAX_TOKENS)
    for i, p in enumerate(shared_prompts)
)
pst = paged.stats()
pool = paged.pool
print(f"\npaged engine (block_tokens=64, shared {SYSTEM_LEN}-token system "
      f"prompt):")
print(f"  prefix cache:    {pool.prefill_pages_hit}/{pool.prefill_pages_total} "
      f"prompt pages served from shared blocks "
      f"({pst.prefix_hit_tokens} tokens never re-stored; whole-prompt "
      f"admission still computes them)")
print(f"  pool:            {pool.num_blocks} blocks, high water "
      f"{pst.cache_slots_high_water}, preemptions {pst.preemptions}")
paged_match = all(
    paged_results[f"client-{i}"].tokens
    == _generate(model, p, MAX_TOKENS, cache_factory)
    for i, p in enumerate(shared_prompts)
)
print(f"  paged outputs identical to single-stream decoding: "
      f"{'yes' if paged_match else 'NO'}")

# ----------------------------------------------------------------------
# Chunked prefill: the same shared-prompt workload, but prompts stream
# into the batch in 64-token chunks under a per-tick token budget, so a
# long prompt never stalls the in-flight decoders, and a prefix-cache
# hit skips the compute of the pages it matched — and the outputs
# still match the single-stream loop token for token.
# ----------------------------------------------------------------------
chunked = GenerationEngine(
    model, cache_factory,
    ServeConfig.chunked(max_batch_size=MAX_BATCH, block_tokens=64),
)
chunked_results = chunked.generate(
    GenerationRequest(f"client-{i}", p, max_tokens=MAX_TOKENS)
    for i, p in enumerate(shared_prompts)
)
cst = chunked.stats()
print(f"\nchunked engine (prefill_chunk_tokens=64, max_tokens_per_tick=128):")
print(f"  prefill chunks:  {cst.prefill_chunks} mixed-tick chunks across "
      f"{cst.requests_submitted} prompts")
print(f"  prefill compute: {cst.prefill_tokens} of {cst.prompt_tokens} "
      f"admitted prompt tokens run through the model (prefix hit ratio "
      f"{cst.summary()['derived']['prefix_hit_ratio']:.2f}: shared-page "
      f"tokens over prompt tokens admitted)")
print(f"  latency:         TTFT p95 {cst.ttft_p95_s * 1e3:.1f} ms, "
      f"inter-token p95 {cst.inter_token_p95_s * 1e3:.2f} ms")
chunked_match = all(
    chunked_results[f"client-{i}"].tokens
    == _generate(model, p, MAX_TOKENS, cache_factory)
    for i, p in enumerate(shared_prompts)
)
print(f"  chunked outputs identical to single-stream decoding: "
      f"{'yes' if chunked_match else 'NO'}")

# ----------------------------------------------------------------------
# Serving API v2: a priority request jumps a saturated queue, a request
# is cancelled through its handle, a deadline engine runs EDF, and one
# prompt is sampled 4 ways from a single prefill (copy-on-write forks).
# ----------------------------------------------------------------------
print("\n--- serving API v2: policies, lifecycle, parallel sampling ---")

prio = GenerationEngine(
    model, cache_factory,
    ServeConfig(max_batch_size=2, block_tokens=64,
                      scheduler_policy="priority"),
)
first_token_at: dict[str, int] = {}
for i, p in enumerate(shared_prompts[:5]):
    prio.submit(GenerationRequest(f"bg-{i}", p, max_tokens=MAX_TOKENS,
                                  priority=0))
urgent = prio.submit(GenerationRequest("urgent", shared_prompts[5],
                                       max_tokens=MAX_TOKENS, priority=9))
doomed = prio.submit(GenerationRequest("doomed", shared_prompts[6],
                                       max_tokens=MAX_TOKENS))
doomed.cancel()                          # cancelled while still queued
tick = 0
while prio.has_work():
    tick += 1
    for event in prio.step():
        if event.token is not None:
            first_token_at.setdefault(event.request_id, tick)
order = sorted(first_token_at, key=first_token_at.get)
pst2 = prio.stats()
print(f"priority engine ({pst2.scheduler_policy}, 2 lanes, 5 background + "
      f"1 urgent):")
print(f"  first-token order: {' '.join(order)}  "
      f"(urgent submitted last, served #{order.index('urgent') + 1})")
print(f"  cancelled via handle: {doomed!r} -> "
      f"{prio.result('doomed').finish_reason} "
      f"({pst2.requests_cancelled} cancellation)")
print(f"  urgent output still exact: "
      f"{'yes' if urgent.result().tokens == _generate(model, shared_prompts[5], MAX_TOKENS, cache_factory) else 'NO'}")

edf = GenerationEngine(
    model, cache_factory,
    ServeConfig(max_batch_size=2, block_tokens=64,
                      scheduler_policy="deadline"),
)
for i, p in enumerate(shared_prompts[:4]):
    # Later submissions carry tighter deadlines — EDF serves them first.
    edf.submit(GenerationRequest(f"slo-{i}", p, max_tokens=4,
                                 deadline_s=2.0 - 0.4 * i))
edf_first: dict[str, int] = {}
tick = 0
while edf.has_work():
    tick += 1
    for event in edf.step():
        if event.token is not None:
            edf_first.setdefault(event.request_id, tick)
print(f"deadline engine (EDF): service order "
      f"{' '.join(sorted(edf_first, key=edf_first.get))} "
      f"(submission order slo-0..slo-3, deadlines 2.0s -> 0.8s)")

fork = GenerationEngine(
    model, cache_factory,
    ServeConfig(max_batch_size=4, block_tokens=64),
)
nres = fork.generate([GenerationRequest(
    "creative", shared_prompts[7], max_tokens=MAX_TOKENS,
    sampling=SamplingParams(temperature=0.8, seed=42), n=4,
)])["creative"]
fst = fork.stats()
print(f"n=4 parallel sampling (one {shared_prompts[7].size}-token prefill, "
      f"{fork.pool.forks} copy-on-write forks, "
      f"{fst.prefill_tokens} prompt tokens computed):")
for s in nres.samples:
    print(f"  sample {s.index}: {' '.join(str(t) for t in s.tokens[:8])} ... "
          f"({s.finish_reason})")
distinct = len({tuple(s.tokens) for s in nres.samples})
print(f"  distinct continuations: {distinct}/4; "
      f"sample 0 is the classic seed-42 stream (aliased by result.tokens: "
      f"{'yes' if nres.tokens is nres.samples[0].tokens else 'NO'})")
print(f"\nengine stats summary (NaN-free): "
      f"ttft_p95_s={fork.stats().summary()['ttft_p95_s']}")

# ----------------------------------------------------------------------
# Fault tolerance: an injected mid-decode fault fails exactly one
# request (bystanders bit-identical, storage back to baseline), a
# per-request timeout expires mid-queue, and a snapshot taken mid-flight
# restores into a fresh engine that finishes the work.
# ----------------------------------------------------------------------
print("\n--- fault tolerance: quarantine, timeouts, snapshot/restore ---")

injector = FaultInjector(seed=0).arm(FORWARD, "victim", after=4,
                                     transient=False)
chaos = GenerationEngine(
    model, cache_factory,
    ServeConfig(max_batch_size=4, block_tokens=64),
    faults=injector,
)
chaos.submit(GenerationRequest("victim", shared_prompts[0],
                               max_tokens=MAX_TOKENS))
for i in range(1, 4):
    chaos.submit(GenerationRequest(f"bystander-{i}", shared_prompts[i],
                                   max_tokens=MAX_TOKENS))
chaos.generate()
vres = chaos.result("victim")
bystanders_ok = all(
    chaos.result(f"bystander-{i}").tokens
    == _generate(model, shared_prompts[i], MAX_TOKENS, cache_factory)
    for i in range(1, 4)
)
print(f"forward fault injected into 'victim' on its 4th decode step:")
print(f"  victim: finish={vres.finish_reason!r}, error={vres.error!r}, "
      f"{len(vres.tokens)} tokens kept ({chaos.stats().requests_failed} failed)")
print(f"  3 bystanders bit-identical to single-stream: "
      f"{'yes' if bystanders_ok else 'NO'}; pool blocks back to baseline: "
      f"{'yes' if chaos.pool.blocks_in_use == 0 else 'NO'}")


class _ManualClock:
    t = 0.0

    def __call__(self):
        return self.t


clk = _ManualClock()
slow = GenerationEngine(
    model, cache_factory,
    ServeConfig(max_batch_size=2, block_tokens=64,
                      request_timeout_s=10.0),
    clock=clk,
)
slow.submit(GenerationRequest("patient", shared_prompts[0],
                              max_tokens=MAX_TOKENS))
slow.submit(GenerationRequest("hurried", shared_prompts[1],
                              max_tokens=MAX_TOKENS, timeout_s=0.5))
while slow.has_work():
    clk.t += 0.2            # each tick "costs" 200 ms of wall clock
    slow.step()
print(f"timeouts (engine-wide 10s, per-request override 0.5s, "
      f"200 ms/tick clock):")
print(f"  patient: {slow.result('patient').finish_reason!r}   "
      f"hurried: {slow.result('hurried').finish_reason!r} after "
      f"{len(slow.result('hurried').tokens)} tokens "
      f"({slow.stats().requests_timed_out} timed out, storage released)")

live = GenerationEngine(model, cache_factory,
                        ServeConfig(max_batch_size=2, block_tokens=64))
for i in range(4):          # 2 lanes -> 2 decode mid-flight, 2 queued
    live.submit(GenerationRequest(f"job-{i}", shared_prompts[i],
                                  max_tokens=MAX_TOKENS))
for _ in range(4):
    live.step()
snap = json.loads(json.dumps(live.snapshot()))   # wire-format roundtrip
drained = live.drain()      # finish in-flight work, admit nothing new
resumed = GenerationEngine.restore(snap, model, cache_factory)
resumed.generate()
queued_exact = all(
    resumed.result(f"job-{i}").tokens
    == _generate(model, shared_prompts[i], MAX_TOKENS, cache_factory)
    for i in range(2, 4)    # still queued at snapshot -> replay is exact
)
print(f"snapshot after 4 ticks: "
      f"{sum(len(r['samples'][0]['tokens']) for r in snap['requests'])} tokens "
      f"across {len(snap['requests'])} requests "
      f"({len(json.dumps(snap))} bytes of JSON)")
print(f"  original engine drained: {live.stats().requests_completed} "
      f"in-flight finished, queued left for the restored engine")
print(f"  restored engine finished all "
      f"{resumed.stats().requests_completed}/4; queued-at-snapshot outputs "
      f"exact: {'yes' if queued_exact else 'NO'} "
      f"(mid-decode MANT4 replays under the recompute trade)")

# ---------------------------------------------------------------------------
# 8. Observability: traced requests, phase spans, Prometheus export
# ---------------------------------------------------------------------------
# With ServeConfig.observe (the default) every statistic is a registry
# instrument, every tick records phase spans, and every request keeps a
# lifecycle timeline — retrievable live via handle.trace(), serialized
# into GenerationResult.trace, and exportable as Perfetto JSON via
# engine.trace.save(path) (render it with examples/obs_report.py).
traced = GenerationEngine(
    model, cache_factory,
    ServeConfig.chunked(max_batch_size=4, block_tokens=64,
                        prefill_chunk_tokens=64, max_tokens_per_tick=128),
)
handles = [traced.submit(GenerationRequest(f"obs-{i}", shared_prompts[i],
                                           max_tokens=MAX_TOKENS))
           for i in range(4)]
traced.generate()
timeline = handles[0].trace()
forward_spans = traced.trace.spans("forward")
forward_ms = sum((t1 - t0) for _, t0, t1, _, _ in forward_spans) * 1e3
print(f"observability (4 chunked requests, observe=True by default):")
print(f"  obs-0 timeline: {' -> '.join(timeline.names())}")
print(f"  {len(traced.trace.spans('tick'))} ticks traced; "
      f"{len(forward_spans)} forward spans totalling {forward_ms:.1f} ms; "
      f"result.trace carries {len(traced.result('obs-0').trace)} events")
prom = traced.metrics.to_prometheus()
print(f"  metrics registry: {len(traced.metrics)} instruments, "
      f"{len(prom.splitlines())} Prometheus exposition lines, e.g.")
for line in prom.splitlines():
    if line.startswith("repro_serve_tokens_generated"):
        print(f"    {line}")
