"""Paged quantized KV-cache subsystem: block pool, prefix sharing, COW.

The serving engine's one KV storage backend.  Contiguous per-sequence
storage would make one sequence's growth reallocate whole lanes and
worst-case ``prompt + max_tokens`` admission strand memory; this module
uses vLLM/mlc-llm-style paging instead:

* **BlockPool** — fixed-size pages of ``block_tokens`` tokens backed by
  one shared ``(heads, num_blocks, block_tokens, d_head)`` slab per
  (layer, K/V-role), at the caches' storage width (float32 for the
  MANT/INT caches, whose values it holds exactly; float64 for FP16).
  K and V stay separate slabs rather than one ``(2, ...)`` array per
  layer: numpy advises transparent huge pages for arrays of 4 MiB and
  more, and under the common ``madvise`` THP mode a touched huge page
  is 2 MiB of resident memory however little of it is used (eight
  4 MiB arrays touched once per 256 KiB grew RSS by 16.2 MiB, eight
  2 MiB arrays by 0.3 MiB).  The benchmark's 2 MiB float32 K and V
  slabs stay under that threshold; float64 FP16 pools' 4 MiB slabs
  already get the advice.
  A *block id* names the same row in every slab, so one logical page
  table per sequence covers all layers.  Blocks are
  ref-counted and recycled through a free list; blocks whose content is
  a registered prompt prefix are retained ("cached-free") after their
  last reference drops and are only evicted LRU when allocation needs
  them — so a popular system prompt keeps paying off across request
  waves.
* **PageTable / PagedTokenBuffer** — per-sequence mapping of logical
  page index to block id, plus a :class:`~repro.quant.kvcache.TokenBuffer`-
  compatible facade over it holding one sequence's K and V at one
  layer.  Every row a layer writes in a tick is stored with one
  :meth:`PagedTokenBuffer.store`: each sequence's pages are reserved
  in turn, once for K and V together (page allocation and
  copy-on-write as per-sequence appends would do them), then one
  fancy-indexed store per slab writes every row.  The page layout
  stays in this module; the caches only hand over rows.  The existing
  FP16/INT4/MANT4 cache
  classes are reused *unchanged* via ``bind_buffer_factory``, which is
  what makes the paged quantization math bit-identical to the flat
  caches: M-ANT's group-wise scheme quantizes each page independently
  as long as ``block_tokens`` is a multiple of the temporal group
  (the V-cache window), so pages can be shared, recycled and gathered
  without touching neighbours.
* **Prefix sharing** — identical full prompt-prefix pages are
  deduplicated across live requests with a *chained* SHA-256 over the
  page's token ids (page ``i``'s hash commits to tokens ``[0, (i+1)·bt)``
  — necessary because K/V content at position ``p`` depends on the whole
  token prefix through the transformer).  A matching request attaches
  the donor's blocks (ref-count++), suppresses its own writes over the
  sealed region, and starts writing at the first divergent page.  The
  engine also skips their compute (:meth:`PagedLease.adopt_prefix`):
  besides the pages, a MANT cache needs the donor's running V channel
  maxima, which the donor registers with each page in a per-layer side
  slab of the pool.  Pages register when a prefill completes; the
  engine matches a prompt just before its first chunk, so a request
  admitted beside its donor waits for the donor's pages instead of
  recomputing them.
* **Copy-on-write** — any write (append or in-place V-window finalize)
  to a block with more than one reference first clones the block across
  every slab, so :meth:`PagedLease.fork` gives cheap sequence clones
  (parallel sampling / beam style) whose mutations never perturb each
  other.

Correctness invariants (gated by ``tests/test_serve_paging.py``):

* Paged greedy decode is token-for-token identical to the single-stream
  ``prefill`` + ``decode_step`` loop over flat :class:`~repro.quant.
  kvcache.TokenBuffer` caches for FP16/INT4/MANT4.  Prefix sharing
  preserves this because a full prompt page's content is a pure
  function of the token prefix: K rows are quantized per token, and
  full V windows are quantized directly from window data (the per-
  sequence INT8 staging scale only ever touches the partial tail page,
  which is never shared).  A sequence that skips the shared prefix's
  compute takes the staging scale's channel maxima through that prefix
  from the donor: bitwise equal to its own full prefill at model level,
  token-identical in the engine (where the donor's packed GEMMs may
  differ in the last ulp), the same level its shared pages have.
* ``block_tokens`` must be a multiple of the MANT V window so temporal
  groups never straddle pages (:func:`validate_block_compat` enforces
  this); the in-place window finalize then always lands inside one
  page.
* Releasing a lease returns every non-shared page to the pool with no
  state leakage; shared pages survive as long as any borrower holds
  them, then linger evictable in the prefix cache.
"""

from __future__ import annotations

import copy
import hashlib
from collections import OrderedDict

import numpy as np

from repro.quant.kvcache import KVCache, MantKVCache, _BufferedKVCache, _unpoolable

__all__ = [
    "PoolExhausted",
    "BlockPool",
    "PageTable",
    "PagedTokenBuffer",
    "PagedView",
    "PagedKVCache",
    "PagedLease",
    "validate_block_compat",
]

_EMPTY = np.empty((0, 0, 0))


class PoolExhausted(RuntimeError):
    """No free (or evictable cached-free) blocks left in the pool."""


def validate_block_compat(cache, block_tokens: int) -> None:
    """Reject page sizes that would split a temporal quantization group.

    K caches group along ``d_head`` (one token at a time) and are
    compatible with any page size; the MANT V cache quantizes groups of
    ``window`` consecutive *tokens*, so a page must hold a whole number
    of windows for per-page quantization to be bit-identical to the
    flat cache (and for the in-place window finalize to stay within one
    page).
    """
    if isinstance(cache, MantKVCache) and block_tokens % cache.window:
        raise ValueError(
            f"block_tokens={block_tokens} must be a multiple of the MANT "
            f"V-cache window ({cache.window}) so temporal quantization "
            "groups never straddle page boundaries; the smallest valid "
            f"page size for this cache is block_tokens={cache.window}"
        )


class BlockPool:
    """Fixed-size KV pages shared by every sequence of one engine.

    One ``(heads, num_blocks, block_tokens, d_head)`` slab per
    (layer, role) — created lazily at the first geometry sighting, at
    the cache's :attr:`~repro.quant.kvcache._BufferedKVCache.storage_dtype`
    — with a single block-id space across all of them: block ``b`` is
    row ``b`` of every slab, so a sequence's page table is one list of
    ids covering all layers, and "blocks in use" is a direct measure of
    KV memory.
    """

    def __init__(
        self,
        n_layers: int,
        block_tokens: int,
        num_blocks: int,
        enable_prefix_cache: bool = True,
        faults=None,
    ):
        if n_layers < 1:
            raise ValueError("pool needs at least one layer")
        if block_tokens < 1:
            raise ValueError("block_tokens must be >= 1")
        if num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        self.n_layers = n_layers
        self.block_tokens = block_tokens
        self.num_blocks = num_blocks
        self.enable_prefix_cache = enable_prefix_cache
        # Optional chaos harness (repro.serve.faults.FaultInjector):
        # allocate() consults its "alloc" site, covering allocations the
        # engine's tick planner cannot anticipate (COW clones).
        self.faults = faults
        self._free_set = set(range(num_blocks))
        self._ref = [0] * num_blocks
        self._slabs: dict[tuple[int, str], np.ndarray] = {}
        self._flats: dict[tuple[int, str], np.ndarray] = {}
        # Prefix cache: chained page hash <-> block id, plus the set of
        # zero-ref blocks retained only for future prefix hits (LRU).
        self._block_of_hash: dict[bytes, int] = {}
        self._hash_of_block: dict[int, bytes] = {}
        self._cached_free: OrderedDict[int, None] = OrderedDict()
        # Stats (read by EngineStats and the paging benchmark).
        self.allocations = 0
        self.high_water = 0
        self.total_leases = 0
        self.forks = 0           # PagedLease.fork clones (parallel sampling)
        self.cow_copies = 0
        self.prefix_hit_tokens = 0
        self.prefill_pages_total = 0
        self.prefill_pages_hit = 0

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def blocks_available(self) -> int:
        """Blocks an allocation could obtain: free + evictable cached."""
        return len(self._free_set) + len(self._cached_free)

    @property
    def blocks_in_use(self) -> int:
        return self.num_blocks - self.blocks_available

    def refcount(self, block_id: int) -> int:
        return self._ref[block_id]

    def bind_metrics(self, registry) -> None:
        """Register live pool gauges on the engine's
        :class:`~repro.serve.observe.MetricsRegistry`: free / cached /
        live / hashed block counts plus the allocation, lease, fork and
        copy-on-write counters — bound callables, so the gauges track
        pool state with zero cost on the allocation path."""
        registry.gauge("pool_blocks_free", "Blocks on the free list",
                       fn=lambda: len(self._free_set))
        registry.gauge("pool_blocks_cached",
                       "Zero-ref blocks retained for prefix-cache hits",
                       fn=lambda: len(self._cached_free))
        registry.gauge("pool_blocks_live", "Blocks referenced by live leases",
                       fn=lambda: self.blocks_in_use)
        registry.gauge("pool_blocks_hashed",
                       "Blocks registered in the prefix hash chain",
                       fn=lambda: len(self._hash_of_block))
        registry.gauge("pool_allocations", "Total block allocations",
                       fn=lambda: self.allocations)
        registry.gauge("pool_leases", "Total leases ever acquired",
                       fn=lambda: self.total_leases)
        registry.gauge("pool_forks", "Copy-on-write lease forks",
                       fn=lambda: self.forks)
        registry.gauge("pool_cow_copies", "Copy-on-write block copies",
                       fn=lambda: self.cow_copies)

    # ------------------------------------------------------------------
    # Block lifecycle
    # ------------------------------------------------------------------
    def _spread_block(self) -> int:
        """Middle of the longest free run — binary-splitting placement.

        First allocations land mid-run so each sequence's later pages
        can extend at ``last + 1``; successive sequences split the
        remaining runs.  Keeping per-sequence pages consecutive is what
        keeps :meth:`PagedView.gather` on its zero-copy fast path, so
        this locality heuristic is directly a decode-throughput lever.
        """
        ids = sorted(self._free_set)
        best_start = start = ids[0]
        best_len = run = 1
        for prev, cur in zip(ids, ids[1:]):
            if cur == prev + 1:
                run += 1
            else:
                if run > best_len:
                    best_start, best_len = start, run
                start, run = cur, 1
        if run > best_len:
            best_start, best_len = start, run
        return best_start + best_len // 2

    def allocate(self, hint: int | None = None) -> int:
        """Hand out one block (ref-count 1).

        ``hint`` asks for a specific id (a growing sequence passes its
        ``last block + 1``); granted when that block is free or
        retained-evictable.  LRU cached-free prefix blocks are evicted
        only when the plain free set is empty.
        """
        if self.faults is not None:
            self.faults.fire("alloc")
        if self._free_set:
            if hint is not None and hint in self._free_set:
                bid = hint
            else:
                bid = self._spread_block()
            self._free_set.remove(bid)
        elif self._cached_free:
            if hint is not None and hint in self._cached_free:
                del self._cached_free[hint]
                bid = hint
            else:
                bid, _ = self._cached_free.popitem(last=False)
            self._unhash(bid)
        else:
            raise PoolExhausted(
                f"BlockPool exhausted: all {self.num_blocks} blocks of "
                f"{self.block_tokens} tokens are referenced"
            )
        self._ref[bid] = 1
        self.allocations += 1
        self.high_water = max(self.high_water, self.blocks_in_use)
        return bid

    def incref(self, block_id: int) -> None:
        if self._ref[block_id] < 1:
            raise RuntimeError(f"incref on unreferenced block {block_id}")
        self._ref[block_id] += 1

    def decref(self, block_id: int) -> None:
        if self._ref[block_id] < 1:
            raise RuntimeError(f"decref on unreferenced block {block_id}")
        self._ref[block_id] -= 1
        if self._ref[block_id] == 0:
            if block_id in self._hash_of_block:
                # Keep the content for future prefix hits; evictable.
                self._cached_free[block_id] = None
            else:
                self._free_set.add(block_id)

    def check_integrity(self, expected_refs: dict[int, int] | None = None) -> None:
        """Verify pool bookkeeping; raise ``RuntimeError`` on corruption.

        Structural checks always run: the free set, the cached-free set
        and the referenced blocks must partition ``num_blocks``; free
        blocks must have refcount 0; cached-free blocks must be
        zero-ref *and* hashed; the hash maps must be a bijection.  With
        ``expected_refs`` (block id → references the caller can account
        for, e.g. from every live lease's page table) each referenced
        block's refcount must match exactly — the check that catches
        leaked or double-freed pages the free counts alone would miss.
        """
        free = self._free_set
        cached = set(self._cached_free)
        if free & cached:
            raise RuntimeError(f"pool blocks both free and cached-free: "
                               f"{sorted(free & cached)}")
        referenced = {b for b in range(self.num_blocks) if self._ref[b] > 0}
        if referenced & (free | cached):
            raise RuntimeError(
                "pool blocks referenced while on a free list: "
                f"{sorted(referenced & (free | cached))}"
            )
        if len(free) + len(cached) + len(referenced) != self.num_blocks:
            raise RuntimeError(
                f"pool accounting leak: {len(free)} free + {len(cached)} "
                f"cached-free + {len(referenced)} referenced != "
                f"{self.num_blocks} blocks"
            )
        for bid in cached:
            if bid not in self._hash_of_block:
                raise RuntimeError(f"cached-free block {bid} has no prefix hash")
        if len(self._block_of_hash) != len(self._hash_of_block):
            raise RuntimeError("prefix-cache hash maps out of sync")
        for h, bid in self._block_of_hash.items():
            if self._hash_of_block.get(bid) != h:
                raise RuntimeError(f"prefix-cache mapping for block {bid} "
                                   "is not a bijection")
        if expected_refs is not None:
            for bid in referenced:
                if self._ref[bid] != expected_refs.get(bid, 0):
                    raise RuntimeError(
                        f"block {bid} refcount {self._ref[bid]} != "
                        f"{expected_refs.get(bid, 0)} references held by "
                        "live leases"
                    )

    def clone_block(self, src: int) -> int:
        """Copy-on-write clone: duplicate ``src`` across every slab (the
        prefix-state slabs included)."""
        dst = self.allocate()
        for slab in self._slabs.values():
            slab[:, dst] = slab[:, src]
        self.cow_copies += 1
        return dst

    # ------------------------------------------------------------------
    # Prefix cache
    # ------------------------------------------------------------------
    def _unhash(self, block_id: int) -> None:
        h = self._hash_of_block.pop(block_id, None)
        if h is not None:
            del self._block_of_hash[h]

    def lookup(self, page_hash: bytes) -> int | None:
        """Resolve a chained page hash to a live block, taking a ref.

        Resurrects cached-free blocks (the donor may long be gone).
        """
        bid = self._block_of_hash.get(page_hash)
        if bid is None:
            return None
        if self._ref[bid] == 0:
            del self._cached_free[bid]
        self._ref[bid] += 1
        self.high_water = max(self.high_water, self.blocks_in_use)
        return bid

    def probe_prefix(self, hashes, pending=frozenset(), live=True) -> int:
        """Leading pages of a prompt, given as its :meth:`page_hashes`,
        that a prefix match would attach.

        A read-only probe: unlike :meth:`lookup` it takes no references
        and resurrects nothing.  A page counts while it is registered
        or in ``pending`` (pages a prefill scheduled ahead will
        register).  With ``live`` (the admission probe) a registered
        page counts only while some sequence still references it:
        attaching it is free, whereas resurrecting a cached-free match
        consumes a block the ``blocks_available`` gauge currently
        counts, so it must keep being charged like a fresh page.
        """
        if not self.enable_prefix_cache:
            return 0
        matched = 0
        for h in hashes:
            bid = self._block_of_hash.get(h)
            if (bid is None or live and self._ref[bid] < 1) and h not in pending:
                break
            matched += 1
        return matched

    def register(self, page_hash: bytes, block_id: int, states=None) -> int:
        """Publish a full page for sharing; returns 1 if newly registered.

        First writer wins: a hash already mapped (or a block already
        hashed) is left alone, so registered content is immutable for
        the mapping's lifetime.  ``states`` (one per layer, ``None`` for
        caches that carry none) is the writer's
        :meth:`~repro.quant.kvcache.KVCache.prefix_state` through the
        page's end.  It is stored in the block's row of a per-layer
        side slab, and it lives and dies with the registration: only a
        registered block's row is read (:meth:`prefix_state`), and every
        registration rewrites it.
        """
        if not self.enable_prefix_cache:
            return 0
        if page_hash in self._block_of_hash or block_id in self._hash_of_block:
            return 0
        self._block_of_hash[page_hash] = block_id
        self._hash_of_block[block_id] = page_hash
        for layer, state in enumerate(states or ()):
            if state is not None:
                self._state_slab(layer, state.shape)[:, block_id] = state
        return 1

    def prefix_state(self, layer: int, block_id: int):
        """``layer``'s prefix state stored with registered ``block_id``
        (``None`` when the pool's caches carry none)."""
        if block_id not in self._hash_of_block:
            raise RuntimeError(f"block {block_id} holds no registered prefix")
        slab = self._slabs.get((layer, "state"))
        return None if slab is None else slab[:, block_id]

    def page_hashes(self, ids: np.ndarray):
        """Yield the chained SHA-256 digest of every *full* page of ``ids``.

        Page ``i``'s digest commits to tokens ``[0, (i+1)·block_tokens)``
        — K/V content at a position depends on the entire token prefix,
        so equal page digests imply bit-equal page content (same model,
        same cache config: both fixed per pool).
        """
        ids = np.ascontiguousarray(np.asarray(ids, dtype=np.int64))
        bt = self.block_tokens
        h = b""
        for i in range(ids.size // bt):
            h = hashlib.sha256(h + ids[i * bt : (i + 1) * bt].tobytes()).digest()
            yield h

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    def _get_slab(self, layer: int, role: str, heads: int, d_head: int,
                  dtype) -> np.ndarray:
        key = (layer, role)
        slab = self._slabs.get(key)
        if slab is None:
            slab = np.empty((heads, self.num_blocks, self.block_tokens, d_head),
                            dtype=dtype)
            self._slabs[key] = slab
            # Slabs are fixed-size (never reallocated), so one flat
            # (heads, num_blocks·bt, d_head) alias per slab serves the
            # consecutive-pages gather as a single zero-copy slice.
            self._flats[key] = slab.reshape(heads, -1, d_head)
        elif (slab.shape[0], slab.shape[3]) != (heads, d_head):
            raise ValueError(
                f"layer {layer} {role}-cache geometry ({heads}, {d_head}) does "
                f"not match the pool's ({slab.shape[0]}, {slab.shape[3]})"
            )
        elif slab.dtype != dtype:
            raise ValueError(
                f"layer {layer} {role}-cache storage {np.dtype(dtype).name} does "
                f"not match the pool's {slab.dtype.name}"
            )
        return slab

    def _state_slab(self, layer: int, shape: tuple) -> np.ndarray:
        """The ``(shape[0], num_blocks, *shape[1:])`` side slab holding
        one prefix state per block (created at the first registration
        that carries one).  Kept in ``_slabs`` with the K/V slabs, so
        copy-on-write clones copy it and byte counts include it."""
        slab = self._slabs.get((layer, "state"))
        if slab is None:
            slab = np.empty((shape[0], self.num_blocks, *shape[1:]))
            self._slabs[(layer, "state")] = slab
        return slab

    def _buffer_factory(self, lease: "PagedLease", layer: int):
        def make(heads: int, d_head: int, capacity: int, dtype) -> PagedTokenBuffer:
            # `capacity` is a contiguous-buffer concept; pages are
            # allocated on demand at first write instead.
            slabs = tuple(self._get_slab(layer, role, heads, d_head, dtype)
                          for role in ("k", "v"))
            flats = (self._flats[(layer, "k")], self._flats[(layer, "v")])
            return PagedTokenBuffer(self, lease.table, slabs, flats,
                                    sealed=lease.sealed_tokens)

        return make

    # ------------------------------------------------------------------
    def acquire(self, cache_factory) -> "PagedLease":
        """Lease a fresh paged sequence: per-layer caches over one table."""
        lease = PagedLease(self, PageTable(self))
        caches = []
        for layer in range(self.n_layers):
            inner = cache_factory()
            if not isinstance(inner, _BufferedKVCache):
                raise TypeError(
                    f"cache_factory produced {type(inner).__name__}, which does "
                    "not use the pooled buffer storage"
                )
            validate_block_compat(inner, self.block_tokens)
            inner.bind_buffer_factory(self._buffer_factory(lease, layer))
            caches.append(PagedKVCache(inner, lease.table))
        lease.caches = caches
        self.total_leases += 1
        return lease


class PageTable:
    """One sequence's logical-page → block-id mapping (all layers).

    ``contiguous`` is maintained incrementally (True while the ids form
    one ascending run) so the gather's zero-copy fast path costs a flag
    read instead of rebuilding a range per attention call.
    """

    __slots__ = ("_pool", "blocks", "contiguous")

    def __init__(self, pool: BlockPool, blocks: list[int] | None = None):
        self._pool = pool
        self.blocks = blocks if blocks is not None else []
        b0 = self.blocks[0] if self.blocks else 0
        self.contiguous = self.blocks == list(range(b0, b0 + len(self.blocks)))

    @property
    def n_pages(self) -> int:
        return len(self.blocks)

    def append_block(self, bid: int) -> None:
        if self.blocks and bid != self.blocks[-1] + 1:
            self.contiguous = False
        self.blocks.append(bid)

    def ensure_tokens(self, n_tokens: int) -> None:
        """Allocate pages on demand so ``n_tokens`` positions are backed,
        hinting for the block after the current last (locality)."""
        need = -(-n_tokens // self._pool.block_tokens)
        while len(self.blocks) < need:
            hint = self.blocks[-1] + 1 if self.blocks else None
            if hint is not None and hint >= self._pool.num_blocks:
                hint = None
            self.append_block(self._pool.allocate(hint))

    def writable_block(self, page: int) -> int:
        """Block id for writing: copy-on-write when the page is shared."""
        bid = self.blocks[page]
        if self._pool._ref[bid] > 1:
            new = self._pool.clone_block(bid)
            self._pool.decref(bid)
            self.blocks[page] = new
            self.contiguous = False
            bid = new
        return bid

    def release(self) -> None:
        for bid in self.blocks:
            self._pool.decref(bid)
        self.blocks.clear()
        self.contiguous = True


class PagedTokenBuffer:
    """:class:`~repro.quant.kvcache.TokenBuffer`-compatible facade over
    non-contiguous pool pages: one sequence's K and V at one layer, in
    that layer's K and V slabs.

    ``sealed`` positions are the pages a prefix-cache match attached:
    they already hold the donor's content and are never written.  A
    sequence that skips their compute starts at :meth:`adopt`; the
    pages it runs anyway (the last matched page when the whole prompt
    matched, since its last token must run for the first-token logits)
    are stored over: the store advances the length and writes nothing.
    """

    __slots__ = ("_pool", "_table", "_slabs", "_flats", "_len", "_sealed")

    def __init__(self, pool: BlockPool, table: PageTable, slabs: tuple,
                 flats: tuple, sealed: int = 0):
        self._pool = pool
        self._table = table
        self._slabs = slabs        # the layer's (K, V) slabs
        self._flats = flats        # their (heads, num_blocks·bt, d_head) aliases
        self._len = 0
        self._sealed = sealed

    def __len__(self) -> int:
        return self._len

    @property
    def heads(self) -> int:
        return self._slabs[0].shape[0]

    @property
    def d_head(self) -> int:
        return self._slabs[0].shape[3]

    @classmethod
    def store(cls, buffers: list, counts: list, k: np.ndarray, v: np.ndarray) -> None:
        """Append ``counts[i]`` tokens to ``buffers[i]`` (``k``/``v`` are
        ``(heads, sum(counts), d_head)``, buffer ``i``'s tokens after
        buffer ``i - 1``'s) with one store per slab.  The buffers share
        one pool layer's slabs.

        Each buffer's pages are reserved in list order, page by page,
        once for both roles — a page allocated when a token opens one,
        a shared page copy-on-write cloned — as appending each buffer's
        tokens in turn would, so allocation order, block ids and clones
        are theirs.  Tokens over sealed pages advance the length without
        a store.  The stores and lengths come after every reservation: a
        reservation that raises (the pool exhausted) stores nothing and
        leaves every length as it was.
        """
        k_flat, v_flat = buffers[0]._flats
        if not all(buf._flats[0] is k_flat for buf in buffers):
            raise ValueError("store buffers must share one pool layer's slabs")
        bt = buffers[0]._pool.block_tokens
        slots, sealed = [], []    # slot: position in the flat aliases
        pos = 0
        for buf, n in zip(buffers, counts):
            start, end = buf._len, buf._len + n
            if start < buf._sealed:
                sealed.append((pos, pos + min(n, buf._sealed - start)))
                start = min(end, buf._sealed)
            pos += n
            table = buf._table
            while start < end:
                page, off = divmod(start, bt)
                if not off:
                    table.ensure_tokens(start + 1)
                slot = table.writable_block(page) * bt + off
                if end - start == 1:       # one token (a decode row)
                    slots.append(slot)
                    break
                stop = min(end, start - off + bt)
                slots.extend(range(slot, slot + stop - start))
                start = stop
        if sealed:
            keep = np.ones(pos, dtype=bool)
            for lo, hi in sealed:
                keep[lo:hi] = False
            k, v = k[:, keep], v[:, keep]
        slots = np.array(slots, dtype=np.intp)
        k_flat[:, slots] = k
        v_flat[:, slots] = v
        for buf, n in zip(buffers, counts):
            buf._len += n

    def adopt(self, n: int) -> None:
        """Take the first ``n`` sealed tokens as written, storing nothing."""
        if self._len or n > self._sealed:
            raise ValueError(f"cannot adopt {n} tokens: length {self._len}, "
                             f"{self._sealed} sealed")
        self._len = n

    def keys(self) -> "PagedView":
        """Lazy read-only view over the live pages' K.

        Materialization (and the contiguous zero-copy fast path) lives
        in :meth:`PagedView.gather`, which the attention layer invokes;
        like all cache views it is only valid until the next mutation
        through any facade of the same table.
        """
        return PagedView(self._slabs[0], self._flats[0], self._table, self._len)

    def values(self) -> "PagedView":
        """As :meth:`keys`, over the V slab."""
        return PagedView(self._slabs[1], self._flats[1], self._table, self._len)

    def _last_tokens(self, n: int) -> tuple[int, int]:
        """``(page, offset)`` of the last ``n`` tokens, which must lie in
        one page."""
        if n > self._len:
            raise ValueError(f"last {n} tokens exceed buffer length {self._len}")
        bt = self._pool.block_tokens
        page, off = divmod(self._len - n, bt)
        if n and (self._len - 1) // bt != page:
            raise ValueError(
                f"last {n} tokens span a page boundary (block_tokens={bt}); "
                "page size must be a multiple of the in-place window"
            )
        return page, off

    def values_tail(self, n: int) -> np.ndarray:
        """Writable view of the last ``n`` tokens' V (single page only).

        The MANT V cache rewrites a closing window in place right after
        the store of its last token, which reserved (copy-on-write) the
        page; with ``block_tokens`` a multiple of the window the region
        lies inside that page, so a direct slab slice preserves the
        flat-cache semantics.  A page still shared raises.
        """
        page, off = self._last_tokens(n)
        bid = self._table.blocks[page]
        if self._pool._ref[bid] > 1:
            raise RuntimeError(f"page {page} is shared: store into it before "
                               "rewriting it in place")
        return self._slabs[1][:, bid, off : off + n, :]

    def values_recent(self, n: int) -> np.ndarray:
        """Read-only view of the last ``n`` tokens' V (single page only,
        as :meth:`values_tail`, but a read of any page).  The MANT V
        cache reads a closing window's staged rows with it."""
        page, off = self._last_tokens(n)
        out = self._slabs[1][:, self._table.blocks[page], off : off + n, :]
        out.flags.writeable = False
        return out

    def clone_for(self, table: PageTable) -> "PagedTokenBuffer":
        """Same-length facade over a forked sequence's page table."""
        clone = PagedTokenBuffer(self._pool, table, self._slabs, self._flats,
                                 sealed=self._sealed)
        clone._len = self._len
        return clone


class PagedView:
    """Read-only token view over (possibly) non-contiguous pages.

    Consumers that need a dense array call :meth:`gather`;
    ``layers.cached_attention_fwd`` does this via duck typing, so the
    attention math itself is unchanged and trivially bit-identical to
    the contiguous view.  When the pages are consecutive block ids (the
    common no-sharing case, tracked incrementally by the table) the
    gather is one zero-copy slice of the slab's flat alias — the same
    cost as a flat :class:`~repro.quant.kvcache.TokenBuffer` view.
    Either way the result has the slab's storage width; readers widen
    it to float64 before any arithmetic.
    """

    __slots__ = ("_slab", "_flat", "_table", "_len")

    def __init__(self, slab: np.ndarray, flat: np.ndarray, table: PageTable,
                 length: int):
        self._slab = slab
        self._flat = flat
        self._table = table
        self._len = length

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self._slab.shape[0], self._len, self._slab.shape[3])

    def gather(self) -> np.ndarray:
        """Materialize ``(heads, len, d_head)``; zero-copy if contiguous,
        else one page gather (the live pages, the last one whole) sliced
        to the live tokens."""
        length = self._len
        if length == 0:
            return _EMPTY
        table = self._table
        if table.contiguous:
            start = table.blocks[0] * self._slab.shape[2]
            out = self._flat[:, start : start + length]
            out.flags.writeable = False    # aliases the slab
            return out
        slab = self._slab
        heads, _, bt, d_head = slab.shape
        pages = slab.take(table.blocks[: -(-length // bt)], axis=1)
        return pages.reshape(heads, -1, d_head)[:, :length]

    def __array__(self, dtype=None, copy=None):
        arr = self.gather()
        if copy:
            # A contiguous gather aliases the slab, whose block is
            # rewritten once the lease releases it: a requested copy
            # must own its storage.
            return np.array(arr, dtype=dtype, copy=True)
        return np.asarray(arr, dtype=dtype) if dtype is not None else arr


class PagedKVCache(KVCache):
    """The :class:`~repro.quant.kvcache.KVCache` interface over pages.

    Wraps one buffered cache (FP16/INT4/MANT4) whose storage is paged;
    the quantization math runs entirely in the wrapped class, so the
    paged cache is bit-identical to the flat one per construction.
    ``write_layer`` and ``check_write`` unwrap to the inner class, so
    the pooled quantization path is preserved under paging; a write
    mixing paged and unpaged caches raises ``ValueError`` before any
    cache changes.
    ``prefill``, the cache-specific extras (``staging_fill``,
    ``window``, ...) and everything else unknown here delegate to the
    inner cache.
    """

    def __init__(self, inner: _BufferedKVCache, table: PageTable):
        self.inner = inner
        self.table = table

    def prefix_state(self, n_tokens):
        return self.inner.prefix_state(n_tokens)

    def adopt_prefix(self, n_tokens, heads, d_head, state):
        self.inner.adopt_prefix(n_tokens, heads, d_head, state)

    def drop_prefix_state(self):
        self.inner.drop_prefix_state()

    def keys(self):
        return self.inner.keys()

    def values(self):
        return self.inner.values()

    @property
    def seq_len(self) -> int:
        return self.inner.seq_len

    @property
    def n_pages(self) -> int:
        return self.table.n_pages

    @classmethod
    def _inners(cls, caches: list) -> list:
        """The wrapped caches of ``caches``, which must all be paged."""
        inners = [c.inner for c in caches if type(c) is cls]
        if len(inners) != len(caches):
            bad = next(c for c in caches if type(c) is not cls)
            raise _unpoolable(cls, type(bad))
        return inners

    # Own attributes, not the inherited one-segment calls, because
    # perfbench/layertrace.py wraps both by name; each calls the inner
    # class's own one-segment write.
    def prefill_chunk(self, k, v, final=False):
        self.inner.prefill_chunk(k, v, final=final)

    @classmethod
    def append_batch(cls, caches, k_batch, v_batch):
        inners = cls._inners(caches)
        type(inners[0]).append_batch(inners, k_batch, v_batch)

    @classmethod
    def check_write(cls, decode_caches, chunks, geom):
        inners = cls._inners(decode_caches)
        chunk_inners = cls._inners([c for c, _, _ in chunks])
        type((inners or chunk_inners)[0]).check_write(
            inners, [(c, shape, final)
                     for c, (_, shape, final) in zip(chunk_inners, chunks)],
            geom)

    @classmethod
    def write_checked(cls, decode_caches, k_dec, v_dec, chunks):
        inners = [c.inner for c in decode_caches]
        chunks = [(c.inner, k, v, final) for c, k, v, final in chunks]
        first = inners[0] if inners else chunks[0][0]
        type(first).write_checked(inners, k_dec, v_dec, chunks)

    def __getattr__(self, name):
        if name in ("inner", "table"):
            raise AttributeError(name)
        return getattr(self.inner, name)


class PagedLease:
    """One sequence's tenancy in a :class:`BlockPool`.

    ``caches`` holds one :class:`PagedKVCache` per model layer, all
    sharing one :class:`PageTable`.  The prefix-cache protocol is:
    :meth:`match_prefix` once, *before* the prompt's first chunk
    (attaches shared pages and seals them against writes; the engine
    calls it at plan time, not at admission, so pages registered by
    prefills admitted in the same wave can still match), optionally
    :meth:`adopt_prefix` (the prefill then starts after the adopted
    pages instead of recomputing them), then :meth:`register_prefix`
    *after* the last chunk (publishes the freshly written full pages
    with each layer's prefix state).  :meth:`release` returns the slot
    when the request finishes or is preempted; a preempted sequence's
    next lease matches again and resumes from its first unmatched
    page.
    """

    __slots__ = ("pool", "table", "caches", "active", "sealed_tokens",
                 "_matched_pages")

    def __init__(self, pool: BlockPool, table: PageTable):
        self.pool = pool
        self.table = table
        self.caches: list[PagedKVCache] = []
        self.active = True
        self.sealed_tokens = 0
        self._matched_pages = None

    # ------------------------------------------------------------------
    def match_prefix(self, ids: np.ndarray, hashes=None) -> int:
        """Attach the longest cached run of full prompt pages.

        Returns the number of *tokens* sealed (a multiple of
        ``block_tokens``).  Stops at the first miss: content beyond a
        divergent page depends on the divergent tokens, so later pages
        can never legally match.  ``hashes`` passes the prompt's
        :meth:`BlockPool.page_hashes` when the caller has them.
        """
        if self.matched or self.table.blocks:
            raise RuntimeError("match_prefix must run once, before any cache data")
        ids = np.asarray(ids, dtype=np.int64)
        self.pool.prefill_pages_total += -(-ids.size // self.pool.block_tokens)
        matched = 0
        if self.pool.enable_prefix_cache:
            for h in self.pool.page_hashes(ids) if hashes is None else hashes:
                bid = self.pool.lookup(h)
                if bid is None:
                    break
                self.table.append_block(bid)
                matched += 1
        self.sealed_tokens = matched * self.pool.block_tokens
        self._matched_pages = matched
        self.pool.prefill_pages_hit += matched
        self.pool.prefix_hit_tokens += self.sealed_tokens
        return self.sealed_tokens

    @property
    def matched(self) -> bool:
        """Whether :meth:`match_prefix` has run on this lease."""
        return self._matched_pages is not None

    def adopt_prefix(self, n_tokens: int) -> None:
        """Skip the compute of the first ``n_tokens`` sealed tokens.

        Every layer's cache starts ``n_tokens`` in, in the state a
        chunked prefill has after its chunk ending there, taking the
        prefix state the donor registered with the last adopted page
        (:meth:`BlockPool.prefix_state`).  ``n_tokens`` must be a whole
        number of matched pages; 0 is a no-op.
        """
        if not n_tokens:
            return
        bt = self.pool.block_tokens
        if n_tokens % bt or n_tokens > self.sealed_tokens:
            raise ValueError(f"cannot adopt {n_tokens} tokens: not whole "
                             f"pages within the {self.sealed_tokens} sealed")
        bid = self.table.blocks[n_tokens // bt - 1]
        for layer, cache in enumerate(self.caches):
            heads, _, _, d_head = self.pool._slabs[(layer, "k")].shape
            cache.adopt_prefix(n_tokens, heads, d_head,
                               self.pool.prefix_state(layer, bid))

    def register_prefix(self, ids: np.ndarray, hashes=None) -> int:
        """Publish this sequence's freshly written full prompt pages,
        each with every layer's prefix state through its end, then free
        the caches' record of those states.  ``hashes`` is as in
        :meth:`match_prefix`."""
        registered = 0
        if self.pool.enable_prefix_cache:
            bt = self.pool.block_tokens
            hashes = self.pool.page_hashes(ids) if hashes is None else hashes
            for i, h in enumerate(hashes):
                if i < (self._matched_pages or 0):
                    continue           # already shared, donor registered it
                if i >= self.table.n_pages:
                    break              # prefill wrote less than ids (caller bug)
                states = [c.prefix_state((i + 1) * bt) for c in self.caches]
                registered += self.pool.register(h, self.table.blocks[i], states)
        for cache in self.caches:
            cache.drop_prefix_state()
        return registered

    # ------------------------------------------------------------------
    def new_pages_for(self, n_tokens: int) -> int:
        """Pages still missing to back ``n_tokens`` positions."""
        return max(0, -(-n_tokens // self.pool.block_tokens) - self.table.n_pages)

    def fork(self) -> "PagedLease":
        """Clone this sequence, sharing every page copy-on-write.

        The clone gets its own page table (same block ids, ref-count++)
        and per-layer cache objects with copied scalar/accumulator state
        over shared storage — the parallel-sampling/beam primitive.  The
        first divergent write on either side triggers the pool's COW.
        """
        if not self.active:
            raise RuntimeError("cannot fork a released lease")
        table = PageTable(self.pool, blocks=list(self.table.blocks))
        for bid in table.blocks:
            self.pool.incref(bid)
        clone = PagedLease(self.pool, table)
        clone.sealed_tokens = self.sealed_tokens
        clone._matched_pages = self._matched_pages
        for layer, cache in enumerate(self.caches):
            inner = copy.copy(cache.inner)
            if inner._buf is not None:
                inner._buf = inner._buf.clone_for(table)
            # Mutable quantizer state (MANT streaming window stats,
            # staging scales, mid-prefill chunk maxima) must not alias
            # the parent's.
            for attr in ("_acc_sum", "_acc_sqsum", "_acc_max", "_stage_scale",
                         "_chunk_ch_max", "_win_max"):
                val = getattr(inner, attr, None)
                if isinstance(val, (np.ndarray, list)):
                    setattr(inner, attr, val.copy())
            inner._buffer_factory = self.pool._buffer_factory(clone, layer)
            clone.caches.append(PagedKVCache(inner, table))
        self.pool.total_leases += 1
        self.pool.forks += 1
        return clone

    def release(self) -> None:
        """Return every page reference; caches must not be used after."""
        if not self.active:
            raise RuntimeError("lease already released")
        self.active = False
        self.table.release()
        for cache in self.caches:
            cache.drop_prefix_state()
