"""Shared helpers for the serving test suites.

The cancel, fault, and timeout suites all end on the same question: did
the engine give *everything* back?  :func:`assert_storage_baseline` is
that check, factored once — every pool block free (none leaked to a
quarantined or timed-out sequence) and the engine's own :meth:`~repro.serve.engine.GenerationEngine.
check_invariants` clean — so a storage leak fails identically no matter
which suite exposes it.
"""

import numpy as np


def assert_storage_baseline(engine) -> None:
    """Assert the engine holds no request storage and its books balance."""
    assert engine.pool.blocks_in_use == 0, (
        f"{engine.pool.blocks_in_use} pool blocks still referenced "
        "after all requests finished"
    )
    assert engine.pool.blocks_available == engine.pool.num_blocks, (
        f"pool not back to baseline: {engine.pool.blocks_available} of "
        f"{engine.pool.num_blocks} blocks available"
    )
    engine.check_invariants()


def single_stream(model, cache_factory, prompt, n_tokens):
    """The pre-serving greedy loop — the engine-output reference."""
    caches = [cache_factory() for _ in range(model.config.n_layers)]
    logits = model.prefill(prompt, caches)
    out, pos, token = [], len(prompt), int(np.argmax(logits))
    for _ in range(n_tokens):
        out.append(token)
        logits = model.decode_step(token, caches, pos)
        token = int(np.argmax(logits))
        pos += 1
    return out
