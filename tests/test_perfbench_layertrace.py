"""The benchmark's traced run (``perfbench/run.py --trace 1``) against
the current library.

``perfbench/layertrace.py`` wraps serving-stack attributes by name for
the length of a ``with`` block, so renaming or deleting one of them
breaks the traced run with a ``KeyError``.  This drives a small chunked
MANT engine inside that block, checks that the layer spans the
benchmark reports recorded calls, and that every patched attribute is
the original object again afterwards.
"""

import os
import sys

import numpy as np
import pytest

from repro.core.codec import MantCodec
from repro.core.selection import VarianceSelector
from repro.model import layers
from repro.model.transformer import TransformerLM
from repro.quant.kvcache import MantKVCache
from repro.quant.quantizer import GroupQuantizer
from repro.sampling import Sampler
from repro.serve import GenerationEngine, GenerationRequest, ServeConfig
from repro.serve.paging import PagedKVCache, PagedView

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

# Everything layertrace may patch lives on one of these.
OWNERS = (GenerationEngine, TransformerLM, layers, GroupQuantizer, PagedKVCache,
          VarianceSelector, MantCodec, PagedView, Sampler)


@pytest.fixture
def layertrace(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layertrace as module
    yield module
    sys.modules.pop("layertrace", None)


def test_traced_chunked_mant_engine(unit_model, layertrace):
    model, _ = unit_model
    before = [dict(vars(owner)) for owner in OWNERS]
    rng = np.random.default_rng(0)
    requests = [GenerationRequest(f"r{i}", rng.integers(0, model.config.vocab_size,
                                                        size=n), max_tokens=4)
                for i, n in enumerate((20, 70, 45))]
    rec = layertrace.SpanRecorder()
    rec.new_phase()
    with layertrace.instrumented(rec):
        engine = GenerationEngine(
            model, lambda: MantKVCache(group_size=32, window=32),
            ServeConfig.chunked(max_batch_size=4, observe=False))
        results = engine.generate(requests)
    assert all(len(r.tokens) == 4 for r in results.values())
    for name in ("serve.tick", "model.forward_mixed", "model.attn",
                 "model.linear", "paging.gather"):
        assert rec.calls[name] > 0, name
    for owner, attrs in zip(OWNERS, before):
        after = vars(owner)
        assert after.keys() == attrs.keys()
        for attr, obj in attrs.items():
            assert after[attr] is obj, f"{getattr(owner, '__name__', owner)}.{attr}"
