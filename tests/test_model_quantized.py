"""Tests for the PTQ harness internals (repro.model.quantized)."""

import numpy as np
import pytest

from repro.core.selection import VarianceSelector
from repro.model.quantized import PTQConfig, build_ptq
from repro.model.transformer import ModelConfig, TransformerLM
from repro.quant.calibration import CalibrationResult
from repro.quant.kvcache import IntKVCache, MantKVCache


def tiny_model(arch="llama"):
    cfg = ModelConfig(vocab_size=48, d_model=32, n_heads=2, n_layers=2,
                      d_ff=48, max_seq=64, arch=arch, seed=3)
    return TransformerLM(cfg)


class TestPTQConfigNames:
    def test_default_name(self):
        assert PTQConfig(method="mant", w_bits=4, a_bits=8).name == "mant-W4A8"

    def test_kv_suffix(self):
        cfg = PTQConfig(method="mant", kv_method="mant", kv_bits=4)
        assert cfg.name.endswith("+KVmant4")

    def test_label_overrides(self):
        assert PTQConfig(label="row 7").name == "row 7"


class TestKVPrefillQdq:
    """``build_ptq(...).kv_quant``, the prefill-style KV quantize of the
    teacher-forced forward: every batch row is written as one final
    prefill chunk into a fresh KV cache, all rows of a layer in one
    pooled ``write_layer`` call."""

    GROUP = 32

    def setup_hook(self, kv_method, rng):
        sel = VarianceSelector(group_size=self.GROUP).fit(
            rng.normal(size=(256, self.GROUP)) * rng.gamma(2.0, size=(256, 1)))
        cfg = PTQConfig(method="mant", w_bits=4, a_bits=8, group_size=self.GROUP,
                        kv_method=kv_method, kv_bits=4)
        setup = build_ptq(tiny_model(), cfg, CalibrationResult(kv_selector=sel))
        return setup.kv_quant, sel

    def assert_matches_per_row_prefill(self, kv_method, rng):
        hook, sel = self.setup_hook(kv_method, rng)
        for t in (32, 70):
            q, k, v = rng.normal(size=(3, 3, 2, t, 16))
            q_out, kq, vq = hook(0, q, k, v)
            assert q_out is q     # attention activations stay 16-bit by default
            for b in range(3):
                cache = (MantKVCache(sel, 4, self.GROUP) if kv_method == "mant"
                         else IntKVCache(4, self.GROUP))
                cache.prefill(k[b], v[b])
                # The caches store float32; the hook returns them widened.
                assert kq[b].tobytes() == np.asarray(cache.keys(), np.float64).tobytes()
                assert vq[b].tobytes() == np.asarray(cache.values(), np.float64).tobytes()

    def test_mant_shapes(self, rng):
        hook, _ = self.setup_hook("mant", rng)
        q, k, v = rng.normal(size=(3, 2, 2, 70, 16))
        _, kq, vq = hook(0, q, k, v)
        assert kq.shape == k.shape and vq.shape == v.shape

    def test_mant_tail_is_int8_staged(self, rng):
        # 70 tokens with window 32: 64 finalized at MANT4, 6 staged at INT8.
        hook, _ = self.setup_hook("mant", rng)
        q, k, v = rng.normal(size=(3, 1, 1, 70, 16))
        _, _, vq = hook(0, q, k, v)
        tail_err = np.abs(vq[..., 64:, :] - v[..., 64:, :])
        body_err = np.abs(vq[..., :64, :] - v[..., :64, :])
        assert tail_err.mean() < body_err.mean()  # INT8 tail beats MANT4 body

    def test_int_kv_shapes(self, rng):
        hook, _ = self.setup_hook("int", rng)
        q, k, v = rng.normal(size=(3, 2, 2, 20, 16))
        _, kq, vq = hook(0, q, k, v)
        assert kq.shape == k.shape
        assert np.all(np.isfinite(vq))

    def test_mant_matches_cache_semantics(self, rng):
        self.assert_matches_per_row_prefill("mant", rng)

    def test_int_matches_cache_semantics(self, rng):
        self.assert_matches_per_row_prefill("int", rng)

    @pytest.mark.parametrize("kv_method, cls", [("mant", MantKVCache),
                                                ("int", IntKVCache)])
    def test_one_write_layer_per_call(self, kv_method, cls, rng, monkeypatch):
        hook, _ = self.setup_hook(kv_method, rng)
        calls = []
        write = cls.write_layer

        def counting(decode_caches, k_dec, v_dec, chunks):
            calls.append(len(chunks))
            return write(decode_caches, k_dec, v_dec, chunks)

        monkeypatch.setattr(cls, "write_layer", counting)
        hook(0, *rng.normal(size=(3, 3, 2, 40, 16)))
        assert calls == [3]


class TestBuildPtqPerArch:
    @pytest.mark.parametrize("arch", ["llama", "opt"])
    @pytest.mark.parametrize("method", ["mant", "int", "ant", "olive", "tender"])
    def test_forward_runs(self, arch, method, rng):
        model = tiny_model(arch)
        cfg = PTQConfig(method=method, w_bits=4, a_bits=8, group_size=16)
        setup = build_ptq(model, cfg, None)
        ids = rng.integers(0, 48, size=(2, 10))
        logits = model.forward_logits(ids, weights=setup.weights,
                                      act_quant=setup.act_quant)
        assert np.all(np.isfinite(logits))

    def test_fp16_config_is_identity(self, rng):
        model = tiny_model()
        setup = build_ptq(model, PTQConfig(method="fp16", w_bits=16, a_bits=16), None)
        assert setup.act_quant is None and setup.kv_quant is None
        name = model.config.linear_names()[0]
        assert np.array_equal(setup.weights[name], model.params[name])

    def test_kv_hook_preserves_shapes(self, rng):
        model = tiny_model()
        cfg = PTQConfig(method="mant", w_bits=4, a_bits=8, group_size=16,
                        kv_method="mant", kv_bits=4, attn_act_bits=8)
        setup = build_ptq(model, cfg, None)
        ids = rng.integers(0, 48, size=(1, 34))
        logits = model.forward_logits(ids, weights=setup.weights,
                                      act_quant=setup.act_quant,
                                      kv_quant=setup.kv_quant)
        assert logits.shape == (1, 34, 48)

    def test_unknown_method_raises(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            build_ptq(model, PTQConfig(method="quux"), None)
