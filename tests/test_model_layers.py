"""Gradient checks and behaviour tests for every NN layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.model import layers as L
from repro.serve.paging import BlockPool, PagedView, PageTable


def num_grad(f, x, eps=1e-5):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        fp = f()
        x[i] = orig - eps
        fm = f()
        x[i] = orig
        g[i] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


class TestLinear:
    def test_forward(self, rng):
        x = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(5, 4))
        y, _ = L.linear_fwd(x, w)
        assert y.shape == (2, 3, 5)
        assert np.allclose(y, x @ w.T)

    def test_backward(self, rng):
        x = rng.normal(size=(2, 4))
        w = rng.normal(size=(3, 4))
        y, cache = L.linear_fwd(x, w)
        dy = rng.normal(size=y.shape)
        dx, dw = L.linear_bwd(dy, cache)

        def loss():
            return float(np.sum(L.linear_fwd(x, w)[0] * dy))

        assert np.allclose(dx, num_grad(loss, x), atol=1e-5)
        assert np.allclose(dw, num_grad(loss, w), atol=1e-5)


class TestNorms:
    def test_rmsnorm_grad(self, rng):
        x = rng.normal(size=(2, 3, 6))
        g = rng.normal(size=6) + 1.0
        y, cache = L.rmsnorm_fwd(x, g)
        dy = rng.normal(size=y.shape)
        dx, dg = L.rmsnorm_bwd(dy, cache)

        def loss():
            return float(np.sum(L.rmsnorm_fwd(x, g)[0] * dy))

        assert np.allclose(dx, num_grad(loss, x), atol=1e-5)
        assert np.allclose(dg, num_grad(loss, g), atol=1e-5)

    def test_layernorm_grad(self, rng):
        x = rng.normal(size=(2, 4))
        g = rng.normal(size=4) + 1.0
        b = rng.normal(size=4)
        y, cache = L.layernorm_fwd(x, g, b)
        dy = rng.normal(size=y.shape)
        dx, dg, db = L.layernorm_bwd(dy, cache)

        def loss():
            return float(np.sum(L.layernorm_fwd(x, g, b)[0] * dy))

        assert np.allclose(dx, num_grad(loss, x), atol=1e-5)
        assert np.allclose(dg, num_grad(loss, g), atol=1e-5)
        assert np.allclose(db, num_grad(loss, b), atol=1e-5)

    def test_rmsnorm_unit_rms(self, rng):
        x = rng.normal(size=(8, 16)) * 5
        y, _ = L.rmsnorm_fwd(x, np.ones(16))
        rms = np.sqrt(np.mean(y * y, axis=-1))
        assert np.allclose(rms, 1.0, atol=1e-3)


class TestRope:
    def test_norm_preserving(self, rng):
        cos, sin = L.rope_tables(8, 32)
        x = rng.normal(size=(2, 5, 8))
        y = L.apply_rope(x, cos, sin)
        assert np.allclose(np.linalg.norm(y, axis=-1), np.linalg.norm(x, axis=-1))

    def test_position_zero_is_identity(self, rng):
        cos, sin = L.rope_tables(8, 32)
        x = rng.normal(size=(1, 1, 8))
        assert np.allclose(L.apply_rope(x, cos, sin), x)

    def test_offset_consistency(self, rng):
        # Rotating token t with offset o == rotating at position o + t.
        cos, sin = L.rope_tables(8, 32)
        x = rng.normal(size=(1, 4, 8))
        full = L.apply_rope(x, cos, sin)
        tail = L.apply_rope(x[:, 2:], cos, sin, offset=2)
        assert np.allclose(full[:, 2:], tail)

    def test_relative_property(self, rng):
        # q.k depends only on relative distance — the RoPE property.
        cos, sin = L.rope_tables(16, 64)
        q = rng.normal(size=16)
        k = rng.normal(size=16)

        def score(i, j):
            qr = L.apply_rope(q[None, None], cos, sin, offset=i)[0, 0]
            kr = L.apply_rope(k[None, None], cos, sin, offset=j)[0, 0]
            return float(qr @ kr)

        assert score(3, 1) == pytest.approx(score(10, 8), abs=1e-9)

    def test_backward_is_inverse_rotation(self, rng):
        cos, sin = L.rope_tables(8, 32)
        x = rng.normal(size=(2, 5, 8))
        y, cache = L.rope_fwd(x, cos, sin)
        dy = rng.normal(size=y.shape)
        dx = L.rope_bwd(dy, cache)
        # <dx, x> must equal <dy, y> for a rotation (orthogonality).
        assert np.sum(dx * x) == pytest.approx(np.sum(dy * y))


class TestActivationsAndAttention:
    def test_silu_grad(self, rng):
        x = rng.normal(size=(3, 4))
        y, cache = L.silu_fwd(x)
        dy = rng.normal(size=y.shape)
        dx = L.silu_bwd(dy, cache)

        def loss():
            return float(np.sum(L.silu_fwd(x)[0] * dy))

        assert np.allclose(dx, num_grad(loss, x), atol=1e-5)

    def test_relu(self, rng):
        x = np.array([-1.0, 0.0, 2.0])
        y, cache = L.relu_fwd(x)
        assert list(y) == [0, 0, 2]
        assert list(L.relu_bwd(np.ones(3), cache)) == [0, 0, 1]

    def test_attention_causality(self, rng):
        q = rng.normal(size=(1, 1, 4, 8))
        k = rng.normal(size=(1, 1, 4, 8))
        v = rng.normal(size=(1, 1, 4, 8))
        out1, _ = L.causal_attention_fwd(q, k, v)
        # Changing the future must not change earlier outputs.
        k2, v2 = k.copy(), v.copy()
        k2[..., 3, :] += 100
        v2[..., 3, :] += 100
        out2, _ = L.causal_attention_fwd(q, k2, v2)
        assert np.allclose(out1[..., :3, :], out2[..., :3, :])

    def test_attention_grad(self, rng):
        q = rng.normal(size=(1, 2, 3, 4))
        k = rng.normal(size=(1, 2, 3, 4))
        v = rng.normal(size=(1, 2, 3, 4))
        out, cache = L.causal_attention_fwd(q, k, v)
        dout = rng.normal(size=out.shape)
        dq, dk, dv = L.causal_attention_bwd(dout, cache)

        def loss():
            return float(np.sum(L.causal_attention_fwd(q, k, v)[0] * dout))

        assert np.allclose(dq, num_grad(loss, q), atol=1e-5)
        assert np.allclose(dk, num_grad(loss, k), atol=1e-5)
        assert np.allclose(dv, num_grad(loss, v), atol=1e-5)

    def test_softmax_rows_sum_to_one(self, rng):
        p = L.softmax(rng.normal(size=(4, 7)))
        assert np.allclose(p.sum(axis=-1), 1.0)


class TestCrossEntropy:
    def test_uniform_logits_log_v(self):
        logits = np.zeros((1, 2, 10))
        targets = np.array([[3, 7]])
        loss, _ = L.cross_entropy_fwd(logits, targets)
        assert loss == pytest.approx(np.log(10))

    def test_gradient(self, rng):
        logits = rng.normal(size=(2, 3, 5))
        targets = rng.integers(0, 5, size=(2, 3))
        _, cache = L.cross_entropy_fwd(logits, targets)
        dlogits = L.cross_entropy_bwd(cache)

        def loss():
            return L.cross_entropy_fwd(logits, targets)[0]

        assert np.allclose(dlogits, num_grad(loss, logits), atol=1e-5)


# ----------------------------------------------------------------------
# cached_attention_fwd against a fixed reference
# ----------------------------------------------------------------------
def _masked_reference(q, keys, values, offset=0):
    """``cached_attention_fwd`` as it was before the mask-free decode
    path: every call builds the causal mask and softmaxes the masked
    scores (``softmax`` inlined, so the reference cannot move with the
    library)."""
    d_head = q.shape[-1]
    t = q.shape[-2]
    s = keys.shape[-2]
    scores = q @ np.swapaxes(keys, -1, -2) / np.sqrt(d_head)
    qpos = offset + np.arange(t)[:, None]
    kpos = np.arange(s)[None, :]
    scores = np.where(kpos <= qpos, scores, -np.inf)
    z = scores - np.max(scores, axis=-1, keepdims=True)
    e = np.exp(z)
    probs = e / np.sum(e, axis=-1, keepdims=True)
    return probs @ values


def _paged(arr, layout, block_tokens, rng):
    """``arr (heads, S, d_head)`` behind a :class:`PagedView` whose pages
    are consecutive block ids (``"contiguous"``) or shuffled ones
    (``"scattered"``)."""
    heads, s, d_head = arr.shape
    n_pages = -(-s // block_tokens)
    num_blocks = n_pages + 3
    pool = BlockPool(n_layers=1, block_tokens=block_tokens, num_blocks=num_blocks)
    slab = rng.normal(size=(heads, num_blocks, block_tokens, d_head))
    if layout == "contiguous":
        blocks = list(range(2, 2 + n_pages))
    else:
        blocks = [int(b) for b in rng.permutation(num_blocks)[:n_pages]]
        if n_pages > 1 and blocks == sorted(blocks):
            blocks.reverse()
    for page, bid in enumerate(blocks):
        chunk = arr[:, page * block_tokens:(page + 1) * block_tokens]
        slab[:, bid, :chunk.shape[1]] = chunk
    table = PageTable(pool, blocks=blocks)
    assert table.contiguous == (layout == "contiguous" or n_pages == 1)
    return PagedView(slab, slab.reshape(heads, -1, d_head), table, s)


@st.composite
def _attention_cases(draw):
    """(q, keys, values, offset, layout, block_tokens) covering decode
    rows that see every key, decode rows with later keys masked, chunk
    rows, and chunks with masked trailing keys."""
    heads = draw(st.integers(1, 4))
    d_head = draw(st.sampled_from([1, 4, 32]))
    t = draw(st.integers(1, 6))
    offset = draw(st.integers(0, 90))
    s = max(1, offset + t + draw(st.integers(-3, 4)))
    layout = draw(st.sampled_from(["array", "contiguous", "scattered"]))
    block_tokens = draw(st.sampled_from([1, 3, 8, 32]))
    seed = draw(st.integers(0, 2**32 - 1))
    return heads, d_head, t, offset, s, layout, block_tokens, seed


def _check_attention(case):
    heads, d_head, t, offset, s, layout, block_tokens, seed = case
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(heads, t, d_head))
    keys, values = rng.normal(size=(2, heads, s, d_head)) * 3.0
    want = _masked_reference(q, keys, values, offset)
    if layout != "array":
        keys = _paged(keys, layout, block_tokens, rng)
        values = _paged(values, layout, block_tokens, rng)
    got = L.cached_attention_fwd(q, keys, values, offset=offset)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# The named cases: decode row seeing every key (the mask-free path),
# decode row with later keys that must stay masked, chunk rows, and a
# chunk whose trailing keys are masked; each on arrays and on
# contiguous and scattered pages.
_NAMED = [(1, 79, 80), (1, 0, 1), (1, 40, 45), (1, 0, 9), (5, 30, 35), (4, 10, 17)]


@pytest.mark.parametrize("layout", ["array", "contiguous", "scattered"])
@pytest.mark.parametrize("t, offset, s", _NAMED)
def test_cached_attention_named_cases_match_masked_reference(layout, t, offset, s):
    _check_attention((2, 32, t, offset, s, layout, 8, t * 1000 + offset))


@settings(max_examples=150, deadline=None)
@given(_attention_cases())
def test_cached_attention_bitwise_equals_masked_reference(case):
    """Bitwise equal to the always-masked formula over heads, context
    lengths, query counts and offsets, on arrays and paged views."""
    _check_attention(case)
