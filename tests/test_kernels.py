"""Kernel contracts: brute-force float64 oracles, stability, determinism.

Attention, its softmax and the flat matrix products are checked through the
kernels and helpers the transformer block itself calls.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccoe import kernels
from ccoe.errors import ConfigError
from ccoe.kernels import (
    attention,
    attention_bwd,
    causal_mask,
    causal_tail,
    gelu_from_tanh,
    gelu_fwd,
    gelu_grad_from_tanh,
    gelu_tanh,
    layer_norm,
    layer_norm_bwd,
    layer_norm_fwd,
    layer_norm_out,
    segment_mask,
    tiles_queries,
)
from ccoe.net import _mm_back, sum_rows_by
from ccoe.rng import Rng


def matmul(a, b):
    """a @ b as the backward pass forms a weight gradient, x^T dy over
    token-major rows, with x = a^T and dy = b."""
    return _mm_back(a.T, np.zeros((a.shape[0], b.shape[1]), a.dtype), b)[1]


def causal_attention(q, k, v, n_heads):
    """The block's attention over one [t, d] sequence with its causal mask."""
    return attention(q, k, v, 1, n_heads, causal_mask(len(q)))[0]


SOFTMAX_HD = 16  # the attention scale 1/4 is exact, so q.k equals the logits


def softmax_rows(x):
    """Row softmax read off the block's attention: one single-head sequence
    per row, whose last query sees every key with q.k equal to the row's
    logits, and values that are the identity, so the context is the weights."""
    rows, n = x.shape
    q = np.zeros((rows, n, SOFTMAX_HD), x.dtype)
    q[:, -1, 0] = 1.0
    k = np.zeros((rows, n, SOFTMAX_HD), x.dtype)
    k[:, :, 0] = 4.0 * x
    v = np.broadcast_to(np.eye(n, SOFTMAX_HD, dtype=x.dtype), (rows, n, SOFTMAX_HD))
    flat = (a.reshape(rows * n, SOFTMAX_HD) for a in (q, k, v))
    ctx, _ = attention(*flat, rows, 1, causal_mask(n))
    return ctx.reshape(rows, n, SOFTMAX_HD)[:, -1, :n]


# --- float64 reference oracles (independent of the implementation path) -----


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += float(a[i, p]) * float(b[p, j])
            out[i, j] = acc
    return out


def softmax_oracle(row):
    exps = [math.exp(float(v)) for v in row]
    s = sum(exps)
    return [e / s for e in exps]


def layer_norm_oracle(row, gain, bias, eps):
    xs = [float(v) for v in row]
    mu = sum(xs) / len(xs)
    var = sum((v - mu) ** 2 for v in xs) / len(xs)
    return [
        (v - mu) / math.sqrt(var + eps) * float(g) + float(b)
        for v, g, b in zip(xs, gain, bias)
    ]


def attention_oracle(q, k, v, n_heads):
    t, d = q.shape
    hd = d // n_heads
    out = np.zeros((t, d), dtype=np.float64)
    for h in range(n_heads):
        sl = slice(h * hd, (h + 1) * hd)
        for i in range(t):
            scores = [
                float(np.dot(q[i, sl].astype(np.float64), k[j, sl].astype(np.float64)))
                / math.sqrt(hd)
                for j in range(i + 1)
            ]
            probs = softmax_oracle(scores)
            for j in range(i + 1):
                out[i, sl] += probs[j] * v[j, sl].astype(np.float64)
    return out


# --- matmul ------------------------------------------------------------------


def test_matmul_identity():
    a = np.array([[1, 2], [3, 4]], dtype=np.float32)
    eye = np.eye(2, dtype=np.float32)
    assert np.array_equal(matmul(eye, a), a)


def test_matmul_annihilator():
    eye = np.eye(2, dtype=np.float32)
    z = np.zeros((2, 2), dtype=np.float32)
    assert np.array_equal(matmul(eye, z), z)


def test_matmul_against_oracle_seed7():
    rng = Rng(7)
    a = rng.normal((3, 4))
    b = rng.normal((4, 2))
    assert np.abs(matmul(a, b) - matmul_oracle(a, b)).max() < 1e-5


@pytest.mark.parametrize("seed", range(100))
def test_matmul_oracle_sweep(seed):
    rng = Rng(seed)
    m, k, n = (int(x) for x in rng.integers(1, 7, size=3))
    a, b = rng.normal((m, k), 2.0), rng.normal((k, n), 2.0)
    assert np.abs(matmul(a, b) - matmul_oracle(a, b)).max() < 1e-5


# --- softmax -----------------------------------------------------------------


def test_softmax_symmetry():
    out = softmax_rows(np.array([[0.0, 0.0]], dtype=np.float32))
    assert np.allclose(out, [[0.5, 0.5]])


def test_softmax_extreme_logits_no_overflow():
    # a huge q.k: the max subtraction keeps exp from overflowing
    out = softmax_rows(np.array([[1000.0, 0.0]], dtype=np.float32))
    assert out[0, 0] > 0.999999
    assert out[0, 1] < 1e-6


def test_softmax_frozen_oracle_values():
    # softmax_oracle([1, 2, 3]) computed in float64
    expected = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]
    out = softmax_rows(np.array([[1.0, 2.0, 3.0]], dtype=np.float32))
    assert np.abs(out[0] - np.array(expected)).max() < 1e-6
    assert softmax_oracle([1.0, 2.0, 3.0]) == pytest.approx(expected)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
def test_softmax_rows_sum_to_one(row):
    out = softmax_rows(np.array([row], dtype=np.float32))
    assert abs(float(out.sum()) - 1.0) < 1e-6


@pytest.mark.parametrize("seed", range(100))
def test_softmax_oracle_sweep(seed):
    rng = Rng(1000 + seed)
    row = rng.normal((5,), 3.0)
    got = softmax_rows(row[None])[0]
    want = softmax_oracle(row)
    assert np.abs(got - np.array(want)).max() < 1e-6


# --- layer norm ----------------------------------------------------------------


def test_layer_norm_constant_row_collapses_to_zero():
    x = np.full((1, 3), 5.0, dtype=np.float32)
    out = layer_norm(x, np.ones(3, np.float32), np.zeros(3, np.float32))
    assert np.allclose(out, 0.0)


def test_layer_norm_zero_gain_returns_bias():
    rng = Rng(3)
    x = rng.normal((2, 8))
    bias = rng.normal((8,))
    out = layer_norm(x, np.zeros(8, np.float32), bias)
    assert np.array_equal(out, np.broadcast_to(bias, (2, 8)))


def test_layer_norm_oracle_seed11():
    rng = Rng(11)
    x = rng.normal((1, 16), 2.0)
    g = rng.normal((16,))
    b = rng.normal((16,))
    want = layer_norm_oracle(x[0], g, b, 1e-5)
    got = layer_norm(x, g, b, 1e-5)[0]
    assert np.abs(got - np.array(want)).max() < 1e-5


def test_layer_norm_standardizes():
    rng = Rng(12)
    x = rng.normal((4, 32), 3.0)
    out = layer_norm(x, np.ones(32, np.float32), np.zeros(32, np.float32))
    assert np.abs(out.mean(axis=-1)).max() < 1e-5
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-3


def test_layer_norm_rejects_nonpositive_eps():
    x = np.zeros((1, 4), np.float32)
    with pytest.raises(ConfigError):
        layer_norm(x, np.ones(4, np.float32), np.zeros(4, np.float32), eps=0.0)


@pytest.mark.parametrize("seed", range(100))
def test_layer_norm_oracle_sweep(seed):
    rng = Rng(2000 + seed)
    x = rng.normal((2, 8), 2.0)
    g, b = rng.normal((8,)), rng.normal((8,))
    got = layer_norm(x, g, b, 1e-5)
    want = np.array([layer_norm_oracle(r, g, b, 1e-5) for r in x])
    assert np.abs(got - want).max() < 1e-5


@pytest.mark.parametrize("shape", [(64,), (3, 17, 64)])
def test_layer_norm_fwd_matches_ndarray_mean_bit_for_bit(shape):
    # the model's layer norm (forward_batch, prefill and decode_step) reduces
    # with np.add.reduce; it must equal the ndarray.mean form exactly
    rng = Rng(13)
    x = rng.normal(shape, 3.0) + 1.0
    g, b = rng.normal((64,)), rng.normal((64,))
    got, (xh, inv, _) = layer_norm_fwd(x, g, b)
    xc = x - x.mean(axis=-1, keepdims=True)
    want_inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
    assert x.dtype == got.dtype == np.float32
    assert np.array_equal(inv, want_inv)
    assert np.array_equal(xh, xc * want_inv)
    assert np.array_equal(got, xc * want_inv * g + b)
    assert np.array_equal(got, layer_norm(x, g, b))


# --- causal attention -----------------------------------------------------------


def test_attention_single_position_returns_v():
    rng = Rng(5)
    q, k, v = rng.normal((1, 4)), rng.normal((1, 4)), rng.normal((1, 4))
    assert np.array_equal(causal_attention(q, k, v, 2), v)


def test_attention_zero_logits_uniform_average():
    rng = Rng(6)
    t, d = 5, 4
    z = np.zeros((t, d), dtype=np.float32)
    v = rng.normal((t, d))
    out = causal_attention(z, z, v, 1)
    for i in range(t):
        assert np.abs(out[i] - v[: i + 1].mean(axis=0)).max() < 1e-6


def test_attention_oracle_seed13():
    rng = Rng(13)
    q, k, v = rng.normal((3, 4)), rng.normal((3, 4)), rng.normal((3, 4))
    got = causal_attention(q, k, v, 1)
    want = attention_oracle(q, k, v, 1)
    assert np.abs(got - want).max() < 1e-5


@pytest.mark.parametrize("seed", range(100))
def test_attention_oracle_sweep(seed):
    rng = Rng(3000 + seed)
    t = int(rng.integers(1, 6))
    heads = int(rng.choice([1, 2]))
    d = 4 * heads
    q, k, v = rng.normal((t, d)), rng.normal((t, d)), rng.normal((t, d))
    got = causal_attention(q, k, v, heads)
    want = attention_oracle(q, k, v, heads)
    assert np.abs(got - want).max() < 1e-5


def test_attention_causality_perturbation():
    # changing row j leaves rows < j bit-identical
    rng = Rng(21)
    t, d = 6, 8
    q, k, v = rng.normal((t, d)), rng.normal((t, d)), rng.normal((t, d))
    base = causal_attention(q, k, v, 2)
    for j in (2, 4):
        q2, k2, v2 = q.copy(), k.copy(), v.copy()
        q2[j] += 1.0
        k2[j] -= 1.0
        v2[j] *= 2.0
        out = causal_attention(q2, k2, v2, 2)
        assert np.array_equal(out[:j], base[:j])
        assert not np.array_equal(out[j:], base[j:])


def _float64_rows(rng, rows, d):
    return tuple(rng.normal((rows, d), 2.0).astype(np.float64) for _ in range(3))


@pytest.mark.parametrize("case", ["causal", "segment", "none", "lone_row"])
def test_attention_deferred_normalisation_matches_kept_weights(case):
    # a pass without a tape divides the context by the weights' row sums
    # instead of normalising the weights; both forms agree
    rng = Rng(31)
    b, t, heads, d = 2, 9, 2, 8
    q, k, v = _float64_rows(rng, b * t, d)
    future = None
    if case == "causal":
        b, q, k, v = 1, q[:t], k[:t], v[:t]
        future = causal_mask(t)
    elif case == "segment":
        future = segment_mask(np.array([[0, 1, 2, 0, 1, 2, 3, 0, 1], [0, 1, 2, 3, 4, 0, 1, 0, 0]]))
    elif case == "lone_row":
        b, q, k, v = 1, q[0], k[:t], v[:t]  # one query row [d] over t keys, as in a decode step
    kept, weights = attention(q, k, v, b, heads, future)
    deferred, dropped = attention(q, k, v, b, heads, future, keep_weights=False)
    assert dropped is None
    assert np.abs(weights.sum(axis=-1) - 1.0).max() < 1e-12
    assert deferred.shape == kept.shape == q.shape
    assert np.abs(deferred - kept).max() < 1e-12


@pytest.mark.parametrize("t,s", [(1, 1), (1, 11), (4, 11), (11, 11)])
def test_attention_keys_major_matches_token_major_keys(t, s):
    # the KV cache hands attention its keys as [heads, head_dim, s]; the t
    # queries sit at the last t of the s positions
    rng = Rng(32)
    heads, d = 2, 8
    q, k, v = _float64_rows(rng, s, d)
    oracle = attention_oracle(q, k, v, heads)[s - t:]
    q = q[s - t:] if t > 1 else q[-1]  # a lone query row is [d]
    keys_major = np.ascontiguousarray(k.T).reshape(heads, -1, s)
    future = causal_mask(t, s - t)
    for keep in (True, False):
        want = attention(q, k, v, 1, heads, future, keep_weights=keep)[0]
        got = attention(q, keys_major, v, 1, heads, future, keep_weights=keep)[0]
        assert np.abs(got - want).max() < 1e-12
        assert np.abs(got.reshape(t, d) - oracle).max() < 1e-10


@pytest.mark.parametrize("t", [1, 4, 11])
def test_attention_on_cache_layouts_matches_token_major_rows(t):
    # the KV cache hands attention keys-major keys and a heads-major
    # [heads, s, head_dim] view of its token-major value rows
    rng = Rng(33)
    heads, d, s = 2, 8, 11
    q, k, v = _float64_rows(rng, s, d)
    q = q[s - t:] if t > 1 else q[-1]
    keys_major = np.ascontiguousarray(k.T).reshape(heads, -1, s)
    values = v.reshape(s, heads, -1).transpose(1, 0, 2)
    future = causal_mask(t, s - t)
    for keep in (True, False):
        want, want_w = attention(q, k, v, 1, heads, future, keep_weights=keep)
        got, got_w = attention(q, keys_major, values, 1, heads, future, keep_weights=keep)
        assert got.shape == q.shape
        assert np.abs(got - want).max() < 1e-12
        if keep:
            assert got_w.shape == want_w.shape == (1, heads, t, s)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("start", [0, 70])
@pytest.mark.parametrize("t", [129, 130, 193, 256])
def test_tiled_attention_equals_the_one_tile_path_bit_for_bit(monkeypatch, t, start, dtype):
    # t queries at positions start..start+t-1 of one sequence, in both key
    # and value layouts; 129 and 193 are the lengths where tiles a fixed 64
    # wide would leave a one-row last tile
    rng = Rng(34)
    heads, d, s = 4, 64, start + t
    q, k, v = (rng.normal((n, d), 2.0).astype(dtype) for n in (t, s, s))
    layouts = ((k, v), (np.ascontiguousarray(k.T).reshape(heads, -1, s),
                        v.reshape(s, heads, -1).transpose(1, 0, 2)))
    assert tiles_queries(1, t, keep_weights=False)
    for keys, values in layouts:
        tiled, weights = attention(q, keys, values, 1, heads, causal=True, keep_weights=False)
        masked = attention(q, keys, values, 1, heads, causal_mask(t, start), keep_weights=False)[0]
        with monkeypatch.context() as m:
            m.setattr(kernels, "TILE", 512)  # one tile
            one = attention(q, keys, values, 1, heads, causal=True, keep_weights=False)[0]
        assert weights is None and tiled.dtype == dtype
        assert np.array_equal(tiled, one)
        assert np.array_equal(tiled, masked)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("t,start", [(2, 0), (5, 0), (5, 6), (40, 90)])
def test_causal_tail_masks_like_causal_mask_at_any_start(t, start, dtype):
    # the tail covers the last t keys only; the queries see every earlier key
    rng = Rng(35)
    heads, d, s = 4, 32, start + t
    q, k, v = (rng.normal((n, d), 2.0).astype(dtype) for n in (t, s, s))
    tail = causal_tail(t, 128)
    assert not tail.flags.writeable and np.array_equal(tail, causal_mask(t))
    for keep in (True, False):
        want = attention(q, k, v, 1, heads, causal_mask(t, start), keep_weights=keep)
        got = attention(q, k, v, 1, heads, tail, keep_weights=keep)
        assert all(np.array_equal(a, b) for a, b in zip(got, want) if a is not None)
    assert causal_tail(1, 128) is None
    with pytest.raises(ConfigError):
        causal_tail(129, 128)


def test_only_long_untaped_passes_over_one_sequence_tile():
    assert tiles_queries(1, 129, keep_weights=False)
    assert not tiles_queries(1, 128, keep_weights=False)
    assert not tiles_queries(1, 200, keep_weights=True)  # a taped pass keeps its weights
    assert not tiles_queries(2, 200, keep_weights=False)


ATTN_BWD_CASES = {
    # b, query rows, keys, heads, mask, keys-major keys
    "causal": (1, 7, 7, 2, causal_mask(7), False),
    "segment": (2, 6, 6, 2, segment_mask(np.array([[0, 1, 2, 0, 1, 0], [0, 1, 2, 3, 0, 1]])), False),
    "keys_major": (1, 3, 7, 2, causal_mask(3, 4), True),
    "lone_row": (1, 1, 5, 2, None, False),
}


@pytest.mark.parametrize("case", sorted(ATTN_BWD_CASES))
def test_attention_bwd_matches_central_differences(case):
    # loss = sum(ctx * r); the gradients of q, k and v against central
    # differences in float64, for every entry
    b, t, s, heads, future, keys_major = ATTN_BWD_CASES[case]
    d = 4 * heads
    rng = Rng(41)
    q = rng.normal((b * t, d), 1.5).astype(np.float64)
    k = rng.normal((b * s, d), 1.5).astype(np.float64)
    v = rng.normal((b * s, d)).astype(np.float64)
    if t == 1:
        q = q[0]  # a lone query row is [d]
    if keys_major:
        k = np.ascontiguousarray(k.T).reshape(heads, -1, s)
    r = rng.normal(q.shape).astype(np.float64)

    def loss(q, k, v):
        return float((attention(q, k, v, b, heads, future)[0] * r).sum())

    ctx, probs = attention(q, k, v, b, heads, future)
    grads = attention_bwd(r, ctx, q, k, v, probs, heads)
    h = 1e-6
    for i, (x, g) in enumerate(zip((q, k, v), grads)):
        assert g.shape == x.shape
        fd = np.empty_like(x)
        for j in np.ndindex(x.shape):
            args = [q, k, v]
            up, down = x.copy(), x.copy()
            up[j] += h
            down[j] -= h
            args[i] = up
            hi = loss(*args)
            args[i] = down
            fd[j] = (hi - loss(*args)) / (2 * h)
        assert np.abs(g - fd).max() < 1e-7, ("q", "k", "v")[i]


def _layer_norm_bwd_by_reductions(dy, cache):
    """The layer-norm backward as row and column reductions."""
    xh, inv, g = cache
    n = xh.shape[-1]
    dxh = dy * g
    dg = (dy * xh).reshape(-1, n).sum(axis=0)
    db = dy.reshape(-1, n).sum(axis=0)
    m1 = dxh.mean(axis=-1, keepdims=True)
    m2 = (dxh * xh).mean(axis=-1, keepdims=True)
    return (dxh - m1 - xh * m2) * inv, dg, db


@pytest.mark.parametrize("shape", [(64,), (3, 17, 64)])
def test_layer_norm_bwd_matches_reductions(shape):
    rng = Rng(14)
    x = rng.normal(shape, 3.0).astype(np.float64) + 1.0
    g, b = rng.normal((64,)).astype(np.float64), rng.normal((64,)).astype(np.float64)
    dy = rng.normal(shape).astype(np.float64)
    cache = layer_norm_fwd(x, g, b)[1]
    for got, want in zip(layer_norm_bwd(dy, cache), _layer_norm_bwd_by_reductions(dy, cache)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_bwd_of_a_frozen_norm_gives_the_same_dx(dtype):
    rng = Rng(16)
    x = rng.normal((3, 17, 64), 3.0).astype(dtype)
    g, b = rng.normal((64,)).astype(dtype), rng.normal((64,)).astype(dtype)
    dy = rng.normal(x.shape).astype(dtype)
    cache = layer_norm_fwd(x, g, b)[1]
    dx, dg, db = layer_norm_bwd(dy, cache)
    frozen_dx, no_dg, no_db = layer_norm_bwd(dy, cache, need_dparams=False)
    assert no_dg is None and no_db is None and dg is not None and db is not None
    assert np.array_equal(frozen_dx, dx)


@pytest.mark.parametrize("n", [9, 260])
def test_sum_rows_by_matches_add_at(n):
    # both groupings: the one-hot product (few groups) and per-column counts (a vocabulary)
    rng = Rng(15)
    index = rng.integers(0, n, size=(6, 11))
    index[0, :4] = index[1, 3]  # repeated ids
    values = rng.normal((6, 11, 5)).astype(np.float64)
    want = np.zeros((n, 5))
    np.add.at(want, index, values)
    got = sum_rows_by(index, values, n)
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 1e-12


def test_kernels_bit_identical_across_calls():
    rng = Rng(99)
    a, b = rng.normal((5, 6)), rng.normal((6, 3))
    x = rng.normal((4, 8), 2.0)
    g, bias = rng.normal((8,)), rng.normal((8,))
    q, k, v = rng.normal((4, 8)), rng.normal((4, 8)), rng.normal((4, 8))
    assert np.array_equal(matmul(a, b), matmul(a, b))
    assert np.array_equal(softmax_rows(x), softmax_rows(x))
    assert np.array_equal(layer_norm(x, g, bias), layer_norm(x, g, bias))
    assert np.array_equal(causal_attention(q, k, v, 2), causal_attention(q, k, v, 2))


def test_gelu_matches_the_textbook_tanh_form_in_float64():
    # gelu_fwd folds C0 * (x + C1 * x^3) into x * (C0 + C0*C1 * x^2)
    x = np.linspace(-8.0, 8.0, 4001)
    want = 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))
    got, tanh_u = gelu_fwd(x)
    assert got.dtype == tanh_u.dtype == np.float64
    assert np.abs(got - want).max() < 1e-15


def test_gelu_matches_finite_difference():
    x = Rng(17).normal((64,), 2.0).astype(np.float64)
    h = 1e-6
    fd = (gelu_fwd(x + h)[0] - gelu_fwd(x - h)[0]) / (2 * h)
    assert np.abs(gelu_grad_from_tanh(x, gelu_fwd(x)[1]) - fd).max() < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(64,), (37, 64)])
def test_backward_rebuilds_equal_the_forward_outputs_bit_for_bit(shape, dtype):
    """``net.backward_batch`` rebuilds the norm outputs from their caches and
    GELU's tanh(u) and output from its input, in place of taping them."""
    rng = Rng(19)
    x = rng.normal(shape, 2.0).astype(dtype)
    g, bias = rng.normal((64,)).astype(dtype), rng.normal((64,)).astype(dtype)
    out, cache = layer_norm_fwd(x, g, bias)
    assert np.array_equal(layer_norm_out(cache, bias), out)
    y, tanh_u = gelu_fwd(x)
    assert np.array_equal(gelu_tanh(x), tanh_u)
    assert np.array_equal(gelu_from_tanh(x, gelu_tanh(x)), y)
    assert y.dtype == tanh_u.dtype == out.dtype == dtype


def test_rng_same_seed_same_stream():
    a = Rng(123).normal((100,))
    b = Rng(123).normal((100,))
    assert np.array_equal(a, b)
    assert Rng(123).child("x", 1).uniform() == Rng(123).child("x", 1).uniform()
    assert Rng(123).child("x").uniform() != Rng(123).child("y").uniform()
