"""Deterministic numeric kernels of the transformer block.

The layer norm, scaled dot-product attention and the tanh-form GELU, each
with the gradient its backward needs. ``net`` runs them for every pass, and
the planner's scorer runs ``attention`` and ``attention_bwd`` with one head.
``layer_norm`` is the checked forward that the oracle tests hold to a
float64 reference. ``layer_norm_out``, ``gelu_tanh`` and ``gelu_from_tanh``
rebuild forward outputs bit for bit, for a backward whose tape lacks them.

Every kernel is a pure function of its inputs, and the inputs' dtype sets
the computation's. Attention over more than one query row lays its scores
out keys-first, [keys, heads, rows, queries], as the masks are; a lone row
([d], a decode step) takes each kernel's 1-D form. ``out`` and ``scratch``
arrays receive what a kernel would otherwise allocate, with the same bits;
no value already in them is read.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigError, NumericError

NEG_INF = float("-inf")
EPS = 1e-5
"""The layer norm's default eps."""


@functools.cache
def _constant(dtype: np.dtype, value: float) -> np.ndarray:
    """``value`` as a read-only 0-d array of ``dtype``, which an array op at
    one row applies faster than a Python float."""
    c = np.array(value, dtype=dtype)
    c.flags.writeable = False
    return c


def layer_norm_fwd(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = EPS,
                   out: tuple[np.ndarray, np.ndarray] | None = None):
    """Layer norm over the last axis; returns (output, (xh, inv, gain)) for
    ``layer_norm_bwd``, ``inv`` shaped [..., 1]. Each mean is ``np.add.reduce``
    then a divide, ``ndarray.mean`` bit for bit without its wrapper. A lone
    row's ``inv`` is a [1] array, which scales the row faster than a scalar.
    ``out``, two arrays shaped like ``x``, receives the output and ``xh``."""
    n = x.shape[-1]
    keep = x.ndim > 1
    mu = np.add.reduce(x, axis=-1, keepdims=keep)
    mu /= n
    if out is None:
        xc = x - mu
        var = np.add.reduce(xc * xc, axis=-1, keepdims=keep)
    else:
        xc = np.subtract(x, mu, out=out[1])
        var = np.add.reduce(np.multiply(xc, xc, out=out[0]), axis=-1, keepdims=keep)
    var /= n
    var += eps
    inv = 1.0 / np.sqrt(var)
    if not keep:
        inv = inv[None]
    xc *= inv
    out = xc * gain if out is None else np.multiply(xc, gain, out=out[0])
    out += bias
    return out, (xc, inv, gain)


def layer_norm_out(cache, bias: np.ndarray) -> np.ndarray:
    """``layer_norm_fwd``'s output rebuilt from its cache (xh, inv, gain)
    and the bias by the forward's own last two operations."""
    out = cache[0] * cache[2]
    out += bias
    return out


def layer_norm_bwd(dy: np.ndarray, cache, need_dparams: bool = True):
    """Gradients of ``layer_norm_fwd``: (dx, dgain, dbias), the last two
    None unless ``need_dparams``. Each sum is a product with a ones (or 1/n)
    vector, which NumPy runs faster than a reduction over these axes."""
    xh, inv, g = cache
    n = xh.shape[-1]
    dg = db = None
    if need_dparams:
        rows = dy.reshape(-1, n)
        ones = np.ones(len(rows), dtype=dy.dtype)
        dg = ones @ (rows * xh.reshape(-1, n))
        db = ones @ rows
    mean = np.full(n, 1.0 / n, dtype=dy.dtype)
    dxh = dy * g
    m1 = dxh @ mean
    m2 = (dxh * xh) @ mean
    dxh -= m1[..., None]
    dxh -= xh * m2[..., None]
    dxh *= inv
    return dxh, dg, db


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Per-row normalization to zero mean and unit variance, then affine.
    Raises ``ConfigError`` for ``eps <= 0``, ``NumericError`` for a non-finite
    output."""
    if eps <= 0:
        raise ConfigError("layer_norm: eps must be positive")
    out = layer_norm_fwd(x, gain, bias, eps)[0]
    if not np.isfinite(out).all():
        raise NumericError("layer_norm produced non-finite values")
    return out


def _additive(hidden: np.ndarray) -> np.ndarray:
    """A boolean mask as float32 scores to add: -inf where hidden, 0 elsewhere."""
    return np.where(hidden, np.float32(NEG_INF), np.float32(0.0))


def causal_mask(t: int, start: int = 0) -> np.ndarray | None:
    """Keys-first additive float32 mask [start + t, 1, 1, t] for ``t``
    queries at positions ``start..start+t-1`` of one sequence: -inf where key
    j > start + i, else 0; None for one query. ``causal_tail``'s reference."""
    if t == 1:
        return None
    hidden = np.tri(start + t, t, k=-(start + 1), dtype=bool)
    return _additive(hidden)[:, None, None]


def segment_mask(positions: np.ndarray) -> np.ndarray:
    """Keys-first additive float32 mask [t, 1, b, t] for rows of packed
    segments: query i of row r sees keys ``i - positions[r, i] .. i``, the
    causal prefix of its own segment, and -inf hides every other."""
    col = np.arange(positions.shape[1])
    key = col[:, None, None]
    hidden = (key < col - positions) | (key > col)
    return _additive(hidden)[:, None]


def key_mask(hidden: np.ndarray) -> np.ndarray | None:
    """Keys-first additive float32 mask [s, 1, b, 1], -inf where ``hidden``
    [b, s] hides key j from every query of row r; None when nothing is
    hidden, which ``attention`` scores the same."""
    if not hidden.any():
        return None
    return _additive(hidden.T)[:, None, :, None]


TILE = 64
"""The widest query tile of a causal pass that ``attention`` tiles."""
TILE_STEP = 16
"""Query tiles start on multiples of this many rows (see ``attention``)."""


def tiles_queries(b: int, t: int, keep_weights: bool) -> bool:
    """Whether ``attention`` runs ``t`` causal query rows of ``b``
    sequences in tiles: one sequence, no weights kept and more than
    ``2 * TILE`` queries."""
    return t > 2 * TILE and b == 1 and not keep_weights


@functools.cache
def _triangle(n: int) -> np.ndarray:
    """Read-only keys-first additive mask of ``n`` queries over their own
    ``n`` positions: float32 [n, 1, 1, n], -inf where j > i."""
    tri = _additive(np.tri(n, n, -1, dtype=bool))[:, None, None]
    tri.flags.writeable = False
    return tri


def causal_tail(t: int, n: int) -> np.ndarray | None:
    """The keys-first mask of the last ``t`` positions of one sequence over
    their own keys: a read-only [t, 1, 1, t] view of the ``n``-row triangle,
    which ``attention`` adds to the last ``t`` keys, so the scores are those
    under ``causal_mask(t, start)``. None for one query; ``t > n`` raises
    ``ConfigError``."""
    if t > n:
        raise ConfigError(f"causal_tail: {t} queries exceed the {n}-row triangle")
    return None if t == 1 else _triangle(n)[:t, :, :, :t]


def _heads(a: np.ndarray, b: int, n_heads: int) -> np.ndarray:
    """Token-major rows [b*t, d] (one row may be [d]) as a [b, h, t, hd] view."""
    return a.reshape(b, -1, n_heads, a.shape[-1] // n_heads).transpose(0, 2, 1, 3)


def _key_heads(k: np.ndarray, b: int, n_heads: int) -> np.ndarray:
    """Keys in either layout ``attention`` takes, as a [b, h, s, hd] view
    (keys-major keys of one sequence broadcast over the batch axis)."""
    return _heads(k, b, n_heads) if k.ndim < 3 else k.transpose(0, 2, 1)[None]


def _value_heads(v: np.ndarray, b: int, n_heads: int) -> np.ndarray:
    """Values in either layout ``attention`` takes, as a [b, h, s, hd] view."""
    return _heads(v, b, n_heads) if v.ndim < 3 else v[None]


def _carve(scratch: np.ndarray | None, shape: tuple[int, ...], dtype) -> tuple:
    """(the first prod(``shape``) values of the flat ``scratch`` shaped
    ``shape``, the rest of ``scratch``), or a new array and ``scratch`` as it
    is when ``scratch`` is None or too short."""
    n = math.prod(shape)
    if scratch is None or len(scratch) < n:
        return np.empty(shape, dtype=dtype), scratch
    return scratch[:n].reshape(shape), scratch[n:]


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, b: int, n_heads: int,
              future: np.ndarray | None = None, keep_weights: bool = True,
              causal: bool = False, scratch: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray | None]:
    """Scaled dot-product attention of ``b`` sequences; returns (context rows
    shaped like ``q``, weights as a [b, h, t, s] view).

    ``q`` is token-major [b*t, d] (one row may be [d]). ``k`` and ``v`` are
    token-major rows too or, for one sequence, the ``decoding.KvCache``
    layouts: keys [h, hd, s], values [h, s, hd]. ``future`` is an additive
    keys-first mask over the last ``len(future)`` keys, or None. ``causal``
    replaces it for a pass that ``tiles_queries``: the queries are the last
    ``t`` positions, run in tiles of at most ``TILE`` rows that start on
    multiples of ``TILE_STEP``, equal to the one-tile pass bit for bit where
    BLAS takes both with the same kernels. Without ``keep_weights`` the
    context is divided by the weights' sums and the weights come back None.
    ``scratch``, flat and of ``q``'s dtype, holds the scaled queries, the
    context rows (returned as its view), the sums and the score tile."""
    hd = q.shape[-1] // n_heads
    scale = 1.0 / math.sqrt(hd)
    if q.ndim == 1:
        if k.ndim < 3:
            k = k.reshape(-1, n_heads, hd).transpose(1, 2, 0)
        if v.ndim < 3:
            v = v.reshape(-1, n_heads, hd).transpose(1, 0, 2)
        probs = np.matmul(q.reshape(n_heads, 1, hd) * _constant(q.dtype, scale), k)
        probs -= np.maximum.reduce(probs, axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        norm = np.add.reduce(probs, axis=-1, keepdims=True)
        # ravel: the same [d] view as reshape(q.shape), at a lower call cost
        if keep_weights:
            probs /= norm
            return np.matmul(probs, v).ravel(), probs[None]
        ctx = np.matmul(probs, v)
        ctx /= norm
        return ctx.ravel(), None

    # the scaled queries as a contiguous [b, h, hd, t]: multiplying the keys
    # by a transposed view of them takes about twice as long
    qt = _heads(q, b, n_heads).transpose(0, 1, 3, 2)
    buf, scratch = _carve(scratch, qt.shape, q.dtype)
    qt = np.multiply(qt, scale, out=buf)
    kh = _key_heads(k, b, n_heads)
    vh = _value_heads(v, b, n_heads)
    # heads write their context straight into token-major rows
    ctx, scratch = _carve(scratch, q.shape, q.dtype)
    ctxh = _heads(ctx, b, n_heads)
    t, s = qt.shape[-1], kh.shape[-2]
    norm, scratch = _carve(scratch, (n_heads, b, t), q.dtype)
    if not causal:
        probs, norm = _attend(qt, kh, vh, future, keep_weights, ctxh, norm, scratch)
        if keep_weights:
            return ctx, probs
    else:
        n = -(-t // TILE)
        edges = [-(-t * j // (n * TILE_STEP)) * TILE_STEP for j in range(n)] + [t]
        for first, end in zip(edges, edges[1:]):
            w, keys = end - first, s - t + end
            _attend(qt[..., first:end], kh[:, :, :keys], vh[:, :, :keys], causal_tail(w, TILE),
                    False, ctxh[:, :, first:end], norm[..., first:end], scratch)
    # through a [rows, h, hd] view of the rows, which NumPy walks with one
    # iteration buffer where the [b, h, t, hd] view takes two
    ctx3 = ctx.reshape(-1, n_heads, hd)
    ctx3 /= norm.reshape(n_heads, -1).T[..., None]
    return ctx, None


def _attend(qt, kh, vh, mask, keep_weights, ctxh, norm, scratch):
    """``attention`` over one tile: scaled queries ``qt`` [b, h, hd, t], keys
    and values [b, h, s, hd] and a keys-first ``mask`` (or None) over the last
    ``len(mask)`` keys. Writes the context into ``ctxh`` [b, h, t, hd] and the
    sums into ``norm`` [h, b, t]; returns (weights [b, h, t, s], sums)."""
    b, h, _, t = qt.shape
    scores, _ = _carve(scratch, (kh.shape[-2], h, b, t), qt.dtype)
    np.matmul(kh, qt, out=scores.transpose(2, 1, 0, 3))
    if mask is not None:
        scores[len(scores) - len(mask):] += mask
    scores -= np.maximum.reduce(scores, axis=0)
    np.exp(scores, out=scores)
    norm = np.add.reduce(scores, axis=0, out=norm)
    if keep_weights:
        scores /= norm
    probs = scores.transpose(2, 1, 3, 0)
    np.matmul(probs, vh, out=ctxh)
    return probs, norm


def attention_bwd(dctx: np.ndarray, ctx: np.ndarray, q: np.ndarray, k: np.ndarray,
                  v: np.ndarray, probs: np.ndarray, n_heads: int):
    """Gradients of ``attention`` given its context rows ``ctx`` and their
    gradient ``dctx``: (dq, dk, dv) shaped like ``q``, ``k`` (either layout)
    and ``v``. The softmax's rowsum(dP * P) is taken as rowsum(dO * O) per
    head (FlashAttention-2, arXiv 2307.08691): one product with a head
    indicator matrix."""
    b, h, t, s = probs.shape
    d = q.shape[-1]
    hd = d // n_heads
    head_of = np.eye(n_heads, dtype=ctx.dtype).repeat(hd, axis=0)
    dsum = (dctx * ctx).reshape(-1, d) @ head_of
    dctx = _heads(dctx, b, n_heads)
    dscores = np.empty((s, h, b, t), dtype=dctx.dtype)
    # a contiguous [b, h, hd, t] copy, as in the forward's score product
    np.matmul(_heads(v, b, n_heads), np.ascontiguousarray(dctx.transpose(0, 1, 3, 2)),
              out=dscores.transpose(2, 1, 0, 3))
    dv = np.empty_like(v)
    np.matmul(probs.transpose(0, 1, 3, 2), dctx, out=_heads(dv, b, n_heads))
    dscores -= np.ascontiguousarray(dsum.reshape(b, t, h).transpose(2, 0, 1))
    dscores *= probs.transpose(3, 1, 0, 2)
    scale = 1.0 / math.sqrt(hd)
    dq = np.empty_like(q)
    np.matmul(dscores.transpose(2, 1, 3, 0), _key_heads(k, b, n_heads),
              out=_heads(dq, b, n_heads))
    dq *= scale
    dk = np.empty_like(k)
    np.matmul(dscores.transpose(2, 1, 0, 3), _heads(q, b, n_heads),
              out=_key_heads(dk, b, n_heads))
    dk *= scale
    return dq, dk, dv


GELU_C0 = math.sqrt(2.0 / math.pi)
GELU_C1 = 0.044715


@functools.cache
def _gelu_constants(dtype: np.dtype) -> tuple[np.ndarray, ...]:
    """(C0*C1, C0, 1, 1/2) as 0-d arrays of ``dtype``."""
    return tuple(_constant(dtype, c) for c in (GELU_C0 * GELU_C1, GELU_C0, 1.0, 0.5))


def gelu_fwd(x: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
    """Smooth GELU (tanh form); returns (output, tanh(u)) for the backward.
    u = C0 * (x + C1 * x^3) is formed as x * (C0 + C0*C1 * x^2), in place
    and with 0-d constants, since it runs on the training hot path. ``out``,
    two arrays shaped like ``x``, receives the output and tanh(u)."""
    c01, c0, one, half = _gelu_constants(x.dtype)
    u = x * x if out is None else np.multiply(x, x, out=out[1])
    u *= c01
    u += c0
    u *= x
    np.tanh(u, out=u)
    y = u + one if out is None else np.add(u, one, out=out[0])
    y *= x
    y *= half
    return y, u


def gelu_tanh(x: np.ndarray) -> np.ndarray:
    """The tanh(u) of ``gelu_fwd(x)``, by its own operations."""
    c01, c0, _, _ = _gelu_constants(x.dtype)
    u = x * x
    u *= c01
    u += c0
    u *= x
    return np.tanh(u, out=u)


def gelu_from_tanh(x: np.ndarray, tanh_u: np.ndarray) -> np.ndarray:
    """``gelu_fwd(x)``'s output from its tanh(u): x * (1 + tanh(u)) / 2, by
    its own operations."""
    _, _, one, half = _gelu_constants(x.dtype)
    y = tanh_u + one
    y *= x
    y *= half
    return y


def gelu_grad_from_tanh(x: np.ndarray, tanh_u: np.ndarray) -> np.ndarray:
    """d gelu / dx given the forward pass's cached tanh(u)."""
    du = x * x
    du *= 3.0 * GELU_C1
    du += 1.0
    du *= GELU_C0
    s = tanh_u * tanh_u
    np.subtract(1.0, s, out=s)
    s *= du
    s *= x
    s *= 0.5
    du = None
    r = tanh_u + 1.0
    r *= 0.5
    r += s
    return r
