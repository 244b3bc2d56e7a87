"""Deterministic numeric kernels of the transformer block.

The layer norm, causal scaled dot-product attention and the tanh-form GELU,
each with the gradient its backward pass needs. ``net.forward_batch`` and
``net.backward_batch`` call them for training, planner scoring, prefill and
decode alike, and the planner's scorer (``routing.score_batch``) runs its
cross-attention through ``attention`` and ``attention_bwd`` with one head.
``layer_norm`` is the forward layer norm with its eps and finiteness checks,
which the oracle tests hold to a float64 reference. ``layer_norm_out``,
``gelu_tanh`` and ``gelu_from_tanh`` rebuild outputs of the forward kernels
bit for bit, for a backward pass whose tape does not keep them; a test holds
each equal to the output it replaces.

Every kernel is a pure function of its inputs, bit-identical across calls,
and dtype-agnostic: the parameters' dtype (float32, or float64 when tests
feed 64-bit copies) sets the computation's. Attention over more than one
query row lays its scores out keys-first, [keys, heads, rows, queries], and
the masks (``causal_mask``, ``causal_tail``, ``segment_mask``,
``key_mask``) come in that layout. A lone row ([d], a decode step) takes
each kernel's lean 1-D form.

Output buffers: ``layer_norm_fwd`` and ``gelu_fwd`` take ``out`` arrays,
and ``attention`` a flat ``scratch`` array, and write into them what they
would otherwise allocate (``net.Workspace`` supplies them). The caller owns
the buffers and lends them to one call at a time. No value already in a
buffer is read, and the results are the same bits with or without them.
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
    """``value`` as a read-only 0-d array of ``dtype``. An array op by one
    gives the same bits as by the Python float (which NumPy casts to the
    array's dtype first) and, at one row, costs less."""
    c = np.array(value, dtype=dtype)
    c.flags.writeable = False
    return c


def layer_norm_fwd(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = EPS,
                   out: tuple[np.ndarray, np.ndarray] | None = None):
    """Layer norm over the last axis; also returns (xh, inv, gain) for
    ``layer_norm_bwd``, with ``inv`` shaped [..., 1].

    Each mean is ``np.add.reduce`` followed by a divide, which is what
    ``ndarray.mean`` computes, bit for bit, without its Python-level wrapper.
    A lone row ([d]) reduces to NumPy scalars: their arithmetic is the same
    IEEE operations at a lower per-call cost than [1] arrays. Its
    ``inv`` becomes a [1] array before it scales the row, which NumPy does
    faster than by a scalar and which the backward pass takes as it is.

    ``out``, two arrays shaped like ``x``, receives the output and ``xh``
    (the former also holds the squares of the centred rows on the way), by
    the same operations, so bit for bit.
    """
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
    """The output of ``layer_norm_fwd`` rebuilt from its cache (xh, inv,
    gain) and the bias by the forward's own last two operations, so bit for
    bit."""
    out = cache[0] * cache[2]
    out += bias
    return out


def layer_norm_bwd(dy: np.ndarray, cache, need_dparams: bool = True):
    """Gradients of ``layer_norm_fwd``: returns (dx, dgain, dbias); dgain
    and dbias are None unless ``need_dparams``, for a frozen norm.

    Every sum is a product with a ones (or 1/n) vector: NumPy reduces the
    short feature axis of each row, and the row axis of each column, more
    slowly than a matrix-vector product does.
    """
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
    """Per-row normalization to zero mean / unit variance, then affine."""
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
    """Keys-first additive mask for ``t`` queries at positions
    ``start..start+t-1`` of one sequence: a float32 [start + t, 1, 1, t]
    array, -inf at [j, 0, 0, i] when query i may not see key j (j > start +
    i) and 0 elsewhere. None for one query, which sees every key before it.
    The block adds ``causal_tail`` instead; this full form is its reference.
    """
    if t == 1:
        return None
    hidden = np.tri(start + t, t, k=-(start + 1), dtype=bool)
    return _additive(hidden)[:, None, None]


def segment_mask(positions: np.ndarray) -> np.ndarray:
    """Keys-first additive mask for rows of packed segments: a float32
    [t, 1, b, t] array, -inf at [j, 0, r, i] when query i of row r may not
    see key j and 0 elsewhere. ``positions`` [b, t] restart at 0 at each
    segment's start, and query i sees keys ``i - positions[i] .. i``, the
    causal prefix of its own segment."""
    col = np.arange(positions.shape[1])
    key = col[:, None, None]
    hidden = (key < col - positions) | (key > col)
    return _additive(hidden)[:, None]


def key_mask(hidden: np.ndarray) -> np.ndarray | None:
    """Keys-first additive mask that hides the same keys from every query of
    a row: ``hidden`` [b, s] is True where row r's queries may not see key
    j; returns a float32 [s, 1, b, 1] array, -inf there and 0 elsewhere, or
    None when no key is hidden, which ``attention`` takes as no mask, with
    the same scores."""
    if not hidden.any():
        return None
    return _additive(hidden.T)[:, None, :, None]


TILE = 64
"""The widest query tile of a causal pass that ``attention`` tiles."""
TILE_STEP = 16
"""Query tiles start on multiples of this many rows (see ``attention``)."""


def tiles_queries(b: int, t: int, keep_weights: bool) -> bool:
    """Whether ``attention`` takes ``t`` causal query rows of ``b`` sequences
    tile by tile (``causal``): one sequence, no weights kept and more than
    ``2 * TILE`` queries. Taped, packed and shorter passes stay one tile
    with a ``future`` mask."""
    return t > 2 * TILE and b == 1 and not keep_weights


@functools.cache
def _triangle(n: int) -> np.ndarray:
    """The keys-first additive mask of ``n`` queries over their own ``n``
    positions, read-only: a float32 [n, 1, 1, n] array, -inf at
    [j, 0, 0, i] when j > i."""
    tri = _additive(np.tri(n, n, -1, dtype=bool))[:, None, None]
    tri.flags.writeable = False
    return tri


def causal_tail(t: int, n: int) -> np.ndarray | None:
    """Keys-first additive mask of the last ``t`` positions of one sequence
    over their own keys: a read-only float32 [t, 1, 1, t] view, -inf at
    [j, 0, 0, i] when j > i, cut from the cached triangle of ``n`` rows
    (``t <= n``). ``attention`` adds a mask over the last ``len(mask)`` keys
    only, so the queries see every earlier key, as under
    ``causal_mask(t, start)``, with the same scores. None for one query."""
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
    """(the first prod(``shape``) values of the flat ``scratch`` as a C-ordered
    array of ``shape``, the rest of ``scratch``); a new array, and ``scratch``
    as it is, when ``scratch`` is None or too short."""
    n = math.prod(shape)
    if scratch is None or len(scratch) < n:
        return np.empty(shape, dtype=dtype), scratch
    return scratch[:n].reshape(shape), scratch[n:]


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, b: int, n_heads: int,
              future: np.ndarray | None = None, keep_weights: bool = True,
              causal: bool = False, scratch: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray | None]:
    """Scaled dot-product attention of ``b`` sequences of token-major rows.

    ``q`` is [b*t, d] (one query row may be [d]). ``k`` and ``v`` each come
    in either of two layouts:

    - token-major rows [b*s, d] (one row may be [d]), as a training or
      other uncached pass makes them;
    - for one sequence (``b == 1``), the ``decoding.KvCache`` layouts: keys
      keys-major [n_heads, head_dim, s], values a heads-major
      [n_heads, s, head_dim] view.

    Heads are contiguous slices of the feature axis. ``future`` is an
    additive keys-first mask (``causal_mask``, ``causal_tail``,
    ``segment_mask`` or ``key_mask``) or None. ``causal`` takes its place
    for a pass that ``tiles_queries``: the ``t`` query rows of one sequence
    are its last ``t`` positions, each seeing the keys up to its own, and
    they run in tiles of at most ``TILE`` rows starting on multiples of
    ``TILE_STEP``.
    The tiled context rows equal the one-tile pass's bit for bit wherever
    BLAS takes both products with the same kernels, which tests check.

    Returns (context rows shaped like ``q``, weights as a [b, h, t, s]
    view). Without ``keep_weights`` the weights are left unnormalised, the
    context is divided by their sums instead, and the weights come back as
    None.

    ``scratch``, a flat array of ``q``'s dtype, holds what a pass of more
    than one query row would otherwise allocate: the scaled queries, the
    context rows (which are then returned as a view of it), the weights'
    sums and the score tile, carved from it in that order. Whatever does not
    fit is allocated. The values are the same bits either way.
    """
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
    """The softmax attention of ``attention`` over one tile of queries:
    scaled queries ``qt`` [b, h, hd, t], keys ``kh`` and values ``vh``
    [b, h, s, hd], and an additive keys-first ``mask`` (or None) over the
    last ``len(mask)`` keys. Writes the context into the [b, h, t, hd] view
    ``ctxh`` and the weights' sums into ``norm`` [h, b, t]; the scores are
    carved from ``scratch`` (see ``_carve``). Returns (weights as a
    [b, h, t, s] view, their sums)."""
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
    gradient ``dctx``: returns (dq, dk, dv), shaped like ``q``, ``k`` (in
    either layout) and ``v``.

    The softmax backward needs D = rowsum(dP * P) per query and head, where
    dP is the weights' gradient. It equals rowsum(dO * O) over the head's
    slice of the context (FlashAttention-2, arXiv 2307.08691), which one
    product with a [d, h] head-indicator matrix gives for every head at
    once. The weights' gradient is laid out keys-first like the forward's
    scores, and every product writes its heads straight into the gradient's
    own layout.
    """
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
    """Smooth GELU (tanh form); also returns tanh(u) for reuse in the backward
    pass. Written with in-place ops: these arrays sit on the training hot path.

    u = C0 * (x + C1 * x^3) is formed as x * (C0 + C0*C1 * x^2), with the two
    constants folded into one, so the forward is 8 NumPy calls; the
    constants are 0-d arrays of ``x``'s dtype (see ``_constant``).
    ``gelu_tanh`` and ``gelu_from_tanh`` repeat its two halves, so that a
    backward pass rebuilds either output from ``x`` bit for bit without a
    new call on the forward's path. ``out``, two arrays shaped like ``x``,
    receives the output and tanh(u) by the same operations."""
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
    """The GELU output of ``gelu_fwd(x)`` given its tanh(u), by its own
    operations: x * (1 + tanh(u)) / 2."""
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
