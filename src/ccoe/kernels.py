"""Deterministic numeric kernels of the transformer block.

The layer norm, causal scaled dot-product attention and the tanh-form GELU,
each with the gradient its backward pass needs; ``net.forward_batch`` and
``net.backward_batch`` call them for training, planner scoring, prefill and
decode alike. ``layer_norm`` is the
forward layer norm with its eps and finiteness checks, which the oracle tests
hold to a float64 reference. Every kernel is a pure function and
bit-identical across calls for identical inputs. Scalar constants stay Python
floats so the same code runs in float64 when tests feed 64-bit parameter
copies.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError

NEG_INF = float("-inf")


def layer_norm_fwd(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """Layer norm over the last axis; also returns (xh, inv, gain) for
    ``layer_norm_bwd``, with ``inv`` shaped [..., 1].

    Each mean is ``np.add.reduce`` followed by a divide, which is what
    ``ndarray.mean`` computes, bit for bit, without its Python-level wrapper.
    A lone row ([d]) reduces to NumPy scalars: their arithmetic is the same
    IEEE operations at about half the per-call cost of [1] arrays, and a
    decode step on an 8-layer model calls this 17 times on one row.
    """
    n = x.shape[-1]
    keep = x.ndim > 1
    mu = np.add.reduce(x, axis=-1, keepdims=keep)
    mu /= n
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=keep)
    var /= n
    var += eps
    inv = 1.0 / np.sqrt(var)
    xc *= inv
    out = xc * gain
    out += bias
    return out, (xc, inv.reshape(*x.shape[:-1], 1), gain)


def layer_norm_bwd(dy: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``layer_norm_fwd``: returns (dx, dgain, dbias)."""
    xh, inv, g = cache
    n = xh.shape[-1]
    dxh = dy * g
    dg = (dy * xh).reshape(-1, n).sum(axis=0)
    db = dy.reshape(-1, n).sum(axis=0)
    m1 = np.add.reduce(dxh, axis=-1, keepdims=True)
    m1 /= n
    m2 = np.add.reduce(dxh * xh, axis=-1, keepdims=True)
    m2 /= n
    dxh -= m1
    dxh -= xh * m2
    dxh *= inv
    return dxh, dg, db


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Per-row normalization to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ConfigError("layer_norm: eps must be positive")
    out = layer_norm_fwd(x, gain, bias, eps)[0]
    if not np.isfinite(out).all():
        raise NumericError("layer_norm produced non-finite values")
    return out


def causal_mask(t: int, start: int = 0) -> np.ndarray | None:
    """Boolean [t, start + t] mask of the keys each of ``t`` queries at
    positions ``start..start+t-1`` may not see; None for one query, which
    sees every key before it."""
    if t == 1:
        return None
    return np.triu(np.ones((t, start + t), dtype=bool), k=start + 1)


def segment_mask(positions: np.ndarray) -> np.ndarray:
    """Boolean [b, 1, t, t] mask of the keys each query may not see in rows
    of packed segments: ``positions`` [b, t] restart at 0 at each segment's
    start, and query i sees keys ``i - positions[i] .. i``, the causal
    prefix of its own segment."""
    col = np.arange(positions.shape[1])
    hidden = (col < (col - positions)[..., None]) | (col > col[:, None])
    return hidden[:, None]


def _heads(a: np.ndarray, b: int, n_heads: int) -> np.ndarray:
    """Token-major rows [b*t, d] (one row may be [d]) as a [b, h, t, hd] view."""
    return a.reshape(b, -1, n_heads, a.shape[-1] // n_heads).transpose(0, 2, 1, 3)


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, b: int, n_heads: int,
              future: np.ndarray | None = None, keep_weights: bool = True,
              ) -> tuple[np.ndarray, np.ndarray | None]:
    """Scaled dot-product attention of ``b`` sequences of token-major rows.

    ``q`` is [b*t, d] (one query row may be [d]) and ``v`` is [b*s, d].
    ``k`` comes in either of two layouts:

    - token-major rows [b*s, d] (one key row may be [d]), as a training or
      other uncached pass makes them; the score product takes a transposed
      view of them;
    - keys-major [n_heads, head_dim, s] for one sequence (``b == 1``), the
      ``decoding.KvCache`` layout, which the score product takes as a plain
      row-major matrix per head.

    Heads are contiguous slices of the feature axis, taken as views.
    ``future`` masks the keys a query may not see (see ``causal_mask`` and
    ``segment_mask``). The 1/sqrt(head_dim) scale multiplies the queries, not
    the scores. Returns (context rows shaped like ``q``, weights
    [b, h, t, s]). Without ``keep_weights`` the [b, h, t, s] weights are
    left unnormalised, the [b, h, t, hd] context is divided by their row
    sums instead, and the weights come back as None.
    """
    hd = q.shape[-1] // n_heads
    if k.ndim < 3:
        k = k.reshape(b, -1, n_heads, hd).transpose(0, 2, 3, 1)
    probs = (_heads(q, b, n_heads) * (1.0 / math.sqrt(hd))) @ k
    if future is not None:
        np.copyto(probs, NEG_INF, where=future)
    probs -= np.maximum.reduce(probs, axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    if keep_weights:
        probs /= np.add.reduce(probs, axis=-1, keepdims=True)
    ctx = probs @ _heads(v, b, n_heads)
    if not keep_weights:
        ctx /= np.add.reduce(probs, axis=-1, keepdims=True)
        probs = None
    return ctx.transpose(0, 2, 1, 3).reshape(q.shape), probs


def attention_bwd(dctx: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                  probs: np.ndarray, n_heads: int):
    """Gradients of ``attention`` given its context gradient: returns
    (dq, dk, dv), token-major rows like ``q``, ``k`` and ``v``."""
    b = probs.shape[0]
    scale = 1.0 / math.sqrt(q.shape[-1] // n_heads)
    dctx = _heads(dctx, b, n_heads)
    dscores = dctx @ _heads(v, b, n_heads).transpose(0, 1, 3, 2)
    dvh = probs.transpose(0, 1, 3, 2) @ dctx
    dscores -= (dscores * probs).sum(axis=-1, keepdims=True)
    dscores *= probs
    dqh = dscores @ _heads(k, b, n_heads)
    dqh *= scale
    dkh = dscores.transpose(0, 1, 3, 2) @ _heads(q, b, n_heads)
    dkh *= scale
    return tuple(g.transpose(0, 2, 1, 3).reshape(a.shape)
                 for g, a in ((dqh, q), (dkh, k), (dvh, v)))


GELU_C0 = math.sqrt(2.0 / math.pi)
GELU_C1 = 0.044715


def gelu_fwd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smooth GELU (tanh form); also returns tanh(u) for reuse in the backward
    pass. Written with in-place ops: these arrays sit on the training hot path."""
    u = x * x
    u *= x
    u *= GELU_C1
    u += x
    u *= GELU_C0
    np.tanh(u, out=u)
    y = u + 1.0
    y *= x
    y *= 0.5
    return y, u


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
