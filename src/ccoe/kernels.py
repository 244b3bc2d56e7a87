"""Deterministic float32 numeric kernels.

Dense arrays (rank 1-3, row-major, float32) are the substrate for all model
math; these four kernels are the contract surface the rest of the package
builds on. Every kernel is a pure function, checks its output for non-finite
values instead of letting NaN/Inf propagate silently, and is bit-identical
across calls for identical inputs. Scalar constants stay Python floats so the
same code runs in float64 when tests feed 64-bit parameter copies.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DimensionError, NumericError

NEG_INF = float("-inf")


def check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericError(f"{name} produced non-finite values")
    return arr


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of [m,k] by [k,n]."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    return check_finite("matmul", a @ b)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis, with max subtraction for stability."""
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    out = e / np.sum(e, axis=-1, keepdims=True)
    return check_finite("softmax_rows", out)


def layer_norm_fwd(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """Layer norm over the last axis; also returns (xh, inv, gain) for
    ``layer_norm_bwd``.

    Each mean is ``np.add.reduce`` followed by an in-place divide, which is
    what ``ndarray.mean`` computes, bit for bit, without its Python-level
    wrapper: a decode step on an 8-layer model calls this 17 times on one row.
    """
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= n
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True)
    var /= n
    var += eps
    inv = np.sqrt(var, out=var)
    np.divide(1.0, inv, out=inv)
    xc *= inv
    out = xc * gain
    out += bias
    return out, (xc, inv, gain)


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
    return check_finite("layer_norm", layer_norm_fwd(x, gain, bias, eps)[0])


def causal_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int) -> np.ndarray:
    """Scaled dot-product attention over [t,d] with a strict causal mask.

    Position i attends only to positions <= i. Heads are contiguous slices of
    the feature axis.
    """
    t, d = q.shape
    if d % n_heads != 0:
        raise ConfigError(f"causal_attention: d={d} not divisible by n_heads={n_heads}")
    hd = d // n_heads
    scale = 1.0 / math.sqrt(hd)
    qh = q.reshape(t, n_heads, hd).transpose(1, 0, 2)  # [h,t,hd]
    kh = k.reshape(t, n_heads, hd).transpose(1, 0, 2)
    vh = v.reshape(t, n_heads, hd).transpose(1, 0, 2)
    scores = np.matmul(qh, kh.transpose(0, 2, 1)) * scale  # [h,t,t]
    mask = np.triu(np.ones((t, t), dtype=bool), k=1)
    scores = np.where(mask, NEG_INF, scores)
    probs = softmax_rows(scores)
    ctx = np.matmul(probs, vh)  # [h,t,hd]
    out = ctx.transpose(1, 0, 2).reshape(t, d)
    return check_finite("causal_attention", np.ascontiguousarray(out))


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


def gelu(x: np.ndarray) -> np.ndarray:
    """Smooth GELU (tanh form)."""
    return gelu_fwd(x)[0]


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


def gelu_grad(x: np.ndarray) -> np.ndarray:
    u = x * x
    u *= x
    u *= GELU_C1
    u += x
    u *= GELU_C0
    np.tanh(u, out=u)
    return gelu_grad_from_tanh(x, u)
