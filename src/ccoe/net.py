"""Decoder stack forward and hand-written backward passes.

``forward_batch`` runs a padded token batch through the backbone with an
optional expert spliced in, optionally recording a tape of intermediates.
``backward_batch`` walks that tape in reverse and accumulates gradients, but
only for parameters named in the caller's trainable set; everything else gets
activation gradients propagated through it and no parameter gradient at all.
This is how the frozen backbone is excluded from differentiation structurally
rather than by zeroing.

All code is dtype-agnostic: parameter dtype (float32 in production, float64 in
finite-difference tests) decides the computation dtype. Scalar constants are
Python floats so they never promote float32 arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, NumericError, SequenceLengthError, TokenIdError
from .kernels import NEG_INF, gelu_fwd, gelu_grad_from_tanh, layer_norm_bwd, layer_norm_fwd
from .model import BackboneModel, ExpertSubnetwork, validate_positions

GradKey = tuple[str, str]  # (component, parameter name)


def _heads_split(x, n_heads):
    b, t, d = x.shape
    hd = d // n_heads
    return x.reshape(b, t, n_heads, hd).transpose(0, 2, 1, 3).reshape(b * n_heads, t, hd)


def _heads_merge(x, b, n_heads):
    bh, t, hd = x.shape
    return x.reshape(b, n_heads, t, hd).transpose(0, 2, 1, 3).reshape(b, t, n_heads * hd)


def _mm(x, w):
    """[b,t,i] @ [i,o] -> [b,t,o]."""
    return x @ w


def _mm_back(x, w, dy):
    """Gradients of y = x @ w: returns (dx, dw)."""
    di, do = w.shape
    dx = dy @ w.T
    dw = x.reshape(-1, di).T @ dy.reshape(-1, do)
    return dx, dw


def check_token_ids(ids: np.ndarray, vocab_size: int, what: str = "token") -> None:
    """Raise ``TokenIdError`` unless every id lies in ``[0, vocab_size)``.

    NumPy indexing would otherwise raise a bare ``IndexError`` in the embedding
    lookup for an id >= vocab_size and wrap a negative id to a row from the end.
    """
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        bad = int(ids[(ids < 0) | (ids >= vocab_size)].flat[0])
        raise TokenIdError(f"{what} id {bad} outside vocabulary [0, {vocab_size})")


def ffn_sources(backbone: BackboneModel, expert: ExpertSubnetwork | None):
    """Per-layer feed-forward parameter source: (component, params, prefix)."""
    srcs = []
    positions = set(expert.positions) if expert is not None else set()
    for i in range(backbone.config.n_layers):
        if i in positions:
            srcs.append(("expert", expert.params, f"p{i}."))
        else:
            srcs.append(("backbone", backbone.params, f"layers.{i}.ffn."))
    return srcs


def forward_batch(
    backbone: BackboneModel,
    tokens: np.ndarray,
    expert: ExpertSubnetwork | None = None,
    want_tape: bool = False,
    cache=None,
):
    """Forward a [b,t] int token batch; returns (logits, hidden, tape).

    ``hidden`` is the final-norm output (pre-head). The expert, when present,
    replaces the feed-forward sublayer (norm included) at its positions.

    With ``cache`` (an empty ``decoding.KvCache``) the pass is a prefill: it
    takes one untaped row, writes every layer's per-head keys and values for
    the ``t`` positions into the cache, sets its length to ``t``, and returns
    logits and hidden for the last position only ([1, 1, ...]).
    """
    c = backbone.config
    p = backbone.params
    if expert is not None:
        validate_positions(c, expert.positions)
    b, t = tokens.shape
    if t > c.max_seq:
        raise SequenceLengthError(f"sequence length {t} exceeds max_seq {c.max_seq}")
    if cache is not None:
        if b != 1 or want_tape:
            raise DimensionError(
                f"prefill takes one row and no tape, got {b} rows, tape={want_tape}"
            )
        if len(cache):
            raise DimensionError(f"prefill needs an empty cache; it holds {len(cache)} positions")
        if t > cache.capacity:
            raise SequenceLengthError(f"prompt of {t} exceeds cache capacity {cache.capacity}")
    check_token_ids(tokens, c.vocab_size)
    scale = 1.0 / math.sqrt(c.d_model // c.n_heads)
    future = np.triu(np.ones((t, t), dtype=bool), k=1)  # causal mask
    srcs = ffn_sources(backbone, expert)

    x = p["embed"][tokens] + p["pos"][:t]
    layers_tape = []
    for i in range(c.n_layers):
        pre = f"layers.{i}."
        x0 = x
        h1, ln1c = layer_norm_fwd(x, p[pre + "ln1.g"], p[pre + "ln1.b"])
        q = _mm(h1, p[pre + "attn.wq"])
        k = _mm(h1, p[pre + "attn.wk"])
        v = _mm(h1, p[pre + "attn.wv"])
        qh, kh, vh = (_heads_split(a, c.n_heads) for a in (q, k, v))
        if cache is not None:
            cache.k[i][:, :t] = kh
            cache.v[i][:, :t] = vh
        scores = np.matmul(qh, kh.transpose(0, 2, 1))
        scores *= scale
        np.copyto(scores, NEG_INF, where=future)
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        ctx = np.matmul(scores, vh)
        # without a tape, free the [b*h, t, t] scores before the next layer's exist
        probs = scores if want_tape else None
        del scores
        merged = _heads_merge(ctx, b, c.n_heads)
        attn_out = _mm(merged, p[pre + "attn.wo"])
        x1 = x0 + attn_out

        comp, fp, fpre = srcs[i]
        ln_g, ln_b = (fpre + "ln.g", fpre + "ln.b") if comp == "expert" else (pre + "ln2.g", pre + "ln2.b")
        h2, ln2c = layer_norm_fwd(x1, fp[ln_g], fp[ln_b])
        pre_act = _mm(h2, fp[fpre + "w1"])
        pre_act += fp[fpre + "b1"]
        act, tanh_u = gelu_fwd(pre_act)
        f_out = _mm(act, fp[fpre + "w2"])
        f_out += fp[fpre + "b2"]
        x = x1 + f_out
        if want_tape:
            layers_tape.append({
                "h1": h1, "ln1c": ln1c, "qh": qh, "kh": kh, "vh": vh,
                "probs": probs, "merged": merged, "x1": x1,
                "h2": h2, "ln2c": ln2c, "pre": pre_act, "act": act, "tanh_u": tanh_u,
            })

    if cache is not None:
        cache.length = t
        x = x[:, -1:]
    hidden, lnfc = layer_norm_fwd(x, p["ln_f.g"], p["ln_f.b"])
    logits = _mm(hidden, p["head"])
    if not np.isfinite(logits).all():
        raise NumericError("forward pass produced non-finite logits")
    tape = None
    if want_tape:
        tape = {"tokens": tokens, "layers": layers_tape, "hidden": hidden, "lnfc": lnfc}
    return logits, hidden, tape


def backward_batch(
    backbone: BackboneModel,
    tape: dict,
    trainable: set[GradKey],
    expert: ExpertSubnetwork | None = None,
    dlogits: np.ndarray | None = None,
    dhidden: np.ndarray | None = None,
) -> dict[GradKey, np.ndarray]:
    """Backward through a taped forward. Returns grads for trainable keys only.

    Either ``dlogits`` (gradient at the output head) or ``dhidden`` (gradient
    at the final-norm output, used by the planner's scorer) seeds the pass;
    both may be given and are accumulated.
    """
    c = backbone.config
    p = backbone.params
    grads: dict[GradKey, np.ndarray] = {}

    def add(comp, name, val):
        key = (comp, name)
        if key in trainable:
            if key in grads:
                grads[key] += val
            else:
                grads[key] = val

    scale = 1.0 / math.sqrt(c.d_model // c.n_heads)
    srcs = ffn_sources(backbone, expert)
    tokens = tape["tokens"]
    b = tokens.shape[0]

    dh = np.zeros_like(tape["hidden"])
    if dlogits is not None:
        dx_h, dhead = _mm_back(tape["hidden"], p["head"], dlogits)
        add("backbone", "head", dhead)
        dh += dx_h
    if dhidden is not None:
        dh += dhidden
    dx, dg, db = layer_norm_bwd(dh, tape["lnfc"])
    add("backbone", "ln_f.g", dg)
    add("backbone", "ln_f.b", db)

    for i in reversed(range(c.n_layers)):
        lt = tape["layers"][i]
        pre = f"layers.{i}."
        comp, fp, fpre = srcs[i]

        # feed-forward block: x = x1 + f(ln(x1))
        df = dx
        dact, dw2 = _mm_back(lt["act"], fp[fpre + "w2"], df)
        add(comp, fpre + "w2", dw2)
        add(comp, fpre + "b2", df.reshape(-1, df.shape[-1]).sum(axis=0))
        dpre = gelu_grad_from_tanh(lt["pre"], lt["tanh_u"])
        dpre *= dact
        dh2, dw1 = _mm_back(lt["h2"], fp[fpre + "w1"], dpre)
        add(comp, fpre + "w1", dw1)
        add(comp, fpre + "b1", dpre.reshape(-1, dpre.shape[-1]).sum(axis=0))
        dx1_norm, dg2, db2 = layer_norm_bwd(dh2, lt["ln2c"])
        if comp == "expert":
            add("expert", fpre + "ln.g", dg2)
            add("expert", fpre + "ln.b", db2)
        else:
            add("backbone", pre + "ln2.g", dg2)
            add("backbone", pre + "ln2.b", db2)
        dx = dx + dx1_norm

        # attention block: x1 = x0 + wo(attn(ln(x0)))
        dmerged, dwo = _mm_back(lt["merged"], p[pre + "attn.wo"], dx)
        add("backbone", pre + "attn.wo", dwo)
        dctx = _heads_split(dmerged, c.n_heads)
        probs, qh, kh, vh = lt["probs"], lt["qh"], lt["kh"], lt["vh"]
        dprobs = np.matmul(dctx, vh.transpose(0, 2, 1))
        dvh = np.matmul(probs.transpose(0, 2, 1), dctx)
        rowsum = (dprobs * probs).sum(axis=-1, keepdims=True)
        dprobs -= rowsum
        dprobs *= probs
        dscores = dprobs
        dqh = np.matmul(dscores, kh)
        dqh *= scale
        dkh = np.matmul(dscores.transpose(0, 2, 1), qh)
        dkh *= scale
        dq = _heads_merge(dqh, b, c.n_heads)
        dk = _heads_merge(dkh, b, c.n_heads)
        dv = _heads_merge(dvh, b, c.n_heads)
        h1 = lt["h1"]
        dh1 = np.zeros_like(h1)
        for name, dterm in (("wq", dq), ("wk", dk), ("wv", dv)):
            dxi, dwi = _mm_back(h1, p[pre + "attn." + name], dterm)
            add("backbone", pre + "attn." + name, dwi)
            dh1 += dxi
        dx0_norm, dg1, db1 = layer_norm_bwd(dh1, lt["ln1c"])
        add("backbone", pre + "ln1.g", dg1)
        add("backbone", pre + "ln1.b", db1)
        dx = dx + dx0_norm

    if ("backbone", "embed") in trainable:
        dembed = np.zeros_like(p["embed"])
        np.add.at(dembed, tokens, dx)
        grads[("backbone", "embed")] = dembed
    if ("backbone", "pos") in trainable:
        t = tokens.shape[1]
        dpos = np.zeros_like(p["pos"])
        dpos[:t] = dx.sum(axis=0)
        grads[("backbone", "pos")] = dpos
    return grads


def forward_base(model: BackboneModel, tokens: list[int]) -> np.ndarray:
    """Next-token logits [t, vocab] for a single sequence on the base model."""
    arr = np.asarray([tokens], dtype=np.int64)
    logits, _, _ = forward_batch(model, arr)
    return logits[0]


def forward_with_expert(
    model: BackboneModel, expert: ExpertSubnetwork, tokens: list[int]
) -> np.ndarray:
    """Logits with the expert's sublayers replacing the backbone feed-forwards
    at the expert's positions."""
    arr = np.asarray([tokens], dtype=np.int64)
    logits, _, _ = forward_batch(model, arr, expert=expert)
    return logits[0]

