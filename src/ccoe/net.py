"""The transformer block: its one forward pass and its hand-written backward.

``forward_batch`` is the only implementation of the decoder block; training,
planner scoring, prefill and decode all run it. ``backward_batch`` walks its
tape in reverse and computes a weight gradient only for a trainable key,
stopping below the lowest layer that holds one, so a frozen backbone is
left out of differentiation by construction rather than by zeroing.

The tape keeps five arrays per layer. The backward rebuilds the rest by
repeating the forward's own operations on the same inputs (selective
recomputation, Korthikanti et al., arXiv 2205.05198), so bit for bit.
A ``Workspace`` holds one request's KV block and the temporaries of a
multi-row untaped pass over one row: runtime state on the model
(``BackboneModel.workspaces``). The parameters' dtype sets the computation's.
"""

from __future__ import annotations

import functools
import math
from operator import itemgetter

import numpy as np

from .errors import DimensionError, NumericError, SequenceLengthError, TokenIdError
from .kernels import (
    EPS,
    TILE,
    attention,
    attention_bwd,
    causal_tail,
    gelu_from_tanh,
    gelu_fwd,
    gelu_grad_from_tanh,
    gelu_tanh,
    layer_norm_bwd,
    layer_norm_fwd,
    layer_norm_out,
    segment_mask,
    tiles_queries,
)
from .model import (
    BackboneModel,
    ExpertSubnetwork,
    ModelConfig,
    attn_names,
    ffn_names,
    validate_positions,
)

GradKey = tuple[str, str]  # (component, parameter name)


def workspace_shapes(c: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of each buffer of a ``Workspace`` for ``c``: one
    request's KV block, then the temporaries of one layer of a pass of up to
    ``max_seq`` rows."""
    r, d, h = c.max_seq, c.d_model, c.n_heads
    return {
        "kv": (2 * c.n_layers * r * d,),  # decoding.KvCache's keys and values
        "x": (r, d),  # a layer's input rows, then its output rows
        "x1": (r, d),  # the rows after the attention sublayer
        "norm": (2, r, d),  # a layer norm's output and centred rows
        "q": (r, d),
        "k": (r, d),
        "v": (r, d),
        "ffn": (3 * r * c.d_ff,),  # pre-activation, GELU output, tanh(u)
        # kernels.attention's scratch: scaled queries, context rows, the
        # weights' sums and the widest score tile (one tile of at most
        # 2 * TILE queries, or tiles of at most TILE, over at most r keys)
        "attention": (2 * r * d + h * r + r * h * min(r, 2 * TILE),),
    }


def workspace_bytes(c: ModelConfig, dtype) -> int:
    """The bytes of a ``Workspace`` for ``c`` in ``dtype``."""
    return np.dtype(dtype).itemsize * sum(math.prod(s) for s in workspace_shapes(c).values())


class Workspace:
    """The buffers of one request on a model of ``config`` in ``dtype``
    (``workspace_shapes``). Its holder uses it alone (``take_workspace``)."""

    def __init__(self, config: ModelConfig, dtype):
        self.config = config
        self.dtype = np.dtype(dtype)
        # one block, so that no buffer holds a place in the heap between
        # short-lived allocations; pages no pass touches stay unmapped
        block = np.empty(workspace_bytes(config, dtype) // self.dtype.itemsize, dtype=self.dtype)
        self.buffers, start = {}, 0
        for name, shape in workspace_shapes(config).items():
            n = math.prod(shape)
            self.buffers[name] = block[start:start + n].reshape(shape)
            start += n

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.buffers.values())

    def rows(self, n: int) -> tuple:
        """The buffers of an ``n``-row pass, in the order ``forward_batch``
        unpacks them."""
        a = self.buffers
        norm = a["norm"][:, :n]
        return (a["x"][:n], a["x1"][:n], (norm[0], norm[1]), a["q"][:n], a["k"][:n],
                a["v"][:n], *self.ffn_rows(n, self.config.d_ff), a["attention"])

    def ffn_rows(self, n: int, width: int) -> tuple:
        """(pre-activation, (GELU output, tanh(u))) for ``n`` rows of a
        feed-forward ``width`` wide, or Nones when they do not fit."""
        flat = self.buffers["ffn"]
        if 3 * n * width > len(flat):
            return None, None
        a = flat[:3 * n * width].reshape(3, n, width)
        return a[0], (a[1], a[2])


def take_workspace(model: BackboneModel) -> Workspace:
    """The model's spare workspace for its parameters' dtype, removed from
    ``model.workspaces`` so no other pass gets it, or a new one when there is
    none. ``give_back`` returns it."""
    dtype = model.params["embed"].dtype
    ws = model.workspaces.pop(dtype, None)
    return Workspace(model.config, dtype) if ws is None else ws


def give_back(model: BackboneModel, ws: Workspace) -> None:
    """Keep ``ws`` as the model's spare workspace for its dtype."""
    model.workspaces[ws.dtype] = ws


_NO_ROWS = (None,) * 9  # the buffers of a pass without a workspace


def _mm_back(x, w, dy, need_dw=True):
    """Gradients of y = x @ w: returns (dx, dw); dw is None unless ``need_dw``."""
    di, do = w.shape
    dx = dy @ w.T
    dw = x.reshape(-1, di).T @ dy.reshape(-1, do) if need_dw else None
    return dx, dw


def sum_rows_by(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """[n, ...] sums of the rows of ``values`` grouped by ``index``: entry r
    adds every ``values[j]`` with ``index.flat[j] == r``, for ints in [0, n).
    Up to 64 groups it is one one-hot product (n multiply-adds per value);
    beyond, one ``np.bincount`` per column, which allocates no one-hot matrix."""
    rows = values.reshape(index.size, -1)
    if n <= 64:
        onehot = np.arange(n)[:, None] == index.reshape(-1)
        out = onehot.astype(values.dtype) @ rows
    else:
        flat = index.reshape(-1)
        out = np.empty((n, rows.shape[1]), dtype=values.dtype)
        for j in range(rows.shape[1]):
            out[:, j] = np.bincount(flat, weights=rows[:, j], minlength=n)
    return out.reshape(n, *values.shape[index.ndim:])


def check_token_ids(ids: np.ndarray, vocab_size: int, what: str = "token") -> None:
    """Raise ``TokenIdError`` unless ``ids`` are integers in
    ``[0, vocab_size)``. NumPy indexing would raise a bare ``IndexError`` for
    an id too large and wrap a negative one."""
    if ids.dtype.kind not in "iu":
        raise TokenIdError(f"{what} ids must be integers, got dtype {ids.dtype}")
    if ids.size == 1:
        bad = ids.item()  # one id (a decode step) as a Python int, compared without a cast
        if 0 <= bad < vocab_size:
            return
    else:
        # one reduction: a negative id wraps to a huge unsigned one
        if not ids.size or np.maximum.reduce(ids.astype(np.uint64, copy=False),
                                             axis=None) < vocab_size:
            return
        bad = int(ids[(ids < 0) | (ids >= vocab_size)].flat[0])
    raise TokenIdError(f"{what} id {bad} outside vocabulary [0, {vocab_size})")


def token_row(tokens) -> np.ndarray:
    """A list, tuple or 1-D array of ids as a [1, t] batch, converted without
    a cast. A ``bool`` in a list or tuple raises ``TokenIdError``: NumPy would
    take it for the id 0 or 1."""
    if isinstance(tokens, (list, tuple)) and bool in map(type, tokens):
        raise TokenIdError("token ids must be integers, got a bool")
    return np.asarray(tokens)[None]


@functools.cache
def layer_table(n_layers: int) -> tuple[tuple, ...]:
    """Per layer: the tensor names of its attention block, its backbone
    feed-forward and an expert's replacement for it (``model.attn_names``,
    ``model.ffn_names``), then an itemgetter for each of the three."""
    table = []
    for i in range(n_layers):
        names = (attn_names(i), *ffn_names(i))
        table.append((*names, *(itemgetter(*n) for n in names)))
    return tuple(table)


def layer_weights(backbone: BackboneModel, expert: ExpertSubnetwork | None):
    """Per layer: (attention tensors, feed-forward tensors) in
    ``layer_table`` order, the latter the expert's at its positions."""
    p = backbone.params
    positions = expert.positions if expert is not None else ()
    return [(attn(p), expert_ffn(expert.params) if i in positions else ffn(p))
            for i, (_, _, _, attn, ffn, expert_ffn)
            in enumerate(layer_table(backbone.config.n_layers))]


def _lowest_trainable_layer(layers, trainable: set[GradKey]):
    """(lowest layer holding a trainable tensor, whether its attention
    block holds one) for ``backward_batch``'s ``layers``: -1 when the
    embeddings are trainable, ``len(layers)`` when no layer is."""
    if ("backbone", "embed") in trainable or ("backbone", "pos") in trainable:
        return -1, True
    for i, (attn_names, comp, _, ffn_names) in enumerate(layers):
        attn = any(("backbone", n) in trainable for n in attn_names)
        if attn or any((comp, n) in trainable for n in ffn_names):
            return i, attn
    return len(layers), False


def pack(lengths: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lay sequences of ``lengths`` first-fit decreasing into rows as wide as
    the longest, so never more rows than sequences. Returns (row, start,
    positions): sequence ``i`` fills columns ``start[i] : start[i] + lengths[i]``
    of row ``row[i]``, and ``positions`` [rows, width], as ``forward_batch``
    takes it, restarts at 0 at each sequence and at a row's trailing pad slots."""
    width = max(lengths)
    row = np.empty(len(lengths), dtype=np.int64)
    start = np.empty_like(row)
    fill: list[int] = []
    # a stable sort: equal lengths keep their input order
    for i in sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True):
        n = lengths[i]
        r = next((r for r, used in enumerate(fill) if used + n <= width), len(fill))
        if r == len(fill):
            fill.append(0)
        row[i], start[i] = r, fill[r]
        fill[r] += n
    first = np.zeros((len(fill), width), dtype=np.int64)
    first[row, start] = start
    used = np.asarray(fill)
    tail = np.nonzero(used < width)[0]
    first[tail, used[tail]] = used[tail]
    return row, start, np.arange(width) - np.maximum.accumulate(first, axis=1)


def forward_batch(
    backbone: BackboneModel,
    tokens: np.ndarray,
    expert: ExpertSubnetwork | None = None,
    want_tape: bool = False,
    cache=None,
    positions: np.ndarray | None = None,
):
    """Forward a [b, t] int token batch; returns (logits, hidden, tape).

    ``hidden`` is the final-norm output. ``expert`` replaces the feed-forward
    sublayer, norm included, at its positions. Without ``positions`` each row
    is one sequence; ``positions`` [b, t] (``pack``) packs segments into a
    row, each attending only within itself. With ``cache`` (a
    ``decoding.KvCache``) the pass takes one untaped, unpacked row, appends
    its ``t`` positions at ``len(cache)`` and returns the last one only
    ([1, 1, ...]). With ``want_tape`` the tape keeps per layer ``ln1c``,
    ``ln2c``, ``probs`` ([b, h, t, s]), ``merged`` and ``pre``. A multi-row
    untaped pass over one unpacked row writes its temporaries into a
    ``Workspace`` (the cache's, else the model's spare): the same bits, and no
    returned array shares its memory.

    Raises ``DimensionError`` for tokens that are not a nonempty 2-D batch or
    a bad cached or packed pass, ``SequenceLengthError`` past ``max_seq`` or
    the cache's capacity, ``TokenIdError`` for ids outside the vocabulary,
    ``RoutingConfigError`` for a bad expert position, and ``NumericError`` for
    non-finite logits, which the cache has already taken.
    """
    c = backbone.config
    p = backbone.params
    if cache is not None and cache.backbone is backbone and cache.expert is expert:
        weights = cache.weights
    else:
        if expert is not None:
            validate_positions(c, expert.positions)
        weights = layer_weights(backbone, expert)
        if cache is not None:
            cache.backbone, cache.expert, cache.weights = backbone, expert, weights
    if tokens.ndim != 2 or not tokens.size:
        raise DimensionError(f"tokens must be a nonempty [rows, positions] batch, got {tokens.shape}")
    b, t = tokens.shape
    start = 0
    if cache is not None:
        if b != 1 or want_tape or positions is not None:
            raise DimensionError(
                f"a cached pass takes one unpacked row and no tape, got {b} rows, "
                f"tape={want_tape}, positions={positions is not None}"
            )
        start = cache.length
        if start + t > cache.capacity:
            raise SequenceLengthError(
                f"{t} positions after {start} exceed cache capacity {cache.capacity}"
            )
    elif t > c.max_seq:
        raise SequenceLengthError(f"sequence length {t} exceeds max_seq {c.max_seq}")
    check_token_ids(tokens, c.vocab_size)
    end = start + t
    ws = None
    if b * t == 1 and positions is None:
        x = p["embed"][tokens.item()] + p["pos"][start]
        tiled, future, bufs = False, None, _NO_ROWS
    else:
        tiled = positions is None and tiles_queries(b, t, want_tape)
        if b == 1 and positions is None and not want_tape:
            ws = take_workspace(backbone) if cache is None else cache.workspace
        bufs = _NO_ROWS if ws is None else ws.rows(t)
        if positions is None:
            future = None if tiled else causal_tail(t, c.max_seq)
            if ws is None:
                x = p["embed"][tokens] + p["pos"][start:end]
            else:
                x = np.take(p["embed"], tokens[0], axis=0, out=bufs[0], mode="clip")  # ids checked
                x += p["pos"][start:end]
        else:
            if positions.shape != tokens.shape or not (
                    (positions >= 0) & (positions <= np.arange(t))).all():
                raise DimensionError(
                    f"positions {positions.shape} must match tokens {tokens.shape} "
                    "and lie in 0..column"
                )
            future = segment_mask(positions)
            x = p["embed"][tokens] + p["pos"][positions]
        x = x.reshape((b * t, c.d_model) if b * t > 1 else (c.d_model,))
    xb, x1b, nb, qb, kb, vb, preb, fb, scratch = bufs
    # a one-token pass writes its cache rows through an index, cheaper than a slice
    cached = slice(start, end) if t > 1 else start
    # the same bits either way: np.dot has the lower fixed cost at one row,
    # np.matmul is 10-20% faster from a few hundred rows
    dot = np.dot if b * t == 1 else np.matmul
    layers_tape = []
    last = c.n_layers - 1
    for i, ((ln1g, ln1b, wq, wk, wv, wo), (ln2g, ln2b, w1, b1, w2, b2)) in enumerate(weights):
        h1, ln1c = layer_norm_fwd(x, ln1g, ln1b, EPS, nb)
        k = dot(h1, wk, kb)
        if cache is None:
            v = dot(h1, wv, vb)
        else:
            cache.k_rows[i][cached] = k
            dot(h1, wv, cache.v[i][cached])
            k = cache.k[i][..., :end]
            v = cache.v_heads[i][:, :end]
            if i == last and t > 1:
                # every position's keys and values are cached: only the
                # last row, which sees them all, goes on to the logits
                x, h1, future = x[-1], h1[-1], None
                xb = x1b = nb = qb = preb = fb = None
        q = dot(h1, wq, qb)
        merged, probs = attention(q, k, v, b, c.n_heads, future, want_tape, tiled, scratch)
        x1 = dot(merged, wo, x1b)
        x1 += x

        h2, ln2c = layer_norm_fwd(x1, ln2g, ln2b, EPS, nb)
        pre_out, gelu_out = preb, fb
        if preb is not None and w1.shape[1] != preb.shape[1]:  # an expert of another width
            pre_out, gelu_out = ws.ffn_rows(t, w1.shape[1])
        pre_act = dot(h2, w1, pre_out)
        pre_act += b1
        act, tanh_u = gelu_fwd(pre_act, gelu_out)
        x = dot(act, w2, xb)
        x += b2
        x += x1
        if want_tape:
            layers_tape.append({"ln1c": ln1c, "probs": probs, "merged": merged,
                                "ln2c": ln2c, "pre": pre_act})

    if cache is not None:
        cache.length = end
    hidden, lnfc = layer_norm_fwd(x, p["ln_f.g"], p["ln_f.b"])
    if cache is None and ws is not None:
        give_back(backbone, ws)  # the last read of its rows is done
    logits = dot(hidden, p["head"])
    if not np.isfinite(logits).all():
        raise NumericError("forward pass produced non-finite logits")
    tape = None
    if want_tape:
        tape = {"tokens": tokens, "positions": positions, "layers": layers_tape,
                "hidden": hidden, "lnfc": lnfc}
    return logits.reshape(b, -1, c.vocab_size), hidden.reshape(b, -1, c.d_model), tape


def backward_batch(
    backbone: BackboneModel,
    tape: dict,
    trainable: set[GradKey],
    expert: ExpertSubnetwork | None = None,
    dlogits: np.ndarray | None = None,
    dhidden: np.ndarray | None = None,
) -> dict[GradKey, np.ndarray]:
    """Gradients of a taped forward, for the keys in ``trainable`` only.
    ``dlogits`` (at the head) and ``dhidden`` (at the final-norm output, as the
    planner's scorer seeds it) are summed when both are given. The walk stops
    below the lowest layer holding a trainable tensor, and at that layer after
    the feed-forward when its attention block is frozen. A gradient does not
    depend on which other keys are trainable."""
    c = backbone.config
    p = backbone.params
    grads: dict[GradKey, np.ndarray] = {}

    def need(comp, name):
        return (comp, name) in trainable

    def add(comp, name, val):
        if need(comp, name):
            grads[(comp, name)] = val

    # per layer: attention names, then the feed-forward's component, params and names
    positions = expert.positions if expert is not None else ()
    layers = [(an, "expert", expert.params, en) if i in positions else (an, "backbone", p, bn)
              for i, (an, bn, en, _, _, _) in enumerate(layer_table(c.n_layers))]
    lowest, lowest_attn = _lowest_trainable_layer(layers, trainable)
    tokens = tape["tokens"]
    b, t = tokens.shape
    hidden = tape["hidden"]  # rows, like every taped activation
    ones = np.ones(b * t, dtype=hidden.dtype)
    dot = np.dot if b * t == 1 else np.matmul  # the forward's product

    dh = np.zeros_like(hidden)
    if dlogits is not None:
        dlogits = dlogits.reshape(*hidden.shape[:-1], -1)
        dx_h, dhead = _mm_back(hidden, p["head"], dlogits, need("backbone", "head"))
        add("backbone", "head", dhead)
        dh += dx_h
    if dhidden is not None:
        dh += dhidden.reshape(hidden.shape)
    dx, dg, db = layer_norm_bwd(dh, tape["lnfc"],
                                need("backbone", "ln_f.g") or need("backbone", "ln_f.b"))
    add("backbone", "ln_f.g", dg)
    add("backbone", "ln_f.b", db)

    for i in reversed(range(max(lowest, 0), c.n_layers)):
        lt = tape["layers"][i]
        (ln1g, ln1b, wq, wk, wv, wo), comp, fp, (ln2g, ln2b, w1, b1, w2, b2) = layers[i]

        # feed-forward block: x = x1 + f(ln(x1)); its input and GELU output
        # are rebuilt only for a weight gradient
        df = dx
        pre = lt["pre"]
        tanh_u = gelu_tanh(pre)
        act = gelu_from_tanh(pre, tanh_u) if need(comp, w2) else None
        dact, dw2 = _mm_back(act, fp[w2], df, need(comp, w2))
        add(comp, w2, dw2)
        if need(comp, b2):
            add(comp, b2, ones @ df.reshape(len(ones), -1))
        dpre = gelu_grad_from_tanh(pre, tanh_u)
        dpre *= dact
        h2 = layer_norm_out(lt["ln2c"], fp[ln2b]) if need(comp, w1) else None
        dh2, dw1 = _mm_back(h2, fp[w1], dpre, need(comp, w1))
        add(comp, w1, dw1)
        if need(comp, b1):
            add(comp, b1, ones @ dpre.reshape(len(ones), -1))
        dx1_norm, dg2, db2 = layer_norm_bwd(dh2, lt["ln2c"], need(comp, ln2g) or need(comp, ln2b))
        add(comp, ln2g, dg2)
        add(comp, ln2b, db2)
        if i == lowest and not lowest_attn:
            break
        dx += dx1_norm

        # attention block: x1 = x0 + wo(attn(ln(x0))); its input and
        # projections are rebuilt
        dmerged, dwo = _mm_back(lt["merged"], p[wo], dx, need("backbone", wo))
        add("backbone", wo, dwo)
        h1 = layer_norm_out(lt["ln1c"], p[ln1b])
        dq, dk, dv = attention_bwd(dmerged, lt["merged"], dot(h1, p[wq]), dot(h1, p[wk]),
                                   dot(h1, p[wv]), lt["probs"], c.n_heads)
        dh1 = None
        for key, dterm in ((wq, dq), (wk, dk), (wv, dv)):
            dxi, dwi = _mm_back(h1, p[key], dterm, need("backbone", key))
            add("backbone", key, dwi)
            dh1 = dxi if dh1 is None else np.add(dh1, dxi, out=dh1)
        dx0_norm, dg1, db1 = layer_norm_bwd(dh1, lt["ln1c"],
                                            need("backbone", ln1g) or need("backbone", ln1b))
        add("backbone", ln1g, dg1)
        add("backbone", ln1b, db1)
        dx += dx0_norm

    dx = dx.reshape(b, t, -1)
    if need("backbone", "embed"):
        grads[("backbone", "embed")] = sum_rows_by(tokens, dx, c.vocab_size)
    if need("backbone", "pos"):
        dpos = np.zeros_like(p["pos"])
        if tape["positions"] is None:
            dpos[:t] = dx.sum(axis=0)
        else:
            dpos[:t] = sum_rows_by(tape["positions"], dx, t)
        grads[("backbone", "pos")] = dpos
    return grads


def forward_base(model: BackboneModel, tokens: list[int]) -> np.ndarray:
    """Next-token logits [t, vocab] of one sequence on the base model; an id
    that is not an integer raises ``TokenIdError`` (``token_row``)."""
    logits, _, _ = forward_batch(model, token_row(tokens))
    return logits[0]


def forward_with_expert(
    model: BackboneModel, expert: ExpertSubnetwork, tokens: list[int]
) -> np.ndarray:
    """Logits with the expert's sublayers replacing the backbone feed-forwards
    at the expert's positions."""
    logits, _, _ = forward_batch(model, token_row(tokens), expert=expert)
    return logits[0]

