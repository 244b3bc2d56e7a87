"""Incremental greedy decoding with a per-sequence KV cache.

The cache holds key/value buffers for one request's positions. Prefill fills
the prompt's positions in one batched forward pass; each decode step then
appends exactly one position per layer, so cache length always equals the
number of tokens processed. A decode step attends over the cache with two
matmuls per layer (query against the cached keys, then the weights against
the cached values) and shares the layer norm of the batched pass. The no-cache
path recomputes the full forward every step and must produce identical token
sequences; tests hold the cached path to that oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, SequenceLengthError, TokenIdError
from .kernels import gelu, layer_norm_fwd
from .model import BackboneModel, ExpertSubnetwork, validate_positions
from .net import ffn_sources, forward_batch
from .tokenizer import EOS


class KvCache:
    """Per-layer cached keys/values for one in-flight decode.

    ``capacity`` positions (default: the model's ``max_seq``) are allocated up
    front; ``k[i]`` and ``v[i]`` are [n_heads, capacity, head_dim].
    """

    def __init__(self, model: BackboneModel, capacity: int | None = None):
        c = model.config
        capacity = c.max_seq if capacity is None else capacity
        if capacity > c.max_seq:
            raise SequenceLengthError(f"cache capacity {capacity} exceeds max_seq {c.max_seq}")
        hd = c.d_model // c.n_heads
        dt = model.params["embed"].dtype
        self.k = [np.empty((c.n_heads, capacity, hd), dtype=dt) for _ in range(c.n_layers)]
        self.v = [np.empty((c.n_heads, capacity, hd), dtype=dt) for _ in range(c.n_layers)]
        self.capacity = capacity
        self.length = 0

    def __len__(self) -> int:
        return self.length


def decode_step(
    model: BackboneModel,
    expert: ExpertSubnetwork | None,
    token: int,
    cache: KvCache,
) -> np.ndarray:
    """Process one token at position len(cache); returns next-token logits [vocab].

    Per layer, the token's key and value are written at that position and
    attention over the cached positions is two matmuls. Raises
    ``NumericError`` when the logits are not finite, as ``forward_batch``
    does; the cache has then already taken the position.
    """
    c = model.config
    p = model.params
    pos = cache.length
    if pos >= cache.capacity:
        raise SequenceLengthError(
            f"decode position {pos} exceeds cache capacity {cache.capacity}"
        )
    if not 0 <= token < c.vocab_size:
        raise TokenIdError(f"token id {token} outside vocabulary [0, {c.vocab_size})")
    if expert is not None:
        validate_positions(c, expert.positions)
    n_heads = c.n_heads
    hd = c.d_model // n_heads
    scale = 1.0 / math.sqrt(hd)
    srcs = ffn_sources(model, expert)

    x = p["embed"][token] + p["pos"][pos]
    for i in range(c.n_layers):
        pre = f"layers.{i}."
        h1, _ = layer_norm_fwd(x, p[pre + "ln1.g"], p[pre + "ln1.b"])
        q = (h1 @ p[pre + "attn.wq"]).reshape(n_heads, hd)
        k = (h1 @ p[pre + "attn.wk"]).reshape(n_heads, hd)
        v = (h1 @ p[pre + "attn.wv"]).reshape(n_heads, hd)
        cache.k[i][:, pos, :] = k
        cache.v[i][:, pos, :] = v
        keys = cache.k[i][:, : pos + 1, :]
        vals = cache.v[i][:, : pos + 1, :]
        scores = np.matmul(keys, q[:, :, None])[:, :, 0]  # [h, pos+1]
        scores *= scale
        scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= np.add.reduce(scores, axis=-1, keepdims=True)
        ctx = np.matmul(scores[:, None, :], vals).reshape(c.d_model)
        x = x + ctx @ p[pre + "attn.wo"]

        _, fp, fpre, lnpre = srcs[i]
        h2, _ = layer_norm_fwd(x, fp[lnpre + "g"], fp[lnpre + "b"])
        act = gelu(h2 @ fp[fpre + "w1"] + fp[fpre + "b1"])
        x = x + act @ fp[fpre + "w2"] + fp[fpre + "b2"]

    cache.length = pos + 1
    hf, _ = layer_norm_fwd(x, p["ln_f.g"], p["ln_f.b"])
    logits = hf @ p["head"]
    if not np.isfinite(logits).all():
        raise NumericError(f"decode step at position {pos} produced non-finite logits")
    return logits


def greedy_decode(
    model: BackboneModel,
    expert: ExpertSubnetwork | None,
    prompt: list[int],
    max_new: int,
    use_cache: bool = True,
    stop_token: int | None = EOS,
) -> list[int]:
    """Greedy continuation of ``prompt``; returns only the generated tokens.

    Argmax ties break toward the lowest token id. Stops early when
    ``stop_token`` is produced (the stop token is included in the output).
    The cached path prefills the prompt with one ``forward_batch`` pass and
    decodes each generated token but the last with ``decode_step``. Both paths
    raise ``NumericError`` on non-finite logits.
    """
    if not prompt:
        raise SequenceLengthError("prompt must be nonempty")
    if max_new < 1:
        raise SequenceLengthError("max_new must be >= 1")
    if len(prompt) + max_new > model.config.max_seq:
        raise SequenceLengthError(
            f"prompt ({len(prompt)}) + max_new ({max_new}) exceeds max_seq {model.config.max_seq}"
        )
    tokens = np.asarray([prompt], dtype=np.int64)
    # the last generated token is never fed back, so it needs no cache position
    cache = KvCache(model, len(prompt) + max_new - 1) if use_cache else None
    logits = forward_batch(model, tokens, expert=expert, cache=cache)[0][0, -1]
    out: list[int] = []
    while True:
        nxt = int(np.argmax(logits))  # first max wins: lowest id on ties
        out.append(nxt)
        if len(out) == max_new or nxt == stop_token:
            return out
        if cache is not None:
            logits = decode_step(model, expert, nxt, cache)
        else:
            tokens = np.append(tokens, [[nxt]], axis=1)
            logits = forward_batch(model, tokens, expert=expert)[0][0, -1]
