"""Incremental greedy decoding with a per-sequence KV cache.

The cache holds the keys and values of one request's positions, keys
stored keys-major so that attention multiplies the queries by them without a
transposed view. Prefill fills the prompt's positions in one
``forward_batch`` pass, whose last layer, once its keys and values are
cached, carries only the last row on to the logits; a prompt longer than
``2 * kernels.TILE`` tokens is attended in causal query tiles, each scoring
only the keys its queries can see (see ``kernels.attention``). Each decode
step is a one-token ``forward_batch`` pass that appends exactly one position
per layer, so cache length always equals the number of tokens processed.
Training, planner scoring, prefill and decode all run the same block. A
decode step's lone row ([d]) takes the block's lean lane: weights fetched
once per pass from cached name tables, 1-D dense products through
``np.dot``, and attention over the cache's per-head views with no copy.
The no-cache path recomputes the full forward every step and must produce
identical token sequences; tests hold the cached path to that oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import CcoeError, SequenceLengthError
from .model import BackboneModel, ExpertSubnetwork
from .net import check_token_ids, forward_batch, token_row
from .tokenizer import EOS


def check_count(value, what: str, error: type[CcoeError] = SequenceLengthError) -> int:
    """``value`` as an int >= 1; anything else, a bool included, raises
    ``error``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise error(f"{what} must be an integer >= 1, got {value!r}")
    return int(value)


class KvCache:
    """Per-layer cached keys/values for one in-flight decode.

    ``capacity`` positions (default: the model's ``max_seq``) are allocated
    up front. Keys are keys-major: ``k[i]`` is [n_heads, head_dim, capacity],
    so the score product multiplies the queries by ``k[i][..., :n]`` as a
    plain row-major matrix per head. ``k_rows[i]`` is a token-major
    [capacity, d_model] view of the same memory, through which a pass writes
    its key rows. Values are token-major: ``v[i]`` is [capacity, d_model],
    and ``v_heads[i]`` is its [n_heads, capacity, head_dim] view, which
    attention slices once per layer. A decode step writes one row of each
    per layer.
    """

    def __init__(self, model: BackboneModel, capacity: int | None = None):
        c = model.config
        capacity = c.max_seq if capacity is None else check_count(capacity, "cache capacity")
        if capacity > c.max_seq:
            raise SequenceLengthError(f"cache capacity {capacity} exceeds max_seq {c.max_seq}")
        dt = model.params["embed"].dtype
        hd = c.d_model // c.n_heads
        keys = [np.empty((c.d_model, capacity), dtype=dt) for _ in range(c.n_layers)]
        self.k = [a.reshape(c.n_heads, hd, capacity) for a in keys]
        self.k_rows = [a.T for a in keys]
        self.v = [np.empty((capacity, c.d_model), dtype=dt) for _ in range(c.n_layers)]
        self.v_heads = [a.reshape(capacity, c.n_heads, hd).transpose(1, 0, 2) for a in self.v]
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

    A one-token ``forward_batch`` pass over the cache, with its checks: a
    full cache raises ``SequenceLengthError``, a token that is not an
    integer id in the vocabulary ``TokenIdError`` and a bad expert position
    ``RoutingConfigError``, all before the cache changes. Non-finite logits
    raise ``NumericError`` after the cache has taken the position.
    """
    return forward_batch(model, np.array([[token]]), expert, cache=cache)[0][0, 0]


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

    ``prompt`` is a list or 1-D array of ids. It is converted once, without
    a cast (``net.token_row``): an id that is not an integer in the
    vocabulary (a float, a str, a bool) raises ``TokenIdError``, and an
    empty prompt ``SequenceLengthError``.
    """
    if len(prompt) == 0:
        raise SequenceLengthError("prompt must be nonempty")
    max_new = check_count(max_new, "max_new")
    if len(prompt) + max_new > model.config.max_seq:
        raise SequenceLengthError(
            f"prompt ({len(prompt)}) + max_new ({max_new}) exceeds max_seq {model.config.max_seq}"
        )
    tokens = token_row(prompt)
    check_token_ids(tokens, model.config.vocab_size, "prompt")
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
