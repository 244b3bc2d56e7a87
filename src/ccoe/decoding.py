"""Incremental greedy decoding with a per-sequence KV cache.

A cached request prefills its prompt in one ``forward_batch`` pass over a
``KvCache``, then decodes one position per pass, so the cache length is
the number of tokens processed. The no-cache path recomputes the whole
forward at each step and emits the same tokens. A cached request takes the
model's spare ``net.Workspace`` for itself, cuts its cache from it and
gives it back whether it returns or raises.
"""

from __future__ import annotations

import numpy as np

from .errors import CcoeError, ConfigError, SequenceLengthError
from .model import BackboneModel, ExpertSubnetwork
from .net import Workspace, check_token_ids, forward_batch, give_back, take_workspace, token_row
from .tokenizer import EOS


def check_count(value, what: str, error: type[CcoeError] = SequenceLengthError) -> int:
    """``value`` as an int >= 1; anything else, a bool included, raises
    ``error``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise error(f"{what} must be an integer >= 1, got {value!r}")
    return int(value)


class KvCache:
    """Per-layer keys and values of one in-flight decode: ``capacity``
    positions (default ``max_seq``) cut from the KV block of ``workspace`` (a
    new ``net.Workspace`` when None), which the cache holds for its request; no
    unwritten position is read. ``k[i]`` is keys-major [h, hd, capacity] with
    token-major view ``k_rows[i]``; ``v[i]`` is [capacity, d_model] with view
    ``v_heads[i]`` [h, capacity, hd]. A capacity that is not an integer in
    [1, ``max_seq``] raises ``SequenceLengthError``, a workspace of another
    config or dtype ``ConfigError``. ``forward_batch`` keeps on the cache its last pass's
    (``backbone``, ``expert``) pair and their ``weights``, which a pass with the
    same two objects reuses unvalidated: start a new cache after replacing a
    params entry or the positions of either."""

    def __init__(self, model: BackboneModel, capacity: int | None = None,
                 workspace: Workspace | None = None):
        c = model.config
        capacity = c.max_seq if capacity is None else check_count(capacity, "cache capacity")
        if capacity > c.max_seq:
            raise SequenceLengthError(f"cache capacity {capacity} exceeds max_seq {c.max_seq}")
        span = c.max_seq * c.d_model
        dtype = model.params["embed"].dtype
        if workspace is None:
            workspace = Workspace(c, dtype)
        elif workspace.config != c or workspace.dtype != dtype:
            raise ConfigError(
                f"a workspace for {workspace.config} in {workspace.dtype} cannot hold the "
                f"cache of a model of {c} in {dtype}"
            )
        block = workspace.buffers["kv"]
        hd = c.d_model // c.n_heads
        n = capacity * c.d_model
        keys = [block[i * span:i * span + n].reshape(c.d_model, capacity)
                for i in range(c.n_layers)]
        self.k = [a.reshape(c.n_heads, hd, capacity) for a in keys]
        self.k_rows = [a.T for a in keys]
        self.v = [block[i * span:i * span + n].reshape(capacity, c.d_model)
                  for i in range(c.n_layers, 2 * c.n_layers)]
        self.v_heads = [a.reshape(capacity, c.n_heads, hd).transpose(1, 0, 2) for a in self.v]
        self.workspace = workspace
        self.capacity = capacity
        self.length = 0
        self.backbone = self.expert = self.weights = None

    def __len__(self) -> int:
        return self.length


def decode_step(
    model: BackboneModel,
    expert: ExpertSubnetwork | None,
    token: int,
    cache: KvCache,
) -> np.ndarray:
    """One token at position ``len(cache)``; returns next-token logits
    [vocab]. A one-token ``forward_batch`` over the cache, with its errors: a
    full cache, a bad token id or a bad expert position raise before the cache
    changes, non-finite logits after it has taken the position."""
    return forward_batch(model, np.array([[token]]), expert, cache=cache)[0][0, 0]


def greedy_decode(
    model: BackboneModel,
    expert: ExpertSubnetwork | None,
    prompt: list[int],
    max_new: int,
    use_cache: bool = True,
    stop_token: int | None = EOS,
) -> list[int]:
    """Greedy continuation of ``prompt``, a list or 1-D array of ids converted
    without a cast (``net.token_row``); returns only the generated tokens,
    ``stop_token`` included when it ends them early. Argmax ties go to the
    lowest id. Raises ``SequenceLengthError`` for an empty prompt, a
    ``max_new`` that is not an integer >= 1 or a prompt plus ``max_new`` past
    ``max_seq``; ``TokenIdError`` for a prompt id that is not an integer in the
    vocabulary (a float, a str, a bool); ``NumericError`` for non-finite
    logits. Cached and uncached decodes emit the same tokens, and a cached one
    those of a fresh workspace."""
    if len(prompt) == 0:
        raise SequenceLengthError("prompt must be nonempty")
    max_new = check_count(max_new, "max_new")
    if len(prompt) + max_new > model.config.max_seq:
        raise SequenceLengthError(
            f"prompt ({len(prompt)}) + max_new ({max_new}) exceeds max_seq {model.config.max_seq}"
        )
    tokens = token_row(prompt)
    check_token_ids(tokens, model.config.vocab_size, "prompt")
    if not use_cache:
        return _continue(model, expert, tokens, max_new, None, stop_token)
    ws = take_workspace(model)
    try:
        # the last generated token is never fed back, so it needs no cache position
        cache = KvCache(model, len(prompt) + max_new - 1, ws)
        return _continue(model, expert, tokens, max_new, cache, stop_token)
    finally:
        give_back(model, ws)


def _continue(model, expert, tokens, max_new, cache, stop_token) -> list[int]:
    logits = forward_batch(model, tokens, expert=expert, cache=cache)[0][0, -1]
    out: list[int] = []
    while True:
        nxt = int(logits.argmax())  # first max wins: lowest id on ties
        out.append(nxt)
        if len(out) == max_new or nxt == stop_token:
            return out
        if cache is not None:
            logits = decode_step(model, expert, nxt, cache)
        else:
            tokens = np.append(tokens, [[nxt]], axis=1)
            logits = forward_batch(model, tokens, expert=expert)[0][0, -1]
