"""Incremental greedy decoding with a per-sequence KV cache.

A cached request prefills its prompt with one ``forward_batch`` pass over a
``KvCache``, then decodes one token per pass, each appending one position
per layer, so the cache length always equals the number of tokens
processed. The no-cache path recomputes the full forward every step and
emits the same tokens; tests hold the cached path to that oracle.

Workspace contract: a cached ``greedy_decode`` takes the model's spare
``net.Workspace`` for the whole request (``net.take_workspace``), cuts its
cache from the workspace's KV block, and gives it back whether the request
returns or raises, so a concurrent request on the same model gets a
workspace of its own. The prefill writes its temporaries into the same
workspace and reads nothing an earlier request left there: its logits and
cache entries are bit-identical to a pass that allocates them.
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
    """Per-layer cached keys/values for one in-flight decode.

    ``capacity`` positions (default: the model's ``max_seq``) are laid out
    up front in the KV block of ``workspace`` (a new ``net.Workspace`` when
    None), a flat array of ``2 * n_layers`` stretches of ``max_seq *
    d_model`` values, one per layer's keys and one per layer's values; each
    array is the first ``capacity * d_model`` values of its stretch, so one
    block serves a cache of any capacity. The block is used as it is: the
    positions a pass has not written are never read. A multi-row pass over
    the cache writes its temporaries into the same workspace, so the cache
    holds it for its request alone. Keys are keys-major: ``k[i]`` is
    [n_heads, head_dim, capacity], so the score product multiplies the
    queries by ``k[i][..., :n]`` as a plain row-major matrix per head.
    ``k_rows[i]`` is a token-major [capacity, d_model] view of the same
    memory, through which a pass writes its key rows. Values are
    token-major: ``v[i]`` is [capacity, d_model], and ``v_heads[i]`` is its
    [n_heads, capacity, head_dim] view, which attention slices once per
    layer. A decode step writes one row of each per layer. A ``workspace``
    made for another config or dtype than the model's raises
    ``ConfigError``.

    Pair contract: ``net.forward_batch`` sets ``backbone``, ``expert`` and
    ``weights`` to the (backbone, expert) pair of the last pass over the
    cache and that pair's ``net.layer_weights``. A pass with the same two
    objects reuses those weights and does not validate the expert again, so
    it does not see a params entry or ``positions`` replaced since: a cache
    must not outlive such a change to its pair (start a new cache). A pass
    with another pair validates the expert and resolves its weights before
    the cache changes.
    """

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
        # set by forward_batch: the pair whose keys and values the cache holds
        self.backbone = self.expert = self.weights = None

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
    raise ``NumericError`` after the cache has taken the position. A step
    with the pair of the cache's last pass reuses that pass's weights, so a
    params entry replaced since is not seen (``KvCache``'s pair contract).
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

    A cached request takes the model's spare workspace for itself
    (``net.take_workspace``), cuts its cache from it and gives it back
    whether it returns or raises, so a concurrent request on the same model
    gets a workspace of its own. Its tokens are those of a fresh workspace.
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
