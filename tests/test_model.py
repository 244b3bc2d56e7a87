"""Model contracts: init, parameter accounting, splice semantics, decoding."""

import hashlib
import json
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccoe import decoding, kernels, net
from ccoe.checkpoint import digest
from ccoe.decoding import KvCache, decode_step, greedy_decode
from ccoe.errors import (
    ConfigError,
    DimensionError,
    NumericError,
    RoutingConfigError,
    SequenceLengthError,
    TokenIdError,
)
from ccoe.kernels import attention, causal_mask
from ccoe.model import (
    BackboneModel,
    ModelConfig,
    backbone_param_count,
    deep_copy_backbone,
    deep_copy_expert,
    expert_param_count,
    init_backbone,
    init_expert,
    param_bytes,
    param_count,
)
from ccoe.net import Workspace, forward_base, forward_batch, forward_with_expert, workspace_bytes
from ccoe.rng import Rng

TINY = ModelConfig(n_layers=4, d_model=32, n_heads=4, d_ff=64, vocab_size=260, max_seq=64)

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_logits.json"


@pytest.fixture(scope="module")
def tiny_model():
    return init_backbone(TINY, Rng(40))


def closed_form_param_count(c: ModelConfig) -> int:
    # independent arithmetic: embeddings + positions + L * (attention
    # projections + two norms + ffn) + final norm + head
    attn = 4 * c.d_model * c.d_model
    norms = 2 * 2 * c.d_model
    ffn = c.d_model * c.d_ff + c.d_ff + c.d_ff * c.d_model + c.d_model
    return (
        c.vocab_size * c.d_model
        + c.max_seq * c.d_model
        + c.n_layers * (attn + norms + ffn)
        + 2 * c.d_model
        + c.d_model * c.vocab_size
    )


def test_param_count_matches_closed_form(tiny_model):
    assert param_count(tiny_model) == closed_form_param_count(TINY)
    assert backbone_param_count(TINY) == closed_form_param_count(TINY)


def test_param_count_closed_form_spec_config():
    c = ModelConfig(n_layers=4, d_model=32, vocab_size=260, n_heads=4, d_ff=128)
    m = init_backbone(c, Rng(1))
    assert param_count(m) == closed_form_param_count(c)


def test_init_deterministic():
    a = init_backbone(TINY, Rng(9))
    b = init_backbone(TINY, Rng(9))
    assert set(a.params) == set(b.params)
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k])


@pytest.mark.parametrize(
    "bad",
    [
        dict(d_model=30, n_heads=4),
        dict(n_layers=1),
        dict(vocab_size=1),
    ],
)
def test_invalid_config_rejected(bad):
    with pytest.raises(ConfigError):
        ModelConfig(**bad).validate()


def test_forward_base_shape_and_finite(tiny_model):
    logits = forward_base(tiny_model, [257, 5, 10, 20])
    assert logits.shape == (4, TINY.vocab_size)
    assert logits.dtype == np.float32
    assert np.isfinite(logits).all()


def test_forward_base_prefix_causality(tiny_model):
    tokens = [257, 3, 1, 4, 1, 5, 9, 2]
    full = forward_base(tiny_model, tokens)
    for j in (2, 5):
        part = forward_base(tiny_model, tokens[:j])
        assert np.abs(part - full[:j]).max() < 1e-5


def test_forward_rejects_overlong_sequence(tiny_model):
    with pytest.raises(SequenceLengthError):
        forward_base(tiny_model, [1] * (TINY.max_seq + 1))


@pytest.mark.parametrize("bad", [-1, TINY.vocab_size])
def test_forward_rejects_token_id_outside_vocab(tiny_model, bad):
    # a negative id would otherwise read the last embedding row silently
    with pytest.raises(TokenIdError):
        forward_batch(tiny_model, np.asarray([[257, bad, 3]], dtype=np.int64))


def test_forward_base_rejects_an_empty_sequence(tiny_model):
    with pytest.raises(DimensionError):
        forward_base(tiny_model, [])


@pytest.mark.parametrize("shape", [(1, 0), (0, 3), (3,)])
def test_forward_rejects_a_malformed_token_batch(tiny_model, shape):
    # an empty batch or a 1-D array is not a [rows, positions] batch
    with pytest.raises(DimensionError):
        forward_batch(tiny_model, np.full(shape, 257, dtype=np.int64))


def test_forward_rejects_float_token_ids(tiny_model):
    with pytest.raises(TokenIdError):
        forward_batch(tiny_model, np.asarray([[257.0, 1.0, 2.0]]))
    # a float id in a list is not truncated to an integer one
    with pytest.raises(TokenIdError):
        forward_base(tiny_model, [257, 2.7])
    expert = init_expert(TINY, 0, "x", (1,), Rng(7))
    with pytest.raises(TokenIdError):
        forward_with_expert(tiny_model, expert, [257, 2.7])
    # nor is a bool read as the id 0 or 1
    with pytest.raises(TokenIdError):
        forward_base(tiny_model, [257, True])
    with pytest.raises(TokenIdError):
        forward_with_expert(tiny_model, expert, (257, False))


def test_forward_golden_regression(tiny_model):
    """Golden logits captured once from the oracle-validated kernels and
    tracked in the repository; guards against silent numeric drift. A missing
    file fails the test: it is never written here, or a lost golden would
    pass against whatever the code computes today."""
    tokens = [257, 104, 105, 33]
    logits = forward_base(tiny_model, tokens)
    sample = logits[-1, :8].astype(float).tolist()
    assert GOLDEN_PATH.exists(), f"golden file {GOLDEN_PATH} is missing"
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["tokens"] == tokens
    assert np.abs(np.array(golden["last_row_head"]) - np.array(sample)).max() < 1e-6


# --- expert splicing -----------------------------------------------------------


def test_expert_with_no_positions_is_identity(tiny_model):
    empty = init_expert(TINY, 0, "noop", (), Rng(2))
    tokens = [257, 8, 9]
    assert np.array_equal(
        forward_with_expert(tiny_model, empty, tokens), forward_base(tiny_model, tokens)
    )
    assert param_bytes(empty) == 0


def test_expert_copied_from_backbone_is_identity(tiny_model):
    clone = init_expert(TINY, 1, "clone", (0, 2), Rng(3), warm_from=tiny_model)
    tokens = [257, 8, 9, 77]
    assert np.array_equal(
        forward_with_expert(tiny_model, clone, tokens), forward_base(tiny_model, tokens)
    )


def hand_composed_standalone(backbone: BackboneModel, expert) -> BackboneModel:
    """Independent oracle: a complete standalone model with the expert's
    sublayers written into the backbone parameter set."""
    model = deep_copy_backbone(backbone)
    for pos in expert.positions:
        model.params[f"layers.{pos}.ln2.g"] = expert.params[f"p{pos}.ln.g"].copy()
        model.params[f"layers.{pos}.ln2.b"] = expert.params[f"p{pos}.ln.b"].copy()
        model.params[f"layers.{pos}.ffn.w1"] = expert.params[f"p{pos}.w1"].copy()
        model.params[f"layers.{pos}.ffn.b1"] = expert.params[f"p{pos}.b1"].copy()
        model.params[f"layers.{pos}.ffn.w2"] = expert.params[f"p{pos}.w2"].copy()
        model.params[f"layers.{pos}.ffn.b2"] = expert.params[f"p{pos}.b2"].copy()
    return model


def test_splice_matches_standalone_at_last_layer(tiny_model):
    expert = init_expert(TINY, 2, "tail", (TINY.n_layers - 1,), Rng(4), warm_from=tiny_model)
    expert.params[f"p{TINY.n_layers - 1}.w1"] += Rng(5).normal(
        expert.params[f"p{TINY.n_layers - 1}.w1"].shape, 0.02
    )
    oracle = hand_composed_standalone(tiny_model, expert)
    tokens = [257, 1, 2, 3, 4]
    got = forward_with_expert(tiny_model, expert, tokens)
    want = forward_base(oracle, tokens)
    assert np.abs(got - want).max() < 1e-6


def test_expert_position_out_of_range_rejected(tiny_model):
    with pytest.raises(RoutingConfigError):
        init_expert(TINY, 3, "bad", (TINY.n_layers,), Rng(6))
    ok_elsewhere = init_expert(
        ModelConfig(n_layers=8, d_model=32, n_heads=4, d_ff=64), 3, "bad8", (7,), Rng(6)
    )
    with pytest.raises(RoutingConfigError):
        forward_with_expert(tiny_model, ok_elsewhere, [1, 2])


def test_expert_positions_must_increase():
    with pytest.raises(RoutingConfigError):
        init_expert(TINY, 4, "dup", (2, 2), Rng(7))


def test_expert_param_count_formula():
    e = init_expert(TINY, 5, "x", (0, 3), Rng(8), inner_width=48)
    assert param_count(e) == expert_param_count(TINY, 2, 48)
    assert param_bytes(e) == 4 * param_count(e)


# --- decoding ------------------------------------------------------------------


def test_greedy_decode_one_token_is_argmax(tiny_model):
    prompt = [257, 50, 60]
    logits = forward_base(tiny_model, prompt)
    out = greedy_decode(tiny_model, None, prompt, max_new=1, stop_token=None)
    assert out == [int(np.argmax(logits[-1]))]


def test_greedy_decode_cache_matches_no_cache(tiny_model):
    rng = Rng(31)
    for trial in range(20):
        n = int(rng.integers(1, 8))
        prompt = [257] + [int(t) for t in rng.integers(0, 256, size=n)]
        with_cache = greedy_decode(tiny_model, None, prompt, max_new=8, use_cache=True,
                                   stop_token=None)
        without = greedy_decode(tiny_model, None, prompt, max_new=8, use_cache=False,
                                stop_token=None)
        assert with_cache == without


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_greedy_decode_cache_matches_no_cache_with_expert(tiny_model, seed):
    expert = init_expert(TINY, 0, "x", (0, 2), Rng(seed))
    rng = Rng(seed + 100)
    for trial in range(4):
        n = int(rng.integers(1, 20))
        prompt = [257] + [int(t) for t in rng.integers(0, 256, size=n)]
        with_cache = greedy_decode(tiny_model, expert, prompt, max_new=16, use_cache=True,
                                   stop_token=None)
        without = greedy_decode(tiny_model, expert, prompt, max_new=16, use_cache=False,
                                stop_token=None)
        assert with_cache == without


def test_greedy_decode_tie_breaks_to_lowest_id(tiny_model):
    flat = deep_copy_backbone(tiny_model)
    flat.params["head"] = np.zeros_like(flat.params["head"])  # all logits equal
    out = greedy_decode(flat, None, [257, 1], max_new=1, stop_token=None)
    assert out == [0]


def test_greedy_decode_context_overflow(tiny_model):
    with pytest.raises(SequenceLengthError):
        greedy_decode(tiny_model, None, [1] * 60, max_new=10)


def test_kv_cache_length_tracks_tokens(tiny_model):
    cache = KvCache(tiny_model)
    for i, tok in enumerate([257, 1, 2, 3]):
        decode_step(tiny_model, None, tok, cache)
        assert len(cache) == i + 1


@pytest.mark.parametrize("bad", [
    -1, TINY.vocab_size,
    # numpy scalars take the one-id check with its Python comparison
    pytest.param(np.uint64(2**64 - 1), id="uint64-max"),
    pytest.param(np.int8(-1), id="int8--1"),
    pytest.param(np.int64(TINY.vocab_size), id="int64-vocab"),
])
def test_decode_step_rejects_token_id_outside_vocab(tiny_model, bad):
    cache = KvCache(tiny_model)
    decode_step(tiny_model, None, 257, cache)
    with pytest.raises(TokenIdError):
        decode_step(tiny_model, None, bad, cache)
    assert len(cache) == 1


@pytest.mark.parametrize("bad", [2.5, 3.0, "3", None, pytest.param(np.bool_(True), id="bool_")])
def test_decode_step_rejects_a_token_that_is_not_an_integer(tiny_model, bad):
    cache = KvCache(tiny_model)
    decode_step(tiny_model, None, 257, cache)
    with pytest.raises(TokenIdError):
        decode_step(tiny_model, None, bad, cache)
    assert len(cache) == 1


@pytest.mark.parametrize("token", [pytest.param(np.int32(5), id="int32"),
                                   pytest.param(np.uint8(5), id="uint8")])
def test_decode_step_takes_a_numpy_integer_id_as_that_id(tiny_model, token):
    logits = []
    for tok in (5, token):
        cache = KvCache(tiny_model)
        decode_step(tiny_model, None, 257, cache)
        logits.append(decode_step(tiny_model, None, tok, cache))
    assert np.array_equal(*logits)


@pytest.mark.parametrize("prompt", [[257, 2.7], "ab", [257, None], [257, True], (257, False)])
def test_greedy_decode_rejects_prompt_ids_that_are_not_integers(tiny_model, prompt):
    # [257, 2.7] used to decode as [257, 2], and [257, True] as [257, 1]
    for use_cache in (True, False):
        with pytest.raises(TokenIdError):
            greedy_decode(tiny_model, None, prompt, 2, use_cache=use_cache)


def test_greedy_decode_takes_a_numpy_prompt_like_a_list(tiny_model):
    prompt = [257, 50, 60, 7]
    want = greedy_decode(tiny_model, None, prompt, 5, stop_token=None)
    for dtype in (np.int64, np.int32, np.uint16):
        assert greedy_decode(tiny_model, None, np.asarray(prompt, dtype=dtype), 5,
                             stop_token=None) == want
    with pytest.raises(SequenceLengthError):
        greedy_decode(tiny_model, None, np.asarray([], dtype=np.int64), 5)


@pytest.mark.parametrize("capacity", [0, -1])
def test_kv_cache_capacity_below_one_rejected(tiny_model, capacity):
    with pytest.raises(SequenceLengthError):
        KvCache(tiny_model, capacity)


@pytest.mark.parametrize("max_new", [2.5, "3", True])
def test_greedy_decode_rejects_a_max_new_that_is_not_an_integer(tiny_model, max_new):
    with pytest.raises(SequenceLengthError):
        greedy_decode(tiny_model, None, [257, 5], max_new)


def test_decode_step_raises_on_non_finite_logits(tiny_model):
    model = deep_copy_backbone(tiny_model)
    model.params["embed"][7] = np.nan
    cache = KvCache(model)
    forward_batch(model, np.asarray([[257, 1, 2]], dtype=np.int64), cache=cache)
    with pytest.raises(NumericError):
        decode_step(model, None, 7, cache)


def test_frozen_model_rejects_writes(tiny_model):
    model = deep_copy_backbone(tiny_model)
    model.freeze()
    with pytest.raises(ValueError):
        model.params["embed"][0, 0] = 1.0


def test_batched_forward_matches_single(tiny_model):
    seqs = [[257, 1, 2, 3], [257, 9, 8, 7]]
    batched, _, _ = forward_batch(tiny_model, np.asarray(seqs, dtype=np.int64))
    for i, s in enumerate(seqs):
        single = forward_base(tiny_model, s)
        assert np.abs(batched[i] - single).max() < 1e-5


def test_greedy_decode_never_decodes_its_last_token(tiny_model, monkeypatch):
    calls = []

    def counting_step(*args):
        calls.append(args[2])
        return decode_step(*args)

    monkeypatch.setattr(decoding, "decode_step", counting_step)
    out = greedy_decode(tiny_model, None, [257, 5, 6], max_new=6, stop_token=None)
    assert len(out) == 6
    assert calls == out[:-1]  # the prompt is prefilled, the last token never fed back


def test_decode_step_rejects_expert_position_out_of_range(tiny_model):
    deeper = init_expert(
        ModelConfig(n_layers=8, d_model=32, n_heads=4, d_ff=64), 3, "bad8", (7,), Rng(6)
    )
    cache = KvCache(tiny_model)
    with pytest.raises(RoutingConfigError):
        decode_step(tiny_model, deeper, 257, cache)
    assert len(cache) == 0


def test_decode_step_on_full_request_sized_cache_raises(tiny_model):
    cache = KvCache(tiny_model, 3)
    for tok in [257, 1, 2]:
        decode_step(tiny_model, None, tok, cache)
    with pytest.raises(SequenceLengthError):
        decode_step(tiny_model, None, 3, cache)
    assert len(cache) == 3


def test_kv_cache_capacity_beyond_max_seq_rejected(tiny_model):
    with pytest.raises(SequenceLengthError):
        KvCache(tiny_model, TINY.max_seq + 1)


def test_prefill_rejects_two_rows_and_a_nonempty_cache(tiny_model):
    two_rows = np.asarray([[257, 1], [257, 2]], dtype=np.int64)
    with pytest.raises(DimensionError):
        forward_batch(tiny_model, two_rows, cache=KvCache(tiny_model))
    # a used cache is appended to: a prefill in two chunks equals a one-shot prefill
    model = _float64(deep_copy_backbone(tiny_model))
    prompt = np.asarray([[257] + [int(t) for t in Rng(8).integers(0, 256, size=20)]])
    whole = KvCache(model, 21)
    whole_logits, _, _ = forward_batch(model, prompt, cache=whole)
    chunked = KvCache(model, 21)
    forward_batch(model, prompt[:, :9], cache=chunked)
    chunk_logits, _, _ = forward_batch(model, prompt[:, 9:], cache=chunked)
    assert len(chunked) == len(whole) == 21
    for i in range(TINY.n_layers):
        assert np.abs(chunked.k[i] - whole.k[i]).max() < 1e-12
        assert np.abs(chunked.v[i] - whole.v[i]).max() < 1e-12
    assert np.abs(chunk_logits - whole_logits).max() < 1e-12
    with pytest.raises(SequenceLengthError):
        forward_batch(tiny_model, np.asarray([[257, 1, 2]], dtype=np.int64),
                      cache=KvCache(tiny_model, 2))


def _float64(component):
    component.params = {k: v.astype(np.float64) for k, v in component.params.items()}
    return component


MAX_NEW = 4


@settings(deadline=None, max_examples=40)
@given(
    length=st.integers(1, TINY.max_seq - MAX_NEW),
    positions=st.none() | st.sets(st.integers(0, TINY.n_layers - 1), max_size=3),
    seed=st.integers(0, 2**16),
)
def test_prefill_matches_per_token_decode(tiny_model, length, positions, seed):
    model = _float64(deep_copy_backbone(tiny_model))
    expert = None
    if positions is not None:
        expert = _float64(init_expert(TINY, 0, "x", tuple(sorted(positions)), Rng(seed)))
    prompt = [257] + [int(t) for t in Rng(seed).integers(0, 256, size=length - 1)]

    prefilled = KvCache(model, length)
    logits, _, _ = forward_batch(model, np.asarray([prompt], dtype=np.int64), expert=expert,
                                 cache=prefilled)
    stepped = KvCache(model, length)
    for tok in prompt:
        step_logits = decode_step(model, expert, tok, stepped)
    assert len(prefilled) == len(stepped) == length
    for i in range(TINY.n_layers):
        assert np.abs(prefilled.k[i] - stepped.k[i]).max() < 1e-12
        assert np.abs(prefilled.v[i] - stepped.v[i]).max() < 1e-12
    assert logits.shape == (1, 1, TINY.vocab_size)
    assert np.abs(logits[0, -1] - step_logits).max() < 1e-12

    cached = greedy_decode(model, expert, prompt, MAX_NEW, stop_token=None)
    assert cached == greedy_decode(model, expert, prompt, MAX_NEW, use_cache=False,
                                   stop_token=None)


# the fixtures' 8-layer, d=64 shape, with a context that holds 150-250-token
# prompts like the long shared few-shot prefixes of long-prompt serving
MID = ModelConfig(n_layers=8, d_model=64, n_heads=4, d_ff=128, vocab_size=260, max_seq=256)


@pytest.fixture(scope="module")
def mid_model():
    return init_backbone(MID, Rng(44))


@pytest.fixture(scope="module")
def mid_expert():
    return init_expert(MID, 0, "gl", (0, 4), Rng(45))


def _long_prompt(length, seed):
    return [257] + [int(t) for t in Rng(seed).integers(0, 256, size=length - 1)]


@settings(deadline=None, max_examples=4)
@given(length=st.integers(150, 250), seed=st.integers(0, 2**16))
def test_long_prefill_matches_per_token_decode_and_the_uncached_last_row(
        mid_model, mid_expert, length, seed):
    model = _float64(deep_copy_backbone(mid_model))
    expert = _float64(deep_copy_expert(mid_expert))
    prompt = _long_prompt(length, seed)
    tokens = np.asarray([prompt], dtype=np.int64)

    prefilled = KvCache(model, length)
    logits, hidden, _ = forward_batch(model, tokens, expert=expert, cache=prefilled)
    stepped = KvCache(model, length)
    for tok in prompt:
        step_logits = decode_step(model, expert, tok, stepped)
    uncached, uncached_hidden, _ = forward_batch(model, tokens, expert=expert)
    assert len(prefilled) == len(stepped) == length
    for i in range(MID.n_layers):
        assert np.abs(prefilled.k[i] - stepped.k[i]).max() < 1e-12
        assert np.abs(prefilled.v[i] - stepped.v[i]).max() < 1e-12
    assert logits.shape == (1, 1, MID.vocab_size) and hidden.shape == (1, 1, MID.d_model)
    assert np.abs(logits[0, 0] - step_logits).max() < 1e-12
    assert np.abs(logits[0, 0] - uncached[0, -1]).max() < 1e-12
    assert np.abs(hidden[0, 0] - uncached_hidden[0, -1]).max() < 1e-12


@settings(deadline=None, max_examples=4)
@given(length=st.integers(130, 250), seed=st.integers(0, 2**16))
@example(length=130, seed=0)
@example(length=250, seed=1)
def test_long_prompt_cached_greedy_equals_uncached_in_float32(
        mid_model, mid_expert, length, seed):
    prompt = _long_prompt(length, seed)
    for expert in (None, mid_expert):
        cached = greedy_decode(mid_model, expert, prompt, 6, stop_token=None)
        assert cached == greedy_decode(mid_model, expert, prompt, 6, use_cache=False,
                                       stop_token=None)


@settings(deadline=None, max_examples=3)
@given(length=st.integers(10, 40), seed=st.integers(0, 2**16))
def test_short_prompt_cached_greedy_equals_uncached_in_float32(
        mid_model, mid_expert, length, seed):
    # a gated request as mixed serving sends it: a 10-40-token prompt and 24
    # new tokens, of which 23 are one-row decode steps
    prompt = _long_prompt(length, seed)
    for expert in (None, mid_expert):
        cached = greedy_decode(mid_model, expert, prompt, 24, stop_token=None)
        assert len(cached) == 24
        assert cached == greedy_decode(mid_model, expert, prompt, 24, use_cache=False,
                                       stop_token=None)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("length", [129, 193])
def test_tiled_prefill_equals_the_one_tile_pass_bit_for_bit(
        mid_model, mid_expert, monkeypatch, length, dtype):
    model, expert = deep_copy_backbone(mid_model), deep_copy_expert(mid_expert)
    if dtype is np.float64:
        model, expert = _float64(model), _float64(expert)
    tokens = np.asarray([_long_prompt(length, 9)])

    def passes():
        cache = KvCache(model, length)
        cached = forward_batch(model, tokens, expert=expert, cache=cache)[:2]
        return cache, cached, forward_batch(model, tokens, expert=expert)[:2]

    tiled_cache, *tiled = passes()
    with monkeypatch.context() as m:
        m.setattr(kernels, "TILE", 512)  # every pass is one tile, with its causal mask
        one_cache, *one = passes()
    for i in range(MID.n_layers):
        assert np.array_equal(tiled_cache.k[i], one_cache.k[i])
        assert np.array_equal(tiled_cache.v[i], one_cache.v[i])
    for got, want in zip(tiled, one):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_long_chunked_prefill_matches_a_one_shot_prefill(mid_model, mid_expert):
    # the second chunk is 190 queries after 60 cached positions: a tiled pass with start > 0
    model = _float64(deep_copy_backbone(mid_model))
    expert = _float64(deep_copy_expert(mid_expert))
    prompt = np.asarray([_long_prompt(250, 10)])
    whole = KvCache(model, 250)
    whole_logits, _, _ = forward_batch(model, prompt, expert=expert, cache=whole)
    chunked = KvCache(model, 250)
    forward_batch(model, prompt[:, :60], expert=expert, cache=chunked)
    chunk_logits, _, _ = forward_batch(model, prompt[:, 60:], expert=expert, cache=chunked)
    assert len(chunked) == len(whole) == 250
    for i in range(MID.n_layers):
        assert np.abs(chunked.k[i] - whole.k[i]).max() < 1e-12
        assert np.abs(chunked.v[i] - whole.v[i]).max() < 1e-12
    assert np.abs(chunk_logits - whole_logits).max() < 1e-12


def test_long_cached_prefill_builds_no_causal_mask(mid_model, monkeypatch):
    masks = []

    def spy(*args):
        masks.append(args[5])
        return attention(*args)

    monkeypatch.setattr(net, "attention", spy)
    # a long prefill runs in tiles; a short one, cached or not, adds a slice
    # of the one cached triangle over its last keys
    forward_batch(mid_model, np.asarray([_long_prompt(200, 11)]), cache=KvCache(mid_model, 200))
    assert masks == [None] * MID.n_layers
    masks.clear()
    cache = KvCache(mid_model, 60)
    for chunk in (_long_prompt(40, 11), _long_prompt(20, 12)):
        forward_batch(mid_model, np.asarray([chunk]), cache=cache)
    forward_batch(mid_model, np.asarray([_long_prompt(30, 13)]))
    # a cached pass's last layer attends from its last row alone, unmasked
    masks = [mask for mask in masks if mask is not None]
    assert len(masks) == 3 * MID.n_layers - 2
    base = masks[0].base
    for mask in masks:
        assert not mask.flags.writeable and mask.base is base
        assert np.array_equal(mask, causal_mask(len(mask)))


# SHA-256 of a 25-token prefill's logits and the logits of 8 greedy decode
# steps after it, then of the cache's key and value rows, at the fixture shape
PINNED_DECODE = {
    "base": ("a1c6d9674d48e0ad2dac599a3af3b071b048c96ff0b498c3e7af8999ad7fdc50",
             "99d0a491c00a194f5fb860b7f452ba97873d0b6846ace976c96756f358d6e454"),
    "gl": ("bd3efa8a8c5e2a61acec0110d32053b7444accd0160d4b2b03bd4629c550f57e",
           "061531d2d611a13155f59380d2a326d4e647d9e04540b1572b9bfa7b41c1756d"),
}


@pytest.mark.parametrize("name", PINNED_DECODE)
def test_decode_keeps_its_pinned_bits(mid_model, mid_expert, name):
    expert = mid_expert if name == "gl" else None
    cache = KvCache(mid_model, 33)
    logits = [forward_batch(mid_model, np.asarray([_long_prompt(25, 18)]), expert,
                            cache=cache)[0][0, 0]]
    for _ in range(8):
        logits.append(decode_step(mid_model, expert, int(logits[-1].argmax()), cache))
    rows = [a[:len(cache)] for a in (*cache.k_rows, *cache.v)]
    got = tuple(hashlib.sha256(np.ascontiguousarray(np.stack(a)).tobytes()).hexdigest()
                for a in (logits, rows))
    assert got == PINNED_DECODE[name]


def test_a_cached_request_resolves_its_layer_weights_once(mid_model, mid_expert, monkeypatch):
    calls = {"layer_weights": 0, "validate_positions": 0}
    for name, real in [(name, getattr(net, name)) for name in calls]:
        def spy(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(net, name, spy)
    out = greedy_decode(mid_model, mid_expert, _long_prompt(20, 19), 24, stop_token=None)
    assert len(out) == 24
    assert calls == {"layer_weights": 1, "validate_positions": 1}


def _copy_of(cache, model):
    # a cache with the same keys, values and length that has seen no pair
    copy = KvCache(model, cache.capacity, Workspace(model.config, np.float32))
    copy.workspace.buffers["kv"][:] = cache.workspace.buffers["kv"]
    copy.length = cache.length
    return copy


def test_a_pass_under_another_pair_uses_that_pairs_weights(mid_model, mid_expert):
    other = init_expert(MID, 1, "be", (6, 7), Rng(46), inner_width=48)
    beyond = init_expert(ModelConfig(n_layers=10, d_model=64, n_heads=4, d_ff=128),
                         2, "bad", (9,), Rng(47))
    seen = KvCache(mid_model, 30)
    forward_batch(mid_model, np.asarray([_long_prompt(20, 20)]), mid_expert, cache=seen)
    decode_step(mid_model, mid_expert, 5, seen)
    with pytest.raises(RoutingConfigError):
        decode_step(mid_model, beyond, 5, seen)
    assert len(seen) == 21
    for expert in (other, None, mid_expert):
        fresh = _copy_of(seen, mid_model)
        want = decode_step(mid_model, expert, 7, fresh)
        assert np.array_equal(decode_step(mid_model, expert, 7, seen), want)
    # a prefill chunk under another pair, too
    fresh = _copy_of(seen, mid_model)
    chunk = np.asarray([[8, 9, 10]])
    want = forward_batch(mid_model, chunk, other, cache=fresh)[0]
    assert np.array_equal(forward_batch(mid_model, chunk, other, cache=seen)[0], want)


def test_a_cache_keeps_its_pairs_weights_until_the_pair_changes(mid_model, mid_expert):
    # the pair contract: a params entry replaced after a cache's pass is not
    # seen by that cache under the same pair, and is seen by a new cache
    expert = deep_copy_expert(mid_expert)
    prompt = np.asarray([_long_prompt(20, 21)])
    used = KvCache(mid_model, 30)
    forward_batch(mid_model, prompt, expert, cache=used)
    fresh = _copy_of(used, mid_model)
    old = decode_step(mid_model, expert, 5, _copy_of(used, mid_model))
    name = next(iter(expert.params))
    expert.params[name] = expert.params[name] * 2
    assert np.array_equal(decode_step(mid_model, expert, 5, used), old)
    assert not np.array_equal(decode_step(mid_model, expert, 5, fresh), old)


def test_kv_cache_rejects_a_workspace_of_another_model(mid_model):
    # a float64 model used to cache in float32, and a shorter workspace to
    # fail on a bare ValueError
    m64 = _float64(deep_copy_backbone(mid_model))
    with pytest.raises(ConfigError):
        KvCache(m64, 10, Workspace(MID, np.float32))
    shorter = ModelConfig(n_layers=8, d_model=64, n_heads=4, d_ff=128, vocab_size=260,
                          max_seq=64)
    with pytest.raises(ConfigError):
        KvCache(mid_model, 10, Workspace(shorter, np.float32))
    assert KvCache(m64, 10, Workspace(MID, np.float64)).v[0].dtype == np.float64


def _fill_nan(ws):
    # a read of any value the pass has not written shows as a NaN
    for buf in ws.buffers.values():
        buf.fill(np.nan)


def test_a_second_long_request_allocates_almost_nothing(mid_model, mid_expert):
    model = deep_copy_backbone(mid_model)  # starts without a workspace
    prompt = _long_prompt(200, 12)

    def traced():
        tracemalloc.start()
        try:
            out = greedy_decode(model, mid_expert, prompt, 4, stop_token=None)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    first, fresh = traced()
    second, reused = traced()
    assert first == second
    assert fresh >= workspace_bytes(MID, np.float32)  # the first request made the workspace
    assert reused < 64 * 1024


def test_a_nan_filled_workspace_gives_the_tokens_of_a_fresh_one(mid_model, mid_expert):
    model = deep_copy_backbone(mid_model)
    prompt = _long_prompt(150, 13)
    want = greedy_decode(model, mid_expert, prompt, 6, stop_token=None)
    assert want == greedy_decode(model, mid_expert, prompt, 6, use_cache=False, stop_token=None)
    greedy_decode(model, None, _long_prompt(240, 14), 8, stop_token=None)
    (ws,) = model.workspaces.values()
    _fill_nan(ws)
    assert greedy_decode(model, mid_expert, prompt, 6, stop_token=None) == want
    _fill_nan(ws)
    assert greedy_decode(model, mid_expert, prompt, 6, use_cache=False, stop_token=None) == want
    assert model.workspaces[np.dtype(np.float32)] is ws


@pytest.mark.parametrize("with_expert", [False, True])
@pytest.mark.parametrize("length", [40, 129, 200])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_workspace_pass_equals_one_on_a_nan_workspace_and_one_without(
        mid_model, mid_expert, monkeypatch, dtype, length, with_expert):
    model = deep_copy_backbone(mid_model)
    expert = deep_copy_expert(mid_expert) if with_expert else None
    if dtype is np.float64:
        model = _float64(model)
        expert = expert and _float64(expert)
    tokens = np.asarray([_long_prompt(length, 15)])

    def passes(ws):
        # a prefill on a cache cut from ws, then an uncached pass, which
        # takes the model's spare workspace
        cache = KvCache(model, length, ws)
        prefill = forward_batch(model, tokens, expert=expert, cache=cache)[:2]
        keys = [a[..., :length] for a in cache.k]
        values = [a[:length] for a in cache.v]
        return [*prefill, *keys, *values, *forward_batch(model, tokens, expert=expert)[:2]]

    want = passes(Workspace(MID, dtype))
    (spare,) = model.workspaces.values()
    nan_ws = Workspace(MID, dtype)
    _fill_nan(nan_ws)
    _fill_nan(spare)
    on_nan = passes(nan_ws)
    with monkeypatch.context() as m:
        m.setattr(net.Workspace, "rows", lambda self, n: net._NO_ROWS)  # allocate every temporary
        allocated = passes(Workspace(MID, dtype))
    for got in (on_nan, allocated):
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def test_a_request_that_raises_gives_its_workspace_back(tiny_model, monkeypatch):
    model = deep_copy_backbone(tiny_model)
    greedy_decode(model, None, [257, 1, 2], 3)
    (ws,) = model.workspaces.values()
    spares_seen = []

    def failing(*args, **kwargs):
        spares_seen.append(len(model.workspaces))
        raise NumericError("forward pass produced non-finite logits")

    monkeypatch.setattr(decoding, "forward_batch", failing)
    with pytest.raises(NumericError):
        greedy_decode(model, None, [257, 1, 2], 3)
    assert spares_seen == [0]  # the request held the workspace when it raised
    assert model.workspaces[np.dtype(np.float32)] is ws


def test_two_threads_decoding_on_one_model_each_get_their_serial_tokens(mid_model, mid_expert):
    model = deep_copy_backbone(mid_model)
    jobs = [(mid_expert, _long_prompt(200, 16)), (None, _long_prompt(60, 17))]
    want = [[greedy_decode(model, e, p, 4, stop_token=None),
             greedy_decode(model, e, p, 2, use_cache=False, stop_token=None)] for e, p in jobs]
    got = [[], []]

    def client(i):
        expert, prompt = jobs[i]
        for _ in range(8):
            got[i].append([greedy_decode(model, expert, prompt, 4, stop_token=None),
                           greedy_decode(model, expert, prompt, 2, use_cache=False,
                                         stop_token=None)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for i in range(2):
        assert got[i] == [want[i]] * 8


def test_the_workspace_is_runtime_state_outside_the_parameters(tiny_model):
    model = deep_copy_backbone(tiny_model)
    before = param_bytes(model), digest(model)
    greedy_decode(model, None, [257, 1, 2], 3)
    (ws,) = model.workspaces.values()
    assert ws.nbytes == workspace_bytes(TINY, np.float32)
    assert (param_bytes(model), digest(model)) == before
    assert deep_copy_backbone(model).workspaces == {}
    assert "workspaces" not in repr(model)
