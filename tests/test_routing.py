"""Routing: mapping-matrix gating and iterative planner execution."""

import numpy as np
import pytest

from ccoe import kernels, routing
from ccoe.errors import GatingError, RoutingError, UnknownExpertError
from ccoe.lifecycle import ExpertRegistry
from ccoe.model import ModelConfig, deep_copy_backbone, init_backbone, init_expert
from ccoe.rng import Rng
from ccoe.routing import MappingMatrix, answerers, execute_plan, gate, init_planner

TINY = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab_size=260, max_seq=64)


@pytest.fixture(scope="module")
def registry():
    backbone = deep_copy_backbone(init_backbone(TINY, Rng(7)))
    backbone.params["head"][:] = 0.0  # every logit ties, so each decode emits token 0
    rng = Rng(8)
    experts = {eid: init_expert(TINY, eid, name, (eid % TINY.n_layers,), rng.child(name))
               for eid, name in ((1, "copy"), (4, "reverse"))}
    return ExpertRegistry(backbone=backbone.freeze(), experts=experts)


@pytest.fixture(scope="module")
def tied_planner(registry):
    planner = init_planner(TINY, sorted(registry.experts), (0,), Rng(9))
    planner.scorer["fw"][:] = 0.0
    planner.scorer["fb"][:] = 0.0
    return planner


# --- gating ---------------------------------------------------------------------


def test_mapping_bit_that_is_not_binary_raises():
    with pytest.raises(GatingError):
        MappingMatrix(rows={"copy": {1: 2}})


def test_gate_on_an_unknown_domain_tag_raises(registry):
    with pytest.raises(GatingError):
        gate(MappingMatrix(rows={"copy": {1: 1}}), registry, [("nope", "abc")])


def test_gate_on_a_mapping_to_an_unregistered_expert_raises(registry):
    with pytest.raises(UnknownExpertError):
        gate(MappingMatrix(rows={"copy": {1: 1, 9: 1}}), registry, [("copy", "abc")])


def test_gate_on_an_all_zero_row_gives_the_base_model(registry):
    mapping = MappingMatrix(rows={"copy": {1: 0, 4: 0}, "both": {4: 1, 1: 1}})
    base, both = gate(mapping, registry, [("copy", "abc"), ("both", "abc")])
    assert base.steps == ()  # no expert step: the base model answers
    assert both.expert_ids() == (1, 4)
    mapped = ExpertRegistry(backbone=registry.backbone, experts=registry.experts, mapping=mapping)
    assert answerers(mapped, "copy") == [None]
    assert answerers(mapped, "both") == [registry.experts[1], registry.experts[4]]


# --- planner execution ------------------------------------------------------------


def test_execute_plan_rejects_a_zero_step_cap(registry, tied_planner):
    with pytest.raises(RoutingError):
        execute_plan("abc", tied_planner, registry, max_steps=0)


@pytest.mark.parametrize("max_steps", [1.5, True])
def test_execute_plan_rejects_a_step_cap_that_is_not_an_integer(registry, tied_planner, max_steps):
    # 1.5 used to raise a bare TypeError, True to run one step
    with pytest.raises(RoutingError):
        execute_plan("abc", tied_planner, registry, max_steps=max_steps)


def test_tied_scores_pick_the_lowest_id_until_the_step_cap(registry, tied_planner):
    _text, path = execute_plan("abc", tied_planner, registry, max_steps=3, max_new=4)
    assert len(path.steps) == 3  # STOP is the last slot, so it never wins a tie
    assert path.expert_ids() == (1, 1, 1)
    assert not path.truncated


def test_execute_plan_flags_carried_context_trimmed_to_fit(registry, tied_planner):
    # step 1 fits (50 + 4 tokens) and decodes 11 tokens into the 64-token
    # window; step 2 needs 50 + 11 + 5 = 66 tokens, so the carried answer is trimmed
    text, path = execute_plan("x" * 50, tied_planner, registry, max_steps=2, max_new=16)
    assert len(path.steps) == 2
    assert path.truncated
    assert text == "\x00"  # step 2's prompt left room for one token


def test_a_stop_first_fallback_decodes_only_what_the_context_has_room_for(registry):
    # the 53-token step prompt leaves room for 11 of the 16 new tokens, as it
    # does for an expert step; the fallback used to ask for all 16 and raise
    stop_only = init_planner(TINY, [], (0,), Rng(9))
    text, path = execute_plan("x" * 50, stop_only, registry, max_steps=2, max_new=16)
    assert path.steps == ()
    assert text == "\x00" * 11


# --- planner scoring ----------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scores_without_an_all_zero_key_mask_equal_the_masked_ones(dtype, monkeypatch):
    backbone = init_backbone(TINY, Rng(10))
    planner = init_planner(TINY, [0, 1, 2], (1,), Rng(11), warm_from=backbone)
    backbone.params = {k: v.astype(dtype) for k, v in backbone.params.items()}
    planner.expert.params = {k: v.astype(dtype) for k, v in planner.expert.params.items()}
    planner.scorer = {k: v.astype(dtype) for k, v in planner.scorer.items()}
    planner.indicators = planner.indicators.astype(dtype)
    rng = Rng(12)
    one = [257] + [int(t) for t in rng.integers(0, 256, size=20)]
    other = [257] + [int(t) for t in rng.integers(0, 256, size=20)]
    # one subtask, and two of one length each in its own row: no key is hidden
    batches = [[one], [one, other]]
    assert kernels.key_mask(np.zeros((2, 21), dtype=bool)) is None
    skipped = [routing.score_batch(planner, backbone, b) for b in batches]
    with monkeypatch.context() as m:
        m.setattr(routing, "key_mask",
                  lambda hidden: kernels._additive(hidden.T)[:, None, :, None])
        masked = [routing.score_batch(planner, backbone, b) for b in batches]
    for got, want in zip(skipped, masked):
        assert got.dtype == dtype
        assert np.array_equal(got, want)
