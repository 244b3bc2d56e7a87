"""Registry mutations: a refused push changes nothing."""

import copy
import tracemalloc

import numpy as np
import pytest

from ccoe.checkpoint import digest, save_checkpoint
from ccoe.errors import BudgetError, ConfigError, RoutingConfigError
from ccoe.lifecycle import ExpertRegistry, attach_planner, budget_limit_bytes, push
from ccoe.model import ExpertSubnetwork, ModelConfig, init_backbone, init_expert, param_bytes
from ccoe.rng import Rng
from ccoe.routing import init_planner

TINY = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab_size=260, max_seq=64)


def registry_with_planner() -> ExpertRegistry:
    reg = ExpertRegistry(backbone=init_backbone(TINY, Rng(1)).freeze(), seed=3)
    rng = Rng(2)
    for eid, name in ((1, "copy"), (4, "reverse")):
        push(reg, init_expert(TINY, eid, name, (eid % TINY.n_layers,), rng.child(name)))
    attach_planner(reg, init_planner(TINY, sorted(reg.experts), (0,), rng.child("pl")))
    return reg


def over_budget(reg):
    expert = init_expert(TINY, 9, "sort_digits", (0, 1), Rng(5), inner_width=4 * TINY.d_ff)
    assert param_bytes(expert) > budget_limit_bytes(reg)
    return expert


def redomained(reg):
    return init_expert(TINY, 1, "reverse", (1,), Rng(6))


def out_of_range(reg):
    return ExpertSubnetwork(expert_id=9, domain="mod_add", positions=(TINY.n_layers,),
                            inner_width=4)


@pytest.mark.parametrize("make, error", [(over_budget, BudgetError),
                                         (redomained, ConfigError),
                                         (out_of_range, RoutingConfigError)])
def test_refused_push_leaves_the_registry_unchanged(make, error):
    reg = registry_with_planner()
    experts = dict(reg.experts)
    mapping = copy.deepcopy(reg.mapping.rows)
    planner = reg.planner
    ids, indicators = list(planner.indicator_ids), planner.indicators.copy()
    uncalibrated = set(planner.uncalibrated)
    ledger = reg.ledger()

    with pytest.raises(error) as err:
        push(reg, make(reg))
    assert type(err.value) is error  # a re-domain is not a position error

    assert reg.experts == experts
    assert all(reg.experts[eid] is e for eid, e in experts.items())
    assert reg.mapping.rows == mapping
    assert reg.planner is planner
    assert planner.indicator_ids == ids and planner.uncalibrated == uncalibrated
    assert np.array_equal(planner.indicators, indicators)
    assert reg.ledger() == ledger


def test_push_from_a_path_registers_the_loaded_expert_without_a_copy(tmp_path, target_config):
    reg = ExpertRegistry(backbone=init_backbone(target_config, Rng(60)).freeze())
    expert = init_expert(target_config, 0, "copy", (0, 4), Rng(61))
    path = tmp_path / "copy.ccoe"
    save_checkpoint(expert, path)
    largest = max(a.nbytes for a in expert.params.values())
    tracemalloc.start()
    try:
        push(reg, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= param_bytes(expert) + largest
    pushed = reg.experts[0]
    assert digest(pushed) == digest(expert)
    assert not any(a.flags.writeable for a in pushed.params.values())
