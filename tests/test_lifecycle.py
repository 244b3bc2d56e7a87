"""Registry mutations: a refused push changes nothing."""

import copy
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ccoe.checkpoint import digest, save_checkpoint
from ccoe.errors import BudgetError, ConfigError, RoutingConfigError
from ccoe.decoding import greedy_decode
from ccoe.lifecycle import (
    ExpertRegistry,
    attach_planner,
    budget_limit_bytes,
    memory_report,
    push,
)
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


def test_push_checkpoint_registers_the_loaded_expert_under_the_given_id(tmp_path):
    reg = registry_with_planner()
    path = tmp_path / "copy.ccoe"
    save_checkpoint(init_expert(TINY, 0, "sort_digits", (1,), Rng(62)), path)
    pushed = push(reg, path, 7)
    assert pushed.expert_id == 7 and reg.experts[7] is pushed
    assert 0 not in reg.experts
    assert reg.mapping.rows["sort_digits"] == {7: 1}
    assert 7 in reg.planner.indicator_ids


def test_memory_report_shows_the_workspace_beside_an_unchanged_total():
    reg = registry_with_planner()
    report = memory_report(reg)
    greedy_decode(reg.backbone, None, [257, 1, 2], 2)
    (ws,) = reg.backbone.workspaces.values()
    assert report.runtime == (("workspace", ws.nbytes),)
    # the parameter rows, total and both comparisons as before the workspace
    assert report.rows == (("backbone", 54784), ("expert:1:copy", 4416),
                           ("expert:4:reverse", 4416), ("planner", 8772))
    assert report.total == 72388 and report.mdme_equal_bytes == 109568
    assert report.mdme_equal_reduction == Fraction(9295, 27392)
    assert report.capped_total == Fraction(356096, 5)
    assert report.capped_reduction == Fraction(7, 20)
    assert {"runtime": "workspace", "bytes": ws.nbytes} in report.records()


def test_attach_planner_drops_a_stale_row_and_adds_a_missing_one_as_push_would():
    live = registry_with_planner()
    push(live, init_expert(TINY, 6, "mod_add", (1,), Rng(7)))
    pushed_row = live.planner.indicators[live.planner.indicator_ids.index(6)]
    assert live.planner.uncalibrated == {6}

    reg = ExpertRegistry(backbone=live.backbone, seed=live.seed)
    for eid in sorted(live.experts):
        push(reg, live.experts[eid])
    stale = init_planner(TINY, [1, 4, 9], (0,), Rng(2).child("pl"))
    rows = stale.indicators.copy()
    attach_planner(reg, stale)

    planner = reg.planner
    assert planner.indicator_ids == [1, 4, 6] and planner.uncalibrated == {6}
    assert np.array_equal(planner.indicators[2], pushed_row)
    # the kept rows and the STOP row are the given planner's
    assert np.array_equal(planner.indicators[[0, 1, 3]], rows[[0, 1, 3]])
    assert stale.indicator_ids == [1, 4, 9] and np.array_equal(stale.indicators, rows)


def test_push_registers_an_expert_object_as_a_copy_under_the_given_id():
    reg = registry_with_planner()
    expert = init_expert(TINY, 0, "sort_digits", (1,), Rng(62))
    pushed = push(reg, expert, 7)
    assert pushed is reg.experts[7] and pushed is not expert
    assert pushed.expert_id == 7 and expert.expert_id == 0 and 0 not in reg.experts
    assert not np.shares_memory(pushed.params["p1.w1"], expert.params["p1.w1"])
    assert reg.mapping.rows["sort_digits"] == {7: 1} and reg.planner.uncalibrated == {7}
