"""Serving bench: workload validation, report records and the residency and
outputs of the three systems."""

import pytest

from ccoe import bench, net
from ccoe.bench import (
    Workload,
    make_adapters,
    overlay_bytes,
    run_adapter_baseline,
    run_ccoe,
    run_mdme_baseline,
)
from ccoe.errors import ConfigError, WorkloadError
from ccoe.lifecycle import ExpertRegistry
from ccoe.model import ModelConfig, init_backbone, param_bytes
from ccoe.rng import Rng
from ccoe.routing import MappingMatrix

TINY = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab_size=260, max_seq=64)


@pytest.fixture(scope="module")
def registry():
    # "mapped" has a mapping row but no expert, so it is served by the base model
    return ExpertRegistry(backbone=init_backbone(TINY, Rng(3)).freeze(),
                          mapping=MappingMatrix(rows={"mapped": {}}))


def test_run_ccoe_rejects_unknown_domain(registry):
    with pytest.raises(WorkloadError):
        run_ccoe(registry, Workload(items=(("mapped", "1+2"), ("unknown", "1+2"))))


@pytest.mark.parametrize("repetitions", [0, True])
def test_run_ccoe_rejects_a_repetition_count_below_one(registry, repetitions):
    # 0 used to stop on a bare ZeroDivisionError
    with pytest.raises(WorkloadError):
        run_ccoe(registry, Workload(items=(("mapped", "1+2"),), repetitions=repetitions))


def test_run_ccoe_record_splits_switch_and_decode_time(registry):
    report = run_ccoe(registry, Workload(items=(("mapped", "12+3"),), repetitions=2), max_new=3)
    rec = report.record()
    assert report.switch_count == 2
    assert report.generated_tokens >= 2
    assert rec["decode_seconds"] == round(report.decode_seconds, 4)
    switch_seconds = report.per_switch_overhead_seconds * report.switch_count
    assert report.decode_seconds == pytest.approx(report.wall_time_seconds - switch_seconds)
    assert 0 <= rec["decode_seconds"] <= rec["wall_time_seconds"]


# --- the baseline systems -----------------------------------------------------

# domains alternate, so every query but a repeat changes domain
ALTERNATING = Workload(items=(("a", "1+2"), ("b", "3+4"), ("b", "5+6"), ("a", "7+8")),
                       repetitions=2)


@pytest.fixture(scope="module")
def models():
    return {d: init_backbone(TINY, Rng(4).child(d)).freeze() for d in ("a", "b")}


def test_unconstrained_mdme_keeps_every_model_resident(models):
    report = run_mdme_baseline(models, ALTERNATING, max_new=3)
    assert report.system == "mdme"
    assert report.resident_param_bytes_peak == sum(param_bytes(m) for m in models.values())
    assert report.switch_count == 2 * 3


def test_mdme_under_a_one_model_budget_reloads_at_every_domain_change(models, monkeypatch):
    from ccoe import checkpoint

    loads = []
    real = checkpoint.load_checkpoint
    monkeypatch.setattr(checkpoint, "load_checkpoint",
                        lambda path: loads.append(path) or real(path))
    budget = param_bytes(models["a"])
    report = run_mdme_baseline(models, ALTERNATING, resident_budget_bytes=budget, max_new=3)
    assert report.system == "mdme-budget"
    assert 0 < report.resident_param_bytes_peak <= budget
    assert report.switch_count == 2 * 3
    # the warm-up pass and two timed ones: one load for the first query, then
    # one at every domain change, a pass's first query included
    domains = [d for d, _ in ALTERNATING.items] * 3
    assert len(loads) == 1 + sum(a != b for a, b in zip(domains, domains[1:]))
    assert report.per_switch_overhead_seconds > 0


def test_mdme_budget_below_the_largest_model_raises_before_serving(models, monkeypatch):
    monkeypatch.setattr(bench, "_serve", lambda *a: pytest.fail("served"))
    with pytest.raises(ConfigError):
        run_mdme_baseline(models, ALTERNATING, resident_budget_bytes=10, max_new=3)


def test_zero_b_adapters_decode_the_base_models_tokens(registry, monkeypatch):
    backbone = registry.backbone
    adapters = make_adapters(backbone, ["a", "b"], rank=2, rng=Rng(5), zero_b=True)
    outputs = []
    real = bench.greedy_decode

    def recording(model, expert, prompt, max_new):
        out = real(model, expert, prompt, max_new=max_new)
        outputs.append((prompt, out))
        return out

    monkeypatch.setattr(bench, "greedy_decode", recording)
    report = run_adapter_baseline(backbone, adapters, ALTERNATING, max_new=4)
    assert len(outputs) == 3 * len(ALTERNATING.items)
    for prompt, out in outputs:
        assert out == real(backbone, None, prompt, max_new=4)
    assert report.generated_tokens == sum(len(out) for _, out in outputs[len(ALTERNATING.items):])
    assert report.resident_param_bytes_peak == (
        param_bytes(backbone) + sum(a.bytes() for a in adapters.values())
        + overlay_bytes(backbone.config))


def _count_workspaces(monkeypatch) -> tuple[list, list]:
    """(workspaces made, the number made before each greedy_decode call)."""
    made, before = [], []
    real_init, real_decode = net.Workspace.__init__, bench.greedy_decode
    monkeypatch.setattr(net.Workspace, "__init__",
                        lambda self, *args: made.append(1) or real_init(self, *args))
    monkeypatch.setattr(bench, "greedy_decode",
                        lambda *args, **kwargs: before.append(len(made))
                        or real_decode(*args, **kwargs))
    return made, before


def test_adapter_switches_after_the_warm_up_make_no_workspace(registry, monkeypatch):
    adapters = make_adapters(registry.backbone, ["a", "b"], rank=2, rng=Rng(5))
    made, before = _count_workspaces(monkeypatch)
    run_adapter_baseline(registry.backbone, adapters, ALTERNATING, max_new=4)
    # every materialized model decodes in the backbone's workspace
    assert len(made) == before[len(ALTERNATING.items)] <= 1


def test_mdme_reloads_after_the_warm_up_make_no_workspace(models, monkeypatch):
    made, before = _count_workspaces(monkeypatch)
    run_mdme_baseline(models, ALTERNATING, resident_budget_bytes=param_bytes(models["a"]),
                      max_new=3)
    assert len(made) == before[len(ALTERNATING.items)] <= 1
