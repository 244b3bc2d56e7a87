"""Serving bench: workload validation and report records."""

import pytest

from ccoe.bench import Workload, run_ccoe
from ccoe.errors import WorkloadError
from ccoe.lifecycle import ExpertRegistry
from ccoe.model import ModelConfig, init_backbone
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


def test_run_ccoe_record_splits_switch_and_decode_time(registry):
    report = run_ccoe(registry, Workload(items=(("mapped", "12+3"),), repetitions=2), max_new=3)
    rec = report.record()
    assert report.switch_count == 2
    assert report.generated_tokens >= 2
    assert rec["decode_seconds"] == round(report.decode_seconds, 4)
    switch_seconds = report.per_switch_overhead_seconds * report.switch_count
    assert report.decode_seconds == pytest.approx(report.wall_time_seconds - switch_seconds)
    assert 0 <= rec["decode_seconds"] <= rec["wall_time_seconds"]
