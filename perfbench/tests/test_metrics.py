import json
import re

from ccoe import domains as dom

from perfbench import ROOT, layers
from perfbench.run import END_TO_END

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units_are_well_formed_and_unique():
    spec = [(n, u) for n, (u, _) in END_TO_END.items()] + layers.per_layer_spec()
    names = [n for n, _ in spec]
    assert len(names) == len(set(names))
    for name, unit in spec:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    assert END_TO_END["setup_s"][0] == "s"
    assert len(layers.per_layer_spec()) <= 128


def test_benchmark_json_lists_what_the_benchmark_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (n, u) for n, (u, _) in END_TO_END.items()]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers.per_layer_spec()
    assert [w["name"] for w in bench["workloads"]] == ["serve_mixed", "serve_longprompt",
                                                       "train_phases"]


def test_per_layer_metrics_give_exactly_the_spec_even_without_spans():
    ledger = {"backbone": 10, "planner": 3,
              **{f"expert:{i}:{n}": 2 for i, n in enumerate(dom.DOMAIN_NAMES)}}
    values = layers.per_layer_metrics([], ledger, 0.0)
    assert set(values) == {n for n, _ in layers.per_layer_spec()}
    assert values["lifecycle.ledger.total.bytes"] == 23
    assert values["lifecycle.ledger.expert.0.copy.bytes"] == 2
    assert values["decoding.decode_step.prefill.calls"] == 0
