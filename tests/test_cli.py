"""Command-line exit codes."""

import fcntl
import json

import numpy as np
import pytest

from ccoe import cli, routing
from ccoe.checkpoint import save_checkpoint
from ccoe.cli import Manifest, main, manifest_lock
from ccoe.model import ModelConfig, init_backbone, init_expert, param_bytes
from ccoe.net import Workspace
from ccoe.rng import Rng
from ccoe.routing import MappingMatrix, init_planner
from ccoe.tokenizer import EOS, decode

TINY = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab_size=260, max_seq=64)


def test_route_on_a_manifest_without_a_planner_exits_with_data_error(tmp_path, capsys):
    save_checkpoint(init_backbone(TINY, Rng(5)).freeze(), tmp_path / "backbone.ccoe")
    manifest = Manifest(path=tmp_path / "manifest.jsonl", model=TINY.to_dict(),
                        backbone="backbone.ccoe")
    manifest.save()
    argv = ["route", "--manifest", str(manifest.path), "--prompt", "12+3"]
    assert main(argv) == 2  # DatasetError
    assert "needs a planner" in capsys.readouterr().err
    assert main([*argv, "--planner"]) == 1  # the flag is gone: a usage error


def test_route_on_a_cut_backbone_checkpoint_exits_with_corruption_code(tmp_path, capsys):
    path = tmp_path / "backbone.ccoe"
    save_checkpoint(init_backbone(TINY, Rng(5)).freeze(), path)
    path.write_bytes(path.read_bytes()[:10])
    manifest = Manifest(path=tmp_path / "manifest.jsonl", model=TINY.to_dict(),
                        backbone="backbone.ccoe")
    manifest.save()
    assert main(["route", "--manifest", str(manifest.path), "--prompt", "12+3"]) == 4
    assert "truncated" in capsys.readouterr().err


def test_route_on_a_backbone_path_that_is_a_directory_exits_with_data_error(tmp_path, capsys):
    (tmp_path / "backbone.ccoe").mkdir()
    manifest = Manifest(path=tmp_path / "manifest.jsonl", model=TINY.to_dict(),
                        backbone="backbone.ccoe")
    manifest.save()
    assert main(["route", "--manifest", str(manifest.path), "--prompt", "12+3"]) == 2
    assert "backbone.ccoe: a directory" in capsys.readouterr().err


def _backbone_manifest(tmp_path, backbone=None) -> Manifest:
    backbone = backbone or init_backbone(TINY, Rng(5)).freeze()
    save_checkpoint(backbone, tmp_path / "backbone.ccoe")
    manifest = Manifest(path=tmp_path / "manifest.jsonl", model=TINY.to_dict(),
                        backbone="backbone.ccoe")
    manifest.save()
    return manifest


@pytest.mark.parametrize("line", [
    "[1]",  # valid JSON, not an object
    '{"record": "backbone"}',  # no path
    '{"record": "config", "seed": "x"}',
    '{"record": "config", "seed": 1.5}',
    '{"record": "expert", "domain": "copy", "path": "e.ccoe"}',  # no id
    '{"record": "expert", "id": 0, "domain": "copy"}',  # no path
    '{"record": ["expert"]}',
    '{"record": "mapping", "domain": "copy", "experts": ["x"]}',
    '{"record": "mapping", "domain": "copy", "experts": 3}',
    '{"record": "mapping", "domain": ["copy"], "experts": [0]}',
    '{"record": "backbone", "path": 5}',
])
def test_malformed_manifest_record_exits_with_data_error_naming_its_line(tmp_path, capsys, line):
    manifest = _backbone_manifest(tmp_path)
    with open(manifest.path, "a") as fh:
        fh.write(line + "\n")
    n = len(manifest.path.read_text().splitlines())
    assert main(["report-memory", "--manifest", str(manifest.path)]) == 2  # DatasetError
    assert f"{manifest.path}:{n}:" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "[1]",
    '"copy"',
    '{"domain": "copy"}',
    '{"domain": "copy", "prompt": 5}',
    '{"domain": ["copy"], "prompt": "ab"}',
])
def test_malformed_workload_record_exits_with_data_error_naming_its_line(tmp_path, capsys, line):
    manifest = _backbone_manifest(tmp_path)
    workload = tmp_path / "workload.jsonl"
    workload.write_text('{"domain": "copy", "prompt": "ab"}\n' + line + "\n")
    argv = ["bench", "--manifest", str(manifest.path), "--workload", str(workload)]
    assert main(argv) == 2
    assert f"{workload}:2:" in capsys.readouterr().err


def test_bench_with_a_zero_budget_exits_with_data_error(tmp_path, capsys):
    manifest = _backbone_manifest(tmp_path)
    save_checkpoint(init_expert(TINY, 0, "copy", (1,), Rng(6)), tmp_path / "expert.ccoe")
    manifest.experts.append({"id": 0, "domain": "copy", "path": "expert.ccoe", "positions": [1]})
    manifest.save()
    workload = tmp_path / "workload.jsonl"
    workload.write_text('{"domain": "copy", "prompt": "ab"}\n')
    argv = ["bench", "--manifest", str(manifest.path), "--workload", str(workload),
            "--repeat", "1", "--max-new", "1", "--budget", "0"]
    assert main(argv) == 2  # ConfigError: a zero budget is not "no budget"
    assert "resident budget of 0 bytes" in capsys.readouterr().err


def test_report_memory_on_a_valid_manifest_exits_zero(tmp_path, capsys):
    manifest = _backbone_manifest(tmp_path)
    assert main(["report-memory", "--manifest", str(manifest.path)]) == 0
    assert "backbone" in capsys.readouterr().out


def test_an_expert_record_pointing_at_a_backbone_exits_with_data_error(tmp_path, capsys):
    manifest = _backbone_manifest(tmp_path)
    manifest.experts.append({"id": 0, "domain": "copy", "path": "backbone.ccoe", "positions": [1]})
    manifest.save()
    assert main(["report-memory", "--manifest", str(manifest.path)]) == 2  # ConfigError
    assert "backbone.ccoe is not an expert" in capsys.readouterr().err


def test_infer_on_a_backbone_with_an_infinite_head_exits_with_numeric_code(tmp_path, capsys):
    backbone = init_backbone(TINY, Rng(5))
    backbone.params["head"][0, 7] = np.inf
    manifest = _backbone_manifest(tmp_path, backbone.freeze())
    expert = init_expert(TINY, 0, "copy", (1,), Rng(6), warm_from=backbone)
    save_checkpoint(expert, tmp_path / "expert.ccoe")
    manifest.experts.append({"id": 0, "domain": "copy", "path": "expert.ccoe", "positions": [1]})
    manifest.mapping.append({"domain": "copy", "experts": [0]})
    manifest.save()
    argv = ["infer", "--manifest", str(manifest.path), "--domain", "copy", "--prompt", "ab"]
    assert main(argv) == 3  # NumericError
    assert "non-finite" in capsys.readouterr().err


def test_manifest_lock_excludes_other_lockers_until_released(tmp_path):
    path = tmp_path / "manifest.jsonl"

    def try_lock():
        with open(path.with_suffix(".jsonl.lock"), "a") as fh:
            try:
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                return False
            fcntl.flock(fh, fcntl.LOCK_UN)
            return True

    with manifest_lock(path):
        assert not try_lock()
    assert try_lock()


def test_an_expert_pushed_under_a_new_id_keeps_it_when_the_registry_is_loaded(tmp_path, capsys):
    backbone = init_backbone(TINY, Rng(5)).freeze()
    manifest = _backbone_manifest(tmp_path, backbone)
    expert = init_expert(TINY, 0, "copy", (1,), Rng(6), warm_from=backbone)
    save_checkpoint(expert, tmp_path / "expert.ccoe")  # saved with id 0
    argv = ["--manifest", str(manifest.path)]
    assert main(["push", *argv, "--checkpoint", str(tmp_path / "expert.ccoe"), "--id", "7"]) == 0
    assert main(["infer", *argv, "--domain", "copy", "--prompt", "ab", "--max-new", "2"]) == 0
    assert main(["report-memory", *argv]) == 0
    out = capsys.readouterr().out
    assert "expert 7 (copy)" in out
    assert "expert:7:copy" in out and "expert:0:copy" not in out


def test_report_memory_shows_the_workspace_outside_the_total(tmp_path, capsys):
    manifest = _backbone_manifest(tmp_path)
    assert main(["report-memory", "--manifest", str(manifest.path), "--records"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    params = [r["bytes"] for r in records if r.get("component") not in (None, "total")]
    (total,) = [r["bytes"] for r in records if r.get("component") == "total"]
    (workspace,) = [r["bytes"] for r in records if r.get("runtime") == "workspace"]
    assert total == sum(params) == param_bytes(init_backbone(TINY, Rng(5)))
    assert workspace == Workspace(TINY, np.float32).nbytes
    assert main(["report-memory", "--manifest", str(manifest.path)]) == 0
    table = capsys.readouterr().out
    assert f"{workspace:,d}  (runtime, not in total)" in table


def _expert_manifest(tmp_path) -> Manifest:
    """A backbone manifest with expert 0 (copy) recorded, mapping row and all."""
    backbone = init_backbone(TINY, Rng(5)).freeze()
    manifest = _backbone_manifest(tmp_path, backbone)
    save_checkpoint(init_expert(TINY, 0, "copy", (1,), Rng(6), warm_from=backbone),
                    tmp_path / "expert.ccoe")
    manifest.experts.append({"id": 0, "domain": "copy", "path": "expert.ccoe", "positions": [1]})
    manifest.mapping.append({"domain": "copy", "experts": [0]})
    manifest.save()
    return manifest


@pytest.mark.parametrize("argv", [
    ["pretrain", "--batch-size", "0", "--steps", "1"],
    ["train-expert", "--domain", "copy", "--batch-size", "0"],
    ["train-expert", "--domain", "copy", "--cold", "--inner-width", "0"],
    ["train-expert", "--domain", "copy", "--cold", "--inner-width", "-1"],
    ["bench", "--adapter-rank", "-1"],
    ["bench", "--adapter-rank", "0"],
])
def test_a_setting_below_one_exits_with_data_error(tmp_path, capsys, monkeypatch, argv):
    # bench checks its settings before any system serves
    monkeypatch.setattr(cli, "run_ccoe", lambda *a, **k: pytest.fail("served"))
    manifest = _expert_manifest(tmp_path)
    workload = tmp_path / "workload.jsonl"
    workload.write_text('{"domain": "copy", "prompt": "ab"}\n')
    where = {"pretrain": ["--out-dir", str(tmp_path / "run")],
             "train-expert": ["--manifest", str(manifest.path)],
             "bench": ["--manifest", str(manifest.path), "--workload", str(workload),
                       "--repeat", "1", "--max-new", "1"]}[argv[0]]
    assert main([*argv, *where]) == 2  # ConfigError
    assert "must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("expert-copy*"))  # no expert was trained


def test_a_warm_expert_of_another_inner_width_exits_with_data_error(tmp_path, capsys):
    manifest = _expert_manifest(tmp_path)
    argv = ["train-expert", "--manifest", str(manifest.path), "--domain", "copy",
            "--inner-width", str(TINY.d_ff // 2), "--steps", "1"]
    assert main(argv) == 2  # ConfigError; the width used to be dropped for d_ff
    assert "warm-start requires inner_width" in capsys.readouterr().err
    assert not list(tmp_path.glob("expert-copy*"))


def test_infer_on_a_domain_of_two_experts_prints_a_line_per_expert_in_id_order(tmp_path, capsys):
    manifest = _expert_manifest(tmp_path)
    save_checkpoint(init_expert(TINY, 3, "reverse", (0,), Rng(9)), tmp_path / "reverse.ccoe")
    manifest.experts.append({"id": 3, "domain": "reverse", "path": "reverse.ccoe",
                             "positions": [0]})
    manifest.mapping = [{"domain": "copy", "experts": [3, 0]}]
    manifest.save()
    argv = ["infer", "--manifest", str(manifest.path), "--domain", "copy", "--prompt", "ab",
            "--max-new", "2"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["expert 0 (copy)", "expert 3 (reverse)"]


def test_a_domain_whose_only_expert_was_removed_answers_with_the_base_model(tmp_path, capsys):
    manifest = _backbone_manifest(tmp_path)
    save_checkpoint(init_expert(TINY, 0, "copy", (1,), Rng(6)), tmp_path / "expert.ccoe")
    argv = ["--manifest", str(manifest.path)]
    assert main(["push", *argv, "--checkpoint", str(tmp_path / "expert.ccoe")]) == 0
    assert main(["pop", *argv, "--id", "0", "--remove"]) == 0
    capsys.readouterr()
    # the live registry kept an empty copy row; so does the manifest written from it
    written = Manifest.load(manifest.path)
    assert MappingMatrix.from_records(written.mapping).rows == {"copy": {}}
    assert written.experts == []
    assert main(["infer", *argv, "--domain", "copy", "--prompt", "ab", "--max-new", "2"]) == 0
    assert capsys.readouterr().out.startswith("base: ")


def test_a_pushed_expert_gets_an_uncalibrated_planner_row_on_every_load(tmp_path, capsys):
    manifest = _expert_manifest(tmp_path)
    planner = init_planner(TINY, [0], (0,), Rng(8))
    save_checkpoint(planner, tmp_path / "planner.ccoe")
    manifest.planner = "planner.ccoe"
    manifest.save()
    save_checkpoint(init_expert(TINY, 3, "reverse", (0,), Rng(9)), tmp_path / "reverse.ccoe")
    argv = ["--manifest", str(manifest.path)]
    assert main(["push", *argv, "--checkpoint", str(tmp_path / "reverse.ccoe")]) == 0
    capsys.readouterr()
    for _ in range(2):
        assert main(["report-memory", *argv]) == 0
        err = capsys.readouterr().err
        assert "indicator for expert 3 is uncalibrated" in err
        assert "expert 0 is" not in err
    assert main(["pop", *argv, "--id", "3", "--remove"]) == 0
    capsys.readouterr()
    assert main(["report-memory", *argv]) == 0
    assert "uncalibrated" not in capsys.readouterr().err


def test_infer_decodes_only_what_the_context_has_room_for(tmp_path, capsys, monkeypatch):
    manifest = _expert_manifest(tmp_path)
    decoded, greedy_decode = [], routing.greedy_decode

    def spy(*args, **kwargs):
        decoded.append(out := greedy_decode(*args, **kwargs))
        return out

    monkeypatch.setattr(routing, "greedy_decode", spy)
    argv = ["infer", "--manifest", str(manifest.path), "--domain", "copy", "--max-new", "8"]
    # the step prompt is [BOS] ? prompt =, so 58 prompt bytes leave room for 3 tokens
    assert main([*argv, "--prompt", "a" * (TINY.max_seq - 6)]) == 0
    (out,) = decoded
    assert len(out) == 3 and EOS not in out
    assert capsys.readouterr().out == f"expert 0 (copy): {decode(out)}\n"
    assert main([*argv, "--prompt", "a" * (TINY.max_seq - 3)]) == 2  # RoutingError
    assert "no context room" in capsys.readouterr().err
