"""Command-line exit codes."""

import fcntl

import numpy as np
import pytest

from ccoe.checkpoint import save_checkpoint
from ccoe.cli import Manifest, main, manifest_lock
from ccoe.model import ModelConfig, init_backbone, init_expert
from ccoe.rng import Rng

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
])
def test_malformed_manifest_record_exits_with_data_error_naming_its_line(tmp_path, capsys, line):
    manifest = _backbone_manifest(tmp_path)
    with open(manifest.path, "a") as fh:
        fh.write(line + "\n")
    n = len(manifest.path.read_text().splitlines())
    assert main(["report-memory", "--manifest", str(manifest.path)]) == 2  # DatasetError
    assert f"{manifest.path}:{n}:" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["[1]", '"copy"', '{"domain": "copy"}'])
def test_malformed_workload_record_exits_with_data_error_naming_its_line(tmp_path, capsys, line):
    manifest = _backbone_manifest(tmp_path)
    workload = tmp_path / "workload.jsonl"
    workload.write_text('{"domain": "copy", "prompt": "ab"}\n' + line + "\n")
    argv = ["bench", "--manifest", str(manifest.path), "--workload", str(workload)]
    assert main(argv) == 2
    assert f"{workload}:2:" in capsys.readouterr().err


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
