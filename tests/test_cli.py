"""Command-line exit codes."""

from ccoe.checkpoint import save_checkpoint
from ccoe.cli import Manifest, main
from ccoe.model import ModelConfig, init_backbone
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
