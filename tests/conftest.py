"""Shared fixtures.

The heavy fixtures (pretrained backbone, five trained experts, trained
planner) are session-scoped and deterministic: fixed seeds fully determine
every artifact. Set CCOE_TEST_CACHE=<dir> to checkpoint them to disk between
runs; the cache key covers the recipe, so stale artifacts are never reused
after a recipe change.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from ccoe import domains as dom
from ccoe.checkpoint import load_checkpoint, save_checkpoint
from ccoe.lifecycle import ExpertRegistry, attach_planner, push
from ccoe.model import ModelConfig, init_expert
from ccoe.rng import Rng
from ccoe.routing import init_planner
from ccoe.training import (
    TrainConfig,
    build_planner_dataset,
    pretrain_backbone,
    train_expert,
    train_planner,
)

# bump to invalidate cached training artifacts; 8: gelu_fwd folds its
# constants, which rounds about 5% of float32 activations one ulp differently
RECIPE_VERSION = 8

TARGET_CONFIG = ModelConfig(n_layers=8, d_model=64, n_heads=4, d_ff=128,
                            vocab_size=260, max_seq=256)
PRETRAIN_CFG = TrainConfig(learning_rate=1.5e-3, batch_size=32, steps=3000,
                           seed=42, warmup_steps=200, log_every=250)
EXPERT_CFG = TrainConfig(learning_rate=1e-3, batch_size=24, steps=600,
                         seed=0, warmup_steps=50, log_every=150)  # seed set per domain
PLANNER_CFG = TrainConfig(learning_rate=2e-3, batch_size=24, steps=1200,
                          seed=404, warmup_steps=100, log_every=200)
EXPERT_POSITIONS = (0, 4)  # GL strategy for two sublayers on an 8-layer stack
PLANNER_TASKS = 3000
PLANNER_DATA_SEED = 909


def _cache_dir() -> Path | None:
    d = os.environ.get("CCOE_TEST_CACHE")
    if not d:
        return None
    key_src = json.dumps(
        {
            "v": RECIPE_VERSION,
            "config": TARGET_CONFIG.to_dict(),
            "pretrain": vars(PRETRAIN_CFG),
            "expert": vars(EXPERT_CFG),
            "planner": vars(PLANNER_CFG),
            "positions": EXPERT_POSITIONS,
            "tasks": PLANNER_TASKS,
        },
        sort_keys=True,
    )
    key = hashlib.sha256(key_src.encode()).hexdigest()[:16]
    path = Path(d) / key
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture(scope="session")
def target_config() -> ModelConfig:
    return TARGET_CONFIG


@pytest.fixture(scope="session")
def backbone(target_config):
    cache = _cache_dir()
    ckpt = cache / "backbone.ccoe" if cache else None
    if ckpt and ckpt.exists():
        return load_checkpoint(ckpt)
    model, curve = pretrain_backbone(target_config, PRETRAIN_CFG)
    assert curve[-1].loss < 0.2, "pretraining failed to converge"
    if ckpt:
        save_checkpoint(model, ckpt)
    return model


def _expert_cfg(domain_name: str) -> TrainConfig:
    cfg = TrainConfig(**vars(EXPERT_CFG))
    cfg.seed = 1000 + sorted(dom.DOMAIN_NAMES).index(domain_name)
    return cfg


@pytest.fixture(scope="session")
def trained_experts(backbone, target_config):
    """Dict domain name -> (ExpertSubnetwork, seen training payloads)."""
    cache = _cache_dir()
    out = {}
    for i, name in enumerate(dom.DOMAIN_NAMES):
        ckpt = cache / f"expert-{name}.ccoe" if cache else None
        seen_path = cache / f"expert-{name}.seen.json" if cache else None
        if ckpt and ckpt.exists() and seen_path.exists():
            out[name] = (load_checkpoint(ckpt), set(json.loads(seen_path.read_text())))
            continue
        expert = init_expert(
            target_config, i, name, EXPERT_POSITIONS,
            Rng(500 + i).child("init", name), warm_from=backbone,
        )
        result = train_expert(expert, backbone, dom.DOMAINS[name], _expert_cfg(name))
        if ckpt:
            save_checkpoint(result.expert, ckpt)
            seen_path.write_text(json.dumps(sorted(result.seen_payloads)))
        out[name] = (result.expert, result.seen_payloads)
    return out


@pytest.fixture(scope="session")
def planner_tasks():
    return build_planner_dataset(
        {name: i for i, name in enumerate(dom.DOMAIN_NAMES)},
        PLANNER_TASKS,
        Rng(PLANNER_DATA_SEED),
    )


@pytest.fixture(scope="session")
def planner_split(planner_tasks):
    n_train = int(len(planner_tasks) * 0.9)
    return planner_tasks[:n_train], planner_tasks[n_train:]


@pytest.fixture(scope="session")
def trained_planner(backbone, target_config, planner_split):
    cache = _cache_dir()
    ckpt = cache / "planner.ccoe" if cache else None
    if ckpt and ckpt.exists():
        return load_checkpoint(ckpt)
    planner = init_planner(
        target_config, list(range(len(dom.DOMAIN_NAMES))), EXPERT_POSITIONS,
        Rng(77), warm_from=backbone,
    )
    train_tasks, _ = planner_split
    planner, _curve = train_planner(planner, backbone, train_tasks, PLANNER_CFG)
    if ckpt:
        save_checkpoint(planner, ckpt)
    return planner


@pytest.fixture(scope="session")
def registry(backbone, trained_experts, trained_planner):
    reg = ExpertRegistry(backbone=backbone, seed=7)
    for i, name in enumerate(dom.DOMAIN_NAMES):
        expert, _seen = trained_experts[name]
        assert expert.expert_id == i
        push(reg, expert)
    attach_planner(reg, trained_planner)
    return reg


@pytest.fixture(scope="session")
def trained_run_dir(tmp_path_factory, registry):
    """The trained registry saved as checkpoints + manifest, for CLI tests."""
    base = tmp_path_factory.mktemp("trained-run")
    save_checkpoint(registry.backbone, base / "backbone.ccoe")
    records = [
        {"record": "config", "seed": 42, "model": registry.backbone.config.to_dict()},
        {"record": "backbone", "path": "backbone.ccoe"},
    ]
    for eid in sorted(registry.experts):
        e = registry.experts[eid]
        save_checkpoint(e, base / f"expert-{e.domain}.ccoe")
        records.append({
            "record": "expert", "id": eid, "domain": e.domain,
            "path": f"expert-{e.domain}.ccoe", "positions": list(e.positions),
        })
    for row in registry.mapping.to_records():
        records.append({"record": "mapping", **row})
    save_checkpoint(registry.planner, base / "planner.ccoe")
    records.append({"record": "planner", "path": "planner.ccoe"})
    manifest = base / "manifest.jsonl"
    manifest.write_text("\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n")
    return base
