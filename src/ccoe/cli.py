"""Command-line entry point.

Workflows: ``pretrain`` a backbone into a run directory, ``train-expert`` /
``train-planner`` against it, manage the registry with ``push`` / ``pop`` /
``report-memory``, serve with ``infer`` (rule-based gating: a line per
``routing.answerers`` entry) and ``route`` (planner), and measure with
``bench`` / ``ablate``.

State lives in a manifest: line-delimited JSON records naming the backbone
checkpoint, expert checkpoints (id, domain, positions), mapping-matrix rows,
and the optional planner checkpoint. A command loads the registry
(``lifecycle``) from it; after a ``push`` or ``pop --remove`` the expert and
mapping records are written from the registry, not edited by hand, so a
reload gates every domain as the live registry did. Manifest rewrites are
atomic (write-temp-then-rename) and guarded by an advisory file lock. One global
``--seed`` feeds every random stream. Exit codes: 0 success, 1 usage,
2 data/config, 3 numeric divergence, 4 checkpoint corruption.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import domains as dom
from .bench import (
    STRATEGY_NAMES,
    Workload,
    ablate_insertion,
    ablation_table,
    make_adapters,
    report_table,
    run_adapter_baseline,
    run_ccoe,
    run_mdme_baseline,
    strategy_positions,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .decoding import greedy_decode
from .errors import CcoeError, ConfigError, DatasetError
from .lifecycle import (
    ExpertRegistry,
    attach_planner,
    memory_report,
    pop_copy,
    pop_remove,
    push,
)
from .model import BackboneModel, ModelConfig, init_backbone, init_expert
from .rng import Rng
from .routing import MappingMatrix, PlannerExpert, answerers, execute_plan, init_planner
from .tokenizer import EOS, decode
from .training import (
    TrainConfig,
    build_planner_dataset,
    evaluate_planner,
    pretrain_backbone,
    train_expert,
    train_planner,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage problems, not argparse's 2
        raise UsageError(message)


def data_dir_default() -> str:
    return os.environ.get("CCOE_DATA_DIR", "ccoe-run")


# --- manifest ----------------------------------------------------------------


# the fields each manifest record kind must carry
RECORD_FIELDS = {
    "config": (),
    "backbone": ("path",),
    "expert": ("id", "path"),
    "mapping": ("domain", "experts"),
    "planner": ("path",),
}


@dataclass
class Manifest:
    path: Path
    seed: int = 0
    model: dict = field(default_factory=dict)
    backbone: str | None = None
    experts: list[dict] = field(default_factory=list)
    mapping: list[dict] = field(default_factory=list)
    planner: str | None = None

    @property
    def base(self) -> Path:
        return self.path.parent

    def resolve(self, rel: str) -> Path:
        return self.base / rel

    @staticmethod
    def load(path: str | Path) -> "Manifest":
        """Parse a manifest; a malformed record, or a field of the wrong type
        (``seed`` and ``id`` integers, ``path`` and ``domain`` strings,
        ``experts`` a list of integers), raises ``DatasetError`` naming the
        file and line."""
        p = Path(path)
        if not p.exists():
            raise DatasetError(f"manifest not found: {p}")
        m = Manifest(path=p)
        for i, line in enumerate(p.read_text().splitlines()):
            line = line.strip()
            if not line:
                continue
            where = f"{p}:{i + 1}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{where}: bad manifest record: {exc}") from exc
            if not isinstance(rec, dict):
                raise DatasetError(f"{where}: manifest record is not a JSON object")
            kind = rec.get("record")
            if not isinstance(kind, str) or kind not in RECORD_FIELDS:
                raise DatasetError(f"{where}: unknown record kind {kind!r}")
            missing = [f for f in RECORD_FIELDS[kind] if f not in rec]
            if missing:
                raise DatasetError(f"{where}: {kind} record lacks {', '.join(missing)}")
            for name, want in (("seed", int), ("id", int), ("path", str), ("domain", str)):
                if name in rec and type(rec[name]) is not want:
                    raise DatasetError(
                        f"{where}: {name} {rec[name]!r} is not of type {want.__name__}")
            experts = rec.get("experts", [])
            if type(experts) is not list or any(type(e) is not int for e in experts):
                raise DatasetError(f"{where}: experts {experts!r} is not a list of integers")
            if kind == "config":
                m.seed = rec.get("seed", 0)
                m.model = rec.get("model", {})
            elif kind == "backbone":
                m.backbone = rec["path"]
            elif kind == "expert":
                m.experts.append(rec)
            elif kind == "mapping":
                m.mapping.append(rec)
            else:
                m.planner = rec["path"]
        return m

    def records(self) -> list[dict]:
        recs: list[dict] = [{"record": "config", "seed": self.seed, "model": self.model}]
        if self.backbone:
            recs.append({"record": "backbone", "path": self.backbone})
        for e in sorted(self.experts, key=lambda r: r["id"]):
            recs.append({"record": "expert", **{k: e[k] for k in ("id", "domain", "path", "positions") if k in e}})
        for row in sorted(self.mapping, key=lambda r: r["domain"]):
            recs.append({"record": "mapping", "domain": row["domain"], "experts": sorted(row["experts"])})
        if self.planner:
            recs.append({"record": "planner", "path": self.planner})
        return recs

    def record(self, registry: ExpertRegistry, pushed: dict[int, str]) -> None:
        """Rewrite the expert and mapping records from ``registry`` and save.
        An expert's checkpoint path is its entry in ``pushed``, else its
        record's."""
        paths = {r["id"]: r["path"] for r in self.experts} | pushed
        self.experts = [{"id": eid, "domain": e.domain, "path": paths[eid],
                         "positions": list(e.positions)} for eid, e in registry.experts.items()]
        self.mapping = registry.mapping.to_records()
        self.save()

    def save(self) -> None:
        body = "\n".join(json.dumps(r, sort_keys=True) for r in self.records()) + "\n"
        tmp = self.path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(body)
        os.replace(tmp, self.path)


@contextlib.contextmanager
def manifest_lock(path: Path):
    """Advisory exclusive lock serializing manifest mutations."""
    lock_path = path.with_suffix(path.suffix + ".lock")
    with open(lock_path, "w") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def load_registry(manifest: Manifest, need_planner: bool = False) -> ExpertRegistry:
    if not manifest.backbone:
        raise DatasetError("manifest has no backbone record")
    backbone = load_checkpoint(manifest.resolve(manifest.backbone))
    if not isinstance(backbone, BackboneModel):
        raise ConfigError("backbone record does not point at a backbone checkpoint")
    registry = ExpertRegistry(backbone=backbone, seed=manifest.seed,
                              mapping=MappingMatrix.from_records(manifest.mapping))
    for rec in manifest.experts:
        push(registry, manifest.resolve(rec["path"]), rec["id"])
    if manifest.planner:
        planner = load_checkpoint(manifest.resolve(manifest.planner))
        if not isinstance(planner, PlannerExpert):
            raise ConfigError("planner record is not a planner checkpoint")
        attach_planner(registry, planner)
        for eid in sorted(registry.planner.uncalibrated):
            print(f"note: planner indicator for expert {eid} is uncalibrated", file=sys.stderr)
    elif need_planner:
        raise DatasetError("this command needs a planner, but the manifest has none")
    return registry


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch_size,
        steps=args.steps,
        grad_clip=args.grad_clip,
        seed=args.seed,
        warmup_steps=args.warmup,
    ).validate()


def _write_curve(path: Path, curve) -> None:
    with open(path, "w") as fh:
        for rec in curve:
            fh.write(json.dumps(rec.to_dict()) + "\n")


# --- commands ------------------------------------------------------------------


def cmd_pretrain(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = ModelConfig(
        n_layers=args.n_layers,
        d_model=args.d_model,
        n_heads=args.n_heads,
        d_ff=args.d_ff,
    ).validate()
    cfg = _train_config(args)
    model, curve = pretrain_backbone(config, cfg)
    save_checkpoint(model, out_dir / "backbone.ccoe")
    _write_curve(out_dir / "pretrain-curve.jsonl", curve)
    manifest = Manifest(path=out_dir / "manifest.jsonl", seed=args.seed, model=config.to_dict(),
                        backbone="backbone.ccoe")
    with manifest_lock(manifest.path):
        manifest.save()
    print(f"backbone: {out_dir / 'backbone.ccoe'} (final loss {curve[-1].loss:.4f})")
    print(f"manifest: {manifest.path}")
    return 0


def cmd_train_expert(args) -> int:
    manifest = Manifest.load(args.manifest)
    registry = load_registry(manifest)
    backbone = registry.backbone
    if args.domain not in dom.DOMAINS:
        raise DatasetError(f"unknown domain {args.domain!r}; have {list(dom.DOMAINS)}")
    cfg = _train_config(args)
    if args.from_id is not None:
        expert = pop_copy(registry, args.from_id)
    else:
        positions = strategy_positions(args.strategy, backbone.config.n_layers, args.layers)
        expert_id = args.id if args.id is not None else (
            max(registry.experts, default=-1) + 1
        )
        expert = init_expert(
            backbone.config,
            expert_id,
            args.domain,
            positions,
            Rng(args.seed).child("expert-init", args.domain),
            inner_width=args.inner_width,
            warm_from=None if args.cold else backbone,
        )
    result = train_expert(expert, backbone, dom.DOMAINS[args.domain], cfg)
    out = Path(args.out) if args.out else manifest.base / f"expert-{args.domain}.ccoe"
    dig = save_checkpoint(result.expert, out)
    _write_curve(out.with_suffix(".curve.jsonl"), result.curve)
    print(f"expert {expert.expert_id} ({args.domain}) -> {out}")
    print(f"digest: {dig}")
    return 0


def cmd_train_planner(args) -> int:
    manifest = Manifest.load(args.manifest)
    registry = load_registry(manifest)
    backbone = registry.backbone
    domain_to_expert: dict[str, int] = {}
    for name in dom.DOMAIN_NAMES:
        ids = registry.mapping.experts_for(name) if name in registry.mapping.rows else []
        if ids:
            domain_to_expert[name] = ids[0]
    if not domain_to_expert:
        raise DatasetError("no domain experts registered; train and push experts first")
    rng = Rng(args.seed)
    positions = strategy_positions(args.strategy, backbone.config.n_layers, args.layers)
    planner = init_planner(
        backbone.config, sorted(registry.experts), positions, rng.child("planner"),
        warm_from=backbone,
    )
    tasks = build_planner_dataset(domain_to_expert, args.tasks, rng.child("tasks"))
    n_train = int(len(tasks) * 0.9)
    cfg = _train_config(args)
    planner, curve = train_planner(planner, backbone, tasks[:n_train], cfg)
    metrics = evaluate_planner(planner, backbone, tasks[n_train:])
    out = Path(args.out) if args.out else manifest.base / "planner.ccoe"
    save_checkpoint(planner, out)
    _write_curve(out.with_suffix(".curve.jsonl"), curve)
    with manifest_lock(manifest.path):
        manifest = Manifest.load(args.manifest)
        manifest.planner = os.path.relpath(out, manifest.base)
        manifest.save()
    print(f"planner -> {out}")
    print(json.dumps(metrics.to_dict()))
    return 0


def cmd_push(args) -> int:
    with manifest_lock(Path(args.manifest)):
        manifest = Manifest.load(args.manifest)
        registry = load_registry(manifest)
        # validates budget + positions before any mutation
        expert = push(registry, args.checkpoint, args.id)
        rel = os.path.relpath(Path(args.checkpoint).resolve(), manifest.base.resolve())
        manifest.record(registry, {expert.expert_id: rel})
    print(f"pushed expert {expert.expert_id} ({expert.domain}); "
          f"registry total {registry.total_bytes():,d} bytes")
    return 0


def cmd_pop(args) -> int:
    if args.copy == bool(args.remove):
        raise UsageError("pop requires exactly one of --copy/--remove")
    with manifest_lock(Path(args.manifest)):
        manifest = Manifest.load(args.manifest)
        registry = load_registry(manifest)
        if args.copy:
            expert = pop_copy(registry, args.id)
            out = Path(args.out) if args.out else manifest.base / f"expert-{args.id}-copy.ccoe"
            dig = save_checkpoint(expert, out)
            print(f"copied expert {args.id} -> {out}")
            print(f"digest: {dig}")
        else:
            before = registry.total_bytes()
            pop_remove(registry, args.id)
            manifest.record(registry, {})
            print(f"removed expert {args.id}; freed {before - registry.total_bytes():,d} bytes")
    return 0


def cmd_report_memory(args) -> int:
    registry = load_registry(Manifest.load(args.manifest))
    report = memory_report(registry)
    if args.records:
        for rec in report.records():
            print(json.dumps(rec))
    else:
        print(report.table())
    return 0


def cmd_infer(args) -> int:
    registry = load_registry(Manifest.load(args.manifest))
    prompt_ids = dom.step_prompt_tokens(None, args.prompt)
    for expert in answerers(registry, args.domain):
        out = greedy_decode(registry.backbone, expert, prompt_ids, max_new=args.max_new)
        label = "base" if expert is None else f"expert {expert.expert_id} ({expert.domain})"
        print(f"{label}: {decode([i for i in out if i != EOS])}")
    return 0


def cmd_route(args) -> int:
    registry = load_registry(Manifest.load(args.manifest), need_planner=True)
    text, path = execute_plan(args.prompt, registry.planner, registry,
                              max_steps=args.max_steps, max_new=args.max_new)
    names = [registry.experts[eid].domain for eid in path.expert_ids()]
    print(f"path: {' -> '.join(names) if names else '(base model)'}")
    if path.truncated:
        print("note: carried context was truncated to fit the context window")
    print(f"output: {text}")
    return 0


def _load_workload(path: str, repetitions: int) -> Workload:
    items = []
    p = Path(path)
    if not p.exists():
        raise DatasetError(f"workload file not found: {p}")
    for i, line in enumerate(p.read_text().splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{p}:{i + 1}: bad workload record: {exc}") from exc
        if not isinstance(rec, dict) or any(type(rec.get(k)) is not str
                                            for k in ("domain", "prompt")):
            raise DatasetError(f"{p}:{i + 1}: a workload record is an object with "
                               "string domain and prompt")
        items.append((rec["domain"], rec["prompt"]))
    if not items:
        raise DatasetError(f"workload {p} is empty")
    return Workload(items=tuple(items), repetitions=repetitions)


def cmd_bench(args) -> int:
    registry = load_registry(Manifest.load(args.manifest))
    workload = _load_workload(args.workload, args.repeat)
    rng = Rng(args.seed)
    config = registry.backbone.config
    domains = sorted({d for d, _ in workload.items})
    # every system is built before any serves, so a bad setting exits first
    models = {d: init_backbone(config, rng.child("mdme", d)).freeze() for d in domains}
    adapters = make_adapters(registry.backbone, domains, rank=args.adapter_rank,
                             rng=rng.child("adapters"))
    reports = [run_ccoe(registry, workload, max_new=args.max_new),
               run_mdme_baseline(models, workload, max_new=args.max_new)]
    if args.budget is not None:
        reports.append(
            run_mdme_baseline(models, workload, resident_budget_bytes=args.budget,
                              max_new=args.max_new)
        )
    reports.append(run_adapter_baseline(registry.backbone, adapters, workload,
                                        max_new=args.max_new))
    print(report_table(reports))
    if args.out:
        with open(args.out, "w") as fh:
            for r in reports:
                fh.write(json.dumps(r.record()) + "\n")
        print(f"records: {args.out}")
    return 0


def cmd_ablate(args) -> int:
    registry = load_registry(Manifest.load(args.manifest))
    strategies = tuple(args.strategies.split(",")) if args.strategies else STRATEGY_NAMES
    for s in strategies:
        if s not in STRATEGY_NAMES:
            raise UsageError(f"unknown strategy {s!r}; choose from {STRATEGY_NAMES}")
    cfg = _train_config(args)
    rows = ablate_insertion(
        registry.backbone,
        args.domain,
        args.layers,
        cfg,
        eval_size=args.eval_size,
        strategies=strategies,
    )
    print(ablation_table(rows))
    if args.out:
        with open(args.out, "w") as fh:
            for r in rows:
                fh.write(json.dumps(r.record()) + "\n")
        print(f"records: {args.out}")
    return 0


# --- parser --------------------------------------------------------------------


def _add_train_flags(p, steps: int, batch: int, lr: float, warmup: int) -> None:
    p.add_argument("--steps", type=int, default=steps)
    p.add_argument("--batch-size", type=int, default=batch)
    p.add_argument("--lr", type=float, default=lr)
    p.add_argument("--warmup", type=int, default=warmup)
    p.add_argument("--grad-clip", type=float, default=1.0)


def build_parser() -> _Parser:
    root = _Parser(prog="ccoe", description=__doc__.splitlines()[0])
    root.add_argument("--seed", type=int, default=42, help="global seed for every random stream")
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="pretrain and freeze a backbone; creates a manifest")
    p.add_argument("--out-dir", default=data_dir_default())
    p.add_argument("--n-layers", type=int, default=8)
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--n-heads", type=int, default=4)
    p.add_argument("--d-ff", type=int, default=128)
    _add_train_flags(p, steps=3000, batch=32, lr=1.5e-3, warmup=200)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("train-expert", help="train a domain expert against the frozen backbone")
    p.add_argument("--manifest", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--strategy", default="GL", choices=STRATEGY_NAMES)
    p.add_argument("--layers", type=int, default=2, help="expert sublayer count")
    p.add_argument("--id", type=int, default=None)
    p.add_argument("--from-id", type=int, default=None,
                   help="continue training a deep copy of this registered expert")
    p.add_argument("--cold", action="store_true", help="random init instead of warm-start")
    p.add_argument("--inner-width", type=int, default=None)
    p.add_argument("--out", default=None)
    _add_train_flags(p, steps=600, batch=24, lr=1e-3, warmup=50)
    p.set_defaults(fn=cmd_train_expert)

    p = sub.add_parser("train-planner", help="train the planning expert on composite tasks")
    p.add_argument("--manifest", required=True)
    p.add_argument("--tasks", type=int, default=3000)
    p.add_argument("--strategy", default="GL", choices=STRATEGY_NAMES)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--out", default=None)
    _add_train_flags(p, steps=1200, batch=24, lr=2e-3, warmup=100)
    p.set_defaults(fn=cmd_train_planner)

    p = sub.add_parser("push", help="add or update an expert in the registry")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--id", type=int, default=None, help="override the checkpoint's expert id")
    p.set_defaults(fn=cmd_push)

    p = sub.add_parser("pop", help="deep-copy or remove a registered expert")
    p.add_argument("--manifest", required=True)
    p.add_argument("--id", type=int, required=True)
    p.add_argument("--copy", action="store_true")
    p.add_argument("--remove", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_pop)

    p = sub.add_parser("report-memory", help="print the registry accounting table")
    p.add_argument("--manifest", required=True)
    p.add_argument("--records", action="store_true", help="line-delimited JSON instead of a table")
    p.set_defaults(fn=cmd_report_memory)

    p = sub.add_parser("infer", help="answer a prompt via rule-based gating")
    p.add_argument("--manifest", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--max-new", type=int, default=16)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("route", help="answer a prompt via planner routing")
    p.add_argument("--manifest", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--max-steps", type=int, default=4)
    p.add_argument("--max-new", type=int, default=16)
    p.set_defaults(fn=cmd_route)

    p = sub.add_parser("bench", help="serving-efficiency comparison on a workload")
    p.add_argument("--manifest", required=True)
    p.add_argument("--workload", required=True, help="jsonl of {domain, prompt}")
    p.add_argument("--repeat", type=int, default=100)
    p.add_argument("--budget", type=int, default=None,
                   help="also run the ensemble under this resident-byte budget")
    p.add_argument("--adapter-rank", type=int, default=4)
    p.add_argument("--max-new", type=int, default=12)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("ablate", help="insertion-strategy ablation for one domain")
    p.add_argument("--manifest", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--strategies", default=None, help="comma-separated subset, default all five")
    p.add_argument("--eval-size", type=int, default=100)
    p.add_argument("--out", default=None)
    _add_train_flags(p, steps=600, batch=24, lr=1e-3, warmup=50)
    p.set_defaults(fn=cmd_ablate)

    return root


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except CcoeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
