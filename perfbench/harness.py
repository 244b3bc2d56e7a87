"""Set-up, the serving and training loops, and the correctness checks.

The harness drives ``ccoe`` only through its public functions, from one
process and one client thread (a closed loop: each operation starts when the
previous one has returned). It calls them as module attributes, so a traced
run sees the wrappers that :mod:`perfbench.spans` installs.

Every timed operation is preceded by one sample of the reference loop
(:mod:`perfbench.reference`), and its time is also kept divided by the
running median of those samples.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from ccoe import bench, checkpoint, decoding, lifecycle, model, routing, training
from ccoe import domains as dom
from ccoe.rng import Rng

from . import workloads as wl
from . import layers, spans
from .reference import Reference
from .spans import Tracer

# The test fixture's model shape; seeded random weights stand in for the
# trained recipe (about 9 minutes), which fixes the shape of the work.
CONFIG = model.ModelConfig(n_layers=8, d_model=64, n_heads=4, d_ff=128, vocab_size=260, max_seq=256)
EXPERT_POSITIONS = (0, 4)
MODEL_SEED = 2407  # fixed: the model is the system under test, not an input
REGISTRY_SEED = 7
PERTURB_STD = 1e-3  # registry updates add this much noise to an expert copy
MAX_CHECKS = 24
MAX_REPORTED_ERRORS = 3
WARM_UP_CYCLE = wl.TrainCycle(pretrain_seed=1, expert_seeds=(1,) * len(wl.STRATEGIES),
                              planner_seed=1, tasks_seed=1)


def write_components(directory: Path) -> dict:
    """Save the backbone, five experts and the planner as checkpoints."""
    root = Rng(MODEL_SEED)
    backbone = model.init_backbone(CONFIG, root.child("backbone")).freeze()
    paths = {"backbone": directory / "backbone.ccoe", "experts": [],
             "planner": directory / "planner.ccoe"}
    checkpoint.save_checkpoint(backbone, paths["backbone"])
    for eid, name in enumerate(dom.DOMAIN_NAMES):
        expert = model.init_expert(CONFIG, eid, name, EXPERT_POSITIONS, root.child("expert", eid))
        path = directory / f"expert-{name}.ccoe"
        checkpoint.save_checkpoint(expert, path)
        paths["experts"].append(path)
    planner = routing.init_planner(CONFIG, list(range(len(dom.DOMAIN_NAMES))), EXPERT_POSITIONS,
                                   root.child("planner"), warm_from=backbone)
    checkpoint.save_checkpoint(planner, paths["planner"])
    return paths


def set_up(paths: dict, workload: str):
    """Load the registry from checkpoints, then warm up: one short decode per
    expert and one planner route, and for ``train_phases`` one step of each
    phase, so that no measured operation pays for first use."""
    backbone = checkpoint.load_checkpoint(paths["backbone"])
    reg = lifecycle.ExpertRegistry(backbone=backbone, seed=REGISTRY_SEED)
    for path in paths["experts"]:
        lifecycle.push(reg, checkpoint.load_checkpoint(path))
    lifecycle.attach_planner(reg, checkpoint.load_checkpoint(paths["planner"]))
    prompt = dom.step_prompt_tokens(None, "1234")
    for eid in sorted(reg.experts):
        decoding.greedy_decode(reg.backbone, reg.experts[eid], prompt, 4)
    routing.execute_plan("c" + dom.TASK_SEP + "1234", reg.planner, reg, max_steps=1, max_new=4)
    if workload == "train_phases":
        for _tag, _phase, call in _phase_calls(reg, WARM_UP_CYCLE, steps=1):
            call()
    return reg


@dataclass(frozen=True)
class Timing:
    kind: str  # gated, routed or update; a phase tag; or cycle
    ms: float
    ref: float  # ms divided by the reference loop's running median time


@dataclass
class Outcome:
    """What one pass of a workload did."""

    ops: list = field(default_factory=list)  # the operations run, in order
    timings: list[Timing] = field(default_factory=list)  # one per op or phase call
    cycles: list[Timing] = field(default_factory=list)  # train: one per cycle
    attempted: int = 0
    failed: int = 0
    tokens: int = 0  # serve: tokens generated by gated requests
    examples: int = 0  # train: training examples (steps x batch)
    routed_steps: list[int] = field(default_factory=list)
    phase_steps: dict[str, int] = field(default_factory=dict)
    final_loss: dict[str, list[float]] = field(default_factory=dict)
    pending: list = field(default_factory=list)  # (expert, op, served tokens) to re-check
    errors: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(what)
            print(f"perfbench: {what}", file=sys.stderr)

    def of(self, *kinds: str) -> list[Timing]:
        return [t for t in self.timings if t.kind in kinds]

    @property
    def wall_s(self) -> float:
        """Summed time of the operations; set-up and checks are outside."""
        return sum(t.ms for t in self.timings) / 1e3


def _timed(out: Outcome, ref: Reference, kind: str, what: str, fn, root) -> Timing:
    """Run ``fn`` as one operation; an exception fails it but not the run."""
    unit = ref.sample()
    t0 = time.perf_counter()
    try:
        with root:
            fn()
    except Exception:  # one failed operation must not end the run
        out.fail(f"{what} raised:\n{traceback.format_exc()}")
    ms = (time.perf_counter() - t0) * 1e3
    out.attempted += 1
    timing = Timing(kind, ms, ms / unit)
    out.timings.append(timing)
    return timing


def _perturb(expert, seed: int) -> None:
    noise = np.random.default_rng(seed)
    for name in sorted(expert.params):
        p = expert.params[name]
        p += (noise.standard_normal(p.shape) * PERTURB_STD).astype(p.dtype)


def _serve_one(reg, op: wl.Op, out: Outcome) -> None:
    if op.kind == "gated":
        # no stop token: every request generates exactly max_new tokens, so
        # request cost does not hinge on where an untrained model emits EOS
        prompt = list(op.prompt)
        path = routing.gate(reg.mapping, reg, [(op.domain, prompt)])[0]
        for eid, _positions in path.steps:
            expert = reg.experts[eid]
            served = decoding.greedy_decode(reg.backbone, expert, prompt, op.max_new, stop_token=None)
            out.tokens += len(served)
            if op.check and len(out.pending) < MAX_CHECKS:
                out.pending.append((expert, op, served))
    elif op.kind == "routed":
        _text, path = routing.execute_plan(op.query, reg.planner, reg,
                                           max_steps=wl.ROUTED_MAX_STEPS, max_new=op.max_new)
        out.routed_steps.append(len(path.steps))
    else:
        copy = lifecycle.pop_copy(reg, op.expert_id)
        _perturb(copy, op.noise_seed)
        lifecycle.push(reg, copy)


def serve_op(reg, op: wl.Op, i: int, out: Outcome, ref: Reference,
             tracer: Tracer | None = None) -> None:
    root = tracer.root(f"op.{op.kind}", i) if tracer else nullcontext()
    _timed(out, ref, op.kind, f"{op.kind} operation {i}", lambda: _serve_one(reg, op, out), root)
    out.ops.append(op)


def check_served(reg, out: Outcome) -> None:
    """Re-decode the sampled gated requests without the KV cache."""
    for expert, op, served in out.pending:
        out.attempted += 1
        want = decoding.greedy_decode(reg.backbone, expert, list(op.prompt), op.max_new,
                                      use_cache=False, stop_token=None)
        if want != served:
            out.fail(f"cached decode {served} != uncached {want} for prompt {list(op.prompt)}")


def _train_cfg(phase: dict, seed: int, steps: int | None) -> training.TrainConfig:
    cfg = training.TrainConfig(seed=seed, log_every=1, **phase)
    if steps is not None:
        cfg.steps = steps
    return cfg


def _phase_calls(reg, cycle: wl.TrainCycle, steps: int | None = None):
    """(tag, phase settings, call) for each phase of one cycle; the experts,
    planner copy and planner tasks are built here, before any timing."""
    backbone = reg.backbone
    calls = [("pretrain", wl.PRETRAIN, lambda: training.pretrain_backbone(
        CONFIG, _train_cfg(wl.PRETRAIN, cycle.pretrain_seed, steps))[1])]
    for i, (strategy, seed) in enumerate(zip(wl.STRATEGIES, cycle.expert_seeds)):
        domain = dom.DOMAIN_NAMES[i]
        positions = bench.strategy_positions(strategy, CONFIG.n_layers, wl.EXPERT_SUBLAYERS)
        expert = model.init_expert(CONFIG, i, domain, positions, Rng(seed).child("init"),
                                   warm_from=backbone)
        cfg = _train_cfg(wl.EXPERT, seed, steps)
        calls.append((strategy, wl.EXPERT, lambda e=expert, d=domain, c=cfg: training.train_expert(
            e, backbone, dom.DOMAINS[d], c).curve))
    tasks = training.build_planner_dataset(
        {name: i for i, name in enumerate(dom.DOMAIN_NAMES)}, wl.PLANNER_TASKS, Rng(cycle.tasks_seed))
    planner = routing.deep_copy_planner(reg.planner)
    cfg = _train_cfg(wl.PLANNER, cycle.planner_seed, steps)
    calls.append(("planner", wl.PLANNER, lambda: training.train_planner(
        planner, backbone, tasks, cfg)[1]))
    return calls


def train_cycle(reg, cycle: wl.TrainCycle, i: int, out: Outcome, ref: Reference,
                tracer: Tracer | None = None) -> None:
    """Run one training cycle: seven phase calls.

    Each phase call is one operation, and its loss curve one check: every
    logged loss finite and the last below the first.
    """
    phases = []
    for tag, phase, call in _phase_calls(reg, cycle):
        curves = []
        root = tracer.root(f"train.{tag}", i, tag) if tracer else nullcontext()
        phases.append(_timed(out, ref, tag, f"phase {tag} of cycle {i}",
                             lambda: curves.append(call()), root))
        out.phase_steps[tag] = out.phase_steps.get(tag, 0) + phase["steps"]
        out.examples += phase["steps"] * phase["batch_size"]
        out.attempted += 1
        if not curves:
            out.failed += 1  # the phase raised, so its loss check fails too
            continue
        losses = [r.loss for r in curves[0]]
        out.final_loss.setdefault("expert" if tag in wl.STRATEGIES else tag, []).append(losses[-1])
        if not all(math.isfinite(x) for x in losses) or not losses[-1] < losses[0]:
            out.fail(f"phase {tag} of cycle {i}: loss went {losses[0]} -> {losses[-1]}")
    out.ops.append(cycle)
    out.cycles.append(Timing("cycle", sum(t.ms for t in phases), sum(t.ref for t in phases)))


def run(workload: str, reg, stream: Iterable, deadline: float,
        traced: tuple | None = None) -> tuple[Outcome, Outcome | None]:
    """Run the workload's operations back to back until ``deadline``.

    With ``traced = (registry, tracer)`` every operation runs a second time,
    right after the untraced run, on that registry with the wrappers installed
    for that operation only; alternating the two cancels machine drift out of
    the tracing overhead.
    """
    step = train_cycle if workload == "train_phases" else serve_op
    ref = Reference()
    out = Outcome()
    traced_out = Outcome() if traced else None
    for i, item in enumerate(stream):
        if time.perf_counter() >= deadline:
            break
        step(reg, item, i, out, ref)
        if traced:
            traced_reg, tracer = traced
            patched = spans.install(tracer, layers.TARGETS, "ccoe")
            try:
                step(traced_reg, item, i, traced_out, ref, tracer)
            finally:
                spans.uninstall(patched)
    return out, traced_out
