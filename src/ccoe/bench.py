"""Serving-efficiency benchmarks and the insertion-strategy ablation.

Three systems decode the same workload with identical kernels, cache policy and
greedy rule; only residency and switching semantics differ:

- shared-backbone registry: everything resident, a switch is a table lookup;
- model ensemble (one full model per domain): unconstrained keeps all models
  resident; under a byte budget, models are evicted LRU and re-loaded from
  their serialized form on demand, with deserialization time charged to the
  run;
- adapter serving: one set of low-rank deltas per domain on the shared
  backbone; every domain switch re-materializes effective weights W + A@B for
  all adapted maps, and that work is charged to the run.

Peak memory is resident parameter bytes, tracked instant by instant so report
peaks always equal a sum of component ledgers. Throughput is generated tokens
over total serving wall time (switch work included), measured after one
untimed warmup repetition.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import domains as dom
from .decoding import check_count, greedy_decode
from .errors import ConfigError, WorkloadError
from .lifecycle import ExpertRegistry
from .model import BackboneModel, ModelConfig, backbone_param_shapes, init_expert, param_bytes
from .rng import Rng
from .routing import answerers
from .training import TrainConfig, evaluate_exact_match, train_expert

STRATEGY_NAMES = ("GL", "FB", "FE", "MD", "BE")


def strategy_positions(name: str, n_layers: int, n_expert_layers: int) -> tuple[int, ...]:
    """Insertion positions for a strategy: GL spreads evenly, FE/MD/BE take the
    leading/centered/trailing block, FB splits front and back."""
    ln, k = n_layers, n_expert_layers
    if not 1 <= k <= ln:
        raise ConfigError(f"expert layer count {k} not in [1, {ln}]")
    if name == "GL":
        return tuple(i * ln // k for i in range(k))
    if name == "FE":
        return tuple(range(k))
    if name == "MD":
        start = (ln - k) // 2
        return tuple(range(start, start + k))
    if name == "BE":
        return tuple(range(ln - k, ln))
    if name == "FB":
        front = (k + 1) // 2
        back = k - front
        return tuple(range(front)) + tuple(range(ln - back, ln))
    raise ConfigError(f"unknown insertion strategy {name!r}")


@dataclass(frozen=True)
class Workload:
    """Ordered (domain, prompt) pairs, run ``repetitions`` times."""

    items: tuple[tuple[str, str], ...]
    repetitions: int = 1


@dataclass(frozen=True)
class BenchReport:
    system: str
    resident_param_bytes_peak: int
    tokens_per_second: float
    switch_count: int
    per_switch_overhead_seconds: float
    wall_time_seconds: float
    generated_tokens: int
    decode_seconds: float

    def record(self) -> dict:
        return {
            "system": self.system,
            "resident_param_bytes_peak": self.resident_param_bytes_peak,
            "tokens_per_second": round(self.tokens_per_second, 2),
            "switch_count": self.switch_count,
            "per_switch_overhead_seconds": self.per_switch_overhead_seconds,
            "wall_time_seconds": round(self.wall_time_seconds, 4),
            "generated_tokens": self.generated_tokens,
            "decode_seconds": round(self.decode_seconds, 4),
        }


def report_table(reports: list[BenchReport]) -> str:
    buf = io.StringIO()
    cols = ("system", "peak bytes", "tokens/s", "switches", "s/switch")
    rows = [
        (
            r.system,
            f"{r.resident_param_bytes_peak:,d}",
            f"{r.tokens_per_second:,.1f}",
            str(r.switch_count),
            f"{r.per_switch_overhead_seconds * 1e3:.3f} ms",
        )
        for r in reports
    ]
    widths = [max(len(c), *(len(row[i]) for row in rows)) for i, c in enumerate(cols)]
    buf.write("  ".join(c.ljust(w) for c, w in zip(cols, widths)) + "\n")
    for row in rows:
        buf.write("  ".join(v.ljust(w) for v, w in zip(row, widths)) + "\n")
    return buf.getvalue()


def _serve(system: str, workload: Workload, switch, max_new: int, peak) -> BenchReport:
    """Serve ``workload`` once untimed (the warm-up), then
    ``workload.repetitions`` times timed, and report the timed passes.

    Prompts are tokenized once, before the warm-up. At each pass's first
    query and at every change of domain, ``switch(domain)`` returns (model,
    experts): the model to decode on and the experts that answer each query
    in turn (None: the model alone). Its time counts as switch overhead.
    ``peak()`` gives the resident parameter bytes' peak; it is read after the
    passes. A repetition count that is not an integer >= 1 raises
    ``WorkloadError``.
    """
    stream = [(domain, dom.step_prompt_tokens(None, prompt)) for domain, prompt in workload.items]

    def serve() -> tuple[int, float, int, float]:
        tokens = 0
        switch_time = 0.0
        switches = 0
        prev = None
        t0 = time.perf_counter()
        for domain, ids in stream:
            if domain != prev:
                s0 = time.perf_counter()
                model, experts = switch(domain)
                switch_time += time.perf_counter() - s0
                switches += 1
                prev = domain
            for expert in experts:
                tokens += len(greedy_decode(model, expert, ids, max_new=max_new))
        return tokens, switch_time, switches, time.perf_counter() - t0

    repetitions = check_count(workload.repetitions, "workload repetitions", WorkloadError)
    serve()  # warmup
    runs = [serve() for _ in range(repetitions)]
    tokens, switch_time, switches, wall = (sum(col) for col in zip(*runs))
    return BenchReport(
        system=system,
        resident_param_bytes_peak=peak(),
        tokens_per_second=tokens / wall,
        switch_count=switches,
        per_switch_overhead_seconds=switch_time / max(switches, 1),
        wall_time_seconds=wall,
        generated_tokens=tokens,
        decode_seconds=wall - switch_time,
    )


def run_ccoe(registry: ExpertRegistry, workload: Workload, max_new: int = 12) -> BenchReport:
    """Serve the workload from the registry via rule-based gating."""
    for domain, _ in workload.items:
        if domain not in registry.mapping.rows:
            raise WorkloadError(f"registry cannot serve domain {domain!r}")

    peak = registry.total_bytes()  # everything stays resident
    return _serve("ccoe", workload,
                  lambda domain: (registry.backbone, answerers(registry, domain)),
                  max_new, lambda: peak)


def run_mdme_baseline(
    models: dict[str, BackboneModel],
    workload: Workload,
    resident_budget_bytes: int | None = None,
    max_new: int = 12,
) -> BenchReport:
    """One full model per domain. Under a budget, models are LRU-evicted and
    re-loaded (deserialize + digest check) on demand; load time counts. A
    budget below the largest model the workload needs raises
    ``ConfigError``."""
    import os
    import tempfile

    from .checkpoint import load_checkpoint, save_checkpoint

    for domain, _ in workload.items:
        if domain not in models:
            raise WorkloadError(f"no standalone model for domain {domain!r}")

    bytes_per = {d: param_bytes(m) for d, m in models.items()}
    largest = max((bytes_per[d] for d, _ in workload.items), default=0)
    if resident_budget_bytes is not None and resident_budget_bytes < largest:
        raise ConfigError(f"resident budget of {resident_budget_bytes} bytes cannot hold the "
                          f"workload's largest model of {largest} bytes")
    store_dir = tempfile.TemporaryDirectory(prefix="mdme-")
    stores: dict[str, str] = {}
    for d, m in models.items():
        path = os.path.join(store_dir.name, f"{d}.ccoe")
        save_checkpoint(m, path)
        stores[d] = path

    unconstrained = resident_budget_bytes is None
    resident: dict[str, BackboneModel] = {}
    # models of one shape share their workspaces, so a re-load allocates none
    workspaces: dict[ModelConfig, dict] = {}
    peak = 0

    def resident_bytes() -> int:
        return sum(bytes_per[d] for d in resident)

    def ensure_loaded(domain: str) -> BackboneModel:
        nonlocal peak
        if domain in resident:
            resident[domain] = resident.pop(domain)  # LRU bump
            return resident[domain]
        if not unconstrained:
            while resident and resident_bytes() + bytes_per[domain] > resident_budget_bytes:
                resident.pop(next(iter(resident)))
        model = resident[domain] = load_checkpoint(stores[domain])
        model.workspaces = workspaces.setdefault(model.config, {})
        peak = max(peak, resident_bytes())
        return model

    if unconstrained:
        for d in models:
            ensure_loaded(d)

    try:
        return _serve("mdme" if unconstrained else "mdme-budget", workload,
                      lambda domain: (ensure_loaded(domain), [None]), max_new, lambda: peak)
    finally:
        store_dir.cleanup()


# --- adapter baseline --------------------------------------------------------

ADAPTED_SUFFIXES = ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "ffn.w1", "ffn.w2")


def adapted_map_names(config) -> list[str]:
    names = [f"layers.{i}.{s}" for i in range(config.n_layers) for s in ADAPTED_SUFFIXES]
    names.append("head")
    return names


@dataclass
class AdapterSet:
    """Low-rank (A, B) pairs for every adapted linear map of one domain."""

    domain: str
    rank: int
    pairs: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def bytes(self) -> int:
        return 4 * sum(a.size + b.size for a, b in self.pairs.values())


def make_adapters(
    backbone: BackboneModel, domains: list[str], rank: int, rng: Rng, zero_b: bool = False
) -> dict[str, AdapterSet]:
    if rank < 1:
        raise ConfigError(f"adapter rank must be >= 1, got {rank}")
    sets = {}
    for d in domains:
        pairs = {}
        for name in adapted_map_names(backbone.config):
            w = backbone.params[name]
            a = rng.child(d, name, "a").normal((w.shape[0], rank), 0.02)
            b = (
                np.zeros((rank, w.shape[1]), dtype=np.float32)
                if zero_b
                else rng.child(d, name, "b").normal((rank, w.shape[1]), 0.02)
            )
            pairs[name] = (a, b)
        sets[d] = AdapterSet(domain=d, rank=rank, pairs=pairs)
    return sets


def materialize_adapter(backbone: BackboneModel, aset: AdapterSet) -> BackboneModel:
    """Effective model with W + A@B on adapted maps; everything else shared,
    the backbone's workspaces included, so a switch allocates none."""
    params = dict(backbone.params)
    for name, (a, b) in aset.pairs.items():
        params[name] = backbone.params[name] + a @ b
    model = BackboneModel(config=backbone.config, params=params, frozen=True)
    model.workspaces = backbone.workspaces
    return model


def overlay_bytes(config) -> int:
    """Bytes of one materialized set of adapted maps."""
    shapes = backbone_param_shapes(config)
    return 4 * sum(math.prod(shapes[name]) for name in adapted_map_names(config))


def run_adapter_baseline(
    backbone: BackboneModel,
    adapters: dict[str, AdapterSet],
    workload: Workload,
    max_new: int = 12,
) -> BenchReport:
    """Adapter serving: every domain switch re-materializes W + A@B for all
    adapted maps before decoding resumes."""
    for domain, _ in workload.items:
        if domain not in adapters:
            raise WorkloadError(f"no adapter for domain {domain!r}")
    peak = (
        param_bytes(backbone)
        + sum(a.bytes() for a in adapters.values())
        + overlay_bytes(backbone.config)
    )
    return _serve("adapter", workload,
                  lambda domain: (materialize_adapter(backbone, adapters[domain]), [None]),
                  max_new, lambda: peak)


# --- insertion-strategy ablation ----------------------------------------------


@dataclass(frozen=True)
class AblationRow:
    strategy: str
    positions: tuple[int, ...]
    accuracy: float
    base_accuracy: float

    @property
    def gain(self) -> float:
        """Accuracy delta of the expert over the frozen base."""
        return self.accuracy - self.base_accuracy

    def record(self) -> dict:
        return {
            "strategy": self.strategy,
            "positions": list(self.positions),
            "accuracy": self.accuracy,
            "base_accuracy": self.base_accuracy,
            "gain": self.gain,
        }


def ablation_table(rows: list[AblationRow]) -> str:
    lines = [f"{'strategy':8s}  {'positions':14s}  {'accuracy':>8s}  {'gain':>7s}"]
    for r in rows:
        lines.append(
            f"{r.strategy:8s}  {str(list(r.positions)):14s}  {r.accuracy:8.3f}  {r.gain:+7.3f}"
        )
    return "\n".join(lines)


def ablate_insertion(
    backbone: BackboneModel,
    domain_name: str,
    n_expert_layers: int,
    train_cfg: TrainConfig,
    eval_size: int = 100,
    strategies: tuple[str, ...] = STRATEGY_NAMES,
) -> list[AblationRow]:
    """Train one warm-started expert per insertion strategy under identical
    seeds and config; report held-out exact-match and the gain over the
    frozen base."""
    domain = dom.DOMAINS[domain_name]
    rows = []
    base_acc = None
    for strat in strategies:
        positions = strategy_positions(strat, backbone.config.n_layers, n_expert_layers)
        expert = init_expert(
            backbone.config,
            0,
            domain_name,
            positions,
            Rng(train_cfg.seed).child("ablate-init", strat),
            warm_from=backbone,
        )
        result = train_expert(expert, backbone, domain, train_cfg)
        held = dom.heldout_payloads(
            Rng(train_cfg.seed).child("ablate-eval"), eval_size, result.seen_payloads
        )
        if base_acc is None:
            base_acc = evaluate_exact_match(backbone, None, domain, held)
        acc = evaluate_exact_match(backbone, expert, domain, held)
        rows.append(
            AblationRow(strategy=strat, positions=positions, accuracy=acc, base_accuracy=base_acc)
        )
    return rows
