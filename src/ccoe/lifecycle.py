"""Expert lifecycle: the live registry, push/pop, and memory accounting.

A registry is one resident backbone plus any number of expert overlays, a
mapping matrix for rule-based gating, and an optional planner. Mutations are
validate-then-commit: a refused push leaves every byte unchanged. Registered
components are deep-copied in and their arrays made read-only, so nothing the
caller does afterwards (training a popped copy, mutating the source) can reach
inside the registry. An expert pushed from a checkpoint path is the one
exception to the copy: no caller holds it, so it is frozen and registered as
loaded.

The accounting model counts resident parameter bytes (4 per float32) and backs
the deployment comparison: one shared backbone plus small overlays versus one
full model per domain versus adapters plus per-switch re-materialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from os import PathLike

from .checkpoint import load_checkpoint
from .errors import BudgetError, ConfigError, UnknownExpertError
from .model import (
    BackboneModel,
    ExpertSubnetwork,
    deep_copy_expert,
    param_bytes,
    validate_positions,
)
from .routing import MappingMatrix, PlannerExpert, deep_copy_planner
from .rng import Rng

BUDGET_FRACTION = 0.15


@dataclass
class ExpertRegistry:
    """One backbone, its expert overlays, the mapping matrix, optional planner."""

    backbone: BackboneModel
    experts: dict[int, ExpertSubnetwork] = field(default_factory=dict)
    mapping: MappingMatrix = field(default_factory=MappingMatrix)
    planner: PlannerExpert | None = None
    seed: int = 0

    def ledger(self) -> dict[str, int]:
        """Per-component resident parameter bytes; additive by construction."""
        rows = {"backbone": param_bytes(self.backbone)}
        for eid in sorted(self.experts):
            e = self.experts[eid]
            rows[f"expert:{eid}:{e.domain}"] = param_bytes(e)
        if self.planner is not None:
            rows["planner"] = param_bytes(self.planner)
        return rows

    def total_bytes(self) -> int:
        return sum(self.ledger().values())



def budget_limit_bytes(registry: ExpertRegistry) -> float:
    return BUDGET_FRACTION * param_bytes(registry.backbone)


def push(
    registry: ExpertRegistry, expert: ExpertSubnetwork | str | PathLike
) -> ExpertRegistry:
    """Add a new expert or atomically replace an existing one.

    Validation (positions, budget, domain consistency) happens before any
    mutation. A new id also gets a mapping association and a fresh, randomly
    initialized planner indicator row flagged uncalibrated.
    """
    owned = not isinstance(expert, ExpertSubnetwork)
    if owned:
        loaded = load_checkpoint(expert)
        if not isinstance(loaded, ExpertSubnetwork):
            raise ConfigError(f"checkpoint at {expert} is not an expert")
        expert = loaded
    validate_positions(registry.backbone.config, expert.positions)
    cost = param_bytes(expert)
    limit = budget_limit_bytes(registry)
    if cost > limit:
        raise BudgetError(
            f"expert {expert.expert_id} needs {cost} bytes, over the "
            f"{BUDGET_FRACTION:.0%} budget of {limit:.0f}"
        )
    existing = registry.experts.get(expert.expert_id)
    if existing is not None and existing.domain != expert.domain:
        raise ConfigError(
            f"expert {expert.expert_id} is registered for domain "
            f"{existing.domain!r}, refusing silent re-domain to {expert.domain!r}"
        )
    incoming = (expert if owned else deep_copy_expert(expert)).freeze()
    is_new = existing is None
    registry.experts[expert.expert_id] = incoming
    if is_new:
        registry.mapping.associate(expert.domain, expert.expert_id)
        if registry.planner is not None:
            registry.planner.add_indicator(
                expert.expert_id, Rng(registry.seed).child("indicator", expert.expert_id)
            )
    return registry


def pop_copy(registry: ExpertRegistry, expert_id: int) -> ExpertSubnetwork:
    """Deep copy sharing no storage with the registry; safe to train."""
    if expert_id not in registry.experts:
        raise UnknownExpertError(f"no expert {expert_id} registered")
    return deep_copy_expert(registry.experts[expert_id])


def pop_remove(registry: ExpertRegistry, expert_id: int) -> ExpertRegistry:
    """Release an expert: drops its weights, mapping column, indicator row."""
    if expert_id not in registry.experts:
        raise UnknownExpertError(f"no expert {expert_id} registered")
    del registry.experts[expert_id]
    registry.mapping.drop_expert(expert_id)
    if registry.planner is not None:
        registry.planner.remove_indicator(expert_id)
    return registry


def attach_planner(registry: ExpertRegistry, planner: PlannerExpert) -> ExpertRegistry:
    if sorted(planner.indicator_ids) != sorted(registry.experts):
        raise ConfigError(
            f"planner indicators {planner.indicator_ids} do not match "
            f"registered experts {sorted(registry.experts)}"
        )
    registry.planner = deep_copy_planner(planner)
    return registry


# --- deployment accounting -------------------------------------------------


def reduction(ccoe_bytes, ensemble_bytes) -> Fraction:
    """Relative memory reduction of the shared-backbone deployment versus an
    ensemble; exact rational arithmetic."""
    return 1 - Fraction(ccoe_bytes) / Fraction(ensemble_bytes)


def capped_deployment_bytes(backbone_bytes: int, n_experts: int,
                            fraction: Fraction = Fraction(15, 100)):
    """Analytic resident bytes with every expert exactly at the budget cap."""
    return backbone_bytes * (1 + n_experts * fraction)


@dataclass(frozen=True)
class MemoryReport:
    rows: tuple[tuple[str, int], ...]
    total: int
    mdme_equal_bytes: int
    mdme_equal_reduction: Fraction
    capped_total: Fraction
    capped_reduction: Fraction

    def records(self) -> list[dict]:
        recs = [{"component": name, "bytes": b} for name, b in self.rows]
        recs.append({"component": "total", "bytes": self.total})
        recs.append({
            "comparison": "mdme_equal_size",
            "ensemble_bytes": self.mdme_equal_bytes,
            "reduction": float(self.mdme_equal_reduction),
        })
        recs.append({
            "comparison": "capped_experts",
            "deployment_bytes": float(self.capped_total),
            "reduction": float(self.capped_reduction),
        })
        return recs

    def table(self) -> str:
        width = max(len(name) for name, _ in self.rows + (("total", 0),))
        lines = [f"{name:<{width}}  {b:>12,d}" for name, b in self.rows]
        lines.append("-" * (width + 14))
        lines.append(f"{'total':<{width}}  {self.total:>12,d}")
        lines.append(
            f"vs equal-size ensemble ({self.mdme_equal_bytes:,d} bytes): "
            f"reduction {float(self.mdme_equal_reduction):.1%}"
        )
        lines.append(
            f"at-cap analytic deployment: {float(self.capped_total):,.0f} bytes, "
            f"reduction {float(self.capped_reduction):.1%}"
        )
        return "\n".join(lines)


def memory_report(registry: ExpertRegistry) -> MemoryReport:
    ledger = registry.ledger()
    rows = tuple(ledger.items())
    total = sum(ledger.values())
    bb = param_bytes(registry.backbone)
    n = max(len(registry.experts), 1)
    mdme = n * bb
    capped = capped_deployment_bytes(bb, n)
    return MemoryReport(
        rows=rows,
        total=total,
        mdme_equal_bytes=mdme,
        mdme_equal_reduction=reduction(total, mdme) if mdme else Fraction(0),
        capped_total=capped,
        capped_reduction=reduction(capped, mdme) if mdme else Fraction(0),
    )
