"""Expert lifecycle: the live registry, push and pop, and memory accounting.

A registry is one resident backbone, its expert overlays, the mapping matrix
and an optional planner: the one record of a deployment, from which the CLI
writes its manifest. A mutation validates before it commits, so a refused
push changes nothing. Components are registered as read-only deep copies;
an expert pushed from a checkpoint path, which no caller holds, as loaded.
A planner keeps one indicator row per registered expert: a new expert gets
an uncalibrated random row from ``Rng(registry.seed).child("indicator",
expert_id)``, a removed one loses its row, and ``attach_planner``
reconciles by that rule. Accounting counts resident parameter bytes (4 per
float32); the backbone's workspace is a runtime row outside the total.
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
from .net import workspace_bytes
from .routing import MappingMatrix, PlannerExpert, deep_copy_planner
from .rng import Rng

BUDGET_FRACTION = Fraction(15, 100)  # an expert's most bytes, as a share of the backbone's


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
    return float(BUDGET_FRACTION) * param_bytes(registry.backbone)


def push(
    registry: ExpertRegistry,
    expert: ExpertSubnetwork | str | PathLike,
    expert_id: int | None = None,
) -> ExpertSubnetwork:
    """Add an expert or atomically replace one; returns the registered expert.
    ``expert`` is an expert object, registered as a copy, or the path of an
    expert checkpoint, registered as loaded, under ``expert_id`` (None: its own
    id). A new id also gets a mapping row and, with a planner, an uncalibrated
    indicator row. Raises ``RoutingConfigError`` for bad positions,
    ``BudgetError`` over the budget, and ``ConfigError`` for a checkpoint that
    is not an expert or a new domain under a registered id."""
    owned = not isinstance(expert, ExpertSubnetwork)
    if owned:
        path, expert = expert, load_checkpoint(expert)
        if not isinstance(expert, ExpertSubnetwork):
            raise ConfigError(f"checkpoint at {path} is not an expert")
    eid = expert.expert_id if expert_id is None else expert_id
    validate_positions(registry.backbone.config, expert.positions)
    cost = param_bytes(expert)
    limit = budget_limit_bytes(registry)
    if cost > limit:
        raise BudgetError(
            f"expert {eid} needs {cost} bytes, over the "
            f"{float(BUDGET_FRACTION):.0%} budget of {limit:.0f}"
        )
    existing = registry.experts.get(eid)
    if existing is not None and existing.domain != expert.domain:
        raise ConfigError(
            f"expert {eid} is registered for domain "
            f"{existing.domain!r}, refusing silent re-domain to {expert.domain!r}"
        )
    incoming = (expert if owned else deep_copy_expert(expert)).freeze()
    incoming.expert_id = eid
    registry.experts[eid] = incoming
    if existing is None:
        registry.mapping.associate(incoming.domain, eid)
        if registry.planner is not None:
            _add_indicator(registry, registry.planner, eid)
    return incoming


def _add_indicator(registry: ExpertRegistry, planner: PlannerExpert, expert_id: int) -> None:
    """Give ``expert_id`` the uncalibrated indicator row of a new expert."""
    planner.add_indicator(expert_id, Rng(registry.seed).child("indicator", expert_id))


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
    """Attach a copy of ``planner`` with its indicator rows reconciled to the
    registered experts."""
    planner = deep_copy_planner(planner)
    for eid in [e for e in planner.indicator_ids if e not in registry.experts]:
        planner.remove_indicator(eid)
    for eid in sorted(registry.experts):
        if eid not in planner.indicator_ids:
            _add_indicator(registry, planner, eid)
    registry.planner = planner
    return registry


# --- deployment accounting -------------------------------------------------


def reduction(ccoe_bytes, ensemble_bytes) -> Fraction:
    """Relative memory reduction of the shared-backbone deployment versus an
    ensemble; exact rational arithmetic."""
    return 1 - Fraction(ccoe_bytes) / Fraction(ensemble_bytes)


def capped_deployment_bytes(backbone_bytes: int, n_experts: int):
    """Analytic resident bytes with every expert exactly at the budget cap."""
    return backbone_bytes * (1 + n_experts * BUDGET_FRACTION)


@dataclass(frozen=True)
class MemoryReport:
    """Resident parameter bytes per component, their total and the two
    deployment comparisons; the ``runtime`` rows are in neither."""

    rows: tuple[tuple[str, int], ...]
    total: int
    mdme_equal_bytes: int
    mdme_equal_reduction: Fraction
    capped_total: Fraction
    capped_reduction: Fraction
    runtime: tuple[tuple[str, int], ...] = ()

    def records(self) -> list[dict]:
        recs = [{"component": name, "bytes": b} for name, b in self.rows]
        recs.append({"component": "total", "bytes": self.total})
        recs += [{"runtime": name, "bytes": b} for name, b in self.runtime]
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
        width = max(len(name) for name, _ in self.rows + self.runtime + (("total", 0),))
        lines = [f"{name:<{width}}  {b:>12,d}" for name, b in self.rows]
        lines.append("-" * (width + 14))
        lines.append(f"{'total':<{width}}  {self.total:>12,d}")
        lines += [f"{name:<{width}}  {b:>12,d}  (runtime, not in total)"
                  for name, b in self.runtime]
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
    backbone = registry.backbone
    bb = param_bytes(backbone)
    n = max(len(registry.experts), 1)
    mdme = n * bb
    capped = capped_deployment_bytes(bb, n)
    return MemoryReport(
        rows=rows,
        total=total,
        mdme_equal_bytes=mdme,
        mdme_equal_reduction=reduction(total, mdme),
        capped_total=capped,
        capped_reduction=reduction(capped, mdme),
        runtime=(("workspace", workspace_bytes(backbone.config, backbone.params["embed"].dtype)),),
    )
