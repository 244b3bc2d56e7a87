"""Compact collaboration-of-experts decoder runtime.

A frozen shared backbone serves every domain; small expert subnetworks replace
its feed-forward sublayers at configurable layer positions and are trained,
pushed, copied and removed independently. Queries reach experts either through
deterministic mapping-matrix gating or through a learned planning expert that
chains multiple experts over a task.
"""

from .bench import (
    BenchReport,
    Workload,
    ablate_insertion,
    run_adapter_baseline,
    run_ccoe,
    run_mdme_baseline,
    strategy_positions,
)
from .checkpoint import digest, load_checkpoint, save_checkpoint
from .decoding import KvCache, greedy_decode
from .domains import DOMAINS, SyntheticDomain
from .kernels import layer_norm
from .lifecycle import (
    ExpertRegistry,
    attach_planner,
    memory_report,
    pop_copy,
    pop_remove,
    push,
)
from .model import (
    BackboneModel,
    ExpertSubnetwork,
    ModelConfig,
    init_backbone,
    init_expert,
    param_bytes,
)
from .net import forward_base, forward_with_expert
from .rng import Rng
from .routing import (
    STOP,
    ExecutionPath,
    MappingMatrix,
    PlannerExpert,
    execute_plan,
    gate,
    init_planner,
    select_expert,
)
from .training import (
    TrainConfig,
    evaluate_exact_match,
    evaluate_planner,
    nll_loss,
    pretrain_backbone,
    train_expert,
    train_planner,
)

__all__ = [
    "BackboneModel", "BenchReport", "DOMAINS", "ExecutionPath", "ExpertRegistry",
    "ExpertSubnetwork", "KvCache", "MappingMatrix", "ModelConfig", "PlannerExpert",
    "Rng", "STOP", "SyntheticDomain", "TrainConfig", "Workload",
    "ablate_insertion", "attach_planner", "digest",
    "evaluate_exact_match", "evaluate_planner", "execute_plan", "forward_base",
    "forward_with_expert", "gate", "greedy_decode",
    "init_backbone", "init_expert", "init_planner", "layer_norm",
    "load_checkpoint", "memory_report", "nll_loss", "param_bytes",
    "pop_copy", "pop_remove", "pretrain_backbone", "push",
    "run_adapter_baseline", "run_ccoe", "run_mdme_baseline", "save_checkpoint",
    "select_expert", "strategy_positions", "train_expert",
    "train_planner",
]

__version__ = "0.1.0"
