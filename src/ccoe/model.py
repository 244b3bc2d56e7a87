"""Decoder model definition: shared backbone and pluggable expert subnetworks.

The backbone is a pre-norm decoder transformer (embedding + learned positions,
L layers of causal attention and GELU feed-forward, final norm, untied output
head). An expert subnetwork owns replacement feed-forward sublayers (with their
own pre-norms) for a sorted set of backbone layer indices; at those positions
the backbone's feed-forward sublayer is swapped out wholesale while attention
stays shared. Parameters live in flat name->array dicts so training,
serialization and digesting can treat every component uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, RoutingConfigError
from .rng import Rng

Params = dict[str, np.ndarray]


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 8
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    vocab_size: int = 260
    max_seq: int = 256

    def validate(self) -> "ModelConfig":
        if self.n_layers < 2:
            raise ConfigError(f"n_layers must be >= 2, got {self.n_layers}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        if self.vocab_size < 2:
            raise ConfigError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if min(self.d_model, self.d_ff, self.n_heads, self.max_seq) < 1:
            raise ConfigError("all dimensions must be positive")
        return self

    def to_dict(self) -> dict:
        return {
            "n_layers": self.n_layers,
            "d_model": self.d_model,
            "n_heads": self.n_heads,
            "d_ff": self.d_ff,
            "vocab_size": self.vocab_size,
            "max_seq": self.max_seq,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d).validate()


@dataclass
class BackboneModel:
    """The shared decoder stack. Once frozen, its arrays are read-only."""

    config: ModelConfig
    params: Params
    frozen: bool = False

    def named_parameters(self) -> Params:
        return self.params

    def freeze(self) -> "BackboneModel":
        for arr in self.params.values():
            arr.flags.writeable = False
        self.frozen = True
        return self


@dataclass
class ExpertSubnetwork:
    """Replacement feed-forward sublayers owned by one domain.

    ``positions`` are the backbone layer indices whose feed-forward sublayer
    (and its pre-norm) this expert substitutes. Parameter keys are
    ``p{idx}.{ln.g,ln.b,w1,b1,w2,b2}``.
    """

    expert_id: int
    domain: str
    positions: tuple[int, ...]
    inner_width: int
    params: Params = field(default_factory=dict)

    def __post_init__(self):
        pos = tuple(self.positions)
        if list(pos) != sorted(set(pos)):
            raise RoutingConfigError(f"positions must be strictly increasing, got {pos}")
        self.positions = pos

    def named_parameters(self) -> Params:
        return self.params

    def freeze(self) -> "ExpertSubnetwork":
        for arr in self.params.values():
            arr.flags.writeable = False
        return self

    @property
    def n_sublayers(self) -> int:
        return len(self.positions)


def backbone_param_count(config: ModelConfig) -> int:
    c = config
    per_layer = (
        4 * c.d_model * c.d_model  # q,k,v,out projections
        + 2 * (2 * c.d_model)  # two pre-norms (gain+bias)
        + c.d_model * c.d_ff + c.d_ff  # ffn in
        + c.d_ff * c.d_model + c.d_model  # ffn out
    )
    return (
        c.vocab_size * c.d_model
        + c.max_seq * c.d_model
        + c.n_layers * per_layer
        + 2 * c.d_model  # final norm
        + c.d_model * c.vocab_size  # head
    )


def expert_param_count(config: ModelConfig, n_sublayers: int, inner_width: int) -> int:
    d = config.d_model
    per = 2 * d + d * inner_width + inner_width + inner_width * d + d
    return n_sublayers * per


def backbone_param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor ``init_backbone`` creates for ``config``."""
    c = config
    d = c.d_model
    shapes = {"embed": (c.vocab_size, d), "pos": (c.max_seq, d),
              "ln_f.g": (d,), "ln_f.b": (d,), "head": (d, c.vocab_size)}
    for i in range(c.n_layers):
        pre = f"layers.{i}."
        shapes.update({pre + "ln1.g": (d,), pre + "ln1.b": (d,), pre + "ln2.g": (d,),
                       pre + "ln2.b": (d,), pre + "ffn.w1": (d, c.d_ff), pre + "ffn.b1": (c.d_ff,),
                       pre + "ffn.w2": (c.d_ff, d), pre + "ffn.b2": (d,)})
        shapes.update({pre + f"attn.{w}": (d, d) for w in ("wq", "wk", "wv", "wo")})
    return shapes


def expert_param_shapes(
    positions: tuple[int, ...], inner_width: int, d_model: int
) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor of an expert with these sublayers."""
    shapes: dict[str, tuple[int, ...]] = {}
    for pos in positions:
        pre = f"p{pos}."
        shapes.update({pre + "ln.g": (d_model,), pre + "ln.b": (d_model,),
                       pre + "w1": (d_model, inner_width), pre + "b1": (inner_width,),
                       pre + "w2": (inner_width, d_model), pre + "b2": (d_model,)})
    return shapes


def param_count(component) -> int:
    return sum(a.size for a in component.named_parameters().values())


def param_bytes(component) -> int:
    """Resident bytes for a component: 4 bytes per float32 parameter."""
    return 4 * param_count(component)


def init_backbone(config: ModelConfig, rng: Rng) -> BackboneModel:
    """Fresh unfrozen backbone with GPT-style scaled normal init.

    Residual-output projections (attention out, ffn out) are scaled down by
    sqrt(2 * n_layers) so residual-stream variance stays bounded with depth.
    """
    c = config.validate()
    std = 0.02
    resid_std = std / math.sqrt(2.0 * c.n_layers)
    p: Params = {
        "embed": rng.normal((c.vocab_size, c.d_model), std),
        "pos": rng.normal((c.max_seq, c.d_model), std),
        "ln_f.g": np.ones(c.d_model, dtype=np.float32),
        "ln_f.b": np.zeros(c.d_model, dtype=np.float32),
        "head": rng.normal((c.d_model, c.vocab_size), std),
    }
    for i in range(c.n_layers):
        pre = f"layers.{i}."
        p[pre + "ln1.g"] = np.ones(c.d_model, dtype=np.float32)
        p[pre + "ln1.b"] = np.zeros(c.d_model, dtype=np.float32)
        p[pre + "attn.wq"] = rng.normal((c.d_model, c.d_model), std)
        p[pre + "attn.wk"] = rng.normal((c.d_model, c.d_model), std)
        p[pre + "attn.wv"] = rng.normal((c.d_model, c.d_model), std)
        p[pre + "attn.wo"] = rng.normal((c.d_model, c.d_model), resid_std)
        p[pre + "ln2.g"] = np.ones(c.d_model, dtype=np.float32)
        p[pre + "ln2.b"] = np.zeros(c.d_model, dtype=np.float32)
        p[pre + "ffn.w1"] = rng.normal((c.d_model, c.d_ff), std)
        p[pre + "ffn.b1"] = np.zeros(c.d_ff, dtype=np.float32)
        p[pre + "ffn.w2"] = rng.normal((c.d_ff, c.d_model), resid_std)
        p[pre + "ffn.b2"] = np.zeros(c.d_model, dtype=np.float32)
    return BackboneModel(config=c, params=p, frozen=False)


def validate_positions(config: ModelConfig, positions: tuple[int, ...]) -> None:
    for pos in positions:
        if not 0 <= pos < config.n_layers:
            raise RoutingConfigError(
                f"expert position {pos} out of range for {config.n_layers} layers"
            )


def init_expert(
    config: ModelConfig,
    expert_id: int,
    domain: str,
    positions: tuple[int, ...],
    rng: Rng,
    inner_width: int | None = None,
    warm_from: BackboneModel | None = None,
) -> ExpertSubnetwork:
    """Fresh expert. With ``warm_from`` the sublayers start as exact copies of
    the backbone's feed-forward sublayers at the same positions (requires
    matching inner width), so the spliced model is initially bit-identical to
    the base model."""
    validate_positions(config, tuple(positions))
    width = config.d_ff if (inner_width is None and warm_from is not None) else (inner_width or config.d_ff)
    if warm_from is not None and width != config.d_ff:
        raise ConfigError("warm-start requires inner_width == backbone d_ff")
    d = config.d_model
    std = 0.02
    resid_std = std / math.sqrt(2.0 * config.n_layers)
    p: Params = {}
    for pos in positions:
        pre = f"p{pos}."
        if warm_from is not None:
            src = warm_from.params
            p[pre + "ln.g"] = src[f"layers.{pos}.ln2.g"].copy()
            p[pre + "ln.b"] = src[f"layers.{pos}.ln2.b"].copy()
            p[pre + "w1"] = src[f"layers.{pos}.ffn.w1"].copy()
            p[pre + "b1"] = src[f"layers.{pos}.ffn.b1"].copy()
            p[pre + "w2"] = src[f"layers.{pos}.ffn.w2"].copy()
            p[pre + "b2"] = src[f"layers.{pos}.ffn.b2"].copy()
        else:
            p[pre + "ln.g"] = np.ones(d, dtype=np.float32)
            p[pre + "ln.b"] = np.zeros(d, dtype=np.float32)
            p[pre + "w1"] = rng.normal((d, width), std)
            p[pre + "b1"] = np.zeros(width, dtype=np.float32)
            p[pre + "w2"] = rng.normal((width, d), resid_std)
            p[pre + "b2"] = np.zeros(d, dtype=np.float32)
    return ExpertSubnetwork(
        expert_id=expert_id, domain=domain, positions=tuple(positions),
        inner_width=width, params=p,
    )


def copy_params(params: Params) -> Params:
    return {k: v.copy() for k, v in params.items()}


def deep_copy_expert(expert: ExpertSubnetwork) -> ExpertSubnetwork:
    return ExpertSubnetwork(
        expert_id=expert.expert_id,
        domain=expert.domain,
        positions=expert.positions,
        inner_width=expert.inner_width,
        params=copy_params(expert.params),
    )


def deep_copy_backbone(model: BackboneModel) -> BackboneModel:
    return BackboneModel(config=model.config, params=copy_params(model.params), frozen=False)
