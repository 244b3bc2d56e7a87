"""Decoder model definition: shared backbone and pluggable expert subnetworks.

The backbone is a pre-norm decoder transformer: embedding and learned
positions, L layers of causal attention and GELU feed-forward, a final norm
and an untied head. An expert owns replacement feed-forward sublayers, each
with its own pre-norm, at a sorted set of layer indices; attention stays
shared. Parameters are flat name -> array dicts.

This module alone spells the parameter layout (``attn_names``,
``ffn_names``, the ``*_param_shapes`` in draw order) and its init rule:
norm gains ones, biases zeros, matrices N(0, 0.02), and the residual
outputs (``attn.wo``, ``w2``) scaled down by sqrt(2 * n_layers).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, RoutingConfigError
from .rng import Rng
from .tokenizer import VOCAB_SIZE

Params = dict[str, np.ndarray]


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 8
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    vocab_size: int = VOCAB_SIZE
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
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d).validate()


@dataclass
class BackboneModel:
    """The shared decoder stack; its arrays are read-only once frozen.
    ``workspaces``, per dtype the model's spare ``net.Workspace``, is runtime
    state outside equality, ``param_bytes``, digests, checkpoints and copies."""

    config: ModelConfig
    params: Params
    frozen: bool = False
    workspaces: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def named_parameters(self) -> Params:
        return self.params

    def freeze(self) -> "BackboneModel":
        for arr in self.params.values():
            arr.flags.writeable = False
        self.frozen = True
        return self


@dataclass
class ExpertSubnetwork:
    """Replacement feed-forward sublayers owned by one domain, at the layer
    indices ``positions``, strictly increasing (else ``RoutingConfigError``).
    Parameter keys are ``ffn_names(i)[1]`` for each position ``i``."""

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


def attn_names(i: int) -> tuple[str, ...]:
    """Layer ``i``'s attention block: (norm gain, norm bias, wq, wk, wv, wo)."""
    return tuple(f"layers.{i}.{n}"
                 for n in ("ln1.g", "ln1.b", "attn.wq", "attn.wk", "attn.wv", "attn.wo"))


def ffn_names(i: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Layer ``i``'s feed-forward sublayer: the backbone's tensor names and
    an expert's replacements for them, each as (norm gain, norm bias, w1, b1,
    w2, b2)."""
    return (tuple(f"layers.{i}.{n}"
                  for n in ("ln2.g", "ln2.b", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2")),
            tuple(f"p{i}.{n}" for n in ("ln.g", "ln.b", "w1", "b1", "w2", "b2")))


def _ffn_shapes(d: int, width: int) -> tuple[tuple[int, ...], ...]:
    return (d,), (d,), (d, width), (width,), (width, d), (d,)


def backbone_param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every backbone tensor for ``config``, in draw order."""
    c = config
    d = c.d_model
    shapes = {"embed": (c.vocab_size, d), "pos": (c.max_seq, d),
              "ln_f.g": (d,), "ln_f.b": (d,), "head": (d, c.vocab_size)}
    for i in range(c.n_layers):
        shapes.update(zip(attn_names(i), ((d,), (d,), (d, d), (d, d), (d, d), (d, d))))
        shapes.update(zip(ffn_names(i)[0], _ffn_shapes(d, c.d_ff)))
    return shapes


def expert_param_shapes(
    positions: tuple[int, ...], inner_width: int, d_model: int
) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor of an expert with these sublayers, in
    draw order."""
    shapes = _ffn_shapes(d_model, inner_width)
    return {n: s for pos in positions for n, s in zip(ffn_names(pos)[1], shapes)}


def _draw(shapes: dict[str, tuple[int, ...]], rng: Rng, n_layers: int) -> Params:
    """Tensors of ``shapes`` by the init rule (see the module docstring),
    drawn from ``rng`` in ``shapes`` order."""
    std = 0.02
    resid_std = std / math.sqrt(2.0 * n_layers)
    p: Params = {}
    for name, shape in shapes.items():
        if len(shape) == 2:
            p[name] = rng.normal(shape, resid_std if name.endswith(("wo", "w2")) else std)
        else:
            p[name] = (np.ones if name.endswith(".g") else np.zeros)(shape, dtype=np.float32)
    return p


def param_count(component) -> int:
    return sum(a.size for a in component.named_parameters().values())


def param_bytes(component) -> int:
    """Resident bytes for a component: 4 bytes per float32 parameter."""
    return 4 * param_count(component)


def init_backbone(config: ModelConfig, rng: Rng) -> BackboneModel:
    """Fresh unfrozen backbone by the init rule."""
    c = config.validate()
    return BackboneModel(config=c, params=_draw(backbone_param_shapes(c), rng, c.n_layers))


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
    """Fresh expert by the init rule or, with ``warm_from``, as copies of the
    backbone's feed-forward sublayers at its positions, so the spliced model
    starts bit-identical to the base. ``inner_width`` None means ``d_ff``; a
    width below 1, or another width with ``warm_from``, raises ``ConfigError``."""
    validate_positions(config, tuple(positions))
    width = config.d_ff if inner_width is None else inner_width
    if width < 1:
        raise ConfigError(f"inner_width must be >= 1, got {width}")
    if warm_from is not None and width != config.d_ff:
        raise ConfigError("warm-start requires inner_width == backbone d_ff")
    if warm_from is None:
        p = _draw(expert_param_shapes(positions, width, config.d_model), rng, config.n_layers)
    else:
        bp = warm_from.params
        p = {en: bp[bn].copy() for pos in positions for bn, en in zip(*ffn_names(pos))}
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
