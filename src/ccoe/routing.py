"""Routing policies: mapping-matrix gating and the learned planner.

Gating resolves a query's domain through the binary domain x expert mapping
matrix to a path of one step per mapped expert, in ascending id; an
all-zero row means the base model answers. ``answerers`` is that rule for
serving, and ``answer`` the decode rule of the CLI and the planner steps.
The planner scores every registered expert and a STOP slot for a subtask:
the subtask runs through the backbone with the planner's own expert spliced
in, and each candidate's indicator vector cross-attends over its final
hidden states (``kernels.attention`` with one head) into a score.
``execute_plan`` carries each winner's answer into the next subtask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import domains as dom
from .decoding import check_count, greedy_decode
from .errors import GatingError, RoutingError, UnknownExpertError
from .kernels import attention, attention_bwd, key_mask
from .model import BackboneModel, ExpertSubnetwork, copy_params, deep_copy_expert, init_expert
from .net import GradKey, backward_batch, forward_batch, pack, sum_rows_by
from .rng import Rng
from .tokenizer import EOS, decode

STOP = -1  # sentinel "expert id" for the planner's stop decision


@dataclass
class MappingMatrix:
    """Binary domain-tag x expert-id association table."""

    rows: dict[str, dict[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        for tag, row in self.rows.items():
            for eid, bit in row.items():
                if bit not in (0, 1):
                    raise GatingError(f"mapping[{tag}][{eid}] must be 0 or 1, got {bit}")

    def experts_for(self, tag: str) -> list[int]:
        if tag not in self.rows:
            raise GatingError(f"unknown domain tag {tag!r}")
        return sorted(eid for eid, bit in self.rows[tag].items() if bit == 1)

    def associate(self, tag: str, expert_id: int) -> None:
        self.rows.setdefault(tag, {})[expert_id] = 1

    def drop_expert(self, expert_id: int) -> None:
        for row in self.rows.values():
            row.pop(expert_id, None)

    def to_records(self) -> list[dict]:
        return [
            {"domain": tag, "experts": sorted(e for e, b in row.items() if b == 1)}
            for tag, row in sorted(self.rows.items())
        ]

    @classmethod
    def from_records(cls, records: list[dict]) -> "MappingMatrix":
        """The matrix ``to_records`` wrote, an empty row included."""
        return cls({r["domain"]: dict.fromkeys(r["experts"], 1) for r in records})


@dataclass(frozen=True)
class ExecutionPath:
    """Resolved routing plan: (expert id, positions) steps in execution order."""

    steps: tuple[tuple[int, tuple[int, ...]], ...]
    truncated: bool = False

    def expert_ids(self) -> tuple[int, ...]:
        return tuple(eid for eid, _ in self.steps)


def gate(mapping: MappingMatrix, registry, queries) -> list[ExecutionPath]:
    """One path per (domain, tokens) query, a step per mapped expert. Raises
    ``GatingError`` for an unknown domain and ``UnknownExpertError`` for an
    unregistered mapped expert."""
    paths = []
    for tag, _tokens in queries:
        steps = []
        for eid in mapping.experts_for(tag):
            if eid not in registry.experts:
                raise UnknownExpertError(f"mapping references unregistered expert {eid}")
            steps.append((eid, registry.experts[eid].positions))
        paths.append(ExecutionPath(steps=tuple(steps)))
    return paths


def answerers(registry, domain: str) -> list[ExpertSubnetwork | None]:
    """The experts of ``domain``'s gated path in order, or ``[None]`` (the
    base model) for an all-zero row; raises ``gate``'s errors."""
    path = gate(registry.mapping, registry, [(domain, None)])[0]
    return [registry.experts[eid] for eid in path.expert_ids()] or [None]


@dataclass
class PlannerExpert:
    """The planning expert: its own spliced subnetwork, an indicator vector per
    expert (the scorer's queries), cross-attention projections and score head."""

    expert: ExpertSubnetwork
    indicator_ids: list[int]  # ascending expert ids; indicators has one extra STOP row
    indicators: np.ndarray  # [n_experts + 1, d_model]
    scorer: dict[str, np.ndarray]  # shapes: scorer_param_shapes
    uncalibrated: set[int] = field(default_factory=set)

    def named_parameters(self) -> dict[str, np.ndarray]:
        out = {"indicators": self.indicators}
        out.update({f"scorer.{k}": v for k, v in self.scorer.items()})
        out.update({f"expert.{k}": v for k, v in self.expert.params.items()})
        return out

    def trainable_parameters(self) -> dict[GradKey, np.ndarray]:
        out: dict[GradKey, np.ndarray] = {("planner", "indicators"): self.indicators}
        out.update({("planner", f"scorer.{k}"): v for k, v in self.scorer.items()})
        out.update({("expert", k): v for k, v in self.expert.params.items()})
        return out

    def stop_index(self) -> int:
        return len(self.indicator_ids)

    def add_indicator(self, expert_id: int, rng: Rng) -> None:
        """New indicator row for a pushed expert; random init, uncalibrated
        until the next planner training run."""
        if expert_id in self.indicator_ids:
            return
        idx = int(np.searchsorted(np.asarray(self.indicator_ids), expert_id))
        row = rng.normal((1, self.indicators.shape[1]), 0.5).astype(self.indicators.dtype)
        self.indicators = np.insert(self.indicators, idx, row, axis=0)
        self.indicator_ids.insert(idx, expert_id)
        self.uncalibrated.add(expert_id)

    def remove_indicator(self, expert_id: int) -> None:
        if expert_id not in self.indicator_ids:
            return
        idx = self.indicator_ids.index(expert_id)
        self.indicators = np.delete(self.indicators, idx, axis=0)
        self.indicator_ids.remove(expert_id)
        self.uncalibrated.discard(expert_id)


def deep_copy_planner(planner: PlannerExpert) -> PlannerExpert:
    return PlannerExpert(
        expert=deep_copy_expert(planner.expert),
        indicator_ids=list(planner.indicator_ids),
        indicators=planner.indicators.copy(),
        scorer=copy_params(planner.scorer),
        uncalibrated=set(planner.uncalibrated),
    )


def scorer_param_shapes(d: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of the scorer's tensors for model width ``d``: the
    cross-attention projections, the score head's weights and its bias."""
    return {"wq": (d, d), "wk": (d, d), "wv": (d, d), "wo": (d, d), "fw": (d,), "fb": (1,)}


def init_planner(
    config,
    expert_ids: list[int],
    positions: tuple[int, ...],
    rng: Rng,
    warm_from: BackboneModel | None = None,
) -> PlannerExpert:
    d = config.d_model
    expert = init_expert(
        config, -1, "planner", positions, rng.child("expert"), warm_from=warm_from
    )
    # scorer projections at 1/sqrt(d) and indicators at 0.5 keep the initial
    # cross-attention sharp enough for gradients to reach the indicator rows
    proj_scale = 1.0 / math.sqrt(d)
    return PlannerExpert(
        expert=expert,
        indicator_ids=sorted(expert_ids),
        indicators=rng.child("indicators").normal((len(expert_ids) + 1, d), 0.5),
        scorer={n: np.zeros(shape, dtype=np.float32) if n == "fb"
                else rng.child(n).normal(shape, proj_scale)
                for n, shape in scorer_param_shapes(d).items()},
        uncalibrated=set(),
    )


def score_batch(
    planner: PlannerExpert,
    backbone: BackboneModel,
    token_lists: list[list[int]],
    want_tape: bool = False,
):
    """Match scores [b, n_experts + 1] for ``b`` subtasks, STOP last and rows
    in input order; with ``want_tape`` also the tape ``score_backward`` takes.
    The subtasks are packed into rows (``net.pack``) for one pass, and a
    ``key_mask`` keeps each subtask's indicator queries on its own segment, so
    each scores as it would alone. An empty subtask raises ``RoutingError``."""
    if not token_lists or not all(token_lists):
        raise RoutingError("empty subtask")
    lengths = [len(t) for t in token_lists]
    row, start, positions = pack(lengths)
    arr = np.zeros(positions.shape, dtype=np.int64)
    for toks, r, c in zip(token_lists, row.tolist(), start.tolist()):
        arr[r, c : c + len(toks)] = toks
    _, h, tape = forward_batch(backbone, arr, expert=planner.expert, want_tape=want_tape,
                               positions=positions)
    col = np.arange(arr.shape[1])
    outside = (col < start[:, None]) | (col >= (start + lengths)[:, None])  # [b, t]
    s = planner.scorer
    b, d = len(row), h.shape[-1]
    q = np.tile(planner.indicators @ s["wq"], (b, 1))  # [b * (n+1), d]
    k = (h @ s["wk"])[row].reshape(-1, d)  # [b * t, d]: each subtask's packed row
    v = (h @ s["wv"])[row].reshape(-1, d)
    ctx, att = attention(q, k, v, b, 1, key_mask(outside), keep_weights=want_tape)
    out = ctx @ s["wo"]
    scores = (out @ s["fw"] + s["fb"][0]).reshape(b, -1)
    if not want_tape:
        return scores
    score_tape = {"h": h, "row": row, "q": q, "k": k, "v": v, "att": att, "ctx": ctx,
                  "out": out, "stack_tape": tape}
    return scores, score_tape


def score_tokens(
    planner: PlannerExpert,
    backbone: BackboneModel,
    tokens: list[int],
    want_tape: bool = False,
):
    """One subtask's scores [n_experts + 1]: a one-row ``score_batch``, whose
    tape ``score_backward`` takes with 1-D ``dscores``."""
    out = score_batch(planner, backbone, [tokens], want_tape)
    if not want_tape:
        return out[0]
    scores, score_tape = out
    return scores[0], score_tape


def score_backward(
    planner: PlannerExpert,
    backbone: BackboneModel,
    score_tape: dict,
    dscores: np.ndarray,
    trainable: set[GradKey],
) -> dict[GradKey, np.ndarray]:
    """Gradients of the scorer and the planner's stack for the keys in
    ``trainable``, summed over the rows of ``dscores`` ([b, n_experts + 1], or
    1-D for one row). A subtask's key and value gradients are zero outside its
    segment, so adding them into the packed rows gives each position its own."""
    s = planner.scorer
    h, row, ctx, out = score_tape["h"], score_tape["row"], score_tape["ctx"], score_tape["out"]
    dscores = np.asarray(dscores).reshape(-1)

    grads: dict[GradKey, np.ndarray] = {}

    def add(key: GradKey, val: np.ndarray):
        if key in trainable:
            grads[key] = grads.get(key, 0) + val

    add(("planner", "scorer.fw"), out.T @ dscores)
    add(("planner", "scorer.fb"), np.asarray([dscores.sum()], dtype=out.dtype))
    dout = dscores[:, None] * s["fw"]
    add(("planner", "scorer.wo"), ctx.T @ dout)
    dq, dk, dv = attention_bwd(dout @ s["wo"].T, ctx, score_tape["q"], score_tape["k"],
                               score_tape["v"], score_tape["att"], 1)
    per_subtask = (len(row), -1, h.shape[-1])
    dq = dq.reshape(per_subtask).sum(axis=0)
    add(("planner", "indicators"), dq @ s["wq"].T)
    add(("planner", "scorer.wq"), planner.indicators.T @ dq)
    dk_rows = sum_rows_by(row, dk.reshape(per_subtask), len(h))
    dv_rows = sum_rows_by(row, dv.reshape(per_subtask), len(h))
    flat_h = h.reshape(-1, h.shape[-1])
    add(("planner", "scorer.wk"), flat_h.T @ dk_rows.reshape(flat_h.shape))
    add(("planner", "scorer.wv"), flat_h.T @ dv_rows.reshape(flat_h.shape))
    dh = dk_rows @ s["wk"].T + dv_rows @ s["wv"].T
    stack = backward_batch(
        backbone,
        score_tape["stack_tape"],
        trainable,
        expert=planner.expert,
        dhidden=dh,
    )
    for key, val in stack.items():
        grads[key] = grads.get(key, 0) + val
    return grads


def select_expert(scores: np.ndarray) -> int:
    """Argmax slot, ties to the lowest index (the lowest expert id; STOP is
    last). No scores raise ``RoutingError``."""
    scores = np.asarray(scores)
    if scores.size == 0:
        raise RoutingError("no candidate experts to select from")
    return int(np.argmax(scores))


def answer(backbone: BackboneModel, expert: ExpertSubnetwork | None, carried: str | None,
            query: str, max_new: int) -> str:
    """``expert`` (None: the base model) decodes the step prompt of ``query``
    after ``carried`` for up to ``max_new`` tokens the context has room for;
    returns the text with EOS stripped. No room raises ``RoutingError``, and a
    ``max_new`` that is not an integer >= 1 ``SequenceLengthError``."""
    prompt = dom.step_prompt_tokens(carried, query)
    room = backbone.config.max_seq - len(prompt)
    if room < 1:
        raise RoutingError("no context room left to decode a subtask")
    out = greedy_decode(backbone, expert, prompt, max_new=min(max_new, room))
    return decode([i for i in out if i != EOS])


def execute_plan(
    query: str,
    planner: PlannerExpert,
    registry,
    max_steps: int = 4,
    max_new: int = 16,
) -> tuple[str, ExecutionPath]:
    """Planner execution; returns (answer text, path). Each step scores the
    subtask and the winner ``answer``s it; the answer, trimmed oldest-first to
    fit, is carried into the next subtask until STOP or the step cap, and a
    STOP first lets the base model answer. Raises ``RoutingError`` for a
    ``max_steps`` that is not an integer >= 1, ``UnknownExpertError`` for an
    unregistered winner."""
    max_steps = check_count(max_steps, "max_steps", RoutingError)
    backbone = registry.backbone
    max_seq = backbone.config.max_seq
    carried: str | None = None
    steps: list[tuple[int, tuple[int, ...]]] = []
    truncated = False
    for t in range(1, max_steps + 1):
        tokens = dom.subtask_tokens(t, carried, query)
        while len(tokens) > max_seq and carried:
            carried = carried[len(tokens) - max_seq:] or None
            tokens = dom.subtask_tokens(t, carried, query)
            truncated = True
        if len(tokens) > max_seq:
            raise RoutingError(f"subtask of {len(tokens)} tokens cannot fit context {max_seq}")
        idx = select_expert(score_tokens(planner, backbone, tokens))
        if idx == planner.stop_index():
            break
        eid = planner.indicator_ids[idx]
        if eid not in registry.experts:
            raise UnknownExpertError(f"planner selected unregistered expert {eid}")
        expert = registry.experts[eid]
        carried = answer(backbone, expert, carried, query, max_new)
        steps.append((eid, expert.positions))
    if not steps:
        carried = answer(backbone, None, None, query, max_new)
    path = ExecutionPath(steps=tuple(steps), truncated=truncated)
    return carried or "", path
