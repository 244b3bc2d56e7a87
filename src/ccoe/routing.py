"""Routing policies.

Rule-based gating resolves a query's domain tag through the binary
domain x expert mapping matrix into an execution path: one step per associated
expert, ascending expert id, each step carrying that expert's insertion
positions. An all-zero row is a legal outcome meaning "answer with the base
model".

Planner routing scores every registered expert (plus a reserved STOP slot) for
the current subtask: the subtask runs through the backbone with the planner's
own expert spliced in, and each candidate's learned indicator vector
cross-attends over the subtask's final hidden states into a scalar match score
via a linear head. That cross-attention is the block's own
``kernels.attention`` (and ``attention_bwd``) with one head. Execution is
iterative: the winning expert decodes the subtask, its output is carried into
the next subtask's context, and the loop ends on STOP or the step cap.
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
    origin: str  # "gating" | "planning"
    truncated: bool = False

    def expert_ids(self) -> tuple[int, ...]:
        return tuple(eid for eid, _ in self.steps)


def gate(mapping: MappingMatrix, registry, queries) -> list[ExecutionPath]:
    """Rule-based gating: one path per query, one step per associated expert."""
    paths = []
    for tag, _tokens in queries:
        steps = []
        for eid in mapping.experts_for(tag):
            if eid not in registry.experts:
                raise UnknownExpertError(f"mapping references unregistered expert {eid}")
            steps.append((eid, registry.experts[eid].positions))
        paths.append(ExecutionPath(steps=tuple(steps), origin="gating"))
    return paths


@dataclass
class Subtask:
    """One planner step: the original query text plus carried context."""

    index: int
    query_text: str
    carried: str | None = None

    def tokens(self, max_seq: int) -> tuple[list[int], bool]:
        """Scoring tokens; carried context is trimmed oldest-first to fit."""
        toks = dom.subtask_tokens(self.index, self.carried, self.query_text)
        truncated = False
        while len(toks) > max_seq and self.carried:
            drop = len(toks) - max_seq
            self.carried = self.carried[drop:] or None
            toks = dom.subtask_tokens(self.index, self.carried, self.query_text)
            truncated = True
        if len(toks) > max_seq:
            raise RoutingError(f"subtask of {len(toks)} tokens cannot fit context {max_seq}")
        return toks, truncated


@dataclass
class PlannerExpert:
    """The planning expert: its own spliced subnetwork, per-expert indicator
    vectors (query side of the scorer), single-head cross-attention
    projections, and the scalar score head."""

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
    """Match scores [b, n_experts + 1] for ``b`` subtasks' token sequences.

    The last slot of each row is STOP, and rows come back in input order.
    The subtasks are packed into rows (``net.pack``) for one
    ``forward_batch`` pass with segment positions, so no subtask attends
    into another. The scorer's cross-attention is ``kernels.attention`` with
    one head over ``b`` sequences: each subtask's n + 1 indicator queries
    attend over its packed row, with a ``key_mask`` hiding every key outside
    its own segment, so each subtask scores as it would alone. With
    ``want_tape`` also returns everything ``score_backward`` needs.
    """
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
    """Match scores [n_experts + 1] for one subtask: a one-row ``score_batch``.

    The tape it returns with ``want_tape`` is a one-row batch tape, which
    ``score_backward`` takes with 1-D ``dscores``.
    """
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
    """Backward through the scorer and the planner-expert stack.

    ``dscores`` is [b, n_experts + 1] for a ``score_batch`` tape; a 1-D
    ``dscores`` is one row. The gradients are summed over the rows. The
    cross-attention's backward is ``kernels.attention_bwd`` with one head;
    the indicator queries' gradient is summed over the subtasks. Each
    subtask's key and value gradients are zero outside its segment, so
    adding them into the packed rows gives every position its own.
    """
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
    """Argmax slot; ties break toward the lowest index (lowest expert id,
    since rows are id-ordered with STOP last)."""
    scores = np.asarray(scores)
    if scores.size == 0:
        raise RoutingError("no candidate experts to select from")
    return int(np.argmax(scores))


def execute_plan(
    query: str,
    planner: PlannerExpert,
    registry,
    max_steps: int = 4,
    max_new: int = 16,
) -> tuple[str, ExecutionPath]:
    """Iterative planner execution.

    Each step scores the current subtask, routes to the winning expert, decodes
    its answer, and carries that answer into the next subtask. STOP (or the
    step cap) ends the loop; if STOP wins immediately the base model answers.
    A ``max_steps`` that is not an integer >= 1 (1.5, True) raises
    ``RoutingError``.
    """
    max_steps = check_count(max_steps, "max_steps", RoutingError)
    backbone = registry.backbone
    carried: str | None = None
    steps: list[tuple[int, tuple[int, ...]]] = []
    truncated = False
    for t in range(1, max_steps + 1):
        sub = Subtask(index=t, query_text=query, carried=carried)
        tokens, trunc = sub.tokens(backbone.config.max_seq)
        truncated = truncated or trunc
        carried = sub.carried
        scores = score_tokens(planner, backbone, tokens)
        idx = select_expert(scores)
        if idx == planner.stop_index():
            break
        eid = planner.indicator_ids[idx]
        if eid not in registry.experts:
            raise UnknownExpertError(f"planner selected unregistered expert {eid}")
        expert = registry.experts[eid]
        prompt = dom.step_prompt_tokens(carried, query)
        room = backbone.config.max_seq - len(prompt)
        if room < 1:
            raise RoutingError("no context room left to decode a subtask")
        out = greedy_decode(backbone, expert, prompt, max_new=min(max_new, room))
        carried = decode([i for i in out if i != EOS])
        steps.append((eid, expert.positions))
    if not steps:
        prompt = dom.step_prompt_tokens(None, query)
        out = greedy_decode(backbone, None, prompt, max_new=max_new)
        carried = decode([i for i in out if i != EOS])
    path = ExecutionPath(steps=tuple(steps), origin="planning", truncated=truncated)
    return carried or "", path
