"""Frozen-backbone training: Adam, the masked NLL and the three entry points
(backbone pretraining, expert fitting, planner fitting). What trains is the
optimizer's parameter dict: a frozen backbone's tensors are never in it,
and ``backward_batch`` never computes their gradients.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import domains as dom
from .decoding import greedy_decode
from .errors import (
    ConfigError,
    DatasetError,
    DegenerateBatchError,
    DivergenceError,
    NumericError,
)
from .model import BackboneModel, ExpertSubnetwork, init_backbone
from .net import GradKey, backward_batch, check_token_ids, forward_batch, pack
from .rng import Rng
from .tokenizer import EOS, PAD, decode

LN_EPS_DENOM = 1e-12
EVAL_CHUNK = 64  # planner steps scored per forward pass in evaluate_planner
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard
MIN_LR_FRAC = 0.05  # the cosine schedule's floor, as a share of the peak rate
SNAPSHOT_EVERY = 250  # steps between the snapshots a divergence falls back to
DOUBLE_FRAC = 0.5  # the share of planner tasks that chain two experts


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    steps: int = 2000
    grad_clip: float = 1.0
    seed: int = 0
    warmup_steps: int = 100
    log_every: int = 50

    def validate(self) -> "TrainConfig":
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.log_every < 1:
            raise ConfigError("log_every must be >= 1")
        return self


@dataclass
class LossRecord:
    step: int
    loss: float
    token_accuracy: float

    def to_dict(self) -> dict:
        return asdict(self)


def lr_at(cfg: TrainConfig, step: int) -> float:
    base = cfg.learning_rate
    if cfg.warmup_steps and step < cfg.warmup_steps:
        return base * (step + 1) / cfg.warmup_steps
    span = max(1, cfg.steps - cfg.warmup_steps)
    prog = min(1.0, (step - cfg.warmup_steps) / span)
    lo = base * MIN_LR_FRAC
    return lo + 0.5 * (base - lo) * (1.0 + math.cos(math.pi * prog))


class Adam:
    """Adam over an explicit (component, name) -> array dict; holding a tensor
    in ``params`` is what makes it trainable."""

    def __init__(self, params: dict[GradKey, np.ndarray], cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict[GradKey, np.ndarray], lr: float) -> None:
        cfg = self.cfg
        if cfg.grad_clip > 0:
            sq = 0.0
            for g in grads.values():
                sq += float((g.astype(np.float64) ** 2).sum())
            norm = math.sqrt(sq)
            if norm > cfg.grad_clip:
                scale = cfg.grad_clip / (norm + 1e-12)
                for g in grads.values():
                    g *= scale
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for key, g in grads.items():
            p = self.params[key]
            m = self.m[key]
            v = self.v[key]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def nll_loss(
    logits: np.ndarray, targets: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean masked negative log-likelihood and its gradient w.r.t. the logits,
    which it leaves unmodified. ``logits`` is [t, V] or [b, t, V], ``targets``
    and ``mask`` its leading shape; positions are independent, so rows may be
    packed. A target outside ``[0, V)`` raises ``TokenIdError`` where the mask
    is on and is ignored elsewhere; an all-off mask ``DegenerateBatchError``."""
    if logits.ndim == 2:
        logits, targets, mask = logits[None], np.asarray(targets)[None], np.asarray(mask)[None]
        squeeze = True
    else:
        squeeze = False
    mask = mask.astype(logits.dtype)
    denom = float(mask.sum())
    if denom <= 0:
        raise DegenerateBatchError("loss mask selects no positions")
    b, t, vsz = logits.shape
    check_token_ids(np.asarray(targets)[mask > 0], vsz, "target")
    work = logits - logits.max(axis=-1, keepdims=True)
    np.exp(work, out=work)
    sumexp = work.sum(axis=-1, keepdims=True)
    bi, ti = np.meshgrid(np.arange(b), np.arange(t), indexing="ij")
    tgt = np.clip(targets, 0, vsz - 1)
    p_target = work[bi, ti, tgt] / sumexp[..., 0]
    logp = np.log(np.maximum(p_target, LN_EPS_DENOM))
    loss = float(-(logp * mask).sum() / denom)
    work /= sumexp  # now softmax probabilities
    work[bi, ti, tgt] -= 1.0
    work *= (mask / denom)[..., None]
    dlogits = work[0] if squeeze else work
    return loss, dlogits


def batchify(
    examples: list[dom.TrainExample],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pack the examples into rows (``net.pack``); returns (tokens, next-token
    targets, mask, positions). A segment's last target and every pad slot are
    ``PAD`` with the mask off, so the loss and its gradient are those of the
    padded batch."""
    row, start, positions = pack([len(e.ids) for e in examples])
    tokens = np.full(positions.shape, PAD, dtype=np.int64)
    targets = np.full(positions.shape, PAD, dtype=np.int64)
    mask = np.zeros(positions.shape, dtype=np.float32)
    for e, r, s in zip(examples, row.tolist(), start.tolist()):
        n = len(e.ids)
        tokens[r, s : s + n] = e.ids
        targets[r, s : s + n - 1] = e.ids[1:]
        mask[r, s : s + len(e.mask)] = e.mask
    return tokens, targets, mask, positions


def _token_accuracy(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> float:
    pred = logits.argmax(axis=-1)
    hit = ((pred == targets) * mask).sum()
    return float(hit / max(mask.sum(), 1.0))


def loss_and_grads(
    backbone: BackboneModel,
    expert: ExpertSubnetwork | None,
    tokens: np.ndarray,
    targets: np.ndarray,
    mask: np.ndarray,
    trainable: set[GradKey],
    positions: np.ndarray | None = None,
) -> tuple[float, float, dict[GradKey, np.ndarray]]:
    """Forward, masked NLL and a backward restricted to ``trainable``;
    ``positions`` marks packed rows as ``forward_batch`` takes it."""
    logits, _, tape = forward_batch(backbone, tokens, expert=expert, want_tape=True,
                                    positions=positions)
    loss, dlogits = nll_loss(logits, targets, mask)
    acc = _token_accuracy(logits, targets, mask)
    del logits
    grads = backward_batch(backbone, tape, trainable, expert=expert, dlogits=dlogits)
    return loss, acc, grads


def _run_training(
    params: dict[GradKey, np.ndarray], loss_at, cfg: TrainConfig
) -> list[LossRecord]:
    """Adam over ``params`` for ``cfg.steps`` steps; ``loss_at(step, trainable)``
    returns a step's (loss, accuracy, gradients for ``trainable``). A non-finite
    loss, or a ``NumericError`` from ``loss_at``, raises ``DivergenceError``
    carrying the snapshot of ``params`` taken every ``SNAPSHOT_EVERY`` steps."""
    cfg.validate()
    opt = Adam(params, cfg)
    trainable = set(params)
    curve: list[LossRecord] = []
    snapshot = {k: v.copy() for k, v in params.items()}
    for step in range(cfg.steps):
        try:
            loss, acc, grads = loss_at(step, trainable)
        except NumericError as exc:
            raise DivergenceError(f"{exc} at step {step}", last_good=snapshot) from exc
        if not math.isfinite(loss):
            raise DivergenceError(
                f"non-finite loss at step {step}", last_good=snapshot
            )
        opt.step(grads, lr_at(cfg, step))
        if step % cfg.log_every == 0 or step == cfg.steps - 1:
            curve.append(LossRecord(step=step, loss=loss, token_accuracy=acc))
        if step % SNAPSHOT_EVERY == 0:
            snapshot = {k: v.copy() for k, v in params.items()}
    return curve


def _example_loss(backbone: BackboneModel, expert: ExpertSubnetwork | None, sample_batch):
    """A ``loss_at`` for ``_run_training`` over next-token examples: packs
    ``sample_batch(step)`` with ``batchify`` and runs ``loss_and_grads``."""

    def loss_at(step: int, trainable: set[GradKey]):
        tokens, targets, mask, positions = batchify(sample_batch(step))
        return loss_and_grads(backbone, expert, tokens, targets, mask, trainable, positions)

    return loss_at


def pretrain_backbone(config, cfg: TrainConfig) -> tuple[BackboneModel, list[LossRecord]]:
    """Train a fresh backbone on the tagged mixture of all domains, then
    freeze it permanently."""
    rng = Rng(cfg.seed)
    model = init_backbone(config, rng.child("init"))
    data_rng = rng.child("data")

    def sample_batch(step: int) -> list[dom.TrainExample]:
        return [dom.sample_example(dom.DOMAINS[data_rng.choice(dom.DOMAIN_NAMES)], data_rng,
                                   tagged=True) for _ in range(cfg.batch_size)]

    trainable = {("backbone", k): v for k, v in model.params.items()}
    curve = _run_training(trainable, _example_loss(model, None, sample_batch), cfg)
    model.freeze()
    return model, curve


@dataclass
class ExpertTrainResult:
    expert: ExpertSubnetwork
    curve: list[LossRecord]
    seen_payloads: set[str] = field(default_factory=set)


def train_expert(
    expert: ExpertSubnetwork,
    backbone: BackboneModel,
    domain: dom.SyntheticDomain,
    cfg: TrainConfig,
) -> ExpertTrainResult:
    """Fit the expert's parameters against the frozen backbone, which never
    enters the optimizer; an unfrozen backbone raises ``ConfigError``."""
    if not backbone.frozen:
        raise ConfigError("expert training requires a frozen backbone")
    data_rng = Rng(cfg.seed).child("expert-data", domain.name)
    seen: set[str] = set()

    def sample_batch(step: int) -> list[dom.TrainExample]:
        batch = [dom.sample_example(domain, data_rng, tagged=False) for _ in range(cfg.batch_size)]
        seen.update(e.payload for e in batch)
        return batch

    trainable = {("expert", k): v for k, v in expert.params.items()}
    curve = _run_training(trainable, _example_loss(backbone, expert, sample_batch), cfg)
    return ExpertTrainResult(expert=expert, curve=curve, seen_payloads=seen)


def evaluate_exact_match(
    backbone: BackboneModel,
    expert: ExpertSubnetwork | None,
    domain: dom.SyntheticDomain,
    payloads: list[str],
) -> float:
    """Fraction of payloads whose full greedy answer (up to EOS) matches the
    domain function exactly; neutral-tag plain-form prompts."""
    hits = 0
    for payload in payloads:
        prompt, want = dom.eval_prompt(domain, payload)
        out = greedy_decode(backbone, expert, prompt, max_new=len(want) + 2)
        if out and out[-1] == EOS and decode(out[:-1]) == want:
            hits += 1
    return hits / max(len(payloads), 1)


# --- planner training --------------------------------------------------------


@dataclass
class PlannerStep:
    tokens: list[int]
    label: int  # expert id, or routing.STOP for the stop decision


@dataclass
class PlannerTask:
    steps: list[PlannerStep]
    order: tuple[str, ...]  # ground-truth domain order ("" steps excluded)
    kind: str  # "single" | "double"


def build_planner_dataset(
    domain_to_expert: dict[str, int],
    n_tasks: int,
    rng: Rng,
) -> list[PlannerTask]:
    """Supervised routing tasks with teacher-forced carried context: per step a
    (subtask tokens, expert id) pair, then a STOP step carrying the answer."""
    from .routing import STOP

    tasks: list[PlannerTask] = []
    for _ in range(n_tasks):
        n_steps = 2 if rng.uniform() < DOUBLE_FRAC else 1
        ct = dom.sample_composite(rng, n_steps)
        steps = []
        carried = None
        for i, name in enumerate(ct.order):
            if name not in domain_to_expert:
                raise DatasetError(f"task references domain {name!r} with no expert")
            steps.append(
                PlannerStep(tokens=dom.subtask_tokens(i + 1, carried, ct.text),
                            label=domain_to_expert[name])
            )
            carried = ct.stages[i]
        steps.append(
            PlannerStep(tokens=dom.subtask_tokens(len(ct.order) + 1, carried, ct.text),
                        label=STOP)
        )
        tasks.append(PlannerTask(steps=steps, order=ct.order,
                                 kind="single" if n_steps == 1 else "double"))
    return tasks


def _label_slot(planner, label: int) -> int:
    from .routing import STOP

    if label == STOP:
        return planner.stop_index()
    if label not in planner.indicator_ids:
        raise DatasetError(f"label references unknown expert {label}")
    return planner.indicator_ids.index(label)


def train_planner(
    planner,
    backbone: BackboneModel,
    tasks: list[PlannerTask],
    cfg: TrainConfig,
) -> tuple[object, list[LossRecord]]:
    """Per-step cross-entropy over expert slots, STOP included, training the
    indicators, the scorer and the planner's own sublayers jointly: a step
    scores a batch with ``score_batch`` and takes ``nll_loss`` over the slot
    scores. Raises ``ConfigError`` for an unfrozen backbone, ``DatasetError``
    for an empty dataset or an unknown label, and as ``_run_training`` does."""
    from .routing import score_backward, score_batch

    if not backbone.frozen:
        raise ConfigError("planner training requires a frozen backbone")
    samples = [(s.tokens, _label_slot(planner, s.label)) for t in tasks for s in t.steps]
    if not samples:
        raise DatasetError("empty planner dataset")
    rng = Rng(cfg.seed).child("planner-order")

    def loss_at(step: int, trainable: set[GradKey]):
        batch = [samples[int(rng.integers(0, len(samples)))] for _ in range(cfg.batch_size)]
        slots = np.asarray([slot for _, slot in batch])[:, None]
        ones = np.ones(slots.shape)
        scores, tape = score_batch(planner, backbone, [t for t, _ in batch], want_tape=True)
        loss, dscores = nll_loss(scores[:, None], slots, ones)
        acc = _token_accuracy(scores[:, None], slots, ones)
        return loss, acc, score_backward(planner, backbone, tape, dscores[:, 0], trainable)

    return planner, _run_training(planner.trainable_parameters(), loss_at, cfg)


@dataclass
class PlannerMetrics:
    single_selection_accuracy: float
    double_order_accuracy: float
    sequence_accuracy: float
    n_single: int
    n_double: int

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate_planner(planner, backbone: BackboneModel, tasks: list[PlannerTask]) -> PlannerMetrics:
    """Teacher-forced routing accuracy on held-out tasks; the steps are scored
    ``EVAL_CHUNK`` at a time through ``score_batch``."""
    from .routing import score_batch

    steps = [s for task in tasks for s in task.steps]
    preds: list[int] = []
    for lo in range(0, len(steps), EVAL_CHUNK):
        chunk = [s.tokens for s in steps[lo : lo + EVAL_CHUNK]]
        preds += np.argmax(score_batch(planner, backbone, chunk), axis=1).tolist()
    n_single = n_double = 0
    single_hits = double_hits = seq_hits = 0
    lo = 0
    for task in tasks:
        task_preds = preds[lo : lo + len(task.steps)]
        lo += len(task.steps)
        labels = [_label_slot(planner, s.label) for s in task.steps]
        routed = task_preds[: len(task.order)]
        want = labels[: len(task.order)]
        if task.kind == "single":
            n_single += 1
            single_hits += int(routed == want)
        else:
            n_double += 1
            double_hits += int(routed == want)
        seq_hits += int(task_preds == labels)
    return PlannerMetrics(
        single_selection_accuracy=single_hits / max(n_single, 1),
        double_order_accuracy=double_hits / max(n_double, 1),
        sequence_accuracy=seq_hits / max(len(tasks), 1),
        n_single=n_single,
        n_double=n_double,
    )

