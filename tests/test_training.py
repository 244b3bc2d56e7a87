"""Training contracts: loss values, hand-written gradients vs central finite
differences (float64 oracle), structural backbone exclusion, isolation."""

import math

import numpy as np
import pytest

from ccoe import domains as dom
from ccoe import routing, training
from ccoe.bench import STRATEGY_NAMES, strategy_positions
from ccoe.checkpoint import digest
from ccoe.errors import (
    ConfigError,
    DegenerateBatchError,
    DivergenceError,
    NumericError,
    TokenIdError,
)
from ccoe.model import ModelConfig, deep_copy_backbone, init_backbone, init_expert
from ccoe.net import backward_batch, forward_batch, pack
from ccoe.rng import Rng
from ccoe.routing import (
    STOP,
    deep_copy_planner,
    init_planner,
    score_backward,
    score_batch,
    score_tokens,
)
from ccoe.tokenizer import PAD, VOCAB_SIZE
from ccoe.training import (
    Adam,
    PlannerStep,
    PlannerTask,
    TrainConfig,
    batchify,
    build_planner_dataset,
    evaluate_planner,
    loss_and_grads,
    nll_loss,
    pretrain_backbone,
    train_expert,
    train_planner,
)

# hand-written token ids in the gradient checks stay below 20
TINY = ModelConfig(n_layers=3, d_model=8, n_heads=2, d_ff=12, vocab_size=20, max_seq=24)
# the byte-level domains use ids up to EOS (258) and examples of up to 32
# tokens: BOS, tag, 8 carried digits, ';', two markers, ':', 8 payload digits,
# '=', 8 answer digits, EOS
TRAIN_TINY = ModelConfig(n_layers=3, d_model=8, n_heads=2, d_ff=12,
                         vocab_size=VOCAB_SIZE, max_seq=32)


def as_f64(component):
    component.params = {k: v.astype(np.float64) for k, v in component.params.items()}
    return component


# --- nll ------------------------------------------------------------------------


def test_nll_uniform_logits_is_log_vocab():
    v = 260
    logits = np.zeros((1, 5, v), dtype=np.float32)
    targets = np.arange(5, dtype=np.int64)[None]
    mask = np.ones((1, 5), dtype=np.float32)
    loss, _ = nll_loss(logits, targets, mask)
    assert abs(loss - math.log(v)) < 1e-6


def test_nll_confident_correct_is_near_zero():
    v = 20
    targets = np.array([[3, 7]], dtype=np.int64)
    logits = np.full((1, 2, v), -30.0, dtype=np.float32)
    logits[0, 0, 3] = 30.0
    logits[0, 1, 7] = 30.0
    loss, _ = nll_loss(logits, targets, np.ones((1, 2), np.float32))
    assert loss < 1e-5


def test_nll_all_masked_raises():
    with pytest.raises(DegenerateBatchError):
        nll_loss(np.zeros((1, 3, 5), np.float32), np.zeros((1, 3), np.int64),
                 np.zeros((1, 3), np.float32))


def test_nll_rejects_live_target_outside_vocab():
    logits = np.zeros((1, 3, 5), np.float32)
    mask = np.asarray([[0, 1, 1]], np.float32)
    for bad in (-1, 5):
        with pytest.raises(TokenIdError):
            nll_loss(logits, np.asarray([[0, bad, 1]], np.int64), mask)
    # masked-out positions may hold padding ids outside the vocabulary
    loss, _ = nll_loss(logits, np.asarray([[PAD, 2, 1]], np.int64), mask)
    assert abs(loss - math.log(5)) < 1e-6


def test_nll_gradient_matches_finite_difference():
    rng = Rng(55)
    logits = rng.normal((1, 4, 9), 2.0).astype(np.float64)
    targets = np.asarray([[1, 4, 0, 8]], dtype=np.int64)
    mask = np.asarray([[0, 1, 1, 1]], dtype=np.float64)
    _, dlogits = nll_loss(logits, targets, mask)
    h = 1e-6
    for idx in [(0, 1, 4), (0, 2, 2), (0, 3, 8), (0, 0, 0)]:
        up = logits.copy()
        up[idx] += h
        dn = logits.copy()
        dn[idx] -= h
        fd = (nll_loss(up, targets, mask)[0] - nll_loss(dn, targets, mask)[0]) / (2 * h)
        assert abs(fd - dlogits[idx]) < 1e-6


# --- finite-difference gradient checks -------------------------------------------

PARAM_CLASSES = {
    "linear_weight": ("w1", "w2"),
    "linear_bias": ("b1", "b2"),
    "norm": ("ln.g", "ln.b"),
}


def _fd_check_expert(seed: int) -> dict[str, float]:
    """Max relative error per expert-parameter class, float64 end to end."""
    rng = Rng(seed)
    model = as_f64(init_backbone(TINY, rng.child("bb")))
    model.freeze()
    expert = as_f64(init_expert(TINY, 0, "d", (0, 2), rng.child("ex"), inner_width=10))
    tokens = np.asarray([[1, 5, 3, 9, 2, 11]], dtype=np.int64)
    targets = np.asarray([[5, 3, 9, 2, 11, 4]], dtype=np.int64)
    mask = np.asarray([[0, 0, 1, 1, 1, 1]], dtype=np.float64)
    trainable = {("expert", k) for k in expert.params}
    _, _, grads = loss_and_grads(model, expert, tokens, targets, mask, trainable)

    def loss_only():
        logits, _, _ = forward_batch(model, tokens, expert=expert)
        return nll_loss(logits, targets, mask)[0]

    # truncation error of the central difference scales as h**2; at 1e-3 it
    # alone exceeds the 1e-4 bound on this small high-curvature model
    h = 1e-5
    worst: dict[str, float] = {}
    for name, arr in expert.params.items():
        cls = next(c for c, sufs in PARAM_CLASSES.items() if any(name.endswith(s) for s in sufs))
        flat = arr.reshape(-1)
        g = grads[("expert", name)].reshape(-1)
        for ix in np.linspace(0, flat.size - 1, min(6, flat.size)).astype(int):
            orig = flat[ix]
            flat[ix] = orig + h
            up = loss_only()
            flat[ix] = orig - h
            dn = loss_only()
            flat[ix] = orig
            fd = (up - dn) / (2 * h)
            rel = abs(fd - g[ix]) / max(abs(fd), abs(g[ix]), 1e-8)
            if abs(fd - g[ix]) > 1e-9:
                worst[cls] = max(worst.get(cls, 0.0), rel)
    return worst


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_expert_gradients_match_finite_differences(seed):
    worst = _fd_check_expert(seed)
    for cls, rel in worst.items():
        assert rel < 1e-4, f"{cls}: rel err {rel}"


@pytest.mark.parametrize("tokens,targets,mask", [
    ([[1, 5, 3, 9], [2, 2, 8, 0]], [[5, 3, 9, 1], [2, 8, 0, 7]], [[1, 1, 1, 1], [0, 1, 1, 1]]),
    ([[1]], [[5]], [[1]]),  # a lone row: the 1-D lane, products by np.dot
], ids=["two_rows", "one_token"])
def test_backbone_gradients_match_finite_differences(tokens, targets, mask):
    """Pretraining path: every backbone parameter class, incl. embeddings,
    attention projections, head."""
    rng = Rng(77)
    model = as_f64(init_backbone(TINY, rng.child("bb")))
    tokens = np.asarray(tokens, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.float64)
    trainable = {("backbone", k) for k in model.params}
    _, _, grads = loss_and_grads(model, None, tokens, targets, mask, trainable)

    def loss_only():
        logits, _, _ = forward_batch(model, tokens)
        return nll_loss(logits, targets, mask)[0]

    h = 1e-5  # see _fd_check_expert
    for name, arr in model.params.items():
        flat = arr.reshape(-1)
        g = grads[("backbone", name)].reshape(-1)
        for ix in np.linspace(0, flat.size - 1, min(4, flat.size)).astype(int):
            orig = flat[ix]
            flat[ix] = orig + h
            up = loss_only()
            flat[ix] = orig - h
            dn = loss_only()
            flat[ix] = orig
            fd = (up - dn) / (2 * h)
            if abs(fd - g[ix]) > 1e-9:
                rel = abs(fd - g[ix]) / max(abs(fd), abs(g[ix]), 1e-8)
                assert rel < 1e-4, f"{name}[{ix}]: fd {fd} vs analytic {g[ix]}"


def test_planner_gradients_match_finite_differences():
    """Scorer classes: indicator rows, cross-attention projections, score head."""
    rng = Rng(13)
    model = as_f64(init_backbone(TINY, rng.child("bb")))
    model.freeze()
    planner = init_planner(TINY, [0, 2, 5], (1,), rng.child("pl"))
    planner.expert.params = {k: v.astype(np.float64) for k, v in planner.expert.params.items()}
    planner.indicators = planner.indicators.astype(np.float64)
    planner.scorer = {k: v.astype(np.float64) for k, v in planner.scorer.items()}
    tokens = [1, 9, 5, 3, 10, 14]
    slot = 2

    def ce_loss():
        scores = score_tokens(planner, model, tokens)
        z = scores - scores.max()
        return float(-(z[slot] - math.log(np.exp(z).sum())))

    params = planner.trainable_parameters()
    trainable = set(params)
    scores, tape = score_tokens(planner, model, tokens, want_tape=True)
    z = scores - scores.max()
    probs = np.exp(z) / np.exp(z).sum()
    dscores = probs.copy()
    dscores[slot] -= 1.0
    grads = score_backward(planner, model, tape, dscores, trainable)

    h = 1e-4
    for key, arr in params.items():
        flat = arr.reshape(-1)
        g = grads.get(key)
        gf = g.reshape(-1) if g is not None else np.zeros(flat.size)
        for ix in np.linspace(0, flat.size - 1, min(5, flat.size)).astype(int):
            orig = flat[ix]
            flat[ix] = orig + h
            up = ce_loss()
            flat[ix] = orig - h
            dn = ce_loss()
            flat[ix] = orig
            fd = (up - dn) / (2 * h)
            if abs(fd - gf[ix]) > 1e-9:
                rel = abs(fd - gf[ix]) / max(abs(fd), abs(gf[ix]), 1e-8)
                assert rel < 1e-4, f"{key}[{ix}]: fd {fd} vs analytic {gf[ix]}"


def f64_planner(config, ids, positions, rng):
    planner = init_planner(config, ids, positions, rng)
    planner.expert.params = {k: v.astype(np.float64) for k, v in planner.expert.params.items()}
    planner.indicators = planner.indicators.astype(np.float64)
    planner.scorer = {k: v.astype(np.float64) for k, v in planner.scorer.items()}
    return planner


def test_score_batch_matches_per_row_scores_and_summed_gradients():
    rng = Rng(21)
    model = as_f64(init_backbone(TINY, rng.child("bb")))
    model.freeze()
    planner = f64_planner(TINY, [0, 2, 5], (0, 2), rng.child("pl"))
    data = Rng(22)
    rows = [[int(t) for t in data.integers(0, TINY.vocab_size, n)] for n in (11, 20, 14, 17, 11)]
    dscores = data.normal((len(rows), 4), 1.0).astype(np.float64)
    trainable = set(planner.trainable_parameters())

    scores, tape = score_batch(planner, model, rows, want_tape=True)
    grads = score_backward(planner, model, tape, dscores, trainable)
    want_grads: dict = {}
    for i, toks in enumerate(rows):
        one, one_tape = score_tokens(planner, model, toks, want_tape=True)
        assert np.allclose(scores[i], one, rtol=0, atol=1e-12)
        for key, g in score_backward(planner, model, one_tape, dscores[i], trainable).items():
            want_grads[key] = want_grads.get(key, 0) + g
    assert set(grads) == set(want_grads) == trainable
    for key, g in grads.items():
        assert np.allclose(g, want_grads[key], rtol=0, atol=1e-12), key

    # a longer row widens the padding of every other row but not its scores
    longer = score_batch(planner, model, rows + [[3] * TINY.max_seq])
    assert np.allclose(longer[: len(rows)], scores, rtol=0, atol=1e-12)


def test_evaluate_planner_equals_per_step_argmax(monkeypatch):
    config = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=12,
                         vocab_size=VOCAB_SIZE, max_seq=64)
    rng = Rng(23)
    model = init_backbone(config, rng.child("bb")).freeze()
    names = dom.DOMAIN_NAMES
    planner = init_planner(config, list(range(len(names))), (1,), rng.child("pl"))
    tasks = build_planner_dataset({n: i for i, n in enumerate(names)}, 12, Rng(24))
    preds = [[int(np.argmax(score_tokens(planner, model, s.tokens))) for s in task.steps]
             for task in tasks]
    # the untrained planner routes every task wrong; relabel every other task
    # with its own per-step choices so that the metrics count hits
    slot_ids = planner.indicator_ids + [STOP]
    for task, task_preds in zip(tasks[::2], preds[::2]):
        for step, slot in zip(task.steps, task_preds):
            step.label = slot_ids[slot]
    monkeypatch.setattr(training, "EVAL_CHUNK", 5)  # chunks split tasks
    got = evaluate_planner(planner, model, tasks)

    single = double = seq = 0
    for task, task_preds in zip(tasks, preds):
        labels = [slot_ids.index(s.label) for s in task.steps]
        routed = task_preds[: len(task.order)] == labels[: len(task.order)]
        single += task.kind == "single" and routed
        double += task.kind == "double" and routed
        seq += task_preds == labels
    assert 0 < seq < len(tasks)
    assert got.n_single + got.n_double == len(tasks)
    assert got.single_selection_accuracy == single / max(got.n_single, 1)
    assert got.double_order_accuracy == double / max(got.n_double, 1)
    assert got.sequence_accuracy == seq / len(tasks)


# --- structural exclusion & isolation ---------------------------------------------


def test_optimizer_parameter_set_excludes_backbone():
    rng = Rng(3)
    model = init_backbone(TINY, rng.child("bb"))
    model.freeze()
    expert = init_expert(TINY, 0, "d", (1,), rng.child("ex"), inner_width=10)
    opt = Adam({("expert", k): v for k, v in expert.params.items()}, TrainConfig())
    backbone_ids = {id(v) for v in model.params.values()}
    optimizer_ids = {id(v) for v in opt.params.values()}
    assert backbone_ids.isdisjoint(optimizer_ids)
    expert_ids = {id(v) for v in expert.params.values()}
    assert optimizer_ids == expert_ids


def test_backward_never_produces_backbone_grads_for_expert_training():
    rng = Rng(4)
    model = init_backbone(TINY, rng.child("bb"))
    expert = init_expert(TINY, 0, "d", (1,), rng.child("ex"), inner_width=10)
    tokens = np.asarray([[1, 2, 3]], dtype=np.int64)
    logits, _, tape = forward_batch(model, tokens, expert=expert, want_tape=True)
    trainable = {("expert", k) for k in expert.params}
    grads = backward_batch(model, tape, trainable, expert=expert,
                           dlogits=np.ones_like(logits))
    assert all(comp == "expert" for comp, _ in grads)
    assert set(grads) == trainable


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_taped_packed_pass_keeps_five_arrays_per_layer(dtype):
    """The tape keeps per layer only what the backward cannot rebuild
    without re-running attention: both norm caches (xh, inv), the attention
    weights, the context rows and the GELU input."""
    model = init_backbone(TINY, Rng(41))
    if dtype == np.float64:
        model = as_f64(model)
    _, _, positions = pack([5, 3, 2, 4, 1])
    tokens = Rng(42).integers(0, TINY.vocab_size, positions.shape)
    _, _, tape = forward_batch(model, tokens, want_tape=True, positions=positions)
    b, t = tokens.shape
    n, d = b * t, TINY.d_model
    closed = 2 * (n * d + n) + b * TINY.n_heads * t * t + n * d + n * TINY.d_ff
    assert len(tape["layers"]) == TINY.n_layers
    for i, layer in enumerate(tape["layers"]):
        assert set(layer) == {"ln1c", "ln2c", "probs", "merged", "pre"}
        assert layer["ln1c"][2] is model.params[f"layers.{i}.ln1.g"]
        assert layer["ln2c"][2] is model.params[f"layers.{i}.ln2.g"]
        kept = (*layer["ln1c"][:2], *layer["ln2c"][:2], layer["probs"], layer["merged"],
                layer["pre"])
        assert sum(a.nbytes for a in kept) == closed * np.dtype(dtype).itemsize


DEEP = ModelConfig(n_layers=6, d_model=8, n_heads=2, d_ff=12, vocab_size=20, max_seq=24)


def backbone_keys(model):
    return {("backbone", k) for k in model.params}


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_frozen_aware_backward_returns_the_full_pass_gradients(strategy):
    rng = Rng(31)
    model = init_backbone(DEEP, rng.child("bb"))
    expert = init_expert(DEEP, 0, "d", strategy_positions(strategy, DEEP.n_layers, 2),
                         rng.child("ex"), inner_width=10)
    tokens = np.asarray([[1, 5, 3, 9, 2], [4, 4, 8, 0, 7]], dtype=np.int64)
    logits, _, tape = forward_batch(model, tokens, expert=expert, want_tape=True)
    dlogits = Rng(32).normal(logits.shape, 1.0)
    trainable = {("expert", k) for k in expert.params}
    grads = backward_batch(model, tape, trainable, expert=expert, dlogits=dlogits)
    full = backward_batch(model, tape, trainable | backbone_keys(model), expert=expert,
                          dlogits=dlogits)
    assert set(grads) == trainable
    for key, g in grads.items():
        assert np.array_equal(g, full[key]), key


@pytest.mark.parametrize("names", [("layers.2.attn.wq",), ("layers.2.ln1.b", "layers.4.ffn.w2"),
                                   ("layers.3.ln2.g",), ("head",)])
def test_backward_of_a_partly_trainable_backbone_returns_the_full_pass_gradients(names):
    model = init_backbone(DEEP, Rng(35))
    tokens = np.asarray([[1, 5, 3, 9, 2], [4, 4, 8, 0, 7]], dtype=np.int64)
    logits, _, tape = forward_batch(model, tokens, want_tape=True)
    dlogits = Rng(36).normal(logits.shape, 1.0)
    trainable = {("backbone", n) for n in names}
    grads = backward_batch(model, tape, trainable, dlogits=dlogits)
    full = backward_batch(model, tape, backbone_keys(model), dlogits=dlogits)
    assert set(grads) == trainable
    for key, g in grads.items():
        assert np.array_equal(g, full[key]), key


def test_frozen_aware_planner_backward_returns_the_full_pass_gradients():
    rng = Rng(33)
    model = init_backbone(DEEP, rng.child("bb"))
    planner = init_planner(DEEP, [0, 1, 4], (2, 4), rng.child("pl"))
    scores, tape = score_batch(planner, model, [[1, 5, 3, 9, 2, 7], [4, 8, 0]], want_tape=True)
    dscores = Rng(34).normal(scores.shape, 1.0)
    trainable = set(planner.trainable_parameters())
    grads = score_backward(planner, model, tape, dscores, trainable)
    full = score_backward(planner, model, tape, dscores, trainable | backbone_keys(model))
    assert set(grads) == trainable
    for key, g in grads.items():
        assert np.array_equal(g, full[key]), key


def test_zero_learning_rate_leaves_parameters_bit_unchanged():
    rng = Rng(5)
    model = init_backbone(TRAIN_TINY, rng.child("bb"))
    model.freeze()
    expert = init_expert(TRAIN_TINY, 0, "copy", (1,), rng.child("ex"), inner_width=10)
    before = {k: v.copy() for k, v in expert.params.items()}
    cfg = TrainConfig(learning_rate=1e-46, steps=5, batch_size=4, seed=1,
                      warmup_steps=0, grad_clip=0.0)
    # learning_rate must be > 0 by contract; 1e-46 is below float32's smallest
    # subnormal (about 1.4e-45), so it rounds to 0 in the float32 update and
    # even the zero-initialised biases stay exactly 0
    train_expert(expert, model, dom.DOMAINS["copy"], cfg)
    for k in before:
        assert np.array_equal(before[k], expert.params[k])


def test_training_leaves_backbone_digest_unchanged():
    rng = Rng(6)
    model = init_backbone(TRAIN_TINY, rng.child("bb"))
    model.freeze()
    before = digest(model)
    expert = init_expert(TRAIN_TINY, 0, "reverse", (0,), rng.child("ex"), inner_width=10)
    cfg = TrainConfig(learning_rate=1e-3, steps=10, batch_size=4, seed=2, warmup_steps=0)
    train_expert(expert, model, dom.DOMAINS["reverse"], cfg)
    assert digest(model) == before


def test_training_on_model_without_byte_vocab_raises_token_id_error():
    # the byte-level domains need vocab_size > 258; a 20-id model used to
    # stop on a bare IndexError in the embedding lookup
    small_vocab = ModelConfig(n_layers=3, d_model=8, n_heads=2, d_ff=12,
                              vocab_size=20, max_seq=32)
    rng = Rng(6)
    model = init_backbone(small_vocab, rng.child("bb"))
    model.freeze()
    expert = init_expert(small_vocab, 0, "copy", (0,), rng.child("ex"), inner_width=10)
    with pytest.raises(TokenIdError):
        train_expert(expert, model, dom.DOMAINS["copy"], TrainConfig(steps=1, batch_size=2))


def test_training_requires_frozen_backbone():
    model = init_backbone(TINY, Rng(7))
    expert = init_expert(TINY, 0, "copy", (0,), Rng(8), inner_width=10)
    with pytest.raises(ConfigError):
        train_expert(expert, model, dom.DOMAINS["copy"], TrainConfig(steps=1))


def test_divergence_aborts_with_snapshot():
    rng = Rng(9)
    model = init_backbone(TRAIN_TINY, rng.child("bb"))
    model.freeze()
    expert = init_expert(TRAIN_TINY, 0, "copy", (0,), rng.child("ex"), inner_width=10)
    expert.params["p0.w1"][:] = 1e30  # forces non-finite loss immediately
    cfg = TrainConfig(learning_rate=1e-3, steps=5, batch_size=2, seed=3, warmup_steps=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            train_expert(expert, model, dom.DOMAINS["copy"], cfg)
    assert err.value.last_good is not None


def test_planner_divergence_raises_divergence_error():
    rng = Rng(10)
    model = init_backbone(TINY, rng.child("bb"))
    model.freeze()
    planner = init_planner(TINY, [0, 1], (1,), rng.child("pl"))
    planner.expert.params["p1.w1"][:] = 1e30  # overflows the planner's forward pass
    tasks = [PlannerTask(steps=[PlannerStep(tokens=[1, 5, 3, 9], label=0),
                                PlannerStep(tokens=[1, 5, 3, 9, 2], label=STOP)],
                         order=("copy",), kind="single")]
    cfg = TrainConfig(learning_rate=1e-3, steps=5, batch_size=2, seed=3, warmup_steps=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            train_planner(planner, model, tasks, cfg)
    assert isinstance(err.value.__cause__, NumericError)
    assert err.value.last_good is not None
    assert set(err.value.last_good) == set(planner.trainable_parameters())


def test_invalid_train_config_rejected():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(steps=0).validate()


@pytest.mark.parametrize("bad", [{"batch_size": 0}, {"log_every": 0}])
def test_train_config_rejects_a_count_below_one(bad):
    with pytest.raises(ConfigError, match="must be >= 1"):
        TrainConfig(**bad).validate()


def test_pretrain_smoke_loss_halves():
    cfg = TrainConfig(learning_rate=1e-2, batch_size=16, steps=200, seed=11,
                      warmup_steps=10, log_every=10)
    model, curve = pretrain_backbone(TRAIN_TINY, cfg)
    assert model.frozen
    first, last = curve[0].loss, min(r.loss for r in curve)
    assert last < 0.5 * first
    with pytest.raises(ValueError):
        model.params["embed"][0, 0] = 1.0


def test_batchify_alignment():
    ex = dom.sample_example(dom.DOMAINS["copy"], Rng(1), tagged=True, form="plain")
    tokens, targets, mask, positions = batchify([ex])
    n = len(ex.ids)
    assert tokens.shape == (1, n)
    assert list(positions[0]) == list(range(n))
    assert list(targets[0, : n - 1]) == ex.ids[1:]
    # masked positions predict answer tokens and the terminator
    on = np.nonzero(mask[0])[0]
    eq = ex.ids.index(ord("="))
    assert on[0] == eq and on[-1] == n - 2


# --- packed batches ---------------------------------------------------------------

# six layers with the byte vocabulary, so experts can sit low or high
PACK_CFG = ModelConfig(n_layers=6, d_model=8, n_heads=2, d_ff=12,
                       vocab_size=VOCAB_SIZE, max_seq=32)


def mixed_examples(seed: int, n: int) -> list[dom.TrainExample]:
    rng = Rng(seed)
    return [dom.sample_example(dom.DOMAINS[dom.DOMAIN_NAMES[i % len(dom.DOMAIN_NAMES)]], rng,
                               tagged=bool(i % 2)) for i in range(n)]


def padded_batch(examples):
    """One example per row, right-padded with PAD: the layout before packing."""
    width = max(len(e.ids) for e in examples)
    tokens = np.full((len(examples), width), PAD, dtype=np.int64)
    targets = np.full((len(examples), width), PAD, dtype=np.int64)
    mask = np.zeros((len(examples), width), dtype=np.float64)
    for i, e in enumerate(examples):
        tokens[i, : len(e.ids)] = e.ids
        targets[i, : len(e.ids) - 1] = e.ids[1:]
        mask[i, : len(e.mask)] = e.mask
    return tokens, targets, mask


@pytest.mark.parametrize("positions", [None, (0, 1), (4, 5)])
def test_packed_batch_matches_padded_loss_and_gradients(positions):
    """Pretraining (positions None: every backbone tensor trainable) and
    experts low and high in the stack, where the backward stops early."""
    rng = Rng(41)
    model = as_f64(init_backbone(PACK_CFG, rng.child("bb")))
    if positions is None:
        expert = None
        trainable = backbone_keys(model)
    else:
        model.freeze()
        expert = as_f64(init_expert(PACK_CFG, 0, "d", positions, rng.child("ex"), inner_width=10))
        trainable = {("expert", k) for k in expert.params}
    examples = mixed_examples(45, 13)
    tokens, targets, mask, pos = batchify(examples)
    assert len(tokens) < len(examples)  # the batch really packs
    loss, acc, grads = loss_and_grads(model, expert, tokens, targets, mask, trainable, pos)
    want_loss, want_acc, want = loss_and_grads(model, expert, *padded_batch(examples), trainable)
    assert abs(loss - want_loss) < 1e-12
    assert acc == want_acc
    assert set(grads) == set(want) == trainable
    for key, g in grads.items():
        assert np.allclose(g, want[key], rtol=0, atol=1e-12), key


def test_packed_examples_do_not_see_each_other():
    rng = Rng(43)
    model = init_backbone(PACK_CFG, rng.child("bb")).freeze()
    expert = init_expert(PACK_CFG, 0, "d", (2,), rng.child("ex"), inner_width=10)
    examples = mixed_examples(46, 13)
    row, start, _ = pack([len(e.ids) for e in examples])
    tokens, _, _, positions = batchify(examples)
    logits, _, _ = forward_batch(model, tokens, expert=expert, positions=positions)
    # change an example that shares its row with another
    i = next(i for i in range(len(examples)) if (row == row[i]).sum() > 1)
    n = len(examples[i].ids)
    edited = tokens.copy()
    edited[row[i], start[i] : start[i] + n] = (edited[row[i], start[i] : start[i] + n] + 7) % 250
    after, _, _ = forward_batch(model, edited, expert=expert, positions=positions)
    own = np.zeros(tokens.shape, dtype=bool)
    own[row[i], start[i] : start[i] + n] = True
    assert not np.array_equal(after[own], logits[own])
    assert np.array_equal(after[~own], logits[~own])


@pytest.mark.parametrize("seed", range(6))
def test_batchify_places_every_example_once_in_its_own_segment(seed):
    examples = mixed_examples(50 + seed, 24)
    tokens, targets, mask, positions = batchify(examples)
    width = max(len(e.ids) for e in examples)
    assert tokens.shape[1] == width and len(tokens) <= len(examples)
    assert mask.sum() == sum(sum(e.mask) for e in examples)
    placed = []
    for r in range(len(tokens)):
        starts = list(np.flatnonzero(positions[r] == 0)) + [width]
        for a, b in zip(starts, starts[1:]):
            assert list(positions[r, a:b]) == list(range(b - a))
            if tokens[r, a] == PAD:  # the pad slots that end a row
                assert b == width and (tokens[r, a:] == PAD).all() and not mask[r, a:].any()
                continue
            placed.append((tuple(tokens[r, a:b]), tuple(targets[r, a:b]), tuple(mask[r, a:b])))
    want = [(tuple(e.ids), tuple(e.ids[1:]) + (PAD,), tuple(map(float, e.mask))) for e in examples]
    assert sorted(placed) == sorted(want)


def test_packed_score_batch_matches_per_row_scores_and_summed_gradients():
    rng = Rng(45)
    model = as_f64(init_backbone(TINY, rng.child("bb")))
    model.freeze()
    planner = f64_planner(TINY, [0, 2, 5], (0, 2), rng.child("pl"))
    data = Rng(46)
    lengths = (5, 20, 9, 6, 11, 3, 14, 8)
    rows = [[int(t) for t in data.integers(0, TINY.vocab_size, n)] for n in lengths]
    assert len(pack(list(lengths))[2]) < len(rows)  # the batch really packs
    dscores = data.normal((len(rows), 4), 1.0).astype(np.float64)
    trainable = set(planner.trainable_parameters())

    scores, tape = score_batch(planner, model, rows, want_tape=True)
    grads = score_backward(planner, model, tape, dscores, trainable)
    want_grads: dict = {}
    for i, toks in enumerate(rows):
        one, one_tape = score_tokens(planner, model, toks, want_tape=True)
        assert np.allclose(scores[i], one, rtol=0, atol=1e-12)
        for key, g in score_backward(planner, model, one_tape, dscores[i], trainable).items():
            want_grads[key] = want_grads.get(key, 0) + g
    assert set(grads) == set(want_grads) == trainable
    for key, g in grads.items():
        assert np.allclose(g, want_grads[key], rtol=0, atol=1e-12), key


# --- the scorer against its per-subtask reference --------------------------------


def reference_scorer(planner, model, tokens, dscores, trainable):
    """One subtask alone through the block, then the scorer's single-head
    softmax cross-attention written out: returns its scores [n + 1] and the
    gradients of ``dscores . scores`` restricted to ``trainable``."""
    _, h, tape = forward_batch(model, np.asarray([tokens]), expert=planner.expert,
                               want_tape=True)
    s, w, x = planner.scorer, planner.indicators, h[0]
    scale = 1.0 / math.sqrt(x.shape[-1])
    q, k, v = w @ s["wq"], x @ s["wk"], x @ s["wv"]
    att = q @ k.T * scale
    att = np.exp(att - att.max(axis=-1, keepdims=True))
    att /= att.sum(axis=-1, keepdims=True)
    ctx = att @ v
    out = ctx @ s["wo"]
    scores = out @ s["fw"] + s["fb"][0]

    dout = dscores[:, None] * s["fw"]
    dctx = dout @ s["wo"].T
    datt = dctx @ v.T
    datt = att * (datt - (datt * att).sum(axis=-1, keepdims=True))
    dq, dk, dv = datt @ k * scale, datt.T @ q * scale, att.T @ dctx
    grads = {("planner", "scorer.fw"): out.T @ dscores,
             ("planner", "scorer.fb"): np.asarray([dscores.sum()]),
             ("planner", "scorer.wo"): ctx.T @ dout,
             ("planner", "indicators"): dq @ s["wq"].T,
             ("planner", "scorer.wq"): w.T @ dq,
             ("planner", "scorer.wk"): x.T @ dk,
             ("planner", "scorer.wv"): x.T @ dv}
    dh = (dk @ s["wk"].T + dv @ s["wv"].T)[None]
    grads.update(backward_batch(model, tape, trainable, expert=planner.expert, dhidden=dh))
    return scores, {key: g for key, g in grads.items() if key in trainable}


@pytest.mark.parametrize("lengths", [(12, 5, 4, 3, 1, 9), (7, 3, 2, 2, 1), (1,)])
def test_scorer_equals_the_per_subtask_softmax_reference(lengths):
    rng = Rng(61)
    model = as_f64(init_backbone(TINY, rng.child("bb")))
    model.freeze()
    planner = f64_planner(TINY, [0, 2, 5], (0, 2), rng.child("pl"))
    data = Rng(62)
    token_lists = [[int(t) for t in data.integers(0, TINY.vocab_size, n)] for n in lengths]
    row = pack(list(lengths))[0]
    if len(lengths) > 1:  # a row holds three subtasks, one of them a single token
        assert np.bincount(row).max() == 3
    dscores = data.normal((len(lengths), 4), 1.0).astype(np.float64)
    trainable = set(planner.trainable_parameters())

    scores, tape = score_batch(planner, model, token_lists, want_tape=True)
    grads = score_backward(planner, model, tape, dscores, trainable)
    want_grads: dict = {}
    for i, toks in enumerate(token_lists):
        want, one = reference_scorer(planner, model, toks, dscores[i], trainable)
        assert np.allclose(scores[i], want, rtol=0, atol=1e-12)
        for key, g in one.items():
            want_grads[key] = want_grads.get(key, 0) + g
    assert set(grads) == set(want_grads) == trainable
    for key, g in grads.items():
        assert np.allclose(g, want_grads[key], rtol=0, atol=1e-12), key


def test_a_planner_step_takes_the_slot_cross_entropy(monkeypatch):
    config = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=12,
                         vocab_size=VOCAB_SIZE, max_seq=64)
    rng = Rng(63)
    model = as_f64(init_backbone(config, rng.child("bb")))
    model.freeze()
    names = dom.DOMAIN_NAMES
    planner = f64_planner(config, list(range(len(names))), (1,), rng.child("pl"))
    before = deep_copy_planner(planner)
    tasks = build_planner_dataset({n: i for i, n in enumerate(names)}, 8, Rng(64))
    cfg = TrainConfig(learning_rate=1e-3, steps=1, batch_size=12, seed=65, warmup_steps=0)
    seen = []
    real = routing.score_backward
    monkeypatch.setattr(routing, "score_backward",
                        lambda *args: seen.append(args[3]) or real(*args))
    _, curve = train_planner(planner, model, tasks, cfg)

    # the same batch, drawn as train_planner draws it
    samples = [(s.tokens, training._label_slot(before, s.label)) for t in tasks for s in t.steps]
    order = Rng(cfg.seed).child("planner-order")
    batch = [samples[int(order.integers(0, len(samples)))] for _ in range(cfg.batch_size)]
    rows = np.arange(len(batch))
    slots = np.asarray([slot for _, slot in batch])
    scores = score_batch(before, model, [t for t, _ in batch])
    ez = np.exp(scores - scores.max(axis=1, keepdims=True))
    probs = ez / ez.sum(axis=1, keepdims=True)
    loss = -float(np.log(np.maximum(probs[rows, slots], 1e-12)).mean())
    hits = int((np.argmax(scores, axis=1) == slots).sum())
    dscores = probs
    dscores[rows, slots] -= 1.0
    dscores /= len(batch)
    assert abs(curve[0].loss - loss) < 1e-12
    assert curve[0].token_accuracy == hits / len(batch)
    assert np.allclose(seen[0], dscores, rtol=0, atol=1e-15)
