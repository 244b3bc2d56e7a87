"""The wrapped public functions of each ``ccoe`` module and the per-layer
metrics computed from their spans.

Each metric below should move an end-to-end metric; README.md gives the map.
"""

from __future__ import annotations

import os

from ccoe import domains as dom
from ccoe.tokenizer import EOS

from .spans import Span, Target, Tracer, self_times

PHASE_TAGS = ("GL", "FB", "FE", "MD", "BE", "pretrain", "planner")


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _decode_stage(tracer: Tracer, args, kwargs):
    # the cache position against the prompt length of the enclosing decode
    parent = tracer.current()
    prompt = (parent.attrs or {}).get("prompt_tokens", 0) if parent else 0
    pos = len(_arg(args, kwargs, 3, "cache"))
    return {"split": "prefill" if pos < prompt else "generate"}


def _prompt(tracer, args, kwargs):
    return {"prompt_tokens": len(_arg(args, kwargs, 2, "prompt"))}


def _generated(attrs, args, kwargs, out):
    attrs["generated_tokens"] = len(out)
    attrs["eos"] = bool(out) and out[-1] == EOS


def _rows(tracer, args, kwargs):
    return {"rows": int(_arg(args, kwargs, 1, "tokens").shape[0])}


def _phase(tracer, args, kwargs):
    return {"split": tracer.tag or "other"}


def _padding(tracer, args, kwargs):
    examples = _arg(args, kwargs, 0, "examples")
    width = max(len(e.ids) for e in examples)
    return {"slots": width * len(examples), "tokens": sum(len(e.ids) for e in examples)}


def _plan(attrs, args, kwargs, result):
    _text, path = result
    attrs["steps"] = len(path.steps)
    attrs["stopped"] = len(path.steps) < _arg(args, kwargs, 3, "max_steps", 4)
    attrs["truncated"] = path.truncated


def _file_bytes(tracer, args, kwargs):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


TARGETS = [
    Target("ccoe.decoding", "decode_step", "decoding.decode_step", pre=_decode_stage),
    Target("ccoe.decoding", "greedy_decode", "decoding.greedy_decode", pre=_prompt, post=_generated),
    Target("ccoe.net", "forward_batch", "net.forward_batch", pre=_rows),
    Target("ccoe.net", "backward_batch", "net.backward_batch", pre=_phase),
    Target("ccoe.training", "nll_loss", "training.nll_loss"),
    Target("ccoe.training", "Adam.step", "training.Adam.step"),
    Target("ccoe.training", "batchify", "training.batchify", pre=_padding),
    Target("ccoe.training", "pretrain_backbone", "training.pretrain_backbone"),
    Target("ccoe.training", "train_expert", "training.train_expert"),
    Target("ccoe.training", "train_planner", "training.train_planner"),
    Target("ccoe.domains", "sample_example", "domains.sample_example"),
    Target("ccoe.routing", "gate", "routing.gate"),
    Target("ccoe.routing", "score_tokens", "routing.score_tokens"),
    Target("ccoe.routing", "score_backward", "routing.score_backward"),
    Target("ccoe.routing", "execute_plan", "routing.execute_plan", post=_plan),
    Target("ccoe.lifecycle", "push", "lifecycle.push"),
    Target("ccoe.lifecycle", "pop_copy", "lifecycle.pop_copy"),
    Target("ccoe.lifecycle", "attach_planner", "lifecycle.attach_planner"),
    Target("ccoe.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint", pre=_file_bytes),
]

CALL_METRICS = (("calls", "count"), ("ms_per_call", "ms"), ("self_ms_per_call", "ms"))
DECODE_SPLITS = ("prefill", "generate")


def ledger_names() -> list[str]:
    experts = [f"expert.{i}.{name}" for i, name in enumerate(dom.DOMAIN_NAMES)]
    return ["backbone", *experts, "planner", "total"]


def per_layer_spec() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    spec: list[tuple[str, str]] = []
    for t in TARGETS:
        spec += [(f"{t.name}.{m}", u) for m, u in CALL_METRICS]
    for split in DECODE_SPLITS:
        spec += [(f"decoding.decode_step.{split}.{m}", u) for m, u in CALL_METRICS]
    spec += [(f"net.backward_batch.{tag}.ms_per_call", "ms") for tag in PHASE_TAGS]
    spec += [
        ("decoding.prompt_tokens", "tokens"),
        ("decoding.generated_tokens", "tokens"),
        ("decoding.eos_stop_share", "ratio"),
        ("net.forward_batch.rows", "rows"),
        ("training.batchify.pad_share", "ratio"),
        ("domains.sample_example.ms_per_step", "ms"),
        ("routing.execute_plan.steps_per_query", "steps"),
        ("routing.execute_plan.stop_share", "ratio"),
        ("routing.execute_plan.truncated", "ratio"),
        ("checkpoint.load_checkpoint.bytes", "B"),
    ]
    spec += [(f"lifecycle.ledger.{c}.bytes", "B") for c in ledger_names()]
    spec += [("tracing.overhead", "ratio"), ("tracing.spans", "count")]
    return spec


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def per_layer_metrics(spans: list[Span], ledger: dict[str, int], overhead: float) -> dict[str, float]:
    """Values for every name in :func:`per_layer_spec`; 0 where a workload
    never calls the function."""
    selfs = self_times(spans)
    groups: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        groups.setdefault(s.name, []).append(i)
        split = (s.attrs or {}).get("split")
        if split:
            groups.setdefault(f"{s.name}.{split}", []).append(i)

    def of(name: str) -> list[Span]:
        return [spans[i] for i in groups.get(name, ())]

    def attr_mean(name: str, key: str) -> float:
        return _mean(float(s.attrs[key]) for s in of(name))

    out: dict[str, float] = {}
    keys = [t.name for t in TARGETS] + [f"decoding.decode_step.{s}" for s in DECODE_SPLITS]
    for key in keys:
        idx = groups.get(key, [])
        out[f"{key}.calls"] = len(idx)
        out[f"{key}.ms_per_call"] = 1e3 * _mean(spans[i].end - spans[i].start for i in idx)
        out[f"{key}.self_ms_per_call"] = 1e3 * _mean(selfs[i] for i in idx)
    for tag in PHASE_TAGS:
        out[f"net.backward_batch.{tag}.ms_per_call"] = 1e3 * _mean(
            s.end - s.start for s in of(f"net.backward_batch.{tag}"))

    out["decoding.prompt_tokens"] = attr_mean("decoding.greedy_decode", "prompt_tokens")
    out["decoding.generated_tokens"] = attr_mean("decoding.greedy_decode", "generated_tokens")
    out["decoding.eos_stop_share"] = attr_mean("decoding.greedy_decode", "eos")
    out["net.forward_batch.rows"] = attr_mean("net.forward_batch", "rows")
    batches = of("training.batchify")
    slots = sum(s.attrs["slots"] for s in batches)
    out["training.batchify.pad_share"] = 1 - sum(s.attrs["tokens"] for s in batches) / slots if slots else 0.0
    sampling = sum(s.end - s.start for s in of("domains.sample_example"))
    out["domains.sample_example.ms_per_step"] = 1e3 * sampling / len(batches) if batches else 0.0
    out["routing.execute_plan.steps_per_query"] = attr_mean("routing.execute_plan", "steps")
    out["routing.execute_plan.stop_share"] = attr_mean("routing.execute_plan", "stopped")
    out["routing.execute_plan.truncated"] = attr_mean("routing.execute_plan", "truncated")
    out["checkpoint.load_checkpoint.bytes"] = attr_mean("checkpoint.load_checkpoint", "bytes")
    for component, nbytes in ledger.items():
        out[f"lifecycle.ledger.{component.replace(':', '.')}.bytes"] = nbytes
    out["lifecycle.ledger.total.bytes"] = sum(ledger.values())
    out["tracing.overhead"] = overhead
    out["tracing.spans"] = len(spans)
    return out

