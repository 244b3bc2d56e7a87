"""Seeded workload generators and the properties of the streams they produce.

Every generator is a pure function of its seed and uses its own
``random.Random``; ``ccoe`` receives only the generated prompts, queries and
seeds. ``ccoe.domains`` is read for the domain names, tags and answer
functions, and ``ccoe.tokenizer`` for the byte encoding.

Why each workload exists (see README.md for the layer map):

- ``serve_mixed``: short prompts and 24 new tokens, so per-token decode
  dominates and prefill is a small share; planner-routed queries and registry
  updates sit beside the gated reads.
- ``serve_longprompt``: a shared few-shot prefix of 150-200 tokens per domain
  and 4 new tokens, so prefill is over 90% of each request; prefix reuse or
  batched prefill shows here and hardly at all on ``serve_mixed``.
- ``train_phases``: backward and Adam dominate and are absent from serving.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from ccoe import domains as dom
from ccoe.tokenizer import BOS, encode

from . import WORKLOADS
from .stats import percentile

UPDATE_EVERY = 25  # every 25th serve_mixed operation is a registry update
ROUTED_EVERY = 3  # one routed query in every three other serve_mixed operations
ROUTED_POOL_SEED = 0
CHECK_SHARE = 0.05  # gated requests re-decoded without the cache afterwards
MIXED_PROMPT_TOKENS = (10, 40)
MIXED_MAX_NEW = 24
ROUTED_MAX_NEW = 16
ROUTED_MAX_STEPS = 4
PREFIX_TOKENS = (150, 200)
LONG_MAX_NEW = 4
FORMS = (("plain", 0.6), ("marked", 0.25), ("carried", 0.15))

# train_phases: fixed step counts per phase call. Learning rates and batch
# sizes are the test fixture's, except the planner's, which is halved. The
# planner's loss is noisy from batch to batch: over 24 steps the last logged
# loss fell below the first by 0.78 +- 0.18 nats in 30 probe calls, and over
# 10 steps it failed to fall in 1 of 50.
STRATEGIES = ("GL", "FB", "FE", "MD", "BE")
PRETRAIN = {"steps": 6, "batch_size": 32, "learning_rate": 1.5e-3, "warmup_steps": 1}
EXPERT = {"steps": 5, "batch_size": 24, "learning_rate": 1e-3, "warmup_steps": 1}
PLANNER = {"steps": 24, "batch_size": 24, "learning_rate": 1e-3, "warmup_steps": 3}
PLANNER_TASKS = 64
EXPERT_SUBLAYERS = 2


@dataclass(frozen=True)
class Op:
    """One serving operation. ``kind`` is ``gated``, ``routed`` or ``update``."""

    kind: str
    domain: str = ""
    prompt: tuple[int, ...] = ()
    max_new: int = 0
    query: str = ""
    expert_id: int = -1
    noise_seed: int = 0
    check: bool = False


@dataclass(frozen=True)
class TrainCycle:
    """Seeds for one pass over the three training phases."""

    pretrain_seed: int
    expert_seeds: tuple[int, ...]  # one per strategy
    planner_seed: int
    tasks_seed: int


def _digits(rng: random.Random, n: int) -> str:
    return "".join(str(rng.randrange(10)) for _ in range(n))


def _markers(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return dom.DOMAINS[rng.choice(dom.DOMAIN_NAMES)].tag
    first = rng.choice(dom.CHAINABLE)
    second = rng.choice([n for n in dom.DOMAIN_NAMES if n != first])
    return dom.DOMAINS[first].tag + dom.DOMAINS[second].tag


def _form(rng: random.Random) -> str:
    u = rng.random()
    for name, weight in FORMS:
        if u < weight:
            return name
        u -= weight
    return FORMS[-1][0]


def _gated_body(rng: random.Random, n_tokens: int) -> str:
    """A task body in the plain, marked or carried form whose prompt,
    ``[BOS] ? body =``, is exactly ``n_tokens`` long."""
    size = n_tokens - 3
    form = _form(rng)
    if form == "plain":
        return _digits(rng, size)
    markers = _markers(rng)
    digits = size - len(markers) - 1
    if form == "marked":
        return markers + dom.TASK_SEP + _digits(rng, digits)
    carried = max(1, (digits - 1) // 2)
    return (_digits(rng, carried) + dom.CARRY_SEP + markers + dom.TASK_SEP
            + _digits(rng, digits - 1 - carried))


def _check(rng: random.Random) -> bool:
    return rng.random() < CHECK_SHARE


def _shuffled_cycle(rng: random.Random, items: list) -> Iterator:
    """Every item once per pass, in a fresh seeded order each pass."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def routed_pool() -> list[str]:
    """The fixed set of planner-routed queries: every one-step domain order
    with 16 payloads and every two-step order with 5, half and half.

    The set does not depend on the run's seed. The untrained planner's step
    count swings between 0 and 4 with the query, so a seeded sample of
    queries would change how much planner work a run holds; a run of
    ``serve_mixed`` serves about one shuffled pass over this set.
    """
    rng = random.Random(ROUTED_POOL_SEED)
    singles = [(n,) for n in dom.DOMAIN_NAMES]
    doubles = [(a, b) for a in dom.CHAINABLE for b in dom.DOMAIN_NAMES if b != a]
    queries = []
    for orders, per_order in ((singles, len(doubles)), (doubles, len(singles))):
        for order in orders:
            markers = "".join(dom.DOMAINS[n].tag for n in order)
            for _ in range(per_order):
                payload = _digits(rng, rng.randint(dom.PAYLOAD_MIN, dom.PAYLOAD_MAX))
                queries.append(markers + dom.TASK_SEP + payload)
    return queries


def serve_mixed(seed: int) -> Iterator[Op]:
    """Gated single-domain queries, planner-routed composite queries and
    registry updates; the domain is drawn per request.

    Of every three operations that are not updates, one at a seeded place is
    routed, so every seed serves the same mix.
    """
    rng = random.Random(seed)
    routed = _shuffled_cycle(rng, routed_pool())
    block: list[str] = []
    index = 0
    while True:
        index += 1
        if index % UPDATE_EVERY == 0:
            yield Op("update", expert_id=rng.randrange(len(dom.DOMAIN_NAMES)),
                     noise_seed=rng.getrandbits(32))
            continue
        if not block:
            block = ["routed"] + ["gated"] * (ROUTED_EVERY - 1)
            rng.shuffle(block)
        if block.pop() == "routed":
            yield Op("routed", query=next(routed), max_new=ROUTED_MAX_NEW)
        else:
            domain = rng.choice(dom.DOMAIN_NAMES)
            body = _gated_body(rng, rng.randint(*MIXED_PROMPT_TOKENS))
            yield Op("gated", domain=domain, max_new=MIXED_MAX_NEW,
                     prompt=tuple(dom.step_prompt_tokens(None, body)), check=_check(rng))


def few_shot_prefix(rng: random.Random, domain: str, n_tokens: int) -> str:
    """Worked ``payload=answer;`` examples of ``domain``, about ``n_tokens`` long."""
    fn = dom.DOMAINS[domain].fn
    prefix = ""
    while len(prefix) < n_tokens:
        payload = _digits(rng, rng.randint(dom.PAYLOAD_MIN, dom.PAYLOAD_MAX))
        prefix += payload + dom.EQ + fn(payload) + dom.CARRY_SEP
    return prefix[:n_tokens]


def serve_longprompt(seed: int) -> Iterator[Op]:
    """Gated queries behind a per-domain few-shot prefix shared by every
    request of that domain; domains interleave at random.

    The five prefix lengths are spread evenly over ``PREFIX_TOKENS`` and only
    their assignment to domains is seeded, so every seed serves the same
    length mix.
    """
    rng = random.Random(seed)
    lo, hi = PREFIX_TOKENS
    n = len(dom.DOMAIN_NAMES)
    lengths = [lo + round((hi - lo) * i / (n - 1)) for i in range(n)]
    rng.shuffle(lengths)
    prefixes = {d: few_shot_prefix(rng, d, k) for d, k in zip(dom.DOMAIN_NAMES, lengths)}
    while True:
        domain = rng.choice(dom.DOMAIN_NAMES)
        payload = _digits(rng, rng.randint(dom.PAYLOAD_MIN, dom.PAYLOAD_MAX))
        prompt = [BOS] + encode(dom.NEUTRAL_TAG + prefixes[domain] + payload + dom.EQ)
        yield Op("gated", domain=domain, prompt=tuple(prompt), max_new=LONG_MAX_NEW,
                 check=_check(rng))


def train_phases(seed: int) -> Iterator[TrainCycle]:
    """Seeds for successive training cycles."""
    rng = random.Random(seed)
    while True:
        yield TrainCycle(
            pretrain_seed=rng.getrandbits(32),
            expert_seeds=tuple(rng.getrandbits(32) for _ in STRATEGIES),
            planner_seed=rng.getrandbits(32),
            tasks_seed=rng.getrandbits(32),
        )


GENERATORS = dict(zip(WORKLOADS, (serve_mixed, serve_longprompt, train_phases)))


def stream_properties(ops: list[Op]) -> dict:
    """Properties of a served stream that the runtime's behaviour depends on.

    ``prefix_seen_share`` is the share of gated prompt tokens that lie in a
    prefix an earlier gated request already sent to the same domain, and so
    to the same expert (the registry holds one per domain); it is what a
    prefix cache could at best reuse.
    """
    gated = [op for op in ops if op.kind == "gated"]
    lengths = [len(op.prompt) for op in gated]
    seen: dict[str, set[int]] = {}
    reused = 0
    switches = 0
    prev = None
    for op in gated:
        prefixes = seen.setdefault(op.domain, set())
        h = 0
        matching = True
        for tok in op.prompt:
            h = hash((h, tok))  # identifies the prefix ending at this token
            matching = matching and h in prefixes
            reused += matching
            prefixes.add(h)
        switches += prev is not None and op.domain != prev
        prev = op.domain
    props: dict = {
        "ops": len(ops),
        "routed_share": sum(op.kind == "routed" for op in ops) / max(len(ops), 1),
        "update_share": sum(op.kind == "update" for op in ops) / max(len(ops), 1),
        "domain_switch_share": switches / max(len(gated) - 1, 1),
        "prefix_seen_share": reused / max(sum(lengths), 1),
    }
    if lengths:
        props["prompt_tokens"] = {
            "min": min(lengths), "p50": percentile(lengths, 50),
            "p90": percentile(lengths, 90), "max": max(lengths),
            "mean": sum(lengths) / len(lengths),
        }
    return props
