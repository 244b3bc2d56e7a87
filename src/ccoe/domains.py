"""Synthetic byte-level task domains and their sequence encodings.

Five deterministic functions over digit strings share one prompt
distribution, so nothing in a prompt's surface reveals the wanted one:
``copy``, ``reverse``, ``sort_digits``, ``mod_add`` (each digit plus three,
mod ten) and ``uppercase`` (0 -> A .. 9 -> J).

A sequence is ``[BOS] tag <task> = <answer> [EOS]``. In pretraining the tag
byte names the function; in serving it is the neutral ``?`` and the routed
expert must supply the signal. A task is a payload, a marked payload
(``rs:1234``) or carried context (``7701;rs:1234``), where the function
applies to the carried digits; markers are routing metadata only. A
composite task chains two functions (``ru:315``: reverse, then uppercase),
``uppercase`` only last. Every generator is a pure function of its Rng.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .rng import Rng
from .tokenizer import BOS, EOS, INDICATOR, encode

NEUTRAL_TAG = "?"
EQ = "="
CARRY_SEP = ";"
TASK_SEP = ":"

PAYLOAD_MIN = 4
PAYLOAD_MAX = 8

FORM_WEIGHTS = (("plain", 0.6), ("marked", 0.25), ("carried", 0.15))


def _fn_copy(s: str) -> str:
    return s


def _fn_reverse(s: str) -> str:
    return s[::-1]


def _fn_sort(s: str) -> str:
    return "".join(sorted(s))


def _fn_mod_add(s: str) -> str:
    return "".join(str((int(ch) + 3) % 10) for ch in s)


def _fn_upper(s: str) -> str:
    return "".join(chr(ord("A") + int(ch)) for ch in s)


@dataclass(frozen=True)
class SyntheticDomain:
    name: str
    tag: str  # single byte: domain tag during pretraining, routing marker otherwise
    fn: Callable[[str], str]

    def sample_payload(self, rng: Rng) -> str:
        n = int(rng.integers(PAYLOAD_MIN, PAYLOAD_MAX + 1))
        return "".join(str(int(d)) for d in rng.integers(0, 10, size=n))


DOMAINS: dict[str, SyntheticDomain] = {
    d.name: d
    for d in (
        SyntheticDomain("copy", "c", _fn_copy),
        SyntheticDomain("reverse", "r", _fn_reverse),
        SyntheticDomain("sort_digits", "s", _fn_sort),
        SyntheticDomain("mod_add", "m", _fn_mod_add),
        SyntheticDomain("uppercase", "u", _fn_upper),
    )
}

DOMAIN_NAMES = tuple(DOMAINS)
# uppercase emits letters, so it cannot feed a later chain step
CHAINABLE = tuple(n for n in DOMAIN_NAMES if n != "uppercase")


@dataclass
class TrainExample:
    ids: list[int]
    mask: list[int]  # 1 where the model is scored (answer + EOS positions)
    payload: str = ""


def _assemble(tag: str, task: str, answer: str) -> TrainExample:
    ids = [BOS] + encode(tag + task + EQ) + encode(answer) + [EOS]
    eq_idx = len(encode(tag + task)) + 1  # position of '='
    mask = [0] * len(ids)
    for i in range(eq_idx, len(ids) - 1):
        mask[i] = 1
    return TrainExample(ids=ids, mask=mask)


def sample_chain(rng: Rng) -> tuple[str, str]:
    """Two domain names in application order: a chainable domain first, then
    any other domain."""
    first = rng.choice(CHAINABLE)
    return first, rng.choice([n for n in DOMAIN_NAMES if n != first])


def random_markers(rng: Rng) -> str:
    """Marker string as routing metadata: one or two tags, chainable first."""
    if rng.uniform() < 0.5:
        return DOMAINS[rng.choice(DOMAIN_NAMES)].tag
    return "".join(DOMAINS[n].tag for n in sample_chain(rng))


def sample_example(
    domain: SyntheticDomain,
    rng: Rng,
    tagged: bool,
    form: str | None = None,
) -> TrainExample:
    """One supervised example for ``domain``; ``tagged`` controls whether the
    tag byte names the domain (pretraining) or is neutral (expert training)."""
    if form is None:
        u = rng.uniform()
        acc = 0.0
        for name, w in FORM_WEIGHTS:
            acc += w
            if u < acc:
                form = name
                break
        else:
            form = FORM_WEIGHTS[-1][0]
    tag = domain.tag if tagged else NEUTRAL_TAG
    payload = domain.sample_payload(rng)
    if form == "plain":
        task, source = payload, payload
    elif form == "marked":
        task, source = random_markers(rng) + TASK_SEP + payload, payload
    elif form == "carried":
        carried = domain.sample_payload(rng)
        task = carried + CARRY_SEP + random_markers(rng) + TASK_SEP + payload
        source = carried
    else:
        raise ValueError(f"unknown form {form!r}")
    ex = _assemble(tag, task, domain.fn(source))
    ex.payload = source
    return ex


def eval_prompt(domain: SyntheticDomain, payload: str) -> tuple[list[int], str]:
    """Neutral-tag plain-form prompt ids (ending at '=') and the expected answer."""
    ids = [BOS] + encode(NEUTRAL_TAG + payload + EQ)
    return ids, domain.fn(payload)


def heldout_payloads(rng: Rng, n: int, exclude: set[str]) -> list[str]:
    """Fresh payloads disjoint from ``exclude`` (rejection sampling)."""
    out: list[str] = []
    seen = set(exclude)
    guard = 0
    any_domain = DOMAINS["copy"]
    while len(out) < n:
        p = any_domain.sample_payload(rng)
        guard += 1
        if guard > 1000 * n:
            raise RuntimeError("payload space exhausted while rejection sampling")
        if p in seen:
            continue
        seen.add(p)
        out.append(p)
    return out


@dataclass
class CompositeTask:
    """A marker-routed task requiring one or two experts in a fixed order."""

    order: tuple[str, ...]  # domain names, application order
    payload: str
    stages: tuple[str, ...] = field(default=())  # output after each step

    def __post_init__(self):
        if not self.stages:
            stages = []
            cur = self.payload
            for name in self.order:
                cur = DOMAINS[name].fn(cur)
                stages.append(cur)
            self.stages = tuple(stages)

    @property
    def markers(self) -> str:
        return "".join(DOMAINS[n].tag for n in self.order)

    @property
    def text(self) -> str:
        return self.markers + TASK_SEP + self.payload


def sample_composite(rng: Rng, n_steps: int) -> CompositeTask:
    if n_steps == 1:
        order = (rng.choice(DOMAIN_NAMES),)
    elif n_steps == 2:
        order = sample_chain(rng)
    else:
        raise ValueError("composite tasks chain one or two experts")
    payload = DOMAINS["copy"].sample_payload(rng)
    return CompositeTask(order=order, payload=payload)


def subtask_tokens(step_index: int, carried: str | None, task_text: str) -> list[int]:
    """Planner-side encoding of one subtask: neutral tag, the step index as a
    digit (what tells "route the next stage" from "stop"), carried context and
    query, then the indicator token the routing readout attends from."""
    body = (carried + CARRY_SEP if carried else "") + task_text
    return [BOS] + encode(NEUTRAL_TAG + str(min(step_index, 9)) + body) + [INDICATOR]


def step_prompt_tokens(carried: str | None, task_text: str) -> list[int]:
    """Decode-side prompt for executing one subtask on a routed expert."""
    body = (carried + CARRY_SEP if carried else "") + task_text
    return [BOS] + encode(NEUTRAL_TAG + body + EQ)
