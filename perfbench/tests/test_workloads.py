import itertools
import os

import pytest

from ccoe import domains as dom
from ccoe.tokenizer import BOS, EOS, decode

from perfbench import workloads as wl


def take(name, seed, n):
    return list(itertools.islice(wl.GENERATORS[name](seed), n))


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_same_seed_same_stream_other_seed_other_stream(name):
    assert take(name, 5, 60) == take(name, 5, 60)
    assert take(name, 5, 60) != take(name, 6, 60)


def test_serve_mixed_shape():
    ops = take("serve_mixed", 3, 2000)
    kinds = [op.kind for op in ops]
    assert [i for i, k in enumerate(kinds, 1) if k == "update"] == list(range(25, 2001, 25))
    served = [op for op in ops if op.kind != "update"]
    for start in range(0, len(served) - 2, 3):
        assert [op.kind for op in served[start:start + 3]].count("routed") == 1
    queries = [op.query for op in served if op.kind == "routed"]
    pool = wl.routed_pool()
    assert sorted(queries[:len(pool)]) == sorted(pool)  # one whole pass first
    singles = sum(len(q.split(dom.TASK_SEP)[0]) == 1 for q in pool)
    assert 2 * singles == len(pool)
    for op in ops:
        if op.kind == "gated":
            assert wl.MIXED_PROMPT_TOKENS[0] <= len(op.prompt) <= wl.MIXED_PROMPT_TOKENS[1]
            assert op.prompt[0] == BOS and decode(op.prompt[1:2]) == dom.NEUTRAL_TAG
            assert decode(op.prompt[-1:]) == dom.EQ and EOS not in op.prompt
            assert op.domain in dom.DOMAINS and op.max_new == wl.MIXED_MAX_NEW
        elif op.kind == "routed":
            markers, payload = op.query.split(dom.TASK_SEP)
            assert 1 <= len(markers) <= 2 and payload.isdigit()
            if len(markers) == 2:  # uppercase leaves the digits, so it only comes last
                assert markers[0] != dom.DOMAINS["uppercase"].tag
        else:
            assert 0 <= op.expert_id < len(dom.DOMAIN_NAMES)


def test_serve_longprompt_shares_one_prefix_per_domain():
    ops = take("serve_longprompt", 4, 300)
    texts = {}
    for op in ops:
        texts.setdefault(op.domain, []).append(decode(op.prompt))
        assert len(op.prompt) + op.max_new <= 256
        assert op.max_new == wl.LONG_MAX_NEW
    assert set(texts) == set(dom.DOMAIN_NAMES)
    shared = {d: os.path.commonprefix(t) for d, t in texts.items()}
    assert all(len(p) >= wl.PREFIX_TOKENS[0] for p in shared.values())
    assert len({p[:20] for p in shared.values()}) == len(dom.DOMAIN_NAMES)
    props = wl.stream_properties(ops)
    assert props["prefix_seen_share"] > 0.85
    assert props["routed_share"] == 0 and props["update_share"] == 0
    lo, hi = wl.PREFIX_TOKENS
    assert lo < props["prompt_tokens"]["min"] and props["prompt_tokens"]["max"] <= hi + 12


def test_few_shot_prefix_holds_worked_examples():
    import random

    prefix = wl.few_shot_prefix(random.Random(0), "reverse", 60)
    assert len(prefix) == 60
    for example in prefix.split(dom.CARRY_SEP)[:-1]:
        payload, answer = example.split(dom.EQ)
        assert answer == payload[::-1]


def test_stream_properties_arithmetic():
    def gated(domain, *tokens):
        return wl.Op("gated", domain=domain, prompt=tokens)

    ops = [
        gated("copy", 1, 2, 3, 4),
        gated("copy", 1, 2, 9),  # 2 tokens already seen with this domain
        gated("reverse", 1, 2, 3),  # another domain: nothing seen
        wl.Op("routed", query="c:12"),
        gated("reverse", 1, 2, 3, 4),  # 3 seen
        wl.Op("update", expert_id=0),
    ]
    props = wl.stream_properties(ops)
    assert props["prefix_seen_share"] == pytest.approx(5 / 14)
    assert props["domain_switch_share"] == pytest.approx(1 / 3)
    assert props["routed_share"] == pytest.approx(1 / 6)
    assert props["update_share"] == pytest.approx(1 / 6)
    assert props["prompt_tokens"]["min"] == 3 and props["prompt_tokens"]["max"] == 4


def test_train_cycles_carry_one_seed_per_strategy():
    cycles = take("train_phases", 1, 3)
    assert all(len(c.expert_seeds) == len(wl.STRATEGIES) for c in cycles)
    assert len({c.pretrain_seed for c in cycles}) == 3
