"""The benchmark still serves against ``ccoe``.

``perfbench`` drives ``ccoe`` through its public functions, so a routing or
decoding change that breaks it would otherwise show only as a failed
benchmark run. This test serves the head of a ``serve_mixed`` stream through
the benchmark's harness and changes nothing under ``perfbench``.
"""

import itertools
import sys
from pathlib import Path

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.append(ROOT)

from perfbench import harness, workloads  # noqa: E402
from perfbench.reference import Reference  # noqa: E402

KINDS = {"gated", "routed", "update"}


def test_the_benchmark_serves_every_op_kind_and_its_checks_pass(tmp_path):
    reg = harness.set_up(harness.write_components(tmp_path), "serve_mixed")
    out, ref, seen = harness.Outcome(), Reference(), set()
    for i, op in enumerate(itertools.islice(workloads.serve_mixed(1), 100)):
        harness.serve_op(reg, op, i, out, ref)
        seen.add(op.kind)
        if seen == KINDS:
            break
    harness.check_served(reg, out)
    assert seen == KINDS
    assert out.pending  # a gated request was re-decoded without the cache
    assert out.failed == 0, out.errors
