"""The benchmark's trace targets name functions that exist.

``perfbench`` wraps each of its ``layers.TARGETS`` by name when it traces a
run, so a renamed or moved function would otherwise fail only in a traced
benchmark run. This test reads the target list and changes nothing.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.append(ROOT)

from perfbench.layers import TARGETS  # noqa: E402


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
def test_every_trace_target_names_a_function_of_ccoe(target):
    module = importlib.import_module(target.module)
    if "." in target.attr:
        # a method is wrapped on the class that defines it
        cls_name, meth = target.attr.split(".")
        assert callable(vars(getattr(module, cls_name)).get(meth))
    else:
        assert callable(getattr(module, target.attr, None))
