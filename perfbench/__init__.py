"""Benchmark for the ``ccoe`` runtime: serving and training workloads with
end-to-end metrics, and a separately traced run for per-module metrics.

Run ``python3 perfbench/run.py --workload all`` from the repository root; see
``perfbench/README.md``.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("serve_mixed", "serve_longprompt", "train_phases")


def load_ccoe():
    """Import ``ccoe`` from this checkout's ``src`` and nowhere else.

    A copy installed elsewhere must not stand in for the code under test, so
    a checkout without ``src/ccoe`` fails here with ``ImportError``.
    """
    src = ROOT / "src"
    if not (src / "ccoe" / "__init__.py").is_file():
        raise ImportError(f"no ccoe package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    ccoe = importlib.import_module("ccoe")
    if Path(ccoe.__file__).resolve().parent != (src / "ccoe").resolve():
        raise ImportError(f"ccoe imported from {ccoe.__file__}, not from {src}")
    return ccoe
