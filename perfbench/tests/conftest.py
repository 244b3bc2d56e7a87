"""Make the benchmark package and this checkout's ``ccoe`` importable."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import load_ccoe  # noqa: E402

load_ccoe()
