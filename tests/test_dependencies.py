"""The runtime dependency stays NumPy."""

import json
import subprocess
import sys
from pathlib import Path

import numpy

import ccoe

# ``-S`` skips site start-up, whose .pth files may load modules of their own;
# the probe puts ccoe and numpy on the path by hand.
PROBE = """
import json, sys
sys.path[:0] = {paths!r}
import ccoe
print(json.dumps(sorted(set(sys.modules) - {{"__main__"}})))
"""


def test_import_ccoe_loads_only_the_standard_library_and_numpy():
    paths = [str(Path(m.__file__).resolve().parents[1]) for m in (ccoe, numpy)]
    out = subprocess.run([sys.executable, "-S", "-c", PROBE.format(paths=paths)],
                         capture_output=True, text=True, timeout=60, check=True)
    modules = set(json.loads(out.stdout))
    loaded = {m.split(".")[0] for m in modules}
    assert {"ccoe", "numpy"} <= loaded
    # the command line is an entry point: the package never imports it
    assert not {"ccoe.cli", "argparse"} & modules
    assert sorted(loaded - set(sys.stdlib_module_names) - {"ccoe", "numpy"}) == []
