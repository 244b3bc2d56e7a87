"""Checkpoint format: round trips, and header edits that no longer match the
tensor records."""

import hashlib
import json
import struct

import pytest

from ccoe.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from ccoe.errors import CorruptionError
from ccoe.model import ModelConfig, init_backbone, init_expert
from ccoe.rng import Rng
from ccoe.routing import init_planner

SMALL = ModelConfig(n_layers=4, d_model=8, n_heads=2, d_ff=12, vocab_size=20, max_seq=16)


def components():
    rng = Rng(41)
    return {
        "backbone": init_backbone(SMALL, rng.child("bb")),
        "expert": init_expert(SMALL, 3, "copy", (1, 3), rng.child("ex"), inner_width=10),
        "planner": init_planner(SMALL, [0, 2, 5], (0, 2), rng.child("pl")),
    }


def split(path):
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    return json.loads(blob[16 : 16 + hlen]), blob[16 + hlen :]


def rewrite(path, header, records):
    """Write ``header`` over ``records`` with a digest that matches them, so
    only the header's description of the tensors can be wrong."""
    header = dict(header, digest=hashlib.sha256(records).hexdigest())
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(hjson)) + hjson + records)


@pytest.mark.parametrize("kind", ["backbone", "expert", "planner"])
def test_save_load_save_is_byte_identical(tmp_path, kind):
    first, second = tmp_path / "a.ccoe", tmp_path / "b.ccoe"
    save_checkpoint(components()[kind], first)
    save_checkpoint(load_checkpoint(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_rewrite_without_edits_still_loads(tmp_path):
    path = tmp_path / "e.ccoe"
    save_checkpoint(components()["expert"], path)
    rewrite(path, *split(path))
    loaded = load_checkpoint(path)
    assert loaded.positions == (1, 3)


HEADER_EDITS = [
    ("expert", "positions", [1, 2]),
    ("expert", "positions", [1]),
    ("expert", "inner_width", 12),
    ("backbone", "config", dict(SMALL.to_dict(), n_layers=3)),
    ("backbone", "config", dict(SMALL.to_dict(), d_ff=10)),
    ("backbone", "config", dict(SMALL.to_dict(), n_heads=3)),
    ("backbone", "config", {"layers": 4}),
    ("planner", "positions", [0, 3]),
    ("planner", "inner_width", 8),
    ("planner", "indicator_ids", [0, 2]),
    ("planner", "kind", "adapter"),
    ("expert", "positions", None),
]


@pytest.mark.parametrize("kind,field,value", HEADER_EDITS)
def test_header_that_does_not_match_the_tensors_raises_corruption(tmp_path, kind, field, value):
    path = tmp_path / "c.ccoe"
    save_checkpoint(components()[kind], path)
    header, records = split(path)
    header[field] = value
    rewrite(path, header, records)
    with pytest.raises(CorruptionError):
        load_checkpoint(path)

