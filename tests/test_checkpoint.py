"""Checkpoint format: round trips, and header edits that no longer match the
tensor records."""

import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccoe.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    _loads,
    digest,
    load_checkpoint,
    save_checkpoint,
)
from ccoe.errors import ConfigError, CorruptionError, VersionError
from ccoe.model import ModelConfig, init_backbone, init_expert, param_bytes
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


BODY = 16 + 32  # magic, version, header length, header checksum


def split(path):
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    return json.loads(blob[BODY : BODY + hlen]), blob[BODY + hlen :]


def frame(hjson, records, version=FORMAT_VERSION):
    """A file of ``hjson`` header bytes over ``records``; from version 2 on,
    with the checksum over everything up to the records."""
    prefix = MAGIC + struct.pack("<IQ", version, len(hjson))
    if version == 1:
        return prefix + hjson + records
    return prefix + hashlib.sha256(prefix + hjson).digest() + hjson + records


def rewrite(path, header, records):
    """Write ``header`` over ``records`` with a records digest and a header
    checksum that match them, so only the header's description of the
    tensors can be wrong."""
    header = dict(header, digest=hashlib.sha256(records).hexdigest())
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(frame(hjson, records))


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


@pytest.mark.parametrize("edit", [
    {"expert_id": None}, {"domain": None}, {"expert_id": "3"}, {"expert_id": 3.5},
    {"domain": 7},
])
@pytest.mark.parametrize("kind", ["expert", "planner"])
def test_missing_or_mistyped_identity_raises_corruption(tmp_path, kind, edit):
    path = tmp_path / "c.ccoe"
    save_checkpoint(components()[kind], path)
    header, records = split(path)
    header.update(edit)
    header = {k: v for k, v in header.items() if v is not None}  # None: drop the field
    rewrite(path, header, records)
    with pytest.raises(CorruptionError):
        load_checkpoint(path)


@pytest.mark.parametrize("hjson", [b"[1,2]", b"3", b'"expert"', b"null", b"{", b"\xff"])
def test_header_that_is_not_a_json_object_raises_corruption(tmp_path, hjson):
    path = tmp_path / "c.ccoe"
    save_checkpoint(components()["expert"], path)
    path.write_bytes(frame(hjson, split(path)[1]))
    with pytest.raises(CorruptionError):
        load_checkpoint(path)


def test_a_directory_path_raises_a_typed_error_naming_it(tmp_path):
    with pytest.raises(ConfigError, match=str(tmp_path)):
        load_checkpoint(tmp_path)


def test_version_1_file_raises_version_error(tmp_path):
    # version 1 had no header checksum: the header followed the length
    path = tmp_path / "v1.ccoe"
    save_checkpoint(components()["expert"], path)
    header, records = split(path)
    header["format"] = 1
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(frame(hjson, records, version=1))
    with pytest.raises(VersionError):
        load_checkpoint(path)


def test_every_cut_of_a_saved_expert_raises_corruption(tmp_path):
    path = tmp_path / "e.ccoe"
    save_checkpoint(components()["expert"], path)
    blob = path.read_bytes()
    for n in range(len(blob)):
        with pytest.raises(CorruptionError):
            _loads(blob[:n])


@settings(deadline=None, max_examples=60)
@given(kind=st.sampled_from(["backbone", "expert", "planner"]),
       cut=st.floats(0.0, 1.0, exclude_max=True))
def test_cut_checkpoint_raises_corruption(tmp_path_factory, kind, cut):
    path = tmp_path_factory.mktemp("cut") / "c.ccoe"
    save_checkpoint(components()[kind], path)
    blob = path.read_bytes()
    path.write_bytes(blob[: int(cut * len(blob))])
    with pytest.raises(CorruptionError):
        load_checkpoint(path)


def test_every_single_bit_flip_of_a_saved_expert_is_detected(tmp_path):
    path = tmp_path / "e.ccoe"
    save_checkpoint(init_expert(SMALL, 4, "flip", (2,), Rng(42), inner_width=2), path)
    blob = bytearray(path.read_bytes())
    assert _loads(bytes(blob)).domain == "flip"
    for bit in range(8 * len(blob)):
        blob[bit // 8] ^= 1 << bit % 8
        with pytest.raises((CorruptionError, VersionError)):
            _loads(bytes(blob))
        blob[bit // 8] ^= 1 << bit % 8


def reference_records(tensors):
    """The records section built whole, one ``tobytes`` per tensor."""
    out = b""
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        nb = name.encode("utf-8")
        out += struct.pack("<I", len(nb)) + nb + struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape)
        out += struct.pack("<Q", arr.nbytes) + arr.tobytes()
    return out


@pytest.mark.parametrize("kind", ["backbone", "expert", "planner"])
def test_saved_records_and_digest_match_the_whole_section_reference(tmp_path, kind):
    component = components()[kind]
    path = tmp_path / "c.ccoe"
    returned = save_checkpoint(component, path)
    header, records = split(path)
    assert records == reference_records(component.named_parameters())
    assert returned == header["digest"] == digest(component) == hashlib.sha256(records).hexdigest()
    assert header["data_bytes"] == sum(a.nbytes for a in component.named_parameters().values())


def traced_peak(fn):
    """Bytes allocated at the peak of ``fn()``, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


SLACK = 64 * 1024


@pytest.fixture
def saved_backbone(tmp_path, target_config):
    backbone = init_backbone(target_config, Rng(43)).freeze()
    path = tmp_path / "backbone.ccoe"
    save_checkpoint(backbone, path)
    largest = max(a.nbytes for a in backbone.params.values())
    return backbone, path, largest


def test_load_holds_the_component_plus_one_record(saved_backbone):
    backbone, path, largest = saved_backbone
    assert traced_peak(lambda: load_checkpoint(path)) <= param_bytes(backbone) + largest + SLACK


def test_save_and_digest_hold_at_most_one_record(saved_backbone, tmp_path):
    backbone, _, largest = saved_backbone
    assert traced_peak(lambda: save_checkpoint(backbone, tmp_path / "again.ccoe")) <= largest + SLACK
    assert traced_peak(lambda: digest(backbone)) <= largest + SLACK


def test_a_record_length_of_2_to_the_40_is_refused_before_it_is_allocated(saved_backbone):
    _, path, largest = saved_backbone
    header, records = split(path)
    (nlen,) = struct.unpack_from("<I", records, 0)
    (rank,) = struct.unpack_from("<I", records, 4 + nlen)
    at = 4 + nlen + 4 + 4 * rank
    records = records[:at] + struct.pack("<Q", 2**40) + records[at + 8 :]
    rewrite(path, header, records)  # the records digest matches the edit

    def load():
        with pytest.raises(CorruptionError):
            load_checkpoint(path)

    assert traced_peak(load) <= largest + SLACK


# digest and file SHA-256 of each freshly initialised component at the fixture
# shape: names, shapes, dict order and random draws all feed these bits
PINNED_INIT = {
    "backbone": ("0aa19ff74ac6bb26f5fdf2be0b9006942c4cc3780a0c369544158600878b9606",
                 "82736dfb5acc5e29251b2e5628bf4a0b7925367fd0fbf23b3847b2861a935e6e"),
    "cold expert": ("b103bd04e0970b99d8593b7c845c769beaa939e762053e2f08b4209593f69d0d",
                    "a9e11d08f4a5b677e9e0db0ad8efad5704279e79f67201e90e691900f7d977ca"),
    "warm expert": ("f89f551ed2aa411832247146bf70e938972710cbcbc328d5c73647da5c944a9a",
                    "d537b321b605eac66ab879219b562bef11bc04987ee1764741ea68509275a4f7"),
    "planner": ("0408b6afe1d390d15464743efb61322cc817a003f9a510ed7f457c7b93943ea5",
                "a9654bb86b2cd074611406e8b5edc8b765e1cbbea3accb278b4b485756829d3f"),
}


def test_initial_components_keep_their_pinned_bits(tmp_path, target_config):
    rng = Rng(11686)
    backbone = init_backbone(target_config, rng.child("backbone"))
    built = {
        "backbone": backbone,
        "cold expert": init_expert(target_config, 3, "copy", (1, 6), rng.child("cold"),
                                   inner_width=48),
        "warm expert": init_expert(target_config, 4, "reverse", (0, 4), rng.child("warm"),
                                   warm_from=backbone),
        "planner": init_planner(target_config, [0, 2, 5], (2, 5), rng.child("planner")),
    }
    for name, component in built.items():
        path = tmp_path / f"{name.replace(' ', '-')}.ccoe"
        save_checkpoint(component, path)
        got = (digest(component), hashlib.sha256(path.read_bytes()).hexdigest())
        assert got == PINNED_INIT[name], name
