"""Binary checkpoint format with integrity digests.

Layout (format version 2): magic ``CCOE`` | u32 format version | u64 header
length | 32-byte SHA-256 over the magic, version, length and header |
header JSON (UTF-8, sorted keys, no whitespace) | tensor records. A record
is u32 name length, name, u32 rank, u32 dims, u64 payload bytes and raw
little-endian float32 data; records are in name order. The header carries
the records' SHA-256 and data byte count, so the two digests cover every
byte, and save -> load -> save is byte-identical. A load sizes every array
from the header, held to the shapes its kind and config call for and to the
file's length, before it reads a record, and holds the component plus one
read buffer; a save or ``digest`` builds at most one record's copy. A
short, damaged or malformed file raises ``CorruptionError``, and another
format version ``VersionError``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import struct
from typing import Any, BinaryIO

import numpy as np

from .errors import ConfigError, CorruptionError, VersionError
from .model import (
    BackboneModel,
    ExpertSubnetwork,
    ModelConfig,
    backbone_param_shapes,
    expert_param_shapes,
)
from .routing import PlannerExpert, scorer_param_shapes

MAGIC = b"CCOE"
FORMAT_VERSION = 2
PREFIX = 16  # magic, version and header length
CHECKSUM = 32  # SHA-256 of the prefix and the header


def _record_head(name: str, shape: tuple[int, ...]) -> bytes:
    """A record's bytes before its data: name, rank, dims and data length."""
    nb = name.encode("utf-8")
    return struct.pack(
        f"<I{len(nb)}sI{len(shape)}IQ", len(nb), nb, len(shape), *shape, 4 * math.prod(shape)
    )


def _data(arr: np.ndarray) -> np.ndarray:
    """A byte view of a C-contiguous array's data."""
    return arr.reshape(-1).view(np.uint8)


def _records(tensors: dict[str, np.ndarray]):
    """The canonical records section as (head, data) per record: the bytes
    before its data and a byte view of its little-endian float32 array."""
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        yield _record_head(name, arr.shape), _data(arr)


def digest(component) -> str:
    """SHA-256 over the component's canonical serialized tensor records."""
    h = hashlib.sha256()
    for head, data in _records(component.named_parameters()):
        h.update(head)
        h.update(data)
    return h.hexdigest()


def _component_header(component) -> dict[str, Any]:
    if isinstance(component, BackboneModel):
        return {
            "kind": "backbone",
            "config": component.config.to_dict(),
            "frozen": component.frozen,
        }
    if isinstance(component, ExpertSubnetwork):
        return {
            "kind": "expert",
            "expert_id": component.expert_id,
            "domain": component.domain,
            "positions": list(component.positions),
            "inner_width": component.inner_width,
        }
    if isinstance(component, PlannerExpert):
        return {
            "kind": "planner",
            "expert_id": component.expert.expert_id,
            "domain": component.expert.domain,
            "positions": list(component.expert.positions),
            "inner_width": component.expert.inner_width,
            "indicator_ids": list(component.indicator_ids),
            "uncalibrated": sorted(component.uncalibrated),
        }
    raise TypeError(f"cannot checkpoint component of type {type(component)!r}")


def save_checkpoint(component, path: str | os.PathLike) -> str:
    """Write the component atomically; returns the payload digest."""
    tensors = component.named_parameters()
    header = _component_header(component)
    header["format"] = FORMAT_VERSION
    header["digest"] = digest(component)
    header["data_bytes"] = sum(4 * a.size for a in tensors.values())
    header["tensors"] = [
        {"name": n, "shape": list(tensors[n].shape)} for n in sorted(tensors)
    ]
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    prefix = MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(hjson))
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(prefix + hashlib.sha256(prefix + hjson).digest() + hjson)
        for head, data in _records(tensors):
            f.write(head)
            f.write(data)
    os.replace(tmp, path)
    return header["digest"]


# A header field of the wrong type or value raises one of these while it is
# parsed; a load turns each into ``CorruptionError``.
_HEADER_ERRORS = (ConfigError, AttributeError, KeyError, TypeError, ValueError, struct.error)


def _expected_shapes(header: dict[str, Any]) -> dict[str, tuple[int, ...]]:
    """Name -> shape of the tensors the header's kind, config, positions,
    inner width and indicator ids call for. An expert or planner header has no
    model width; it is read from a listed norm gain or score head shape."""
    kind = header.get("kind")
    if kind == "backbone":
        return backbone_param_shapes(ModelConfig.from_dict(header["config"]))
    listed = {t["name"]: t["shape"] for t in header["tensors"]}
    d = next((math.prod(s) for n, s in sorted(listed.items()) if n.endswith(("ln.g", "scorer.fw"))), 0)
    expert = expert_param_shapes(tuple(header["positions"]), int(header["inner_width"]), d)
    if kind == "expert":
        return expert
    if kind == "planner":
        shapes = {"expert." + n: shape for n, shape in expert.items()}
        shapes["indicators"] = (len(header["indicator_ids"]) + 1, d)
        shapes.update({"scorer." + n: shape for n, shape in scorer_param_shapes(d).items()})
        return shapes
    raise CorruptionError(f"unknown component kind {kind!r}")


def _check_tensors(path, header: dict[str, Any]) -> dict[str, tuple[int, ...]]:
    """The name -> shape of each record, in file order. Raises
    ``CorruptionError`` unless the header names a known kind, lists exactly
    the tensors it describes, by name in order, and counts their data bytes."""
    want = dict(sorted(_expected_shapes(header).items()))
    got = {t["name"]: tuple(t["shape"]) for t in header["tensors"]}
    if list(got.items()) != list(want.items()) or len(got) != len(header["tensors"]):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise CorruptionError(
            f"{path}: tensors do not match the {header.get('kind')} header: missing {missing[:3]}, "
            f"unexpected {extra[:3]}, wrong shape {[(n, got[n], want[n]) for n in wrong[:3]]}"
        )
    data_bytes = sum(4 * math.prod(shape) for shape in want.values())
    if header["data_bytes"] != data_bytes:
        raise CorruptionError(
            f"{path}: header counts {header['data_bytes']} data bytes, its tensors {data_bytes}"
        )
    return want


def _read_header(path, f, size: int) -> dict[str, Any]:
    """Check the prefix and the header checksum of the ``size``-byte file
    ``f``, reading up to the end of the header; returns the header."""
    body = PREFIX + CHECKSUM
    lead = f.read(body)
    if lead[:4] != MAGIC:
        raise CorruptionError(f"{path}: bad magic")
    if len(lead) < 8:
        raise CorruptionError(f"{path}: truncated before the format version")
    (version,) = struct.unpack_from("<I", lead, 4)
    if version != FORMAT_VERSION:
        raise VersionError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    if len(lead) < body:
        raise CorruptionError(f"{path}: truncated before the header")
    (hlen,) = struct.unpack_from("<Q", lead, 8)
    if hlen > size - body:
        raise CorruptionError(f"{path}: truncated header")
    header_raw = f.read(hlen)
    if hashlib.sha256(lead[:PREFIX] + header_raw).digest() != lead[PREFIX:]:
        raise CorruptionError(f"{path}: header checksum mismatch")
    try:
        header = json.loads(header_raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptionError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CorruptionError(f"{path}: header is a JSON {type(header).__name__}, not an object")
    return header


def _expert(header: dict[str, Any], params: dict[str, np.ndarray]) -> ExpertSubnetwork:
    expert_id, domain = header["expert_id"], header["domain"]
    if type(expert_id) is not int or not isinstance(domain, str):
        raise TypeError(f"expert_id {expert_id!r} must be an integer and domain {domain!r} a string")
    return ExpertSubnetwork(
        expert_id=expert_id,
        domain=domain,
        positions=tuple(header["positions"]),
        inner_width=int(header["inner_width"]),
        params=params,
    )


def _build(header: dict[str, Any], tensors: dict[str, np.ndarray]):
    """The component a checked header and its tensors describe."""
    kind = header["kind"]
    if kind == "backbone":
        model = BackboneModel(
            config=ModelConfig.from_dict(header["config"]),
            params=tensors,
            frozen=False,
        )
        if header.get("frozen"):
            model.freeze()
        return model
    if kind == "expert":
        return _expert(header, tensors)
    # a planner: _check_tensors admits no other kind
    expert_params = {
        k.removeprefix("expert."): v for k, v in tensors.items() if k.startswith("expert.")
    }
    scorer = {
        k.removeprefix("scorer."): v for k, v in tensors.items() if k.startswith("scorer.")
    }
    return PlannerExpert(
        expert=_expert(header, expert_params),
        indicator_ids=list(header["indicator_ids"]),
        indicators=tensors["indicators"],
        scorer=scorer,
        uncalibrated=set(header.get("uncalibrated", [])),
    )


def load_checkpoint(path: str | os.PathLike):
    """Load and verify a checkpoint; returns the component. Raises
    ``CorruptionError`` for a short, damaged or malformed file,
    ``VersionError`` for another format version and ``ConfigError`` for a
    directory."""
    try:
        f = open(path, "rb")
    except IsADirectoryError as exc:
        raise ConfigError(f"{path}: a directory, not a checkpoint file") from exc
    with f:
        return _load(f, path)


def _loads(blob: bytes, path: str | os.PathLike = "<bytes>"):
    """``load_checkpoint`` of a file's bytes; ``path`` names it in errors."""
    return _load(io.BytesIO(blob), path)


def _load(f: BinaryIO, path):
    """The component in the seekable binary file ``f``: the header is checked
    first, then each record is read into an array sized by it, and hashed."""
    size = f.seek(0, os.SEEK_END)
    f.seek(0)
    header = _read_header(path, f, size)
    try:
        shapes = _check_tensors(path, header)
        heads = {name: _record_head(name, shape) for name, shape in shapes.items()}
        section = sum(map(len, heads.values())) + header["data_bytes"]
    except _HEADER_ERRORS as exc:
        raise CorruptionError(f"{path}: header does not describe a component: {exc!r}") from exc
    if size - f.tell() != section:
        raise CorruptionError(
            f"{path}: records section is {size - f.tell()} bytes, the header describes {section}"
        )
    h = hashlib.sha256()
    tensors: dict[str, np.ndarray] = {}
    for name, head in heads.items():
        if f.read(len(head)) != head:
            raise CorruptionError(f"{path}: record {name!r} does not match the header")
        tensors[name] = arr = np.empty(shapes[name], dtype="<f4")
        data = _data(arr)
        if f.readinto(data) != len(data):
            raise CorruptionError(f"{path}: truncated tensor record {name!r}")
        h.update(head)
        h.update(data)
    if h.hexdigest() != header.get("digest"):
        raise CorruptionError(f"{path}: payload digest mismatch")
    try:
        return _build(header, tensors)
    except _HEADER_ERRORS as exc:
        raise CorruptionError(f"{path}: header does not describe a component: {exc!r}") from exc
