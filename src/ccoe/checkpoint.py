"""Binary checkpoint format with integrity digests.

Layout (format version 2): magic ``CCOE`` | u32 format version | u64 header
length | 32-byte SHA-256 over the magic, version, length and header bytes |
header JSON (UTF-8, canonical: sorted keys, no whitespace) | tensor records.
Each record is u32 name length, name bytes, u32 rank, u32 dims, u64 payload
bytes, raw little-endian float32 data; records are ordered by tensor name.
The header carries a SHA-256 over the full records section plus the count of
raw data bytes, so the header checksum and the records digest together cover
every byte of the file: a load verifies both before constructing anything,
and ledger code can equate accounted bytes with serialized payload bytes
exactly. Canonical ordering makes save -> load -> save byte-identical.

Every way a file can be short, damaged or malformed raises
``CorruptionError``; a file of another format version raises
``VersionError``.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from typing import Any

import numpy as np

from .errors import ConfigError, CorruptionError, VersionError
from .model import (
    BackboneModel,
    ExpertSubnetwork,
    ModelConfig,
    backbone_param_shapes,
    expert_param_shapes,
)

MAGIC = b"CCOE"
FORMAT_VERSION = 2
PREFIX = 16  # magic, version and header length
CHECKSUM = 32  # SHA-256 of the prefix and the header


def _records_bytes(tensors: dict[str, np.ndarray]) -> tuple[bytes, int]:
    """Canonical records section and the count of raw data bytes within it."""
    chunks: list[bytes] = []
    data_bytes = 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        nb = name.encode("utf-8")
        raw = arr.tobytes()
        data_bytes += len(raw)
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(struct.pack("<Q", len(raw)))
        chunks.append(raw)
    return b"".join(chunks), data_bytes


def digest(component) -> str:
    """SHA-256 over the component's canonical serialized tensor records."""
    records, _ = _records_bytes(component.named_parameters())
    return hashlib.sha256(records).hexdigest()


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
    # planner: imported lazily to avoid a module cycle
    from .routing import PlannerExpert

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
    records, data_bytes = _records_bytes(tensors)
    header = _component_header(component)
    header["format"] = FORMAT_VERSION
    header["digest"] = hashlib.sha256(records).hexdigest()
    header["data_bytes"] = data_bytes
    header["tensors"] = [
        {"name": n, "shape": list(tensors[n].shape)} for n in sorted(tensors)
    ]
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    prefix = MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(hjson))
    blob = prefix + hashlib.sha256(prefix + hjson).digest() + hjson + records
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(blob)
    os.replace(tmp, path)
    return header["digest"]


def _parse_records(records: bytes) -> dict[str, np.ndarray]:
    tensors: dict[str, np.ndarray] = {}
    off = 0
    total = len(records)
    try:
        while off < total:
            (nlen,) = struct.unpack_from("<I", records, off)
            off += 4
            name = records[off : off + nlen].decode("utf-8")
            off += nlen
            (rank,) = struct.unpack_from("<I", records, off)
            off += 4
            shape = struct.unpack_from(f"<{rank}I", records, off)
            off += 4 * rank
            (nbytes,) = struct.unpack_from("<Q", records, off)
            off += 8
            raw = records[off : off + nbytes]
            if len(raw) != nbytes:
                raise CorruptionError("truncated tensor record")
            off += nbytes
            arr = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
            tensors[name] = arr
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise CorruptionError(f"malformed tensor record: {exc}") from exc
    return tensors


def _expected_shapes(header: dict[str, Any], tensors: dict[str, np.ndarray]):
    """Name -> shape of the tensors the header's kind, config, positions,
    inner width and indicator ids call for. The model width, which expert and
    planner headers do not record, is read from a pre-norm gain or the score
    head; a wrong one shows as a shape mismatch."""
    kind = header.get("kind")
    if kind == "backbone":
        return backbone_param_shapes(ModelConfig.from_dict(header["config"]))
    d = next((a.size for n, a in sorted(tensors.items()) if n.endswith(("ln.g", "scorer.fw"))), 0)
    expert = expert_param_shapes(tuple(header["positions"]), int(header["inner_width"]), d)
    if kind == "expert":
        return expert
    if kind == "planner":
        shapes = {"expert." + n: shape for n, shape in expert.items()}
        shapes["indicators"] = (len(header["indicator_ids"]) + 1, d)
        shapes.update({f"scorer.{w}": (d, d) for w in ("wq", "wk", "wv", "wo")})
        shapes.update({"scorer.fw": (d,), "scorer.fb": (1,)})
        return shapes
    raise CorruptionError(f"unknown component kind {kind!r}")


def _check_tensors(path, header: dict[str, Any], tensors: dict[str, np.ndarray]) -> None:
    """Raise ``CorruptionError`` unless the header names a known kind and the
    tensors' names and shapes are exactly those it describes. A header field
    of the wrong type or value raises the error its parsing raises."""
    want = _expected_shapes(header, tensors)
    got = {n: tuple(a.shape) for n, a in tensors.items()}
    if got == want:
        return
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
    raise CorruptionError(
        f"{path}: tensors do not match the {header.get('kind')} header: missing {missing[:3]}, "
        f"unexpected {extra[:3]}, wrong shape {[(n, got[n], want[n]) for n in wrong[:3]]}"
    )


def _read_header(path, blob: bytes) -> tuple[dict[str, Any], bytes]:
    """Check the prefix and the header checksum; returns (header, records)."""
    if blob[:4] != MAGIC:
        raise CorruptionError(f"{path}: bad magic")
    if len(blob) < 8:
        raise CorruptionError(f"{path}: truncated before the format version")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != FORMAT_VERSION:
        raise VersionError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    body = PREFIX + CHECKSUM
    if len(blob) < body:
        raise CorruptionError(f"{path}: truncated before the header")
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header_raw = blob[body : body + hlen]
    if len(header_raw) != hlen:
        raise CorruptionError(f"{path}: truncated header")
    if hashlib.sha256(blob[:PREFIX] + header_raw).digest() != blob[PREFIX:body]:
        raise CorruptionError(f"{path}: header checksum mismatch")
    try:
        header = json.loads(header_raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptionError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CorruptionError(f"{path}: header is a JSON {type(header).__name__}, not an object")
    return header, blob[body + hlen :]


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
    from .routing import PlannerExpert

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
    """Load and verify a checkpoint; returns the reconstructed component.

    Raises ``CorruptionError`` for a short, damaged or malformed file,
    ``VersionError`` for a file of another format version and
    ``ConfigError`` for a path that names a directory.
    """
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except IsADirectoryError as exc:
        raise ConfigError(f"{path}: a directory, not a checkpoint file") from exc
    return _loads(blob, path)


def _loads(blob: bytes, path: str | os.PathLike = "<bytes>"):
    """``load_checkpoint`` of a file's bytes; ``path`` names it in errors."""
    header, records = _read_header(path, blob)
    if hashlib.sha256(records).hexdigest() != header.get("digest"):
        raise CorruptionError(f"{path}: payload digest mismatch")
    tensors = _parse_records(records)
    try:
        _check_tensors(path, header, tensors)
        return _build(header, tensors)
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise CorruptionError(f"{path}: header does not describe a component: {exc!r}") from exc
