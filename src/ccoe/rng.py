"""Seeded random streams.

All randomness flows through :class:`Rng`, over NumPy's PCG64: one 64-bit
seed fixes the stream on every platform. ``child`` derives a stream from
crc32 hashes of its labels, so derivation is stable across processes.
"""

from __future__ import annotations

import zlib

import numpy as np


class Rng:
    """Deterministic random stream (NumPy PCG64)."""

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, *labels: str | int) -> "Rng":
        """Independent stream derived from this seed and a stable label path."""
        h = self.seed
        for label in labels:
            key = label if isinstance(label, str) else f"#{label}"
            h = (h * 0x100000001B3 + zlib.crc32(key.encode("utf-8"))) & 0xFFFFFFFFFFFFFFFF
        return Rng(h)

    def normal(self, shape, scale: float = 1.0) -> np.ndarray:
        return (self._gen.standard_normal(size=shape) * scale).astype(np.float32)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def choice(self, seq):
        return seq[int(self._gen.integers(0, len(seq)))]

    def uniform(self) -> float:
        return float(self._gen.random())
