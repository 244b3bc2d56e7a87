"""A fixed reference loop that tracks how fast the machine runs right now.

On a shared machine the speed available to one process drifts: on a 2-core
host a fixed NumPy loop ran at 195k to 360k iterations per second within 90
seconds, and request latency moved with it. A time divided by the time of the
reference loop taken just before is steadier than the raw time: over 90
seconds of identical requests on that host, the median latency of 6-second
windows varied with a coefficient of variation of 9.8%, and its ratio to this
loop with 3.9%.

The loop imitates in plain NumPy one token through eight decoder layers with
a short KV cache: many small array operations issued from Python, which is
where ``ccoe`` spends its time in serving and, at these sizes, in training.
It runs no ``ccoe`` code, so a change to ``ccoe`` moves the ratio by its full
effect.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np

WINDOW = 8  # samples in the running median
LAYERS, D, HEADS, FF = 8, 64, 4, 128
CACHE = 32  # cached positions the loop attends over


def _norm(x):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    return xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)


def _softmax(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class Reference:
    """Times the reference loop; :meth:`sample` returns the running median of
    the last ``WINDOW`` timings in milliseconds."""

    def __init__(self):
        rng = np.random.default_rng(0)

        def w(*shape):
            return (rng.standard_normal(shape) * 0.1).astype(np.float32)

        self._layers = [{"q": w(D, D), "k": w(D, D), "v": w(D, D), "o": w(D, D),
                         "f1": w(D, FF), "f2": w(FF, D)} for _ in range(LAYERS)]
        self._keys = w(LAYERS, HEADS, CACHE, D // HEADS)
        self._recent: deque[float] = deque(maxlen=WINDOW)
        for _ in range(WINDOW):
            self.sample()

    def _loop(self) -> None:
        x = np.ones(D, dtype=np.float32)
        for i, p in enumerate(self._layers):
            h = _norm(x)
            q = (h @ p["q"]).reshape(HEADS, D // HEADS)
            _k, _v = h @ p["k"], h @ p["v"]
            probs = _softmax((self._keys[i] * q[:, None, :]).sum(axis=-1) * 0.25)
            x = x + (probs[:, :, None] * self._keys[i]).sum(axis=1).reshape(D) @ p["o"]
            x = x + np.tanh(_norm(x) @ p["f1"]) @ p["f2"]

    def sample(self) -> float:
        t0 = time.perf_counter()
        self._loop()
        self._recent.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(self._recent)
