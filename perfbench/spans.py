"""In-memory spans, wrappers that record them, and self-time arithmetic.

Wrappers are installed from outside the program: every module of the package
that binds the wrapped function gets the wrapper in place of the original
(``forward_batch``, for one, is bound in ``net``, ``training``, ``routing`` and
``decoding``), and a method is replaced on its class. Nothing is installed
unless :func:`install` is called, so an untraced run executes the program
unchanged.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

Hook = Callable[["Tracer", tuple, dict], "dict | None"]
PostHook = Callable[[dict, tuple, dict, object], None]


@dataclass(slots=True)
class Span:
    id: int
    parent: int  # -1 for a root
    request: int  # shared by every span of one operation
    name: str
    start: float
    end: float = 0.0
    attrs: dict | None = None


class Tracer:
    """Collects spans in memory; :meth:`write` saves them when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.request = -1
        self.tag = ""  # label the harness sets around a phase, e.g. "MD"

    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def open(self, name: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1].id if self._stack else -1
        span = Span(len(self.spans), parent, self.request, name, time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def root(self, name: str, request: int, tag: str = ""):
        """One operation of the workload: a root span with its own request id."""
        self.request, self.tag = request, tag
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)
            self.request, self.tag = -1, ""

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "parent": s.parent, "request": s.request, "name": s.name,
                    "start": s.start, "end": s.end, "attrs": s.attrs,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Per span, its duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``attr`` is a module attribute or ``Class.method``."""

    module: str
    attr: str
    name: str  # span name
    pre: Hook | None = None  # attrs known before the call
    post: PostHook | None = None  # adds attrs from the result


def _wrapper(tracer: Tracer, t: Target, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = t.pre(tracer, args, kwargs) if t.pre else None
        span = tracer.open(t.name, attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if t.post:
            if span.attrs is None:
                span.attrs = {}
            t.post(span.attrs, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer, targets: list[Target], package: str) -> list[tuple]:
    """Replace each target in every module of ``package`` that binds it.

    Returns the replaced bindings as ``(owner, attr, original)`` for
    :func:`uninstall`.
    """
    patched: list[tuple] = []
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    for t in targets:
        home = sys.modules[t.module]
        if "." in t.attr:
            cls_name, meth = t.attr.split(".")
            owner = getattr(home, cls_name)
            original = owner.__dict__[meth]
            setattr(owner, meth, _wrapper(tracer, t, original))
            patched.append((owner, meth, original))
            continue
        original = getattr(home, t.attr)
        wrapped = _wrapper(tracer, t, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
                    patched.append((m, key, original))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for owner, key, original in reversed(patched):
        setattr(owner, key, original)
