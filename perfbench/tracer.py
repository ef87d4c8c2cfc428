"""In-memory span tracer for the benchmark's traced run.

A span is (id, parent id, name, start, end). Spans of one traced pass share
the tracer's run id. A layer's self time is its span's duration minus the
part of that interval its child spans cover. Spans stay in memory until the
pass ends; `write` then dumps them as JSON lines.

Functions are traced from outside the package by rebinding them: `install`
replaces a function in every module namespace that holds it (a function
imported with `from .encoders import patch_tokens_fwd` is a second binding
that must be replaced too) and methods on their class. `restore` puts every
original back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float


@dataclass(frozen=True)
class Target:
    """A function or method to trace, named by its defining module.

    qualname is an attribute of the module ("linear_fwd") or a method of one
    of its classes ("AdamW.step"). probe, when given, is called after each
    call as probe(args, kwargs, result) to record computed counts. With
    span=False the call is only probed, not timed.
    """

    module: str
    qualname: str
    span_name: str
    probe: Callable | None = None
    span: bool = True


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for c in sorted(children[s.id], key=lambda c: c.start):
            c_lo, c_hi = max(c.start, s.start), min(c.end, s.end)
            if c_hi <= c_lo:
                continue
            if hi is None or c_lo > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_lo, c_hi
            else:
                hi = max(hi, c_hi)
        if hi is not None:
            covered += hi - lo
        out[s.id] = (s.end - s.start) - covered
    return out


def aggregate(spans) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, total self seconds)."""
    selfs = self_times(spans)
    agg: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for s in spans:
        entry = agg[s.name]
        entry[0] += 1
        entry[1] += selfs[s.id]
    return {name: (calls, total) for name, (calls, total) in agg.items()}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name, sid, parent, start) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append(Span(sid, parent, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, *opened)

    def wrap(self, fn, name: str, probe=None, span: bool = True):
        if not span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                probe(args, kwargs, result)
                return result
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, sid, parent, start)
            if probe is not None:
                probe(args, kwargs, result)
            return result
        return traced

    def install(self, targets, package: str) -> None:
        """Rebind every target in each loaded module of `package` that holds it."""
        for t in targets:
            importlib.import_module(t.module)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for t in targets:
            owner = sys.modules[t.module]
            *cls_path, attr = t.qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(original, t.span_name, t.probe, t.span)
            if cls_path:
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"run_id": self.run_id, **asdict(s)}) + "\n")
