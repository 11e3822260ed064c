"""In-memory spans around the public functions of melodygen modules.

A ``Tracer`` records one span per call of each wrapped function: its name,
start and end (``time.perf_counter`` seconds), the index of the enclosing
span, the benchmark operation (one request, chain or evaluation) it belongs
to, and per-call attributes such as batch rows or bytes read. Spans stay in
memory until the run ends and are then written out as JSON lines.

A span's self time is its duration minus the time its child spans cover.
The pipeline is single-threaded, so children nest strictly inside their
parent and that cover is the sum of their durations.

``Instrumentation`` replaces a function everywhere it is looked up: for a
module-level function, every attribute of every loaded ``melodygen`` module
bound to that function object (``pipeline`` imports ``load_corpus`` by name,
``corpus`` imports ``read_wav`` and ``parse_tokens`` by name); for a method,
the attribute of its class. ``uninstall`` puts the originals back, so
untraced code runs without any wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "melodygen"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 for a root
    op: int = -1  # benchmark operation the span belongs to
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def begin(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent, op=self._op, attrs=attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self.spans[idx].end = self.clock()

    @contextmanager
    def span(self, name: str, **attrs):
        idx = self.begin(name, **attrs)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx)

    @contextmanager
    def operation(self, name: str, op: int, **attrs):
        """Root span of one benchmark operation; every span inside carries ``op``."""
        outer, self._op = self._op, op
        try:
            with self.span(name, **attrs) as s:
                yield s
        finally:
            self._op = outer

    def wrap(self, fn, name: str, on_call=None):
        """``fn`` recorded as span ``name``; ``on_call(span, args, kwargs, result)``
        runs after the span closes, so its cost lands in the parent's self time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if on_call is not None:
                on_call(self.spans[idx], args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.duration
        out: dict[str, dict] = {}
        for s, c in zip(self.spans, covered):
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += s.duration - c
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                    "parent": s.parent, "op": s.op, **s.attrs}) + "\n")


class Instrumentation:
    """Wrap a fixed set of melodygen functions in a tracer's spans.

    ``targets`` maps a dotted name relative to the ``melodygen`` package
    (``"signal.read_wav"``, ``"smallnet.Optimizer.step"``) to an optional
    ``on_call`` hook; the dotted name is also the span name.
    """

    def __init__(self, tracer: Tracer, targets: dict):
        self.tracer = tracer
        self.targets = targets
        self.missing: set[str] = set()  # targets the package no longer has
        self._undo: list[tuple[object, str, object]] = []

    @staticmethod
    def _modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("instrumentation is already installed")
        for name, on_call in self.targets.items():
            module_name, *path = name.split(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                owner = getattr(module, path[0]) if len(path) == 2 else module
                raw = owner.__dict__[path[-1]]
            except (ImportError, AttributeError, KeyError):
                # a layer the program has since removed reads as never called
                self.missing.add(name)
                continue
            if owner is module:
                traced = self.tracer.wrap(raw, name, on_call)
                for m in self._modules():
                    for attr, value in list(vars(m).items()):
                        if value is raw:
                            self._set(m, attr, traced)
            elif isinstance(raw, classmethod):
                self._set(owner, path[1], classmethod(self.tracer.wrap(raw.__func__, name, on_call)))
            else:
                self._set(owner, path[1], self.tracer.wrap(raw, name, on_call))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self.tracer
        finally:
            self.uninstall()
