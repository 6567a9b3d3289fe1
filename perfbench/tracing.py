"""In-memory span tracer with reversible timing wrappers.

A span records a name, start, end, the index of its parent span and a dict of
attributes. Spans nest by call order (one thread), are kept in a list and are
written out by the caller when the run ends. A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, **attrs) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent=parent, attrs=attrs))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        if not self._open or self._open[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self._open.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        idx = self.begin(name, **attrs)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx)

    def inside(self, suffixes: tuple[str, ...]) -> bool:
        """True when an open span's name ends with one of ``suffixes``."""
        return any(self.spans[i].name.endswith(suffixes) for i in self._open)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, attrs_fn=None, skip_inside=()):
        """Replace ``owner.attr`` with a timing wrapper until ``restore()``.

        ``name`` is a span name or ``name(args, kwargs)``; ``attrs_fn(args,
        kwargs, result)`` returns attributes and runs after the span closes.
        Calls made while a span ending in one of ``skip_inside`` is open pass
        straight through, so nested calls are not double counted.
        """
        original = getattr(owner, attr)
        own = vars(owner).get(attr, _MISSING)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if skip_inside and tracer.inside(skip_inside):
                return original(*args, **kwargs)
            idx = tracer.begin(name(args, kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(idx)
            if attrs_fn is not None:
                tracer.spans[idx].attrs.update(attrs_fn(args, kwargs, result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, own))

    def restore(self) -> None:
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(s.duration - covered)
    return out


def span_table(spans: list[Span]) -> dict:
    """Per span name: call count, total (inclusive) seconds and self seconds."""
    table: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own
    return dict(sorted(table.items()))
