"""Spans recorded around calls into the program's public functions.

A traced run wraps public functions and methods of the program's
modules from outside (the program's files are never edited): each call
becomes a :class:`Span` with a name, start, end, parent span and run
id.  Spans stay in memory and are written out when the run ends.

Campaign pool workers are forked after the wrappers are installed, so
they inherit them.  A worker cannot hand its memory back, so it appends
each finished span to its own file under ``Tracer.worker_dir``; the
parent reads those files once the pool has stopped.

A layer's self time is its span's duration minus the durations of its
child spans.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from collections import defaultdict
from pathlib import Path

_MISSING = object()


@dataclasses.dataclass
class Span:
    id: str
    name: str
    parent: str | None
    run: str
    pid: int
    start: float
    end: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span stack, span store and the patches that feed them."""

    def __init__(self) -> None:
        self.owner_pid = os.getpid()
        self.run = ""
        self.worker_dir: Path | None = None
        self.spans: list[Span] = []
        self._pid = self.owner_pid
        self._stack: list[Span] = []
        self._counter = 0
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ----------------------------------------------------

    def _sync(self) -> None:
        """Drop state inherited across a fork: a worker starts empty."""
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._stack = []
            self.spans = []

    def begin(self, name: str, attrs: dict | None = None) -> Span:
        self._sync()
        self._counter += 1
        parent = self._stack[-1].id if self._stack else None
        span = Span(
            f"{self._pid}.{self._counter}", name, parent, self.run, self._pid,
            time.perf_counter(), attrs=dict(attrs or {}),
        )
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._pid == self.owner_pid:
            self.spans.append(span)
        elif self.worker_dir is not None:
            path = self.worker_dir / f"worker-{self._pid}.jsonl"
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(dataclasses.asdict(span)) + "\n")

    def take(self) -> list[Span]:
        """The parent's spans so far plus every worker file; clears both."""
        spans, self.spans = self.spans, []
        if self.worker_dir is not None and self.worker_dir.is_dir():
            for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
                with open(path, encoding="utf-8") as handle:
                    spans.extend(Span(**json.loads(line)) for line in handle)
                path.unlink()
        return spans

    # -- wrapping -----------------------------------------------------

    def _patch(self, owner, key, value, *, item: bool = False) -> None:
        if item:
            saved = owner[key]
            owner[key] = value
        else:
            saved = vars(owner).get(key, _MISSING)
            setattr(owner, key, value)
        self._patches.append((owner, key, saved, item))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a ``name`` span around every call of ``owner.attr``."""
        self._patch(owner, attr, self.wrapped(getattr(owner, attr), name))

    def wrapped(self, original, name: str, attrs: dict | None = None):
        """``original`` recording a ``name`` span with ``attrs`` per call.

        A call made while a span of the same name is innermost (a
        wrapped function calling another wrapped one of the same layer)
        is not recorded again, so layer totals never double count.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._sync()
            stack = tracer._stack
            if stack and stack[-1].name == name:
                return original(*args, **kwargs)
            span = tracer.begin(name, attrs)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(span)

        return wrapper

    def wrap_measured(self, owner, attr: str, name: str, reading) -> None:
        """Like :meth:`wrap`, with ``reading(args)`` taken before and after.

        The span's attrs hold the difference of every integer in the two
        readings, plus the reading's other entries as they were after the
        call.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                before = reading(args)
                result = original(*args, **kwargs)
                after = reading(args)
                span.attrs = {
                    key: value - before[key] if isinstance(value, int) else value
                    for key, value in after.items()
                }
                return result
            finally:
                tracer.end(span)

        self._patch(owner, attr, wrapper)

    def wrap_item(self, mapping: dict, key, value) -> None:
        self._patch(mapping, key, value, item=True)

    def uninstall(self) -> None:
        """Restore everything :meth:`wrap` and friends replaced."""
        while self._patches:
            owner, key, saved, item = self._patches.pop()
            if item:
                owner[key] = saved
            elif saved is _MISSING:
                delattr(owner, key)
            else:
                setattr(owner, key, saved)


def write_spans(path: Path, spans: list[Span]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(dataclasses.asdict(span)) + "\n")


class SpanIndex:
    """Totals, self times and ancestry over one pass's spans."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.by_id = {span.id: span for span in spans}
        self.child_seconds: dict[str, float] = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                self.child_seconds[span.parent] += span.seconds

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(span.seconds for span in self.named(name))

    def self_total(self, name: str) -> float:
        return sum(
            span.seconds - self.child_seconds[span.id] for span in self.named(name)
        )

    def ancestors(self, span: Span) -> list[str]:
        names = []
        while span.parent is not None and span.parent in self.by_id:
            span = self.by_id[span.parent]
            names.append(span.name)
        return names

    def top_level(self, pid: int) -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.pid == pid]
