"""In-memory span tracing by replacing module attributes with timing wrappers.

A wrapper is installed where the caller looks the name up: a module
attribute for module-level functions (``gibbs.branch_prob_negative``,
``kernels.cholesky_factor``) and a class attribute for methods
(``ConvIndexMap.im2col``). Each thread keeps its own span stack, so
chains running in threads nest correctly. A span's self time is its
duration minus the time its direct children cover.
"""
from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: "Span | None"
    end: float = 0.0
    child_time: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Collects spans from wrapped callables; ``install``/``restore`` swap
    the wrappers in and out so traced and untraced code can alternate."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, self.clock(), stack[-1] if stack else None)
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self.begin(name)
        try:
            yield span
        finally:
            self.finish(span)

    def wrap(self, owner, attr: str, name: str, label=None, observe=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper.

        ``label(args)`` appends a suffix to the span name (for example the
        layer index); ``observe(span, args, kwargs, call)`` runs the call
        itself and may record attributes on the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.begin(name if label is None else name + label(args))
            try:
                if observe is None:
                    return original(*args, **kwargs)
                return observe(span, args, kwargs, original)
            finally:
                tracer.finish(span)

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self, spans=None) -> dict[str, dict[str, float]]:
        """Per span name: call count and summed self time."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self": 0.0})
        for span in self.spans if spans is None else spans:
            entry = out[span.name]
            entry["calls"] += 1
            entry["self"] += span.self_time
        return dict(out)

    def roots(self, name: str) -> list[Span]:
        """Finished spans called ``name`` whose ancestors carry another name."""
        out = []
        for span in self.spans:
            if span.name != name:
                continue
            parent = span.parent
            while parent is not None and parent.name != name:
                parent = parent.parent
            if parent is None:
                out.append(span)
        return out

    def descendants(self, roots: list[Span]) -> list[Span]:
        """Every finished span nested under one of ``roots``, roots included."""
        root_ids = {id(r) for r in roots}
        out = []
        for span in self.spans:
            node = span
            while node is not None and id(node) not in root_ids:
                node = node.parent
            if node is not None:
                out.append(span)
        return out
