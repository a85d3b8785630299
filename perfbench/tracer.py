"""In-memory spans recorded around calls into the program's public functions.

The benchmark never edits the program: in a traced run it replaces a few
public methods with wrappers that open a span, call the original and close
the span, and it restores the originals afterwards.  Spans stay in memory
and are written out once, when the run ends.  Calls made inside process
workers are not seen.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Union


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: Optional[int]
    #: The fit or request this span belongs to.
    trace_id: Optional[str]
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans; a per-thread stack gives each span its parent."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.trace_id: Optional[str] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        stack = self._stack()
        span = Span(name=name, start=self.clock(), end=0.0, span_id=next(self._ids),
                    parent=stack[-1].span_id if stack else None,
                    trace_id=self.trace_id, attrs=dict(attrs))
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.end = self.clock()
            with self._lock:
                self.spans.append(span)

    def patch(self, owner: type, attr: str, name: Union[str, Callable[..., str]],
              on_result: Optional[Callable[[Span, object, tuple], None]] = None) -> None:
        """Wrap ``owner.attr`` (function, classmethod or staticmethod) in a span.

        ``name`` may be a callable receiving the call's arguments.
        ``on_result(span, result, args)`` runs inside the span after the call
        returns, to attach counters read from the result.
        """
        raw = vars(owner)[attr]
        wrapper_type = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if wrapper_type else raw

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            with self.span(span_name) as span:
                result = func(*args, **kwargs)
                if on_result is not None:
                    on_result(span, result, args)
            return result

        setattr(owner, attr, wrapper_type(traced) if wrapper_type else traced)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def write(self, path: str, extra: Optional[dict] = None) -> None:
        payload = {"spans": [asdict(span) for span in self.spans]}
        payload.update(extra or {})
        with open(path, "w") as handle:
            json.dump(payload, handle, default=str)


def _covered(intervals: List[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Per span name: total duration minus the time its child spans cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: Dict[str, float] = {}
    for span in spans:
        covered = _covered([(max(child.start, span.start), min(child.end, span.end))
                            for child in children.get(span.span_id, ())])
        out[span.name] = out.get(span.name, 0.0) + span.duration - covered
    return out


def totals(spans: List[Span]) -> Dict[str, float]:
    """Per span name: summed inclusive duration."""
    out: Dict[str, float] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + span.duration
    return out
