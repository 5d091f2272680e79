"""In-memory span recorder for the traced run, plus the attribute patcher.

A span records its name, start, end, parent span and request id.  Spans
stay in memory while the workload runs and are written out once, when the
run ends.  Self time is a span's duration minus the time its direct child
spans cover; nothing here runs concurrently, so children never overlap.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence


@dataclasses.dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request: int = 0
    attrs: Optional[Dict[str, object]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects nested spans; request id 0 is set-up, each call gets its own."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._request = 0
        self._requests = 0

    @contextlib.contextmanager
    def span(self, name: str, new_request: bool = False, **attrs) -> Iterator[Span]:
        previous = self._request
        if new_request:
            self._requests += 1
            self._request = self._requests
        record = Span(
            name, time.perf_counter(),
            parent=self._open[-1] if self._open else None,
            request=self._request, attrs=attrs or None,
        )
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()
            self._request = previous

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable[..., Dict[str, object]]] = None,
        after: Optional[Callable[[object], Dict[str, object]]] = None,
        new_request: bool = False,
    ) -> Callable:
        """``fn`` inside a span; ``before(*args, **kwargs)`` and
        ``after(result)`` add attributes to it, outside its interval."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before is not None else {}
            with self.span(name, new_request, **attrs) as record:
                result = fn(*args, **kwargs)
            if after is not None:
                record.attrs = {**(record.attrs or {}), **after(result)}
            return result

        return traced

    def dump(self, path: Path) -> None:
        """Write every span as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            [s.name, s.start, s.end, s.parent, s.request, s.attrs] for s in self.spans
        ]
        path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "request", "attrs"], "spans": rows}
        ))


class SpanIndex:
    """Busy time, self time and counts per span family."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = spans
        self._children: Dict[int, List[int]] = defaultdict(list)
        self._by_name: Dict[str, List[int]] = defaultdict(list)
        for index, span in enumerate(spans):
            self._by_name[span.name].append(index)
            if span.parent is not None:
                self._children[span.parent].append(index)

    def ancestors(self, index: int) -> Iterator[Span]:
        parent = self.spans[index].parent
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def outermost(self, name: str) -> List[Span]:
        """Spans named ``name`` not nested inside another span of that name."""
        return [
            self.spans[index] for index in self._by_name.get(name, ())
            if all(span.name != name for span in self.ancestors(index))
        ]

    def busy(self, name: str) -> float:
        return sum(span.duration for span in self.outermost(name))

    def count(self, name: str) -> int:
        return len(self.outermost(name))

    def self_time(self, name: str) -> float:
        return sum(
            self.spans[index].duration
            - sum(self.spans[child].duration for child in self._children.get(index, ()))
            for index in self._by_name.get(name, ())
        )

    def attr_sum(self, name: str, key: str) -> float:
        return sum(
            float((span.attrs or {}).get(key, 0)) for span in self.outermost(name)
        )

    def distinct_ratio(self, name: str, key: str = "key") -> float:
        spans = self.outermost(name)
        if not spans:
            return 0.0
        return len({(span.attrs or {}).get(key) for span in spans}) / len(spans)


class Patcher:
    """Replaces attributes and puts every original back on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def wrap(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, make(getattr(owner, attr)))
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
