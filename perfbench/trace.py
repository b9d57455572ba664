"""In-memory span tracing wrapped around the program's public entry points.

The program itself carries no instrumentation: :meth:`Tracer.wrap`
replaces a function or method on its module or class with a timing
wrapper for the duration of a traced run, and :meth:`Tracer.restore` puts
the original back.  Spans are kept in memory and written out once, when
the run ends.

A span's parent is the innermost span open on the same thread when it
started.  Work that crosses threads (a request queued by a client and
served by a dispatcher) is tied together by a request id instead; batch
spans list every request they served in ``attrs["request_ids"]``.
"""

from __future__ import annotations

import bisect
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int | None = None
    request_id: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


#: ``annotate(args, kwargs, result) -> attrs`` attached to a wrapped call's span.
Annotator = Callable[[tuple, dict, Any], dict]


class Tracer:
    """Collects spans from wrapped entry points, ``call`` and ``record``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, request_id=None, annotate=None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        attrs = annotate(args, kwargs, result) if annotate is not None else {}
        self.spans.append(Span(name, start, end, span_id, parent, request_id, attrs))
        return result

    def call(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` inside a span named ``name``."""
        return self._call(name, fn, args, {})

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        request_id: str | None = None,
        **attrs: Any,
    ) -> Span:
        """Add a span measured elsewhere (e.g. a queue wait derived afterwards)."""
        span = Span(name, start, end, next(self._ids), parent, request_id, attrs)
        self.spans.append(span)
        return span

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        annotate: Annotator | None = None,
        request_id: Callable[[tuple, dict], str | None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper until :meth:`restore`."""
        own = isinstance(owner, type) and attr in owner.__dict__
        original = owner.__dict__[attr] if own else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {owner!r}.{attr}: static/class methods are not supported")
        tracer = self

        def wrapper(*args, **kwargs):
            rid = request_id(args, kwargs) if request_id is not None else None
            return tracer._call(name, original, args, kwargs, rid, annotate)

        wrapper.__wrapped__ = original
        # An inherited method is shadowed on the subclass and un-shadowed on restore.
        self._patched.append((owner, attr, original if own or not isinstance(owner, type) else None))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span), default=str) + "\n")


# ------------------------------------------------------------------ #
# Analysis
# ------------------------------------------------------------------ #
def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clipped(spans: Iterable[Span], start: float, end: float) -> list[tuple[float, float]]:
    return [(max(s.start, start), min(s.end, end)) for s in spans if s.end > start and s.start < end]


def children_of(spans: Iterable[Span]) -> dict[int, list[Span]]:
    """Index: span id -> the spans whose parent it is."""
    index: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            index[span.parent].append(span)
    return index


def descendants(children: dict[int, list[Span]], root: Span) -> list[Span]:
    """Spans opened, directly or through others, inside ``root`` (see ``children_of``)."""
    found: list[Span] = []
    frontier = [root.span_id]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kid.span_id for kid in kids)
    return found


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Per span id: duration minus the part of it that child spans cover.

    Children may overlap each other (work a span started on several
    threads); the covered part is their union, clipped to the parent, so
    overlapping children are not subtracted twice.
    """
    children = children_of(spans)
    return {
        span.span_id: span.duration
        - union_length(_clipped(children.get(span.span_id, ()), span.start, span.end))
        for span in spans
    }


@dataclass(frozen=True)
class LayerSummary:
    name: str
    count: int
    total_s: float
    self_s: float


def summarise(spans: Sequence[Span]) -> list[LayerSummary]:
    """Count, total and self time per span name, largest self time first."""
    selfs = self_times(spans)
    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span in spans:
        count[span.name] += 1
        total[span.name] += span.duration
        own[span.name] += selfs[span.span_id]
    return sorted(
        (LayerSummary(n, count[n], total[n], own[n]) for n in count),
        key=lambda row: row.self_s,
        reverse=True,
    )


def coverage(spans: Sequence[Span], root_names: Iterable[str]) -> float:
    """Share of the root spans' time that layer spans account for.

    A root is a span the benchmark opens around one whole operation (a
    fit, a request).  Its layer spans are its descendants plus, for a
    root carrying a request id, every span that served that request on
    another thread.  Time no layer span covers is unattributed.
    """
    names = set(root_names)
    roots = [span for span in spans if span.name in names]
    if not roots:
        return 0.0
    by_request: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span.name in names:
            continue
        for rid in [span.request_id, *span.attrs.get("request_ids", ())]:
            if rid is not None:
                by_request[rid].append(span)
    children = children_of(spans)
    covered = total = 0.0
    for root in roots:
        layer = descendants(children, root)
        if root.request_id is not None:
            layer.extend(by_request.get(root.request_id, ()))
        covered += union_length(_clipped(layer, root.start, root.end))
        total += root.duration
    return covered / total if total > 0 else 0.0


def within_roots(spans: Sequence[Span], root_names: Iterable[str]) -> list[Span]:
    """Non-root spans that start while some root span is open, on any thread.

    Work a root drives on another thread (a dispatcher serving a queued
    request) is not a descendant of it, but it does run inside its time;
    work outside every root (set-up, oracle checks) is left out.
    """
    names = set(root_names)
    merged: list[list[float]] = []
    for start, end in sorted((s.start, s.end) for s in spans if s.name in names):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    starts = [window[0] for window in merged]
    inside = []
    for span in spans:
        if span.name in names:
            continue
        k = bisect.bisect_right(starts, span.start) - 1
        if k >= 0 and span.start <= merged[k][1]:
            inside.append(span)
    return inside


@dataclass(frozen=True)
class CategoryTime:
    """Self time and span count of one category of layers."""

    self_s: float
    calls: int


def category_times(
    spans: Sequence[Span], root_names: Iterable[str], category: dict[str, str]
) -> dict[str, CategoryTime]:
    """Self time and calls per category over the spans inside the roots.

    ``category`` maps a span name to its category; spans it does not name
    count for none.  Every category it names is in the result, at zero if
    no span of it ran.
    """
    selfs = self_times(spans)
    own: dict[str, float] = {name: 0.0 for name in category.values()}
    calls: dict[str, int] = {name: 0 for name in category.values()}
    for span in within_roots(spans, root_names):
        name = category.get(span.name)
        if name is not None:
            own[name] += selfs[span.span_id]
            calls[name] += 1
    return {name: CategoryTime(own[name], calls[name]) for name in own}


def format_summary(rows: Sequence[LayerSummary], wall_s: float) -> str:
    lines = [f"{'layer':44s} {'count':>8s} {'total_s':>10s} {'self_s':>10s} {'self%':>6s}"]
    for row in rows:
        share = 100.0 * row.self_s / wall_s if wall_s > 0 else 0.0
        lines.append(
            f"{row.name:44s} {row.count:8d} {row.total_s:10.4f} {row.self_s:10.4f} {share:6.1f}"
        )
    return "\n".join(lines)
