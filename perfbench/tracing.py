"""Span tracing installed from outside the program, and span arithmetic.

:func:`install` wraps public functions of each layer — the engine entry
points, the kernel, the proximity step and the connection index — so
every call records one span: name, start, end, parent span and, for
request-level calls, the request.  Wrappers are installed only in the
traced run; spans stay in memory until the run ends.  Parents follow
synchronous nesting on one thread (a ``ContextVar``); the kernel call a
micro-batch runs on the serving worker is matched to the requests it
answered by request identity instead.

A span's *self* time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import time
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import ConnectionIndex, ProximityIndex, S3kSearch
from repro.engine import Engine, QueryRequest


@dataclass
class Span:
    ident: int
    parent: int
    name: str
    start: float
    end: float
    #: the request (``QueryRequest``) of an ``asearch`` span, the
    #: requests of a ``search_many`` span, the column count of a
    #: ``step_many`` span, the request id of a client HTTP call; spans
    #: the server child wrote carry ``[request id, batcher wait]`` and
    #: column counts instead
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.ident, self.parent, self.name, self.start, self.end, self.info]


class Tracer:
    """In-memory span recorder; records only while :attr:`active`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        self._ids = itertools.count(1)
        self._current: ContextVar[int] = ContextVar("perfbench_span", default=0)
        self._restore: List[Tuple[object, str, object]] = []
        #: summed per-call differences of counters read around wrapped calls
        self.counters: Dict[str, float] = {}

    def record(self, name: str, start: float, end: float, info: object = None) -> None:
        if self.active:
            self.spans.append(
                Span(next(self._ids), self._current.get(), name, start, end, info)
            )

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        info: Optional[Callable] = None,
        counters: Optional[Callable[[object], Dict[str, float]]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        *info* maps the call's positional arguments to the span's detail;
        *counters* reads counters off the call's receiver, and their
        difference across the call is added to :attr:`counters`.
        """
        raw = owner.__dict__[attr]
        original = raw if counters is None else self._counting(raw, counters)
        tracer = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if not tracer.active:
                    return await original(*args, **kwargs)
                ident, token, start = tracer._enter()
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer._exit(ident, token, name, start, info, args)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                ident, token, start = tracer._enter()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._exit(ident, token, name, start, info, args)

        self._restore.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def _counting(self, original: Callable, read: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def counted(receiver, *args, **kwargs):
            if not tracer.active:
                return original(receiver, *args, **kwargs)
            before = read(receiver)
            try:
                return original(receiver, *args, **kwargs)
            finally:
                for name, value in read(receiver).items():
                    tracer.counters[name] = (
                        tracer.counters.get(name, 0) + value - before.get(name, 0)
                    )

        return counted

    def _enter(self):
        ident = next(self._ids)
        parent = self._current.get()
        token = self._current.set(ident)
        return ident, (token, parent), time.perf_counter()

    def _exit(self, ident, token, name, start, info, args) -> None:
        end = time.perf_counter()
        context_token, parent = token
        self._current.reset(context_token)
        detail = info(*args) if info is not None else None
        self.spans.append(Span(ident, parent, name, start, end, detail))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _request_of(_self, query, *rest) -> QueryRequest:
    return QueryRequest.from_obj(query)


def _requests_of(_self, queries, *rest) -> List[QueryRequest]:
    return [QueryRequest.from_obj(query) for query in queries]


def _columns_of(_self, borders, *rest) -> int:
    return int(borders.shape[1])


def kernel_counters(kernel: S3kSearch) -> Dict[str, float]:
    """The kernel's certification, phase-time and result-cache counters.

    Read around each kernel call: a fallback rebuild replaces the kernel
    and restarts its counters, so differences of ``Engine.stats()``
    taken across a rebuild would be wrong.
    """
    counters = {
        name: float(value)
        for name, value in kernel.exploration_stats.items()
        if isinstance(value, (int, float))
    }
    cache = kernel.cache_stats
    counters["cache_hits"] = cache["hits"]
    counters["cache_misses"] = cache["misses"]
    return counters


def install(tracer: Tracer, request_info: Callable = _request_of) -> Tracer:
    """Wrap the public functions of every traced layer; *request_info*
    gives the detail of each ``Engine.asearch`` span."""
    tracer.wrap(Engine, "asearch", "engine.asearch", request_info)
    tracer.wrap(Engine, "amutate", "engine.amutate")
    tracer.wrap(Engine, "search", "engine.search")
    tracer.wrap(S3kSearch, "__init__", "search.kernel_build")
    # Kernel counters describe the batched path only (``search_many``).
    tracer.wrap(S3kSearch, "search", "search.search")
    tracer.wrap(
        S3kSearch, "search_many", "search.search_many", _requests_of,
        counters=kernel_counters,
    )
    tracer.wrap(S3kSearch, "apply_deltas", "search.apply_deltas")
    tracer.wrap(ProximityIndex, "step_many", "prox.step_many", _columns_of)
    tracer.wrap(ConnectionIndex, "ensure_all", "connection_index.ensure_all")
    tracer.wrap(ConnectionIndex, "apply_delta", "connection_index.apply_delta")
    return tracer


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def merged(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Sorted, disjoint union of *intervals*."""
    out: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    return sum(end - start for start, end in merged(intervals))


def overlap_length(
    a: Iterable[Tuple[float, float]], b: Iterable[Tuple[float, float]]
) -> float:
    """Length of (union of *a*) intersected with (union of *b*)."""
    left, right = merged(a), merged(b)
    i = j = 0
    total = 0.0
    while i < len(left) and j < len(right):
        low = max(left[i][0], right[j][0])
        high = min(left[i][1], right[j][1])
        if low < high:
            total += high - low
        if left[i][1] < right[j][1]:
            i += 1
        else:
            j += 1
    return total


def self_seconds(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.ident: span.duration
        - overlap_length(children.get(span.ident, ()), [(span.start, span.end)])
        for span in spans
    }


def in_windows(span: Span, windows: Sequence[Tuple[float, float]]) -> bool:
    return any(low <= span.start and span.end <= high for low, high in windows)


def kernel_waits(
    requests: Sequence[Span], batches: Sequence[Span]
) -> List[float]:
    """Per request: its span minus the overlap with the kernel call that
    computed its answer (the micro-batch holding an equal request)."""
    by_request: Dict[QueryRequest, List[Span]] = {}
    for batch in batches:
        for request in set(batch.info or ()):
            by_request.setdefault(request, []).append(batch)
    waits = []
    for span in requests:
        covered = 0.0
        for batch in by_request.get(span.info, ()):
            overlap = min(span.end, batch.end) - max(span.start, batch.start)
            covered = max(covered, overlap)
        waits.append(span.duration - covered)
    return waits


def load_spans(rows: Iterable[list], offset: int) -> List[Span]:
    """Spans another process wrote; *offset* keeps their ids apart from ours."""
    spans = []
    for ident, parent, name, start, end, info in rows:
        spans.append(
            Span(ident + offset, parent + offset if parent else 0, name, start, end, info)
        )
    return spans
