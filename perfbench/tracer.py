"""Outside-in span tracer: wraps public functions of the program under test.

The benchmark never edits the program. Instead, like a profiler, it replaces
a function at the name its caller looks up (``repro.core.vectorized.
common_prefix_len`` rather than ``repro.index.compare.common_prefix_len``,
so extension inside the tile stage is told apart from extension inside the
host merge), records one span per call, and restores every name afterwards.

Spans live in memory (name, start, end, parent, request id, thread) and are
written out once, when the benchmark ends. A span's self time is its
duration minus the time its direct children cover; children are the spans
opened on the same thread while it was the innermost open span.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

_MISSING = object()


@dataclass
class Span:
    """One wrapped call (or one benchmark operation, for root spans)."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: object
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class WrapSpec:
    """Which name to replace, and what to record around each call.

    ``owner`` is a module or a class; ``attr`` the name looked up on it.
    ``on_return(tracer, args, kwargs, result)`` adds work counters after a
    call; ``rid_from_args(args, kwargs)`` starts a new request scope for the
    call's extent (for calls made on server threads).
    """

    owner: object
    attr: str
    span: str
    on_return: object = None
    rid_from_args: object = None


class OutsideInTracer:
    """Span and counter recorder with install/restore of wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[tuple[object, str], float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._next_id = 0

    # -- request scopes and root spans ---------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def rid(self):
        """The request id of the calling thread (``None`` outside requests)."""
        return getattr(self._local, "rid", None)

    @contextmanager
    def request(self, rid, name: str = "op"):
        """Run the body as request ``rid`` under a root span named ``name``."""
        previous = self.rid
        self._local.rid = rid
        try:
            with self._span(name):
                yield
        finally:
            self._local.rid = previous

    @contextmanager
    def _span(self, name: str):
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, name, start, end, parent, self.rid,
                        threading.get_ident())
            with self._lock:
                self.spans.append(span)

    def record(self, name: str, start: float, end: float, rid) -> None:
        """Add a root span timed by the caller (an open-loop request, which
        starts at its due time and ends on another thread)."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self.spans.append(
                Span(span_id, name, start, end, None, rid, threading.get_ident()))

    def count(self, name: str, value: float = 1, *, rid=_MISSING) -> None:
        """Add ``value`` to counter ``name`` of the calling thread's request
        (or of request ``rid``)."""
        key = (self.rid if rid is _MISSING else rid, name)
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    # -- wrappers --------------------------------------------------------------
    def _wrap(self, spec: WrapSpec, original):
        tracer = self

        def wrapper(*args, **kwargs):
            previous = tracer.rid
            if spec.rid_from_args is not None:
                tracer._local.rid = spec.rid_from_args(args, kwargs)
            try:
                with tracer._span(spec.span):
                    result = original(*args, **kwargs)
                if spec.on_return is not None:
                    spec.on_return(tracer, args, kwargs, result)
                return result
            finally:
                tracer._local.rid = previous

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", spec.attr)
        return wrapper

    def install(self, specs) -> None:
        """Replace every spec's name with a recording wrapper."""
        try:
            for spec in specs:
                saved = vars(spec.owner).get(spec.attr, _MISSING)
                original = getattr(spec.owner, spec.attr)
                setattr(spec.owner, spec.attr, self._wrap(spec, original))
                self._saved.append((spec.owner, spec.attr, saved))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put back every replaced name, newest first."""
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    @contextmanager
    def installed(self, specs):
        """Wrappers in place for the body; always restored afterwards."""
        self.install(specs)
        try:
            yield self
        finally:
            self.restore()

    # -- analysis --------------------------------------------------------------
    def counter_totals(self, rid=_MISSING) -> dict[str, float]:
        """Counters summed over all requests (or for one request id)."""
        out: dict[str, float] = {}
        with self._lock:
            items = list(self.counters.items())
        for (key_rid, name), value in items:
            if rid is _MISSING or key_rid == rid:
                out[name] = out.get(name, 0) + value
        return out

    def write(self, path) -> None:
        """Write spans and counters as JSON (called once, at the end)."""
        with self._lock:
            doc = {
                "spans": [asdict(s) for s in self.spans],
                "counters": [
                    {"rid": rid, "name": name, "value": value}
                    for (rid, name), value in self.counters.items()
                ],
            }
        with open(path, "w") as fh:
            json.dump(doc, fh, default=str)


def self_times(spans) -> dict[int, float]:
    """Self seconds per span id for a list of spans (see module docstring).

    Negative results (clock granularity) are clamped to zero.
    """
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    return {
        span.id: max(0.0, span.duration - child_time.get(span.id, 0.0))
        for span in spans
    }
