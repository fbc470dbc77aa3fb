"""Long-lived MEM serving: admission control, backpressure, graceful drain.

:class:`BatchRunner` schedules a *known* stream of queries; a server faces
the opposite shape — requests arrive whenever clients send them, and the
machine must stay responsive while saying "no" cheaply once it is full.
:class:`MemServer` is that front end (the engine behind ``gpumem serve``):

- **Admission control** — a bounded FIFO queue of admitted requests.
  :meth:`submit` never blocks: when the queue is full it sheds the request
  with a structured :class:`~repro.errors.ServerOverloadedError` (depth and
  limit as attributes) so clients can back off programmatically.
- **Execution backpressure** — at most ``max_in_flight`` requests execute
  at once (a semaphore between the dispatcher and the worker pool), layered
  under the admission bound exactly like :class:`BatchRunner`'s window.
- **Tiered execution** — ``tier="thread"`` runs requests on an in-process
  pool over the shared warm session; ``tier="process"`` ships each request
  to the :mod:`repro.core.procpool` worker pool (true multi-core, shared
  2-bit reference segment, per-process warm sessions).
- **Graceful drain** — :meth:`close` stops admission, finishes (or, with
  ``drain=False``, cancels) everything already admitted, and waits for
  in-flight work; no request is ever left with an unresolved future.
- **Live telemetry** — with ``telemetry_path`` set, a daemon thread
  appends a JSONL heartbeat every ``telemetry_interval`` seconds: queue
  depth, in-flight count, admission/shed/drain counters, and request
  latency p50/p95/p99 straight from the ``serve.request_seconds``
  histogram. ``gpumem stats`` renders the stream; :meth:`snapshot` is the
  same data as a dict for in-process consumers.

Every request records a ``serve.request`` span and ``serve.*`` metrics
through the standard ``tracer=`` argument (see ``docs/observability.md``).
In the process tier each worker ships its spans and metric deltas home
with the result (:mod:`repro.obs.shipping`), so the parent trace shows
worker execution lanes and the parent registry aggregates worker-side
``proc.*`` / ``session.cache.*`` series.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.lock_tracker import new_lock
from repro.core.params import GpuMemParams
from repro.core.pipeline import PipelineStats, as_codes
from repro.core.session import MemSession
from repro.errors import (
    InvalidParameterError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.obs.shipping import merge_payload
from repro.obs.tracer import Tracer, get_tracer
from repro.types import MatchSet

#: Serving tiers: in-process threads over the shared session, or the
#: process pool of :mod:`repro.core.procpool`.
SERVE_TIERS = ("thread", "process")

#: Dispatcher shutdown sentinel (FIFO-ordered behind admitted requests).
_STOP = object()


@dataclass(frozen=True)
class ServeResult:
    """Outcome of one served request (errors isolated, like a batch)."""

    index: int
    label: str | None
    #: The :class:`~repro.types.MatchSet` on success, else ``None``.
    value: Any
    #: The exception on failure, else ``None``.
    error: BaseException | None
    #: Wall seconds from admission to completion (queue wait included).
    seconds: float
    ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ok", self.error is None)


@dataclass
class _Request:
    index: int
    label: str | None
    query: Any
    future: Future
    t_admitted: float


class MemServer:
    """A long-lived MEM extraction server over one warm reference.

    Parameters mirror :class:`~repro.core.batch.BatchRunner` where they
    overlap; the serving-specific knobs are ``tier`` (execution substrate),
    ``max_in_flight`` (concurrent executions), ``admission_limit``
    (queued-but-not-executing bound; default ``2 * max_in_flight``), and
    ``telemetry_path`` / ``telemetry_interval`` (append a
    :meth:`snapshot` JSONL heartbeat to that file every interval seconds;
    off when the path is ``None``).

    Example::

        with MemServer(reference, min_length=40, workers=4) as server:
            future = server.submit(read, label="read-1")
            result = future.result()      # a ServeResult
    """

    def __init__(
        self,
        session_or_reference,
        params: GpuMemParams | None = None,
        /,
        *,
        tier: str = "thread",
        workers: int | None = None,
        max_in_flight: int | None = None,
        admission_limit: int | None = None,
        telemetry_path=None,
        telemetry_interval: float = 1.0,
        tracer: Tracer | None = None,
        lock_factory=None,
        **kwargs,
    ):
        if tier not in SERVE_TIERS:
            raise InvalidParameterError(
                f"tier must be one of {SERVE_TIERS}, got {tier!r}"
            )
        self.tier = tier
        if isinstance(session_or_reference, MemSession):
            if params is not None or kwargs:
                raise InvalidParameterError(
                    "pass params/kwargs only when building a new session, "
                    "not alongside an existing MemSession"
                )
            self.session = session_or_reference
            self.tracer = get_tracer(tracer) if tracer else self.session.tracer
            lock_factory = lock_factory or self.session._lock_factory
        else:
            self.session = MemSession(
                session_or_reference, params, tracer=tracer,
                lock_factory=lock_factory, **kwargs
            )
            self.tracer = self.session.tracer
        if workers is not None and workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers) if workers else min(8, os.cpu_count() or 1)
        if max_in_flight is None:
            max_in_flight = self.workers
        if max_in_flight < 1:
            raise InvalidParameterError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        self.max_in_flight = int(max_in_flight)
        if admission_limit is None:
            admission_limit = 2 * self.max_in_flight
        if admission_limit < 1:
            raise InvalidParameterError(
                f"admission_limit must be >= 1, got {admission_limit}"
            )
        self.admission_limit = int(admission_limit)

        self._queue: queue.Queue = queue.Queue(maxsize=self.admission_limit)
        self._sem = threading.Semaphore(self.max_in_flight)
        self._state_lock = (lock_factory or new_lock)("serve.state")  # guards: _closed, _cancelling, _next_index, _counts, _in_flight
        self._closed = False
        self._cancelling = False
        self._next_index = 0
        self._in_flight = 0
        self._counts = {
            "submitted": 0, "completed": 0, "errors": 0,
            "shed": 0, "cancelled": 0,
        }
        self._proc_spec_base = None
        if self.tier == "process":
            # Publish the reference once, up front: submissions then only
            # pickle the tiny locator + query bytes per request.
            from repro.core import procpool

            self._proc_spec_base = procpool.make_spec(
                self.session.reference, self.session.params,
                tracer=self.tracer, store=self.session.store,
            )
        # Validate everything *before* starting threads or the pool: a
        # constructor that raises after ``_dispatcher.start()`` leaks a
        # live dispatcher thread and executor the caller can never join
        # (found by the resource audit; the half-built server has no
        # handle to close()).
        if telemetry_interval <= 0:
            raise InvalidParameterError(
                f"telemetry_interval must be > 0, got {telemetry_interval}"
            )
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_in_flight, thread_name_prefix="gpumem-serve"
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="gpumem-serve-dispatch", daemon=True
        )
        self._dispatcher.start()
        self.telemetry_path = Path(telemetry_path) if telemetry_path else None
        self.telemetry_interval = float(telemetry_interval)
        self._telemetry_stop = threading.Event()
        self._telemetry_lock = (lock_factory or new_lock)("serve.telemetry")  # guards: telemetry file appends
        self._telemetry: threading.Thread | None = None
        if self.telemetry_path is not None:
            self._telemetry = threading.Thread(
                target=self._telemetry_loop, name="gpumem-serve-telemetry",
                daemon=True,
            )
            self._telemetry.start()

    # -- client surface ---------------------------------------------------------
    def submit(self, query, *, label: str | None = None) -> Future:
        """Admit one request; returns a future resolving to a ServeResult.

        Never blocks: raises :class:`ServerOverloadedError` when the
        admission queue is full and :class:`ServerClosedError` after
        :meth:`close` — both *before* accepting the work.
        """
        metrics = self.tracer.metrics
        with self._state_lock:
            if self._closed:
                raise ServerClosedError("server is draining or closed")
            index = self._next_index
            self._next_index += 1
        future: Future = Future()
        request = _Request(
            index=index, label=label, query=query, future=future,
            t_admitted=time.perf_counter(),
        )
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            with self._state_lock:
                self._counts["shed"] += 1
            if metrics.enabled:
                metrics.counter("serve.requests", outcome="shed").inc()
            raise ServerOverloadedError(
                self._queue.qsize(), self.admission_limit
            ) from None
        with self._state_lock:
            self._counts["submitted"] += 1
        if metrics.enabled:
            metrics.counter("serve.requests", outcome="admitted").inc()
            metrics.gauge("serve.queue_depth").set(self._queue.qsize())
        return future

    def request(self, query, *, label: str | None = None,
                timeout: float | None = None) -> ServeResult:
        """Synchronous convenience: submit and wait for the result."""
        return self.submit(query, label=label).result(timeout=timeout)

    def stats(self) -> dict:
        """Counters + live depths (safe to call concurrently)."""
        with self._state_lock:
            counts = dict(self._counts)
            counts["in_flight"] = self._in_flight
        counts["queue_depth"] = self._queue.qsize()
        counts["admission_limit"] = self.admission_limit
        counts["max_in_flight"] = self.max_in_flight
        counts["tier"] = self.tier
        return counts

    def snapshot(self) -> dict:
        """One telemetry heartbeat: :meth:`stats` + request-latency summary.

        What the telemetry thread appends as a JSONL line (and what
        ``gpumem stats`` renders): wall-clock timestamp, queue/in-flight
        depths, lifetime counters, and — when metrics are on —
        count/mean/p50/p95/p99 of ``serve.request_seconds``, estimated
        from the histogram buckets
        (:meth:`~repro.obs.metrics.Histogram.summary`).
        """
        snap = self.stats()
        snap["ts"] = time.time()
        metrics = self.tracer.metrics
        if metrics.enabled:
            summary = metrics.histogram("serve.request_seconds").summary()
            snap["latency"] = summary or None
        return snap

    # -- lifecycle --------------------------------------------------------------
    def close(self, *, drain: bool = True) -> dict:
        """Stop admission, finish (or cancel) queued work, wait, report.

        ``drain=True`` (default) completes every admitted request before
        returning; ``drain=False`` fails still-queued requests with
        :class:`ServerClosedError` and only waits for in-flight ones.
        Idempotent. Returns the final :meth:`stats` plus drain seconds.
        """
        t0 = time.perf_counter()
        with self._state_lock:
            already = self._closed
            self._closed = True
            if not drain:
                self._cancelling = True
        if not already:
            self._queue.put(_STOP)  # FIFO: lands behind all admitted work
        self._dispatcher.join()
        self._drain_leftovers()
        self._pool.shutdown(wait=True)
        if self._telemetry is not None:
            self._telemetry_stop.set()
            self._telemetry.join()
            if not already:
                self._emit_snapshot()  # final heartbeat: the drained state
        seconds = time.perf_counter() - t0
        metrics = self.tracer.metrics
        if metrics.enabled and not already:
            metrics.histogram("serve.drain_seconds").observe(seconds)
            metrics.gauge("serve.queue_depth").set(0)
        out = self.stats()
        out["drain_seconds"] = seconds
        return out

    def __enter__(self) -> "MemServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals --------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            request = self._queue.get()
            if request is _STOP:
                return
            with self._state_lock:
                cancelling = self._cancelling
            if cancelling:
                self._cancel(request)
                continue
            # Blocks while max_in_flight requests execute (held outside any
            # lock); released by the request itself in _execute.
            self._sem.acquire()
            self._pool.submit(self._execute, request)

    def _drain_leftovers(self) -> None:
        """Fail anything that slipped into the queue behind the sentinel."""
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                return
            if request is not _STOP:
                self._cancel(request)

    def _cancel(self, request: _Request) -> None:
        with self._state_lock:
            self._counts["cancelled"] += 1
        metrics = self.tracer.metrics
        if metrics.enabled:
            metrics.counter("serve.requests", outcome="cancelled").inc()
        request.future.set_result(
            ServeResult(
                index=request.index, label=request.label, value=None,
                error=ServerClosedError("server closed before execution"),
                seconds=time.perf_counter() - request.t_admitted,
            )
        )

    def _execute(self, request: _Request) -> None:
        tracer = self.tracer
        metrics = tracer.metrics
        wait_seconds = time.perf_counter() - request.t_admitted
        with self._state_lock:
            self._in_flight += 1
            in_flight = self._in_flight
        if metrics.enabled:
            metrics.histogram("serve.queue_wait_seconds").observe(wait_seconds)
            metrics.gauge("serve.in_flight").set(in_flight)
        value: Any = None
        error: BaseException | None = None
        try:
            with tracer.span(
                "serve.request", cat="serve",
                index=request.index, label=request.label or "",
                tier=self.tier,
            ) as sp:
                if self.tier == "process":
                    value = self._run_process(request)
                else:
                    value = self.session.find_mems(as_codes(request.query))
                sp.set(n_mems=len(value))
        except Exception as exc:  # noqa: BLE001 - per-request isolation
            error = exc
        finally:
            self._sem.release()
        seconds = time.perf_counter() - request.t_admitted
        with self._state_lock:
            self._in_flight -= 1
            in_flight = self._in_flight
            self._counts["completed"] += 1
            if error is not None:
                self._counts["errors"] += 1
        if metrics.enabled:
            outcome = "ok" if error is None else "error"
            metrics.counter("serve.requests", outcome=outcome).inc()
            metrics.histogram("serve.request_seconds").observe(seconds)
            metrics.gauge("serve.in_flight").set(in_flight)
        request.future.set_result(
            ServeResult(
                index=request.index, label=request.label, value=value,
                error=error, seconds=seconds,
            )
        )

    def _run_process(self, request: _Request) -> MatchSet:
        """Ship one request to the process pool and rebuild the MatchSet."""
        from dataclasses import replace

        from repro.core import procpool

        codes = as_codes(request.query)
        spec = replace(self._proc_spec_base, query=codes.tobytes())
        payload = procpool.get_pool(self.workers).submit(
            procpool.run_query_task, spec, request.index, request.label
        ).result()
        # Merge before checking ok: a failing request's worker spans and
        # counters still belong in the parent trace.
        merge_payload(self.tracer, payload.get("obs"))
        if not payload["ok"]:
            raise payload["error"]
        return MatchSet(
            payload["array"], stats=PipelineStats.from_dict(payload["stats"])
        )

    # -- telemetry ---------------------------------------------------------------
    def _telemetry_loop(self) -> None:
        while not self._telemetry_stop.wait(self.telemetry_interval):
            self._emit_snapshot()

    def _emit_snapshot(self) -> None:
        """Append one :meth:`snapshot` as a JSONL line (errors swallowed)."""
        try:
            line = json.dumps(self.snapshot(), sort_keys=True)
            with self._telemetry_lock:
                with self.telemetry_path.open("a", encoding="utf-8") as fh:
                    fh.write(line + "\n")
        except Exception:  # pragma: no cover - telemetry must never kill serving
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MemServer(tier={self.tier!r}, workers={self.workers}, "
            f"max_in_flight={self.max_in_flight}, "
            f"admission_limit={self.admission_limit})"
        )
