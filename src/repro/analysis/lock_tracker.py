"""Runtime lock-order / deadlock sanitizer for the threaded host layer.

The static pass (:mod:`repro.analysis.concurrency_lint`) reasons about
``with`` nesting it can see; this module watches the locks that actually
get taken. A :class:`LockTracker` is an injectable factory for
``threading.Lock``/``RLock`` wrappers that record, per thread, the stack
of currently held locks. From those acquisition stacks it detects, live:

- **lock-order inversions** — lockdep-style: every ``held -> acquired``
  pair becomes an edge in a process-wide order graph (keyed by lock
  *name*, so all per-row build locks are one lock class); an edge that
  closes a cycle raises :class:`repro.errors.LockOrderError` with both
  sides' thread and acquisition-site provenance (``mode="raise"``), or
  records a :class:`LockFinding` (``mode="collect"``). Because the graph
  aggregates across threads *and time*, the AB/BA pattern is caught even
  when the schedule that would actually deadlock is never drawn — the
  same trick the SIMT sanitizer plays with barrier phases.
- **hold-while-blocked** — with :meth:`install_blocking_probes`,
  ``concurrent.futures.Future.result`` and ``queue.Queue.get`` report a
  finding when called by a thread holding any tracked lock.

Every acquisition also feeds ``lock.*`` contention metrics (acquisition
and contention counters, wait-time histograms) into an
:class:`repro.obs.metrics.MetricsRegistry`-compatible registry, so a
traced batch run shows where threads queue.

Injection points: :class:`repro.core.session.MemSession`,
:class:`repro.core.batch.BatchRunner` and the row executors create their
locks through :func:`new_lock`, which consults the installed tracker (or
the ``REPRO_LOCK_TRACKER=1`` environment switch — how CI runs the core
suites under the tracker). Tests use the ``lock_tracker`` fixture from
:mod:`repro.analysis.pytest_plugin`.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

from repro.analysis._framework import InstallSlot, Tracker, call_site
from repro.errors import LockOrderError

__all__ = [
    "SLOT",
    "AcquisitionSite",
    "LockFinding",
    "LockTracker",
    "TrackedLock",
    "active_tracker",
    "install",
    "new_lock",
    "new_rlock",
    "uninstall",
]


@dataclass(frozen=True)
class AcquisitionSite:
    """Where one lock-order edge was first observed."""

    src: str
    dst: str
    thread: str
    site: str
    #: full formatted stack, captured once per new edge (rare, so cheap)
    stack: str = field(repr=False, default="")


@dataclass(frozen=True)
class LockFinding:
    """One runtime finding (``collect`` mode, and all blocked-hold cases)."""

    kind: str  # "lock-order" | "hold-while-blocked"
    message: str
    thread: str
    locks: tuple[str, ...]
    site: str

    def format(self) -> str:
        return f"[{self.kind}] {self.message} (thread {self.thread}, {self.site})"


class TrackedLock:
    """A named ``threading.Lock``/``RLock`` that reports to its tracker."""

    __slots__ = ("tracker", "name", "reentrant", "_inner")

    def __init__(self, tracker: "LockTracker", name: str, reentrant: bool = False):
        self.tracker = tracker
        self.name = name
        self.reentrant = reentrant
        self._inner = threading.RLock() if reentrant else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        t0 = time.perf_counter()
        got = self._inner.acquire(blocking=False)
        contended = not got
        if not got:
            if not blocking:
                self.tracker._on_wait(self, 0.0, contended=True, acquired=False)
                return False
            got = self._inner.acquire(True, timeout)
        wait = time.perf_counter() - t0
        if got:
            try:
                # depth 2: caller of acquire() / the ``with`` statement
                self.tracker._on_acquired(self, wait, contended, call_site(2))
            except BaseException:
                # raise-mode LockOrderError: hand the lock back so the
                # caller's program is still in a consistent state.
                self._inner.release()
                raise
        else:
            self.tracker._on_wait(self, wait, contended=True, acquired=False)
        return got

    def release(self) -> None:
        self.tracker._on_released(self)
        self._inner.release()

    def locked(self) -> bool:
        if self.reentrant:  # RLock has no .locked() before 3.12
            if getattr(self._inner, "_is_owned", lambda: False)():
                return True  # held by *this* thread (try-acquire would lie)
            if self._inner.acquire(blocking=False):
                self._inner.release()
                return False
            return True
        return self._inner.locked()

    def __enter__(self) -> bool:
        t0 = time.perf_counter()
        got = self._inner.acquire(blocking=False)
        contended = not got
        if not got:
            self._inner.acquire()
        wait = time.perf_counter() - t0
        try:
            self.tracker._on_acquired(self, wait, contended, call_site(2))
        except BaseException:
            self._inner.release()
            raise
        return True

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "RLock" if self.reentrant else "Lock"
        return f"TrackedLock({self.name!r}, {kind})"


class _Held:
    """One entry of a thread's held-lock stack."""

    __slots__ = ("lock", "site", "count")

    def __init__(self, lock: TrackedLock, site: str):
        self.lock = lock
        self.site = site
        self.count = 1


class LockTracker(Tracker):
    """Process-wide recorder of lock acquisition order and contention.

    In ``mode="raise"`` (default) the acquisition that closes an order
    cycle raises :class:`LockOrderError`; ``"collect"`` only records the
    :class:`LockFinding`. Hold-while-blocked conditions are always
    collected (raising inside ``Future.result`` would corrupt unrelated
    pool bookkeeping). ``metrics`` receives the live ``lock.*`` series.
    """

    noun = "lock"
    _lock: threading.Lock  # guards: _edges, findings, _n_locks

    def __init__(self, mode: str = "raise", metrics=None):
        super().__init__(mode, metrics)
        self._local = threading.local()
        #: (src, dst) lock-class pairs -> first-observation provenance
        self._edges: dict[tuple[str, str], AcquisitionSite] = {}
        self._n_locks = 0
        self._probes_installed = False
        self._orig_future_result = None
        self._orig_queue_get = None

    # -- factory interface (what gets injected) --------------------------------
    def lock(self, name: str) -> TrackedLock:
        """A tracked non-reentrant lock of lock class ``name``."""
        with self._lock:
            self._n_locks += 1
        return TrackedLock(self, name)

    def rlock(self, name: str) -> TrackedLock:
        """A tracked reentrant lock of lock class ``name``."""
        with self._lock:
            self._n_locks += 1
        return TrackedLock(self, name, reentrant=True)

    # -- per-thread held stack -------------------------------------------------
    def _stack(self) -> list[_Held]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def held(self) -> tuple[str, ...]:
        """Names of locks the *current thread* holds, outermost first."""
        return tuple(h.lock.name for h in self._stack())

    # -- acquisition bookkeeping -----------------------------------------------
    def _on_acquired(
        self, lock: TrackedLock, wait: float, contended: bool, site: str
    ) -> None:
        stack = self._stack()
        for entry in stack:
            if entry.lock is lock:  # reentrant re-acquire: no new edges
                entry.count += 1
                self._observe(lock.name, wait, contended)
                return
        for entry in stack:
            if entry.lock.name != lock.name:
                self._record_edge(entry, lock, site)
        stack.append(_Held(lock, site))
        self._observe(lock.name, wait, contended)

    def _on_released(self, lock: TrackedLock) -> None:
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i].lock is lock:
                stack[i].count -= 1
                if stack[i].count == 0:
                    del stack[i]
                return

    def _on_wait(self, lock: TrackedLock, wait: float, contended: bool,
                 acquired: bool) -> None:
        self._observe(lock.name, wait, contended)

    def _observe(self, name: str, wait: float, contended: bool) -> None:
        metrics = self.metrics
        if not getattr(metrics, "enabled", True):
            return
        metrics.counter("lock.acquisitions", lock=name).inc()
        if contended:
            metrics.counter("lock.contended", lock=name).inc()
            metrics.histogram("lock.wait_seconds", lock=name).observe(wait)

    # -- order graph -----------------------------------------------------------
    def _record_edge(self, held: _Held, acquiring: TrackedLock, site: str) -> None:
        src, dst = held.lock.name, acquiring.name
        thread = threading.current_thread().name
        with self._lock:
            if (src, dst) in self._edges:
                return
            cycle = self._path(dst, src)
            edge = AcquisitionSite(
                src, dst, thread, f"{held.site} -> {site}",
                stack="".join(traceback.format_stack(sys._getframe(3))),
            )
            self._edges[(src, dst)] = edge
            if cycle is None:
                return
            cycle_edges = cycle + [edge]
        self._report_cycle(cycle_edges)

    def _path(self, start: str, goal: str) -> list[AcquisitionSite] | None:
        """DFS over the edge graph (caller holds ``_lock``)."""
        adjacency: dict[str, list[AcquisitionSite]] = {}
        # The lint can't see across call boundaries: every caller invokes
        # this helper while already inside ``with self._lock:`` (docstring
        # contract above), so the read *is* guarded.
        for (src, _dst), edge in self._edges.items():  # conc: ignore[CL101]
            adjacency.setdefault(src, []).append(edge)
        seen = {start}
        stack: list[tuple[str, list[AcquisitionSite]]] = [(start, [])]
        while stack:
            node, path = stack.pop()
            for edge in adjacency.get(node, ()):
                if edge.dst == goal:
                    return path + [edge]
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    stack.append((edge.dst, path + [edge]))
        return None

    def _report_cycle(self, cycle: list[AcquisitionSite]) -> None:
        names = [cycle[-1].src] + [e.dst for e in cycle[:-1]] + [cycle[-1].dst]
        chain = "; ".join(
            f"{e.src} -> {e.dst} (thread {e.thread}, {e.site})" for e in cycle
        )
        message = (
            f"lock-order inversion between {', '.join(dict.fromkeys(names))}: "
            f"{chain}"
        )
        finding = LockFinding(
            kind="lock-order",
            message=message,
            thread=threading.current_thread().name,
            locks=tuple(dict.fromkeys(names)),
            site=cycle[-1].site,
        )
        if getattr(self.metrics, "enabled", True):
            self.metrics.counter("lock.order_violations").inc()
        self._report([finding], LockOrderError(message, cycle=tuple(cycle)))

    # -- hold-while-blocked probes ----------------------------------------------
    def _check_blocked(self, what: str) -> None:
        held = self.held()
        if not held:
            return
        finding = LockFinding(
            kind="hold-while-blocked",
            message=(
                f"{what} called while holding {', '.join(held)} — every "
                "waiter on those locks now stalls behind this blocked call"
            ),
            thread=threading.current_thread().name,
            locks=held,
            site=call_site(3),
        )
        if getattr(self.metrics, "enabled", True):
            self.metrics.counter("lock.hold_while_blocked").inc()
        self._report([finding])

    def install_blocking_probes(self) -> None:
        """Patch ``Future.result`` / ``Queue.get`` to flag holders that block."""
        if self._probes_installed:
            return
        import queue
        from concurrent.futures import Future

        tracker = self
        self._orig_future_result = orig_result = Future.result
        self._orig_queue_get = orig_get = queue.Queue.get

        def result(fut, timeout=None):
            tracker._check_blocked("Future.result()")
            return orig_result(fut, timeout)

        def get(q, block=True, timeout=None):
            if block:
                tracker._check_blocked("Queue.get()")
            return orig_get(q, block, timeout)

        Future.result = result
        queue.Queue.get = get
        self._probes_installed = True

    def remove_blocking_probes(self) -> None:
        """Undo :meth:`install_blocking_probes`."""
        if not self._probes_installed:
            return
        import queue
        from concurrent.futures import Future

        Future.result = self._orig_future_result
        queue.Queue.get = self._orig_queue_get
        self._orig_future_result = self._orig_queue_get = None
        self._probes_installed = False

    # -- reporting ---------------------------------------------------------------
    def edges(self) -> dict[tuple[str, str], AcquisitionSite]:
        """Snapshot of the observed lock-order graph."""
        with self._lock:
            return dict(self._edges)

    def clear(self) -> None:
        """Drop findings and the order graph (a fresh run)."""
        with self._lock:
            self._edges.clear()
            self.findings.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        with self._lock:
            return (
                f"LockTracker(mode={self.mode!r}, locks={self._n_locks}, "
                f"edges={len(self._edges)}, findings={len(self.findings)})"
            )


# --------------------------------------------------------------------------
# injectable factory plumbing
# --------------------------------------------------------------------------


def _env_tracker() -> LockTracker:
    tracker = LockTracker()
    tracker.install_blocking_probes()
    return tracker


#: ``REPRO_LOCK_TRACKER=1`` (CI's ``tests-locktracker`` leg) makes the
#: first :func:`new_lock` build a raise-mode tracker with blocking probes.
SLOT = InstallSlot("REPRO_LOCK_TRACKER", _env_tracker)
install = SLOT.install
uninstall = SLOT.uninstall
active_tracker = SLOT.active


def new_lock(name: str) -> "threading.Lock | TrackedLock":
    """A lock from the active tracker, or a plain ``threading.Lock``.

    This is the library's injection seam: session/batch/executor code
    calls ``new_lock("session.cache")`` instead of ``threading.Lock()``
    and pays one function call extra when no tracker is installed.
    """
    tracker = active_tracker()
    if tracker is None:
        return threading.Lock()
    return tracker.lock(name)


def new_rlock(name: str) -> "threading.RLock | TrackedLock":
    """Reentrant counterpart of :func:`new_lock`."""
    tracker = active_tracker()
    if tracker is None:
        return threading.RLock()
    return tracker.rlock(name)
