"""Runtime resource-lifecycle tracker for IPC primitives.

The static pass (:mod:`repro.analysis.resource_lint`) reasons about the
lifetimes it can see in one function body; this module watches the
resources that actually get created. A :class:`ResourceTracker` receives
hook calls from the library's IPC seams — shared-memory create/attach/
close/unlink in :mod:`repro.sequence.packed`, store mmap opens and
file-lock acquire/release in :mod:`repro.index.store` — and keeps a live
table of open resources with per-site + pid provenance.

Two kinds of output:

- **live misuse findings**, recorded the moment they happen: double close
  of the same segment, double unlink, unlink of a never-created name,
  lock release without acquire. In ``mode="raise"`` these raise
  :class:`repro.errors.ResourceLeakError` immediately.
- an **end-of-run audit** (:meth:`ResourceTracker.audit`): any resource
  still live that no long-lived holder has :meth:`adopt`-ed is a leak.
  The process-tier reference registry in :mod:`repro.core.procpool` and
  the warm tier of :class:`repro.index.store.IndexStore` *deliberately*
  keep segments/mmaps alive across calls — they adopt their resources so
  the audit distinguishes "cached by design" from "forgotten".

Every event also feeds ``res.*`` metrics (see ``docs/observability.md``)
into a :class:`repro.obs.metrics.MetricsRegistry`-compatible registry.
In procpool workers, :meth:`bind_metrics` points the tracker at the
worker's :class:`repro.obs.shipping.WorkerObs` registry so the counters
ride the existing ``ObsPayload`` freight back to the parent.

Switch on process-wide with ``REPRO_RESOURCE_TRACKER=1`` (how the CI
``tests-resource`` leg runs the core + index suites), or per-test via the
``resource_tracker`` fixture in :mod:`repro.analysis.pytest_plugin`.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from repro.analysis._framework import InstallSlot, Tracker, call_site
from repro.errors import ResourceLeakError

__all__ = [
    "SLOT",
    "ResourceRecord",
    "ResourceFinding",
    "ResourceTracker",
    "active_tracker",
    "install",
    "uninstall",
    "shm_created",
    "shm_attached",
    "shm_closed",
    "shm_unlinked",
    "mmap_opened",
    "mmap_closed",
    "lock_acquired",
    "lock_released",
    "adopt",
    "disown",
]


@dataclass(frozen=True)
class ResourceRecord:
    """One live resource: what, where, and which process opened it."""

    kind: str  # "shm" | "shm-attach" | "mmap" | "lock"
    name: str
    pid: int
    site: str

    def format(self) -> str:
        return f"{self.kind} {self.name!r} (pid {self.pid}, opened at {self.site})"


@dataclass(frozen=True)
class ResourceFinding:
    """One runtime misuse finding (``collect`` mode keeps these)."""

    kind: str  # "double-close" | "double-unlink" | ...
    message: str
    name: str
    pid: int
    site: str

    def format(self) -> str:
        return f"[{self.kind}] {self.message} (pid {self.pid}, {self.site})"


class ResourceTracker(Tracker):
    """Process-wide recorder of IPC resource lifetimes.

    In ``mode="raise"`` (default) a misuse (double close/unlink,
    unbalanced release) raises :class:`ResourceLeakError` at its site, as
    does a failed :meth:`audit`; ``"collect"`` only records the
    :class:`ResourceFinding` and :meth:`audit` returns the leaks without
    raising. ``metrics`` receives the live ``res.*`` series.
    """

    noun = "resource"
    _lock: threading.Lock  # guards: _live, _adopted, _unlinked, findings

    def __init__(self, mode: str = "raise", metrics=None):
        super().__init__(mode, metrics)
        #: (kind, name) -> record for every currently-open resource
        self._live: dict[tuple[str, str], ResourceRecord] = {}
        #: (kind, name) -> holder label for deliberately long-lived resources
        self._adopted: dict[tuple[str, str], str] = {}
        #: shm names already unlinked (to catch double-unlink after close)
        self._unlinked: set[str] = set()

    # -- metrics ----------------------------------------------------------------
    def _count(self, name: str, **labels) -> None:
        metrics = self.metrics
        if not getattr(metrics, "enabled", True):
            return
        metrics.counter(name, **labels).inc()

    def _gauge_live(self, kind: str) -> None:
        metrics = self.metrics
        if not getattr(metrics, "enabled", True):
            return
        with self._lock:
            live = sum(1 for k, _ in self._live if k == kind)
        metrics.gauge(f"res.{kind}.live").set(live)

    # -- shared memory -----------------------------------------------------------
    def shm_created(self, name: str, nbytes: int = 0) -> None:
        """A named segment was created (owner side)."""
        record = ResourceRecord("shm", name, os.getpid(), call_site(3))
        with self._lock:
            self._live[("shm", name)] = record
            self._unlinked.discard(name)
        self._count("res.shm.created")
        self._gauge_live("shm")

    def shm_attached(self, name: str) -> None:
        """An existing segment was attached (consumer side)."""
        record = ResourceRecord("shm-attach", name, os.getpid(), call_site(3))
        with self._lock:
            self._live[("shm-attach", name)] = record
        self._count("res.shm.attached")

    def shm_closed(self, name: str, *, owner: bool) -> None:
        """A segment mapping was closed; flags double-close of an attach.

        An *owner* close only unmaps — the named segment survives in the
        kernel until :meth:`shm_unlinked`, so the ``("shm", name)`` record
        stays live (close-without-unlink is exactly the leak the audit
        must see). An *attacher* close retires its ``shm-attach`` record;
        closing an attachment that is not live is a double-close.
        """
        self._count("res.shm.closed")
        if owner:
            return
        with self._lock:
            known = self._live.pop(("shm-attach", name), None)
        if known is None:
            self._misuse(
                "double-close", name,
                f"shared-memory attachment {name!r} closed twice (or closed "
                "without a tracked attach) — the second close is a lifetime "
                "bug even where the stdlib tolerates it",
            )

    def shm_unlinked(self, name: str) -> None:
        """The backing segment was destroyed; flags double-unlink."""
        with self._lock:
            already = name in self._unlinked
            self._unlinked.add(name)
            # Unlink implies the owner mapping is done with the name even
            # if close was skipped; drop a live owner record quietly (the
            # kernel object is gone, nothing left to leak).
            self._live.pop(("shm", name), None)
        self._count("res.shm.unlinked")
        self._gauge_live("shm")
        if already:
            self._misuse(
                "double-unlink", name,
                f"shared-memory segment {name!r} unlinked twice — the second "
                "unlink races with name reuse and raises FileNotFoundError "
                "on platforms that enforce it",
            )

    # -- mmap-backed bundles -----------------------------------------------------
    def mmap_opened(self, path: str) -> None:
        """A store bundle was opened with mmap-backed arrays."""
        record = ResourceRecord("mmap", path, os.getpid(), call_site(3))
        with self._lock:
            self._live[("mmap", path)] = record
        self._count("res.mmap.opened")
        self._gauge_live("mmap")

    def mmap_closed(self, path: str) -> None:
        """The owning scope dropped its mmap-backed bundle."""
        with self._lock:
            self._live.pop(("mmap", path), None)
        self._count("res.mmap.closed")
        self._gauge_live("mmap")

    # -- file locks --------------------------------------------------------------
    def lock_acquired(self, path: str) -> None:
        """An fcntl file lock was taken on ``path``."""
        record = ResourceRecord("lock", path, os.getpid(), call_site(3))
        with self._lock:
            self._live[("lock", path)] = record
        self._count("res.lock.acquired")
        self._gauge_live("lock")

    def lock_released(self, path: str) -> None:
        """The lock on ``path`` was released; flags unbalanced release."""
        with self._lock:
            known = self._live.pop(("lock", path), None)
        self._count("res.lock.released")
        self._gauge_live("lock")
        if known is None:
            self._misuse(
                "release-without-acquire", path,
                f"file lock on {path!r} released without a tracked acquire",
            )

    # -- adoption ----------------------------------------------------------------
    def adopt(self, kind: str, name: str, holder: str) -> None:
        """Mark a live resource as deliberately long-lived.

        ``holder`` names the registry/cache that owns it (e.g.
        ``"procpool._shared_refs"``). Adopted resources are exempt from
        :meth:`audit` until :meth:`disown`-ed — caches keep segments
        alive by design; the audit's job is catching the *forgotten*.
        """
        with self._lock:
            self._adopted[(kind, name)] = holder

    def disown(self, kind: str, name: str) -> None:
        """Undo :meth:`adopt`: the resource must now be cleaned up."""
        with self._lock:
            self._adopted.pop((kind, name), None)

    # -- findings / audit --------------------------------------------------------
    def _misuse(self, kind: str, name: str, message: str) -> None:
        finding = ResourceFinding(
            kind=kind, message=message, name=name,
            pid=os.getpid(), site=call_site(3),
        )
        self._count("res.misuse", kind=kind)
        self._report([finding], ResourceLeakError(finding.format()))

    def live_snapshot(self) -> tuple[tuple[str, str], ...]:
        """Keys of currently-live non-adopted resources (for baselining)."""
        with self._lock:
            return tuple(k for k in self._live if k not in self._adopted)

    def leaks(self, *, baseline=()) -> list[ResourceRecord]:
        """Live, non-adopted resources beyond ``baseline`` (audit core)."""
        base = set(baseline)
        with self._lock:
            return [
                record
                for key, record in sorted(self._live.items())
                if key not in self._adopted and key not in base
            ]

    def audit(self, *, baseline=()) -> list[ResourceRecord]:
        """End-of-run leak check.

        Returns the leaked records; in ``mode="raise"`` a non-empty
        result raises :class:`ResourceLeakError` carrying them. Pass a
        ``baseline`` from :meth:`live_snapshot` to audit only the delta
        (how the pytest plugin scopes leaks to one test).
        """
        leaked = self.leaks(baseline=baseline)
        if leaked:
            self._count("res.leaks")
            if self.mode == "raise":
                detail = "; ".join(r.format() for r in leaked)
                raise ResourceLeakError(
                    f"{len(leaked)} resource(s) still live at audit: {detail}",
                    leaks=leaked,
                )
        return leaked

    def checkpoint(self):
        """A mark covering findings and the live-resource baseline."""
        return super().checkpoint(), self.live_snapshot()

    def problems_since(self, mark) -> list[str]:
        """Misuse recorded, and non-adopted resources opened, after ``mark``."""
        n_findings, baseline = mark
        return super().problems_since(n_findings) + [
            f"still live: {r.format()}" for r in self.leaks(baseline=baseline)
        ]

    def clear(self) -> None:
        """Drop all state (a fresh run)."""
        with self._lock:
            self._live.clear()
            self._adopted.clear()
            self._unlinked.clear()
            self.findings.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        with self._lock:
            return (
                f"ResourceTracker(mode={self.mode!r}, live={len(self._live)}, "
                f"adopted={len(self._adopted)}, findings={len(self.findings)})"
            )


# --------------------------------------------------------------------------
# process-wide plumbing + hook seams
# --------------------------------------------------------------------------

#: ``REPRO_RESOURCE_TRACKER=1`` (CI's ``tests-resource`` leg, and spawned
#: procpool workers, which inherit the environment) makes the first hook
#: call build a raise-mode tracker.
SLOT = InstallSlot("REPRO_RESOURCE_TRACKER", ResourceTracker)
install = SLOT.install
uninstall = SLOT.uninstall
active_tracker = SLOT.active


# Module-level hook seams: library code calls these unconditionally and
# pays one function call + one None check when no tracker is installed —
# the same cost profile as lock_tracker.new_lock. Each forwards with the
# caller two frames up (hook frame + tracker method), which is what the
# call_site(3) inside the tracker methods resolves to.


def shm_created(name: str, nbytes: int = 0) -> None:
    tracker = active_tracker()
    if tracker is not None:
        tracker.shm_created(name, nbytes)


def shm_attached(name: str) -> None:
    tracker = active_tracker()
    if tracker is not None:
        tracker.shm_attached(name)


def shm_closed(name: str, *, owner: bool) -> None:
    tracker = active_tracker()
    if tracker is not None:
        tracker.shm_closed(name, owner=owner)


def shm_unlinked(name: str) -> None:
    tracker = active_tracker()
    if tracker is not None:
        tracker.shm_unlinked(name)


def mmap_opened(path: str) -> None:
    tracker = active_tracker()
    if tracker is not None:
        tracker.mmap_opened(str(path))


def mmap_closed(path: str) -> None:
    tracker = active_tracker()
    if tracker is not None:
        tracker.mmap_closed(str(path))


def lock_acquired(path: str) -> None:
    tracker = active_tracker()
    if tracker is not None:
        tracker.lock_acquired(str(path))


def lock_released(path: str) -> None:
    tracker = active_tracker()
    if tracker is not None:
        tracker.lock_released(str(path))


def adopt(kind: str, name: str, holder: str) -> None:
    """Adoption seam for long-lived registries (no-op without a tracker)."""
    tracker = active_tracker()
    if tracker is not None:
        tracker.adopt(kind, str(name), holder)


def disown(kind: str, name: str) -> None:
    """Disown seam, pairing :func:`adopt`."""
    tracker = active_tracker()
    if tracker is not None:
        tracker.disown(kind, str(name))
