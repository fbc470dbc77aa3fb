"""Runtime SIMT sanitizer: ThreadSanitizer-style race detection per barrier.

The simulator's execution model makes the classic GPU memory model checkable
exactly: within one barrier phase of one block, thread order is unspecified
(and deliberately shuffled), so two threads touching the same address in the
same phase — where at least one access is a plain (non-atomic) write — is a
data race on real hardware, whatever the shuffle happened to produce.

The sanitizer is opt-in and zero-cost when off:

>>> from repro.analysis.sanitizer import Sanitizer
>>> from repro.gpu.kernel import Device
>>> san = Sanitizer()
>>> dev = Device(spec, sanitizer=san)      # doctest: +SKIP
>>> dev.launch(kernel, grid, block, arr)   # doctest: +SKIP
>>> san.findings                           # RaceFinding records, if any

When a :class:`~repro.gpu.kernel.Device` carries a sanitizer, the executor

- wraps every ``np.ndarray`` launch argument and every
  :meth:`~repro.gpu.memory.SharedMemory.array` allocation in a
  :class:`TrackedArray` proxy that records per-(array, address) read/write
  sets attributed to the running thread,
- records ``ctx.atomic_*`` calls as *atomic* accesses (conflict-free among
  themselves, racy against plain writes **and plain reads** — a plain read
  concurrent with an atomic update yields a schedule-dependent value),
- checks the access sets at every barrier and reports conflicts with full
  thread/block/phase provenance,
- records hard barrier divergence (a thread's generator exhausting while
  siblings still yield) alongside the structured
  :class:`~repro.errors.BarrierDivergenceError` the executor raises.

Coverage note: accesses through Python containers (lists/dicts reached via
host-side task objects) and arrays buried inside non-array arguments are not
tracked — shared memory and direct array arguments are the simulated device
surface, and that is where the paper's race classes live.

``mode="collect"`` (default) accumulates findings for later assertion (the
pytest fixture asserts at teardown); ``mode="raise"`` raises
:class:`~repro.errors.RaceConditionError` at the first offending barrier.
At most :data:`MAX_FINDINGS` races are kept.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from repro.analysis._framework import Tracker
from repro.errors import BarrierDivergenceError, RaceConditionError

__all__ = ["Access", "RaceFinding", "Sanitizer", "TrackedArray"]

#: address sentinel for slice / fancy-index accesses: conflicts with every
#: address of the same array (conservative — a region access covers unknown
#: elements).
REGION = "<region>"

#: cap on recorded races (a racy kernel reports every phase of every block)
MAX_FINDINGS = 1000


@dataclass(frozen=True)
class Access:
    """One recorded memory access (normalized address, provenance)."""

    kind: str  # "read" | "write" | "atomic"
    array: str
    index: object
    kernel: str
    block: int
    phase: int
    thread: int


@dataclass(frozen=True)
class RaceFinding:
    """A conflicting access pair-set on one address within one phase."""

    race: str  # "write-write" | "read-write" | "atomic-plain"
    array: str
    index: object
    kernel: str
    block: int
    phase: int
    #: (thread, kind) pairs involved, first few
    accesses: tuple

    def format(self) -> str:
        who = ", ".join(f"t{t}:{k}" for t, k in self.accesses)
        return (
            f"{self.race} race on {self.array}[{self.index}] in kernel "
            f"{self.kernel!r} block {self.block} phase {self.phase} ({who})"
        )


def _normalize_index(index) -> object:
    try:
        return operator.index(index)
    except TypeError:
        pass
    if isinstance(index, tuple):
        return tuple(_normalize_index(i) for i in index)
    return REGION


class TrackedArray:
    """Recording proxy around an ``np.ndarray``.

    Subscript reads/writes are reported to the sanitizer and forwarded to
    the wrapped array, so kernel semantics are unchanged. Everything else
    (``size``, ``dtype``, methods) delegates. The ``_simt_*`` slots are the
    duck-typed contract the executor's atomic helpers use to unwrap without
    importing this module.
    """

    __slots__ = ("_simt_base", "_simt_name", "_simt_san")

    def __init__(self, base: np.ndarray, name: str, sanitizer: "Sanitizer"):
        object.__setattr__(self, "_simt_base", base)
        object.__setattr__(self, "_simt_name", name)
        object.__setattr__(self, "_simt_san", sanitizer)

    def __getitem__(self, index):
        self._simt_san._record("read", self._simt_name, index)
        return self._simt_base[index]

    def __setitem__(self, index, value):
        self._simt_san._record("write", self._simt_name, index)
        self._simt_base[index] = value

    def __getattr__(self, attr):
        return getattr(object.__getattribute__(self, "_simt_base"), attr)

    def __len__(self):
        return len(self._simt_base)

    def __array__(self, *args, **kwargs):
        return np.asarray(self._simt_base, *args, **kwargs)

    def __repr__(self):
        return f"TrackedArray({self._simt_name!r}, {self._simt_base!r})"


class Sanitizer(Tracker):
    """Collects per-phase access sets and turns conflicts into findings."""

    def __init__(self, *, mode: str = "collect"):
        super().__init__(mode)
        self.divergences: list[BarrierDivergenceError] = []
        self.n_accesses = 0
        self._current: tuple[str, int, int, int] | None = None
        #: (array, index) -> list[(thread, kind)], cleared at every barrier
        self._accesses: dict[tuple, list[tuple[int, str]]] = {}

    # -- wrapping -----------------------------------------------------------
    def wrap(self, array: np.ndarray, name: str) -> TrackedArray:
        if isinstance(array, TrackedArray):
            return array
        return TrackedArray(array, name, self)

    # -- executor hooks -----------------------------------------------------
    def begin_thread_step(self, kernel: str, block: int, phase: int, thread: int) -> None:
        self._current = (kernel, block, phase, thread)

    def end_thread_step(self) -> None:
        self._current = None

    def _record(self, kind: str, array: str, index) -> None:
        if self._current is None:
            return  # host-side access outside any thread step
        thread = self._current[3]
        self.n_accesses += 1
        self._accesses.setdefault((array, _normalize_index(index)), []).append(
            (thread, kind)
        )

    def record_atomic(self, array: str, index) -> None:
        self._record("atomic", array, index)

    def record_divergence(self, error: BarrierDivergenceError) -> None:
        self.divergences.append(error)

    def end_phase(self, kernel: str, block: int, phase: int) -> None:
        """Barrier: check the phase's access sets, then reset them."""
        new: list[RaceFinding] = []
        # Region accesses conflict with anything on the same array.
        regions: dict[str, list[tuple[int, str]]] = {}
        for (array, index), accesses in self._accesses.items():
            if index == REGION:
                regions.setdefault(array, []).extend(accesses)
        for (array, index), accesses in self._accesses.items():
            pool = list(accesses)
            if index != REGION:
                pool += regions.get(array, [])
            race = self._classify(pool)
            if race is not None:
                new.append(
                    RaceFinding(
                        race=race,
                        array=array,
                        index=index,
                        kernel=kernel,
                        block=block,
                        phase=phase,
                        accesses=tuple(sorted(set(pool)))[:8],
                    )
                )
        self._accesses.clear()
        if new:
            room = MAX_FINDINGS - len(self.findings)
            self._report(new[:room], RaceConditionError(
                "; ".join(f.format() for f in new[:4]), findings=new
            ))

    @staticmethod
    def _classify(accesses: list[tuple[int, str]]) -> str | None:
        """Race class of one address's access list, or None if clean."""
        threads = {t for t, _ in accesses}
        if len(threads) < 2:
            return None
        writers = {t for t, k in accesses if k == "write"}
        readers = {t for t, k in accesses if k == "read"}
        atomics = {t for t, k in accesses if k == "atomic"}
        if len(writers) > 1 or (writers and (readers - writers or atomics - writers)):
            if writers and atomics - writers:
                return "atomic-plain"
            return "write-write" if len(writers) > 1 else "read-write"
        if atomics and readers - atomics:
            return "atomic-plain"
        return None

    # -- reporting ----------------------------------------------------------
    def _summary(self, findings) -> str:
        lines = [f"barrier divergence: {e}" for e in self.divergences]
        lines.append(
            f"{len(findings)} race(s), {len(self.divergences)} "
            f"divergence(s) over {self.n_accesses} tracked accesses"
        )
        return "\n".join(lines)
