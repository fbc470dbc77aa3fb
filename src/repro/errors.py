"""Exception hierarchy for the GPUMEM reproduction.

All library errors derive from :class:`GpuMemError` so callers can catch a
single base class. Substrate-specific errors (GPU simulator, sequence
handling) subclass it with more precise semantics.
"""

from __future__ import annotations


class GpuMemError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class InvalidSequenceError(GpuMemError, ValueError):
    """A sequence contains letters outside the DNA alphabet, or is malformed."""


class InvalidParameterError(GpuMemError, ValueError):
    """A parameter combination violates a documented constraint.

    The most important instance is Eq. (1) of the paper:
    ``step_size <= min_length - seed_length + 1``. Violating it would allow
    maximal exact matches of length ``>= min_length`` to contain no indexed
    seed and therefore be silently missed.
    """


class MemoryBudgetError(GpuMemError, MemoryError):
    """A simulated device allocation exceeded the device's global memory."""


class KernelError(GpuMemError, RuntimeError):
    """A simulated GPU kernel misbehaved (barrier divergence, bad launch...)."""


class BarrierDivergenceError(KernelError):
    """Threads of one block diverged at a ``__syncthreads`` barrier.

    Raised by the executor when some threads of a block exit their generator
    while siblings still yield — the simulator's equivalent of the undefined
    behaviour a divergent ``__syncthreads`` has on real hardware. Carries
    structured provenance so tooling (and tests) need not parse the message.
    """

    def __init__(self, kernel: str, block: int, phase: int, exited, waiting):
        self.kernel = kernel
        self.block = int(block)
        self.phase = int(phase)
        #: thread ids whose generators completed this phase
        self.exited = tuple(int(t) for t in exited)
        #: thread ids still waiting at the barrier
        self.waiting = tuple(int(t) for t in waiting)
        super().__init__(
            f"barrier divergence in kernel {kernel!r} block {self.block} "
            f"phase {self.phase}: threads {list(self.exited)} exited while "
            f"threads {list(self.waiting)} wait at a barrier"
        )


class RaceConditionError(KernelError):
    """The runtime sanitizer observed a shared-memory race in a kernel.

    ``findings`` holds the :class:`repro.analysis.sanitizer.RaceFinding`
    records (thread/block/phase/address provenance) that triggered it.
    """

    def __init__(self, message: str, findings=()):
        self.findings = tuple(findings)
        super().__init__(message)


class LockOrderError(GpuMemError, RuntimeError):
    """The runtime lock tracker observed a lock-order inversion.

    Raised (in ``mode="raise"``) at the acquisition that closes a cycle in
    the process-wide lock-order graph: somewhere lock A was taken while B
    was held and this thread just took B while holding A — two threads on
    those paths can deadlock. ``cycle`` holds the
    :class:`repro.analysis.lock_tracker.AcquisitionSite` records (lock
    names, thread names, acquisition sites and full stacks) for every edge
    of the cycle, so the report carries both threads' provenance without
    message parsing.
    """

    def __init__(self, message: str, cycle=()):
        #: edge provenance records around the order cycle
        self.cycle = tuple(cycle)
        super().__init__(message)


class ResourceLeakError(GpuMemError, RuntimeError):
    """The runtime resource tracker's end-of-run audit found live resources.

    Raised (in ``mode="raise"``) by
    :meth:`repro.analysis.resource_tracker.ResourceTracker.audit` when
    shared-memory segments, file locks, or mmap-backed bundle handles that
    were opened during the run are still live and not adopted by a
    registered long-lived holder. ``leaks`` holds the
    :class:`repro.analysis.resource_tracker.ResourceRecord` entries (kind,
    name, creating pid, creation site) so reports and tests get structured
    provenance instead of parsing the message.
    """

    def __init__(self, message: str, leaks=()):
        #: live-resource provenance records from the audit
        self.leaks = tuple(leaks)
        super().__init__(message)


class AnalysisInputError(GpuMemError, ValueError):
    """A path given to the static analyzers is missing, unreadable or not
    valid Python; the message reads ``path: reason``."""


class ServerOverloadedError(GpuMemError, RuntimeError):
    """The serving front end shed a request: the admission queue is full.

    Structured (queue depth + limit as attributes) so clients can back off
    programmatically instead of parsing the message. Raised at submission
    time — an overloaded server never accepts work it cannot queue.
    """

    def __init__(self, queue_depth: int, admission_limit: int):
        self.queue_depth = int(queue_depth)
        self.admission_limit = int(admission_limit)
        super().__init__(
            f"server overloaded: admission queue at {self.queue_depth}/"
            f"{self.admission_limit}; retry with backoff"
        )

    def __reduce__(self):
        return (type(self), (self.queue_depth, self.admission_limit))


class ServerClosedError(GpuMemError, RuntimeError):
    """A request was submitted to a server that is draining or closed."""


class IndexError_(GpuMemError, RuntimeError):
    """An index structure is inconsistent (used by self-check utilities)."""


class IndexIntegrityError(IndexError_):
    """A structural self-check of an index failed.

    Raised by :meth:`repro.index.kmer_index.KmerSeedIndex.check` (and the
    load-time validation of :mod:`repro.index.serialize`) instead of bare
    ``assert`` statements, so corruption is still caught under ``python -O``
    and callers get structured provenance: ``field`` names the inconsistent
    component (``"ptrs"``, ``"locs"``, ...) and ``path`` the on-disk
    artifact, when the check ran against one.
    """

    def __init__(self, message: str, *, field: str | None = None, path=None):
        #: The inconsistent index component (e.g. ``"ptrs"``), if known.
        self.field = field
        #: The on-disk artifact being validated, if any.
        self.path = str(path) if path is not None else None
        super().__init__(message)
