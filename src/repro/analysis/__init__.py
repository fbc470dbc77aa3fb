"""Static + runtime correctness analyzers (see ``docs/analysis.md``).

Three families, each a static lint paired with a runtime twin, share one
framework (:mod:`repro.analysis._framework`: the :class:`Finding` record,
the ``# <tag>: ignore[CODE]`` suppression parser, the path linter behind
``gpumem analyze``, and the ``Tracker`` base):

- SIMT kernels (tag ``simt``): :mod:`repro.analysis.kernel_lint` (KL
  rules: barrier divergence, non-atomic shared writes, unaccounted loops,
  dtype discipline) and :mod:`repro.analysis.sanitizer`, a per-barrier
  race/divergence detector attached to a :class:`repro.gpu.kernel.Device`;
- host locks (``conc``): :mod:`repro.analysis.concurrency_lint` (CL rules)
  and :mod:`repro.analysis.lock_tracker`, a lock-order tracker behind
  ``new_lock``;
- IPC resource lifetimes (``res``): :mod:`repro.analysis.resource_lint`
  (RL rules) and :mod:`repro.analysis.resource_tracker`, a live table of
  shm segments, store mmaps and file locks.

:mod:`repro.analysis.pytest_plugin` provides the fixtures for all three.
"""

from repro.analysis._framework import (
    Finding,
    findings_to_json,
    format_findings,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.analysis.kernel_lint import RULES
from repro.analysis.sanitizer import Access, RaceFinding, Sanitizer, TrackedArray

__all__ = [
    "RULES",
    "Access",
    "Finding",
    "RaceFinding",
    "Sanitizer",
    "TrackedArray",
    "findings_to_json",
    "format_findings",
    "lint_file",
    "lint_paths",
    "lint_source",
]
