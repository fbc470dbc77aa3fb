"""Pytest plugin: run tests under the runtime analyzers.

Register it from a ``conftest.py``::

    pytest_plugins = ["repro.analysis.pytest_plugin"]

Fixtures (see ``docs/analysis.md``):

- ``simt_sanitizer`` — a collect-mode :class:`~repro.analysis.sanitizer.Sanitizer`
  for tests that *expect* races; ``sanitized_device`` — a TEST_DEVICE whose
  launches it race-checks, failing the test at teardown on any race
  (barrier divergence raises immediately, as always).
- ``lock_tracker`` — a raise-mode
  :class:`~repro.analysis.lock_tracker.LockTracker`, with blocking probes,
  installed as the process lock factory for one test.
- ``resource_tracker`` — a raise-mode
  :class:`~repro.analysis.resource_tracker.ResourceTracker` installed
  process-wide for one test.

The two tracker fixtures fail the test at teardown on any finding left
(and, for resources, on anything the test opened that is still live).
With ``REPRO_LOCK_TRACKER=1`` / ``REPRO_RESOURCE_TRACKER=1`` (CI's
``tests-locktracker`` / ``tests-resource`` legs) one process-global
tracker covers every test in the run, and an autouse fixture fails each
test that added problems to it, so one flagged test does not fail every
test after it.

For tests that *expect* findings, build a ``mode="collect"`` tracker and
install it (or inject ``tracker.lock`` as a ``lock_factory``) directly.
"""

from __future__ import annotations

import pytest

from repro.analysis import lock_tracker as lt
from repro.analysis import resource_tracker as rt
from repro.analysis._framework import env_flag
from repro.analysis.sanitizer import Sanitizer
from repro.gpu.device import TEST_DEVICE
from repro.gpu.kernel import Device

_ENV_SLOTS = (lt.SLOT, rt.SLOT)


def _assert_clean(marks) -> None:
    """Fail on problems each ``(tracker, mark)`` gained since its mark."""
    problems = [p for tracker, mark in marks for p in tracker.problems_since(mark)]
    assert not problems, "runtime analyzer problems in this test:\n" + "\n".join(problems)


def _installed(slot, tracker):
    slot.install(tracker)
    mark = tracker.checkpoint()
    try:
        yield tracker
    finally:
        slot.uninstall()
    _assert_clean([(tracker, mark)])


@pytest.fixture
def simt_sanitizer() -> Sanitizer:
    """A fresh collecting sanitizer (no teardown assertion)."""
    return Sanitizer(mode="collect")


@pytest.fixture
def sanitized_device(simt_sanitizer):
    """A TEST_DEVICE whose launches are race-checked; asserts clean at exit."""
    device = Device(TEST_DEVICE, schedule_seed=1, sanitizer=simt_sanitizer)
    yield device
    assert not simt_sanitizer.findings, (
        "SIMT sanitizer found races:\n" + simt_sanitizer.format_findings()
    )


@pytest.fixture
def lock_tracker():
    """A raise-mode tracker installed as the process-wide lock factory."""
    tracker = lt.LockTracker(mode="raise")
    tracker.install_blocking_probes()
    try:
        yield from _installed(lt.SLOT, tracker)
    finally:
        tracker.remove_blocking_probes()


@pytest.fixture
def resource_tracker():
    """A raise-mode tracker installed process-wide for this test."""
    yield from _installed(rt.SLOT, rt.ResourceTracker(mode="raise"))


@pytest.fixture(autouse=True)
def _env_trackers():
    """Per-test accounting on the env-activated process-global trackers.

    The first lookup creates each tracker lazily; the delta since this
    test's mark is what fails it. Long-lived registries (procpool's
    shared-segment cache, the index store's hot tier) adopt their
    resources, so cross-test warmth never reads as a leak.
    """
    trackers = [slot.active() for slot in _ENV_SLOTS if env_flag(slot.env_var)]
    marks = [(t, t.checkpoint()) for t in trackers if t is not None]
    yield
    _assert_clean(marks)
