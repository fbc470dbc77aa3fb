"""Runtime resource tracker: lifecycle table, misuse findings, audits."""

from __future__ import annotations

import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.analysis import resource_tracker as rt
from repro.analysis.resource_tracker import ResourceTracker
from repro.errors import ResourceLeakError

from tests.analysis.planted_resources import (
    double_unlink,
    leak_published_sequence,
    open_bundle_and_escape,
    orphan_file_lock,
)


@pytest.fixture
def collect_tracker():
    """A collect-mode tracker installed process-wide, previous one restored."""
    prev = rt.active_tracker()
    tracker = ResourceTracker(mode="collect")
    rt.install(tracker)
    try:
        yield tracker
    finally:
        if prev is not None:
            rt.install(prev)
        else:
            rt.uninstall()


class TestLifecycleTable:
    def test_full_round_trip_audits_clean(self):
        tracker = ResourceTracker(mode="raise")
        tracker.shm_created("seg-a", 64)
        tracker.shm_attached("seg-a")
        tracker.shm_closed("seg-a", owner=False)
        tracker.shm_closed("seg-a", owner=True)
        tracker.shm_unlinked("seg-a")
        assert tracker.audit() == []
        assert tracker.findings == []

    def test_owner_close_without_unlink_is_still_a_leak(self):
        tracker = ResourceTracker(mode="collect")
        tracker.shm_created("seg-b", 64)
        tracker.shm_closed("seg-b", owner=True)
        leaked = tracker.leaks()
        assert [(r.kind, r.name) for r in leaked] == [("shm", "seg-b")]

    def test_record_provenance(self, collect_tracker):
        # through the module hook, so _call_site resolves to this file
        rt.lock_acquired("/tmp/x.lock")
        (record,) = collect_tracker.leaks()
        assert record.pid == os.getpid()
        assert "test_resource_tracker.py" in record.site
        assert "lock" in record.format() and str(record.pid) in record.format()
        rt.lock_released("/tmp/x.lock")

    def test_baseline_scopes_the_audit(self):
        tracker = ResourceTracker(mode="collect")
        tracker.shm_created("pre-existing", 1)
        baseline = tracker.live_snapshot()
        tracker.mmap_opened("/data/new.npz")
        leaked = tracker.leaks(baseline=baseline)
        assert [(r.kind, r.name) for r in leaked] == [("mmap", "/data/new.npz")]

    def test_clear_resets_everything(self):
        tracker = ResourceTracker(mode="collect")
        tracker.shm_created("seg", 1)
        tracker.lock_released("/never/acquired")
        tracker.clear()
        assert tracker.leaks() == [] and tracker.findings == []

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ResourceTracker(mode="warn")


class TestMisuseFindings:
    def test_double_close_of_attachment(self):
        tracker = ResourceTracker(mode="collect")
        tracker.shm_attached("seg")
        tracker.shm_closed("seg", owner=False)
        tracker.shm_closed("seg", owner=False)
        assert [f.kind for f in tracker.findings] == ["double-close"]

    def test_double_unlink(self):
        tracker = ResourceTracker(mode="collect")
        tracker.shm_created("seg", 1)
        tracker.shm_unlinked("seg")
        tracker.shm_unlinked("seg")
        assert [f.kind for f in tracker.findings] == ["double-unlink"]

    def test_release_without_acquire(self):
        tracker = ResourceTracker(mode="collect")
        tracker.lock_released("/tmp/ghost.lock")
        assert [f.kind for f in tracker.findings] == ["release-without-acquire"]

    def test_raise_mode_raises_at_the_misuse_site(self):
        tracker = ResourceTracker(mode="raise")
        tracker.shm_attached("seg")
        tracker.shm_closed("seg", owner=False)
        with pytest.raises(ResourceLeakError, match="closed twice"):
            tracker.shm_closed("seg", owner=False)

    def test_recreate_after_unlink_is_not_double_unlink(self):
        tracker = ResourceTracker(mode="raise")
        tracker.shm_created("seg", 1)
        tracker.shm_unlinked("seg")
        tracker.shm_created("seg", 1)  # name reuse: a fresh lifetime
        tracker.shm_unlinked("seg")
        assert tracker.findings == []

    def test_format_findings(self):
        tracker = ResourceTracker(mode="collect")
        tracker.lock_released("/tmp/ghost.lock")
        text = tracker.format_findings()
        assert "release-without-acquire" in text
        assert "1 resource finding(s)" in text


class TestAudit:
    def test_audit_raises_with_structured_leaks(self):
        tracker = ResourceTracker(mode="raise")
        tracker.shm_created("seg", 1)
        tracker.mmap_opened("/data/b.npz")
        with pytest.raises(ResourceLeakError) as exc:
            tracker.audit()
        assert len(exc.value.leaks) == 2
        assert {r.kind for r in exc.value.leaks} == {"shm", "mmap"}

    def test_collect_mode_audit_returns_without_raising(self):
        tracker = ResourceTracker(mode="collect")
        tracker.shm_created("seg", 1)
        leaked = tracker.audit()
        assert [(r.kind, r.name) for r in leaked] == [("shm", "seg")]

    def test_adoption_exempts_and_disown_restores(self):
        tracker = ResourceTracker(mode="raise")
        tracker.mmap_opened("/store/warm.npz")
        tracker.adopt("mmap", "/store/warm.npz", "IndexStore.hot")
        assert tracker.audit() == []
        tracker.disown("mmap", "/store/warm.npz")
        with pytest.raises(ResourceLeakError):
            tracker.audit()
        tracker.mmap_closed("/store/warm.npz")
        assert tracker.audit() == []


class TestMetrics:
    def test_res_series_emission(self):
        tracker = ResourceTracker(mode="collect")
        tracker.shm_created("seg", 1)
        tracker.shm_attached("seg")
        tracker.shm_closed("seg", owner=False)
        tracker.shm_unlinked("seg")
        tracker.lock_acquired("/tmp/k.lock")
        tracker.lock_released("/tmp/k.lock")
        tracker.lock_released("/tmp/k.lock")  # misuse
        series = tracker.metrics.to_dict()
        assert series["res.shm.created"]["value"] == 1
        assert series["res.shm.attached"]["value"] == 1
        assert series["res.shm.closed"]["value"] == 1
        assert series["res.shm.unlinked"]["value"] == 1
        assert series["res.shm.live"]["value"] == 0
        assert series["res.lock.acquired"]["value"] == 1
        assert series["res.lock.released"]["value"] == 2
        assert series["res.lock.live"]["value"] == 0
        assert series["res.misuse{kind=release-without-acquire}"]["value"] == 1

    def test_leaks_counter_on_failed_audit(self):
        tracker = ResourceTracker(mode="collect")
        tracker.shm_created("seg", 1)
        tracker.audit()
        assert tracker.metrics.to_dict()["res.leaks"]["value"] == 1

    def test_bind_metrics_redirects_emission(self):
        from repro.obs.metrics import MetricsRegistry

        tracker = ResourceTracker(mode="collect")
        bound = MetricsRegistry()
        tracker.bind_metrics(bound)
        tracker.mmap_opened("/data/b.npz")
        assert bound.to_dict()["res.mmap.opened"]["value"] == 1


class TestPlantedRuntimeTwins:
    """The planted leaks, executed through the library's instrumented seams."""

    def test_leaked_published_sequence(self, collect_tracker):
        name = leak_published_sequence(b"\x1b\x2c\x3d\x4e")
        leaked = collect_tracker.leaks()
        assert ("shm", name) in [(r.kind, r.name) for r in leaked]
        # reap the kernel object out-of-band (raw stdlib: no hooks fire)
        shm = shared_memory.SharedMemory(name=name)
        shm.close()
        shm.unlink()
        collect_tracker.clear()

    def test_double_unlink_trips_the_tracker(self, collect_tracker):
        double_unlink(b"\x1b\x2c\x3d\x4e")
        assert "double-unlink" in [f.kind for f in collect_tracker.findings]
        collect_tracker.clear()

    def test_escaped_mmap_view(self, collect_tracker, tmp_path):
        path = str(tmp_path / "bundle.npy")
        np.save(path, np.arange(16, dtype=np.uint8))
        arr = open_bundle_and_escape(path)
        assert arr.sum() == np.arange(16).sum()
        leaked = collect_tracker.leaks()
        assert [(r.kind, r.name) for r in leaked] == [("mmap", path)]
        del arr
        rt.mmap_closed(path)
        assert collect_tracker.leaks() == []

    def test_orphaned_file_lock(self, collect_tracker, tmp_path):
        path = tmp_path / "key.lock"
        lock = orphan_file_lock(path)
        leaked = collect_tracker.leaks()
        assert [(r.kind, r.name) for r in leaked] == [("lock", str(path))]
        lock.release()
        assert collect_tracker.leaks() == []
        assert collect_tracker.findings == []

    def test_library_round_trip_is_leak_clean(self, resource_tracker):
        """to_shared/from_shared/close/unlink under the raise-mode fixture."""
        from repro.sequence.packed import PackedSequence

        seq = PackedSequence.from_packed(
            np.frombuffer(b"\x1b\x2c\x3d\x4e", dtype=np.uint8), 16
        )
        handle = seq.to_shared()
        other = PackedSequence.from_shared(handle)
        assert len(other) == 16
        other.close_shared()
        seq.unlink_shared()
        # the fixture audits at teardown; nothing should be live
        assert resource_tracker.leaks() == []


class TestEnvActivation:
    def test_env_creates_a_lazy_tracker(self, monkeypatch):
        monkeypatch.setattr(rt.SLOT, "_tracker", None)
        monkeypatch.setattr(rt.SLOT, "_env_checked", False)
        monkeypatch.setenv("REPRO_RESOURCE_TRACKER", "1")
        tracker = rt.active_tracker()
        assert isinstance(tracker, ResourceTracker)
        assert tracker.mode == "raise"
        # monkeypatch teardown restores the slot.

    def test_hooks_are_noops_without_a_tracker(self, monkeypatch):
        monkeypatch.setattr(rt.SLOT, "_tracker", None)
        monkeypatch.setattr(rt.SLOT, "_env_checked", True)
        rt.shm_created("seg", 1)
        rt.shm_unlinked("seg")
        rt.lock_released("/never")
        assert rt.active_tracker() is None
