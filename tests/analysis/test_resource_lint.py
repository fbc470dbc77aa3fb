"""Static resource lint: RL101-RL105 on planted bugs, twins, suppression."""

from __future__ import annotations

import pytest

from repro.analysis import lint_file, lint_paths, lint_source
from repro.analysis.resource_lint import RL_RULES

PLANTED = "tests/analysis/planted_resources.py"
RES = ("res",)


def lint(src):
    return lint_source(src, families=RES)


@pytest.fixture(scope="module")
def planted_findings():
    return lint_file(PLANTED, RES)


def scopes(findings, rule):
    return {f.scope for f in findings if f.rule == rule}


class TestPlantedBugs:
    """Every planted bug class is flagged; every compliant twin is not."""

    def test_leaked_segment(self, planted_findings):
        assert "leak_segment" in scopes(planted_findings, "RL101")

    def test_cleanup_not_on_all_paths(self, planted_findings):
        flagged = scopes(planted_findings, "RL101")
        assert "cleanup_on_success_only" in flagged

    def test_double_unlink(self, planted_findings):
        assert "double_unlink" in scopes(planted_findings, "RL101")

    def test_runtime_twin_leak_is_also_static(self, planted_findings):
        # to_shared without cleanup is the same leak whichever layer sees it
        assert "leak_published_sequence" in scopes(planted_findings, "RL101")

    def test_spec_dataclass_spawn_safety(self, planted_findings):
        assert "LeakyTaskSpec" in scopes(planted_findings, "RL102")
        found = [f for f in planted_findings if f.rule == "RL102"]
        assert any("guard" in f.message for f in found)

    def test_escaped_mmap_view(self, planted_findings):
        assert "escaped_mmap_view" in scopes(planted_findings, "RL103")

    def test_orphaned_lock_fd(self, planted_findings):
        assert "orphan_lock_fd" in scopes(planted_findings, "RL104")

    def test_leaked_temp_file(self, planted_findings):
        assert "leak_temp_file" in scopes(planted_findings, "RL105")

    def test_compliant_twins_are_clean(self, planted_findings):
        clean = {
            "publish_segment_safely", "roundtrip_segment_safely",
            "copy_mmap_safely", "hold_lock_safely", "temp_file_safely",
            "TidyTaskSpec",
        }
        flagged = {f.scope for f in planted_findings}
        assert not (clean & flagged), sorted(clean & flagged)

    def test_suppressed_runtime_twin_return(self, planted_findings):
        # open_bundle_and_escape carries a justified res: ignore[RL103]
        assert "open_bundle_and_escape" not in scopes(planted_findings, "RL103")


class TestRuleMechanics:
    def test_with_statement_is_guaranteed_cleanup(self):
        src = (
            "from multiprocessing import shared_memory\n"
            "def ok(n):\n"
            "    with shared_memory.SharedMemory(create=True, size=n) as shm:\n"
            "        use(shm)\n"
        )
        assert lint(src) == []

    def test_ownership_transfer_via_call_is_not_a_leak(self):
        src = (
            "from multiprocessing import shared_memory\n"
            "def publish(registry, n):\n"
            "    shm = shared_memory.SharedMemory(create=True, size=n)\n"
            "    registry.adopt(shm)\n"
        )
        assert lint(src) == []

    def test_returning_name_string_is_still_a_leak(self):
        src = (
            "from multiprocessing import shared_memory\n"
            "def bad(n):\n"
            "    shm = shared_memory.SharedMemory(create=True, size=n)\n"
            "    return shm.name\n"
        )
        findings = lint(src)
        assert [f.rule for f in findings] == ["RL101"]

    def test_mmap_store_on_attribute_is_flagged(self):
        src = (
            "import numpy as np\n"
            "class Holder:\n"
            "    def load(self, path):\n"
            "        arr = np.load(path, mmap_mode='r')\n"
            "        self.arr = arr\n"
        )
        findings = lint(src)
        assert [f.rule for f in findings] == ["RL103"]

    def test_mmap_mode_none_is_not_mmap(self):
        src = (
            "import numpy as np\n"
            "def load(path):\n"
            "    return np.load(path, mmap_mode=None)\n"
        )
        assert lint(src) == []

    def test_lock_class_pairing_is_exempt_from_rl104(self):
        src = (
            "import fcntl\n"
            "class FileLock:\n"
            "    def acquire(self):\n"
            "        self._fh = open(self.path, 'a+')\n"
            "        fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX)\n"
            "    def release(self):\n"
            "        fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)\n"
            "        self._fh.close()\n"
        )
        assert lint(src) == []

    def test_rl102_lambda_default(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class CallbackSpec:\n"
            "    name: str\n"
            "    hook: object = lambda: None\n"
        )
        findings = lint(src)
        assert [f.rule for f in findings] == ["RL102"]
        assert "lambda" in findings[0].message

    def test_non_spec_dataclass_may_hold_locks(self):
        src = (
            "from dataclasses import dataclass\n"
            "from threading import Lock\n"
            "@dataclass\n"
            "class WorkerState:\n"
            "    guard: Lock\n"
        )
        assert lint(src) == []

    def test_path_unlink_missing_ok_not_double_counted(self):
        src = (
            "def purge(entries):\n"
            "    for entry in entries:\n"
            "        entry.unlink(missing_ok=True)\n"
            "        entry.unlink(missing_ok=True)\n"
        )
        assert lint(src) == []


class TestEntryPoints:
    def test_select_and_ignore(self, planted_findings):
        only_101 = lint_paths([PLANTED], RES, select=["RL101"])
        assert {f.rule for f in only_101} == {"RL101"}
        without_101 = lint_paths([PLANTED], RES, ignore=["RL101"])
        assert "RL101" not in {f.rule for f in without_101}
        assert len(only_101) + len(without_101) == len(planted_findings)

    def test_findings_sorted_and_formatted(self, planted_findings):
        keys = [(f.path, f.line, f.col, f.rule) for f in planted_findings]
        assert keys == sorted(keys)
        line = planted_findings[0].format()
        assert planted_findings[0].rule in line
        assert planted_findings[0].severity in line

    def test_severities_match_rule_table(self, planted_findings):
        for f in planted_findings:
            assert f.severity == RL_RULES[f.rule][0]

    def test_shipped_tree_is_clean(self):
        findings = lint_paths(["src/repro"], RES)
        assert findings == [], "\n".join(f.format() for f in findings)
