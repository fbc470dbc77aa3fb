"""Static lock-discipline lint: planted bugs, rule semantics, suppression."""

from __future__ import annotations

import os
import textwrap
from collections import Counter

import repro
from repro.analysis import lint_file, lint_paths, lint_source
from repro.analysis.concurrency_lint import CL_RULES

HERE = os.path.dirname(__file__)
PLANTED = os.path.join(HERE, "planted_host.py")
CONC = ("conc",)


def lint(src: str, path: str = "mod.py"):
    return lint_source(textwrap.dedent(src), path, CONC)


class TestPlantedHost:
    def test_every_rule_fires_exactly_once(self):
        findings = lint_file(PLANTED, CONC)
        assert Counter(f.rule for f in findings) == {
            "CL101": 1, "CL102": 1, "CL103": 1, "CL104": 1,
        }

    def test_severities_match_the_catalogue(self):
        for f in lint_file(PLANTED, CONC):
            assert f.severity == CL_RULES[f.rule][0]

    def test_compliant_twins_stay_clean(self):
        scopes = {f.scope for f in lint_file(PLANTED, CONC)}
        assert "register_safely" not in scopes
        assert "UnguardedCounter.read" not in scopes

    def test_findings_carry_provenance(self):
        for f in lint_file(PLANTED, CONC):
            assert f.path == PLANTED
            assert f.line > 0
            assert f.format().startswith(f"{PLANTED}:{f.line}:")


class TestCL101:
    SRC = """
    import threading

    class Cache:
        def __init__(self):
            self._lock = threading.Lock()  # guards: _items
            self._items = []

        def bad(self):
            return len(self._items)

        def good(self):
            with self._lock:
                return len(self._items)
    """

    def test_unguarded_access_flagged_guarded_not(self):
        findings = lint(self.SRC)
        assert [f.rule for f in findings] == ["CL101"]
        assert findings[0].scope == "Cache.bad"
        assert "_items" in findings[0].message

    def test_constructor_is_exempt(self):
        # ``self._items = []`` in __init__ is itself an unguarded access.
        assert not any(
            f.scope == "Cache.__init__" for f in lint(self.SRC)
        )

    def test_write_access_flagged_too(self):
        findings = lint("""
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()  # guards: _items
                self._items = []

            def reset(self):
                self._items = []
        """)
        assert [f.rule for f in findings] == ["CL101"]
        assert findings[0].scope == "Cache.reset"

    def test_inherited_lock_declared_by_class_annotation(self):
        findings = lint("""
        class Tracked(Base):
            _lock: threading.Lock  # guards: _edges

            def __init__(self):
                super().__init__()
                self._edges = {}

            def bad(self):
                return len(self._edges)

            def good(self):
                with self._lock:
                    return len(self._edges)
        """)
        assert [(f.rule, f.scope) for f in findings] == [("CL101", "Tracked.bad")]


class TestCL102:
    def test_module_lock_inversion(self):
        findings = lint("""
        import threading

        alpha_lock = threading.Lock()
        beta_lock = threading.Lock()

        def one():
            with alpha_lock:
                with beta_lock:
                    pass

        def two():
            with beta_lock:
                with alpha_lock:
                    pass
        """)
        assert [f.rule for f in findings] == ["CL102"]
        assert "alpha_lock" in findings[0].message
        assert "beta_lock" in findings[0].message

    def test_consistent_order_is_clean(self):
        assert lint("""
        import threading

        alpha_lock = threading.Lock()
        beta_lock = threading.Lock()

        def one():
            with alpha_lock:
                with beta_lock:
                    pass

        def two():
            with alpha_lock:
                with beta_lock:
                    pass
        """) == []

    def test_three_lock_chain_cycle(self):
        findings = lint("""
        import threading

        a_lock = threading.Lock()
        b_lock = threading.Lock()
        c_lock = threading.Lock()

        def f():
            with a_lock:
                with b_lock:
                    pass

        def g():
            with b_lock:
                with c_lock:
                    pass

        def h():
            with c_lock:
                with a_lock:
                    pass
        """)
        assert [f.rule for f in findings] == ["CL102"]

    def test_cross_file_inversion(self, tmp_path):
        # Each file's nesting is locally consistent; only the aggregated
        # order graph (what two modules sharing one Engine do) cycles.
        ab = tmp_path / "engine_query.py"
        ab.write_text(textwrap.dedent("""
            class Engine:
                def query(self):
                    with self.cache_lock:
                        with self.stats_lock:
                            pass
        """))
        ba = tmp_path / "engine_maintenance.py"
        ba.write_text(textwrap.dedent("""
            class Engine:
                def compact(self):
                    with self.stats_lock:
                        with self.cache_lock:
                            pass
        """))
        assert lint_file(str(ab), CONC) == []
        assert lint_file(str(ba), CONC) == []
        findings = lint_paths([str(tmp_path)], CONC)
        assert [f.rule for f in findings] == ["CL102"]
        assert "engine_query.py" in findings[0].message
        assert "engine_maintenance.py" in findings[0].message


class TestCL103:
    def test_future_result_under_lock(self):
        findings = lint("""
        import threading

        work_lock = threading.Lock()

        def fetch(pool):
            with work_lock:
                return pool.submit(min, 1, 2).result()
        """)
        assert [f.rule for f in findings] == ["CL103"]
        assert "Future.result()" in findings[0].message

    def test_queue_get_with_timeout_under_lock(self):
        findings = lint("""
        import threading

        work_lock = threading.Lock()

        def drain(q):
            with work_lock:
                return q.get(timeout=1.0)
        """)
        assert [f.rule for f in findings] == ["CL103"]

    def test_dict_get_and_str_join_are_not_blocking(self):
        assert lint("""
        import threading

        work_lock = threading.Lock()

        def fine(mapping, parts):
            with work_lock:
                return mapping.get("key"), ", ".join(parts)
        """) == []

    def test_blocking_call_without_lock_is_fine(self):
        assert lint("""
        def fetch(pool):
            return pool.submit(min, 1, 2).result()
        """) == []


class TestCL104:
    SRC = """
    import threading

    _cache = {}
    _cache_lock = threading.Lock()  # guards: _cache
    _total = 0

    def bad(key, value):
        _cache[key] = value

    def good(key, value):
        with _cache_lock:
            _cache[key] = value

    def bump():
        global _total
        _total += 1
    """

    def test_unguarded_mutations_flagged(self):
        findings = lint(self.SRC)
        assert Counter(f.rule for f in findings) == {"CL104": 2}
        assert {f.scope for f in findings} == {"bad", "bump"}

    def test_guarded_mutation_is_clean(self):
        assert not any(f.scope == "good" for f in lint(self.SRC))

    def test_mutator_method_call_flagged(self):
        findings = lint("""
        import threading

        _seen = set()
        _seen_lock = threading.Lock()

        def remember(item):
            _seen.add(item)
        """)
        assert [f.rule for f in findings] == ["CL104"]


class TestSuppression:
    def test_rule_scoped_suppression(self):
        findings = lint("""
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()  # guards: _items
                self._items = []

            def peek(self):
                return len(self._items)  # conc: ignore[CL101] - atomic len
        """)
        assert findings == []

    def test_wrong_rule_in_bracket_does_not_suppress(self):
        findings = lint("""
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()  # guards: _items
                self._items = []

            def peek(self):
                return len(self._items)  # conc: ignore[CL104]
        """)
        assert [f.rule for f in findings] == ["CL101"]

    def test_bare_suppression_covers_any_rule(self):
        findings = lint("""
        import threading

        _cache = {}

        def bad(key, value):
            _cache[key] = value  # conc: ignore - single-threaded tool
        """)
        assert findings == []


class TestSelectIgnore:
    def test_select_and_ignore(self):
        findings = lint_paths([PLANTED], CONC, select=["CL101", "CL102"])
        assert {f.rule for f in findings} == {"CL101", "CL102"}
        findings = lint_paths([PLANTED], CONC, ignore=["CL103"])
        assert "CL103" not in {f.rule for f in findings}


def test_shipped_package_passes_the_host_gate():
    """Every suppression in src/repro is justified; no open findings."""
    assert lint_paths([os.path.dirname(repro.__file__)], CONC) == []


class TestMultiprocessingLocks:
    """Locks built from multiprocessing ctors count, whatever their name."""

    def test_mp_lock_attr_guard_honored(self):
        findings = lint("""
            import multiprocessing

            class C:
                def __init__(self):
                    self._mu = multiprocessing.Lock()  # guards: _state
                    self._state = {}

                def good(self):
                    with self._mu:
                        self._state["k"] = 1

                def bad(self):
                    return self._state
        """)
        assert [(f.rule, f.scope) for f in findings] == [("CL101", "C.bad")]

    def test_mp_rlock_alias_import(self):
        findings = lint("""
            import multiprocessing as mp

            class C:
                def __init__(self):
                    self._gate = mp.RLock()  # guards: _n

                def ok(self):
                    with self._gate:
                        self._n += 1
        """)
        assert findings == []

    def test_spawn_context_lock(self):
        findings = lint("""
            from multiprocessing import get_context

            class C:
                def __init__(self):
                    self._mu = get_context("spawn").Lock()  # guards: _n

                def bad(self):
                    self._n += 1
        """)
        assert [f.rule for f in findings] == ["CL101"]

    def test_module_level_mp_lock_guards_cl104(self):
        findings = lint("""
            import multiprocessing as mp

            _mu = mp.Lock()  # guards: _cache
            _cache = {}

            def good():
                with _mu:
                    _cache["k"] = 1

            def bad():
                _cache["k"] = 2
        """)
        assert [(f.rule, f.scope) for f in findings] == [("CL104", "bad")]

    def test_blocking_under_unnamed_mp_lock_cl103(self):
        findings = lint("""
            from multiprocessing import Lock

            class D:
                def __init__(self):
                    self._gate = Lock()

                def run(self, fut):
                    with self._gate:
                        return fut.result()
        """)
        assert [f.rule for f in findings] == ["CL103"]

    def test_lock_order_cycle_across_mp_locks(self):
        findings = lint("""
            import multiprocessing

            class E:
                def __init__(self):
                    self._a = multiprocessing.Lock()
                    self._b = multiprocessing.Lock()

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._b:
                        with self._a:
                            pass
        """)
        assert "CL102" in {f.rule for f in findings}

    def test_non_lock_attr_still_ignored(self):
        findings = lint("""
            class F:
                def __init__(self):
                    self._items = list()

                def use(self):
                    with self._items:
                        pass
        """)
        assert findings == []
