"""Static resource-lifecycle and spawn-safety lint for the host layer.

The device analyzer (:mod:`repro.analysis.kernel_lint`) checks SIMT
invariants; the host analyzer (:mod:`repro.analysis.concurrency_lint`)
checks lock discipline. This third leg checks *resource lifetimes*: the
process tier (PR 6) and the persistent index store (PR 9) put named
``multiprocessing.shared_memory`` segments, mmap-backed bundle arrays and
cross-process ``fcntl`` file locks at the heart of the pipeline — exactly
the explicit-lifetime discipline the paper's GPU memory management lives
by, transplanted to the host. A leaked segment survives the process; a
stranded lock fd wedges every other builder of that key; an escaped mmap
view pins a bundle file past its store's life. None of that is visible to
the lock or SIMT passes.

Rules
-----

``RL101`` **shared-memory segment without guaranteed cleanup** *(error)*
    A ``SharedMemory(...)`` / ``.to_shared()`` creation whose result
    neither escapes the function (returned, yielded, stored on ``self``/
    a container, passed onward — ownership transfer) nor sees a
    ``close``/``unlink`` (``close_shared``/``unlink_shared``) call. A
    second message form fires when cleanup exists but is not on all exit
    paths: statements that can raise run between creation and a cleanup
    that is not inside a ``finally`` (or ``with``) block.

``RL102`` **non-spawn-safe field in a spec-protocol dataclass** *(error)*
    A dataclass whose name marks it as crossing process boundaries
    (``*Spec``/``*Locator``/``*Handle``/``*Payload``, the PR-6/7
    spec-protocol convention) declares a field whose annotation is a
    known non-picklable or non-spawn-safe type: locks, threads, pools,
    futures, tracers, callables/closures, mmap-backed arrays, open files,
    live ``SharedMemory`` objects. Such a field either fails to pickle or
    silently ships dead state into the worker.

``RL103`` **mmap-backed array escaping without copy** *(warning)*
    A value loaded via ``np.load(..., mmap_mode=...)`` / ``np.memmap``
    is returned or stored on an attribute without an intervening
    ``.copy()`` / ``np.array(...)``. The view pins the backing file: the
    owning store scope can neither delete nor replace the bundle while
    the array lives, and touching the array after deletion is undefined.
    Deliberate zero-copy tiers suppress with a justification.

``RL104`` **file lock acquired without guaranteed release** *(error)*
    ``fcntl.flock``/``lockf`` with an exclusive/shared request in a
    function that neither unlocks (``LOCK_UN``) nor closes the locked
    handle inside a ``finally`` block. Methods of lock-object classes
    that pair ``acquire``/``release`` (or ``__enter__``/``__exit__``)
    are exempt — the context-manager protocol is the guaranteed path.

``RL105`` **temp file/dir without cleanup** *(warning)*
    ``mkstemp``/``mkdtemp``/``NamedTemporaryFile(delete=False)`` whose
    path neither escapes nor is removed (``os.unlink``/``os.remove``/
    ``shutil.rmtree``/``.cleanup()``). Same all-exit-paths refinement as
    RL101.

A finding on a line whose trailing comment contains ``res: ignore`` (or
``res: ignore[RL103]`` for one rule) is suppressed; every suppression in
the shipped tree must carry a justification comment.

Run via ``gpumem analyze --resource [paths...]`` (or ``--all``); see
``docs/analysis.md``. The runtime twin is
:mod:`repro.analysis.resource_tracker`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis._framework import (
    LintFamily,
    Source,
    final_name,
    walk_no_nested_functions,
)

__all__ = ["FAMILY", "RL_RULES"]

#: rule id -> (severity, short description)
RL_RULES = {
    "RL101": ("error", "shared-memory segment created without guaranteed close/unlink"),
    "RL102": ("error", "non-spawn-safe field in a spec-protocol dataclass"),
    "RL103": ("warning", "mmap-backed array escapes its owning scope without copy"),
    "RL104": ("error", "file lock acquired without guaranteed release"),
    "RL105": ("warning", "temporary file/dir created without cleanup"),
}

#: Dataclass name suffixes that mark the spec protocol (things pickled
#: across the spawn boundary by design).
_SPEC_SUFFIXES = ("Spec", "Locator", "Handle", "Payload")

#: Annotation final names that are never spawn-safe in a pickled spec.
_NON_SPAWN_SAFE_TYPES = {
    "Lock", "RLock", "Condition", "Event", "Semaphore", "BoundedSemaphore",
    "Barrier", "Thread", "Queue", "SimpleQueue", "LifoQueue", "PriorityQueue",
    "Future", "ThreadPoolExecutor", "ProcessPoolExecutor", "Executor",
    "Callable", "Tracer", "LockTracker", "ResourceTracker", "Sanitizer",
    "SharedMemory", "memmap", "mmap", "IO", "TextIO", "BinaryIO",
    "TextIOWrapper", "BufferedReader", "BufferedWriter", "FileIO",
    "Generator", "Iterator", "IndexStore", "MemSession",
}

#: Cleanup method names that retire a shared-memory resource.
_SHM_CLEANUPS = {"close", "unlink", "close_shared", "unlink_shared"}
#: Cleanup method names that retire a temp file/dir handle.
_TMP_CLEANUPS = {"cleanup", "close"}
#: Free functions that, given the temp path (or any var), remove it.
_TMP_REMOVERS = {"unlink", "remove", "rmtree", "rmdir"}

#: ``fcntl`` request names that take a lock (vs ``LOCK_UN`` releasing it).
_FLOCK_ACQUIRE_FLAGS = {"LOCK_EX", "LOCK_SH"}


# --------------------------------------------------------------------------
# creation-site classification
# --------------------------------------------------------------------------


def _is_shm_create(value: ast.AST) -> bool:
    """``SharedMemory(...)`` with ``create=True`` or ``.to_shared(...)``."""
    if not isinstance(value, ast.Call):
        return False
    name = final_name(value.func)
    if name == "to_shared":
        return True
    if name == "SharedMemory":
        for kw in value.keywords:
            if kw.arg == "create" and isinstance(kw.value, ast.Constant):
                return bool(kw.value.value)
        return False
    return False


def _is_tmp_create(value: ast.AST) -> bool:
    """A temp artifact whose cleanup is the caller's problem."""
    if not isinstance(value, ast.Call):
        return False
    name = final_name(value.func)
    if name in ("mkstemp", "mkdtemp"):
        return True
    if name in ("NamedTemporaryFile", "TemporaryDirectory"):
        # With delete/cleanup left on, the object cleans itself up when
        # used as a context manager; delete=False hands over ownership.
        for kw in value.keywords:
            if (
                kw.arg == "delete"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
            ):
                return True
        return False
    return False


def _is_mmap_load(value: ast.AST) -> bool:
    """``np.load(..., mmap_mode=...)`` (non-None) or ``np.memmap(...)``."""
    if not isinstance(value, ast.Call):
        return False
    name = final_name(value.func)
    if name == "memmap":
        return True
    if name != "load":
        return False
    for kw in value.keywords:
        if kw.arg == "mmap_mode":
            if isinstance(kw.value, ast.Constant) and kw.value.value is None:
                return False
            return True
    return False


def _is_copy_wrapped(value: ast.AST) -> bool:
    """``x.copy()`` / ``np.array(x)`` / ``np.ascontiguousarray(x)`` etc."""
    if not isinstance(value, ast.Call):
        return False
    return final_name(value.func) in (
        "copy", "array", "asarray", "ascontiguousarray", "deepcopy",
    )


# --------------------------------------------------------------------------
# per-function lifetime analysis (RL101 / RL103 / RL105)
# --------------------------------------------------------------------------


@dataclass
class _Tracked:
    """One tracked resource variable inside a function body."""

    var: str
    rule: str
    node: ast.AST
    what: str
    cleanups: set
    removers: set
    #: statements that may raise seen after creation, before any cleanup
    risky_after_create: bool = False
    cleaned: bool = False
    cleanup_guaranteed: bool = False
    escaped: bool = False


class _FunctionLifetimes:
    """Track create -> cleanup/escape for one function body."""

    def __init__(self, module: "_ModuleAnalysis", func, scope: str,
                 in_lock_class: bool):
        self.m = module
        self.func = func
        self.scope = scope
        self.in_lock_class = in_lock_class
        self.tracked: dict[str, _Tracked] = {}
        #: var names assigned from an mmap load (RL103 taint set)
        self.mmap_vars: set[str] = set()
        #: resource name -> unlink call sites (duplicate-unlink detection)
        self.unlinks: dict[str, list[ast.Call]] = {}

    # -- entry -----------------------------------------------------------------
    def run(self) -> None:
        self._walk(self.func.body, in_finally=False)
        self._check_flock()
        for name, calls in self.unlinks.items():
            for call in calls[1:]:
                self.m.emit(
                    "RL101", call,
                    f"{name!r} is unlinked at {len(calls)} distinct sites in "
                    "one function — the second unlink races name reuse and "
                    "raises FileNotFoundError where the platform enforces it",
                    self.scope,
                )
        for t in self.tracked.values():
            if t.escaped:
                continue
            if not t.cleaned:
                self.m.emit(
                    t.rule, t.node,
                    f"{t.what} assigned to {t.var!r} is neither cleaned up "
                    f"({'/'.join(sorted(t.cleanups))}) nor handed off — it "
                    "leaks on every path",
                    self.scope,
                )
            elif t.risky_after_create and not t.cleanup_guaranteed:
                self.m.emit(
                    t.rule, t.node,
                    f"{t.what} assigned to {t.var!r} is cleaned up only on "
                    "the success path — statements between creation and "
                    "cleanup can raise; move the cleanup into a finally "
                    "block (or use a with statement)",
                    self.scope,
                )

    # -- statement walk ---------------------------------------------------------
    def _walk(self, stmts: list, in_finally: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Try):
                self._walk(stmt.body, in_finally)
                for handler in stmt.handlers:
                    self._walk(handler.body, in_finally)
                self._walk(stmt.orelse, in_finally)
                # Cleanup inside this finally covers raises in the try body.
                self._walk(stmt.finalbody, True)
                continue
            if isinstance(stmt, ast.With):
                for item in stmt.items:
                    self._scan_expr(item.context_expr)
                    # ``with closing(shm)`` / ``with SharedMemory(...)``:
                    # the context manager is the guaranteed cleanup.
                    if isinstance(item.context_expr, ast.Call) and (
                        _is_shm_create(item.context_expr)
                        or _is_tmp_create(item.context_expr)
                    ):
                        continue
                self._walk(stmt.body, in_finally)
                continue
            if isinstance(stmt, (ast.If, ast.While)):
                self._scan_expr(stmt.test)
                self._walk(stmt.body, in_finally)
                self._walk(stmt.orelse, in_finally)
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_expr(stmt.iter)
                self._walk(stmt.body, in_finally)
                self._walk(stmt.orelse, in_finally)
                continue
            self._leaf(stmt, in_finally)

    def _leaf(self, stmt: ast.stmt, in_finally: bool) -> None:
        if isinstance(stmt, ast.Assign):
            self._handle_assign(stmt.targets, stmt.value, stmt)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._handle_assign([stmt.target], stmt.value, stmt)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            self._handle_escape_expr(stmt.value)
            self._check_mmap_return(stmt)
        elif isinstance(stmt, ast.Expr):
            if isinstance(stmt.value, (ast.Yield, ast.YieldFrom)):
                if stmt.value.value is not None:
                    self._handle_escape_expr(stmt.value.value)
            else:
                self._scan_expr(stmt.value, cleanup_in_finally=in_finally)
        self._note_risky(stmt)

    # -- assignment handling ----------------------------------------------------
    def _handle_assign(self, targets, value, stmt) -> None:
        self._scan_expr(value)
        target_names = [
            t.id for t in targets if isinstance(t, ast.Name)
        ]
        # Attribute/subscript targets: storing a tracked or mmap var on
        # self/container is an escape (ownership transfer) — and for mmap
        # vars stored on an attribute, an RL103 finding.
        for t in targets:
            if isinstance(t, (ast.Attribute, ast.Subscript)):
                if isinstance(value, ast.Name):
                    self._mark_escape(value.id)
                    if value.id in self.mmap_vars and isinstance(t, ast.Attribute):
                        self._add_mmap_escape(stmt, value.id, "an attribute")
                if _is_mmap_load(value):
                    self._add_mmap_escape(stmt, final_name(value.func) or "load",
                                          "an attribute")
        # ``fd, path = mkstemp()``: the unpack target names all own it.
        for t in targets:
            if isinstance(t, ast.Tuple):
                target_names.extend(
                    e.id for e in t.elts if isinstance(e, ast.Name)
                )
        if not target_names:
            return
        var = target_names[0]
        if _is_shm_create(value):
            self._track(var, "RL101", stmt,
                        "shared-memory segment", _SHM_CLEANUPS, set())
        elif _is_tmp_create(value):
            # mkstemp returns (fd, path): the leak is reported once, on
            # the *path* name (the last unpacked element) — closing the fd
            # alone still leaves the file behind.
            self._track(target_names[-1], "RL105", stmt,
                        "temporary file/dir", _TMP_CLEANUPS, _TMP_REMOVERS)
        if _is_mmap_load(value):
            self.mmap_vars.add(var)
        elif isinstance(value, ast.Name) and value.id in self.mmap_vars:
            self.mmap_vars.add(var)
        elif _is_copy_wrapped(value):
            self.mmap_vars.discard(var)
        elif var in self.mmap_vars:
            self.mmap_vars.discard(var)  # rebound to something else

    def _track(self, var, rule, stmt, what, cleanups, removers) -> None:
        # mkstemp's fd element: the int fd has its own close path; track
        # the path-looking names only when both unpack to Names.
        self.tracked[var] = _Tracked(
            var=var, rule=rule, node=stmt, what=what,
            cleanups=set(cleanups), removers=set(removers),
        )

    # -- expression scanning ----------------------------------------------------
    def _scan_expr(self, node: ast.AST, cleanup_in_finally: bool = False) -> None:
        for sub in walk_no_nested_functions(node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            self._note_unlink(sub)
            if isinstance(func, ast.Attribute):
                recv = func.value
                if isinstance(recv, ast.Name) and recv.id in self.tracked:
                    t = self.tracked[recv.id]
                    if func.attr in t.cleanups:
                        t.cleaned = True
                        if cleanup_in_finally or not t.risky_after_create:
                            t.cleanup_guaranteed = cleanup_in_finally
                        continue
                if func.attr in _TMP_REMOVERS:
                    for arg in sub.args:
                        if isinstance(arg, ast.Name) and arg.id in self.tracked:
                            t = self.tracked[arg.id]
                            if func.attr in t.removers:
                                t.cleaned = True
                                t.cleanup_guaranteed = cleanup_in_finally
                    continue
            # A tracked var passed as a *call argument* transfers ownership
            # (registries, adopt(), caches): conservative no-finding.
            # Pure-inspection builtins cannot take ownership of anything.
            if (
                isinstance(func, ast.Name)
                and func.id in ("str", "repr", "len", "print", "format",
                                "int", "bool", "id", "type")
            ):
                continue
            for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
                if isinstance(arg, ast.Name):
                    self._mark_escape(arg.id)

    def _note_unlink(self, call: ast.Call) -> None:
        """Record a destroy-by-name call site for duplicate-unlink checks.

        ``x.unlink()`` / ``x.unlink_shared()`` keys on the receiver;
        module-level removers (``os.unlink(p)``) key on the path argument.
        ``Path.unlink(missing_ok=True)`` is explicitly idempotent — skipped.
        """
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in ("unlink", "unlink_shared"):
            return
        if any(kw.arg == "missing_ok" for kw in call.keywords):
            return
        recv = final_name(func.value)
        if recv in ("os", "shutil", "Path", "pathlib"):
            key = final_name(call.args[0]) if call.args else None
        else:
            key = recv
        if key is not None:
            self.unlinks.setdefault(key, []).append(call)

    def _handle_escape_expr(self, value: ast.AST) -> None:
        """Mark vars whose *ownership* leaves via a return/yield value.

        A bare tracked name (or one inside a container/call) escapes.
        Two shapes do not: ``x.attr`` (the attribute's value escapes, not
        the handle — returning ``shm.name`` leaks nothing the caller can
        close) and inspection builtins (``str(path)`` transfers nothing).
        """
        stack = [value]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Name):
                self._mark_escape(node.id)
                continue
            if isinstance(node, ast.Attribute):
                continue
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in ("str", "repr", "len", "format",
                                         "int", "bool", "id", "type"):
                continue
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                     ast.Lambda),
                ):
                    continue
                stack.append(child)

    def _mark_escape(self, name: str) -> None:
        t = self.tracked.get(name)
        if t is not None:
            t.escaped = True

    def _note_risky(self, stmt: ast.stmt) -> None:
        """Any call or raise after creation can skip a later cleanup."""
        may_raise = isinstance(stmt, ast.Raise) or any(
            isinstance(sub, ast.Call) for sub in walk_no_nested_functions(stmt)
        )
        if not may_raise:
            return
        for t in self.tracked.values():
            if not t.cleaned and getattr(stmt, "lineno", 0) > t.node.lineno:
                # Skip the cleanup calls themselves.
                if self._is_own_cleanup(stmt, t):
                    continue
                t.risky_after_create = True

    def _is_own_cleanup(self, stmt: ast.stmt, t: _Tracked) -> bool:
        for sub in walk_no_nested_functions(stmt):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and isinstance(sub.func.value, ast.Name)
                and sub.func.value.id == t.var
                and sub.func.attr in t.cleanups
            ):
                return True
        return False

    # -- RL103 (return path) ----------------------------------------------------
    def _check_mmap_return(self, stmt: ast.Return) -> None:
        value = stmt.value
        if isinstance(value, ast.Name) and value.id in self.mmap_vars:
            self._add_mmap_escape(stmt, value.id, "the caller")
        elif _is_mmap_load(value):
            self._add_mmap_escape(stmt, "np.load(mmap_mode=...)", "the caller")

    def _add_mmap_escape(self, node, what: str, where: str) -> None:
        self.m.emit(
            "RL103", node,
            f"mmap-backed array {what!r} escapes to {where} without a copy "
            "— the view pins the backing file beyond this scope; call "
            ".copy() (or np.array) before handing it out, or suppress with "
            "a justification if zero-copy is the contract",
            self.scope,
        )

    # -- RL104 ------------------------------------------------------------------
    def _check_flock(self) -> None:
        acquires: list[ast.Call] = []
        releases = 0
        release_in_finally = 0

        def scan(stmts, in_finally):
            nonlocal releases, release_in_finally
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                if isinstance(stmt, ast.Try):
                    scan(stmt.body, in_finally)
                    for handler in stmt.handlers:
                        scan(handler.body, in_finally)
                    scan(stmt.orelse, in_finally)
                    scan(stmt.finalbody, True)
                    continue
                for sub in walk_no_nested_functions(stmt):
                    if not isinstance(sub, ast.Call):
                        continue
                    name = final_name(sub.func)
                    if name not in ("flock", "lockf"):
                        if name == "close" and in_finally:
                            release_in_finally += 1
                        continue
                    flags = {
                        final_name(a) for a in sub.args
                    } | {
                        final_name(v) for a in sub.args
                        if isinstance(a, ast.BinOp)
                        for v in (a.left, a.right)
                    }
                    if flags & _FLOCK_ACQUIRE_FLAGS:
                        acquires.append(sub)
                    elif "LOCK_UN" in flags:
                        releases += 1
                        if in_finally:
                            release_in_finally += 1
                body = getattr(stmt, "body", None)
                if body and not isinstance(stmt, ast.Try):
                    scan(body, in_finally)
                    scan(getattr(stmt, "orelse", []), in_finally)

        scan(self.func.body, False)
        if not acquires:
            return
        if self.in_lock_class:
            # acquire/release (or __enter__/__exit__) pair on one class:
            # the paired method is the guaranteed release path.
            return
        if release_in_finally:
            return
        for call in acquires:
            self.m.emit(
                "RL104", call,
                "fcntl lock taken with no LOCK_UN/close in a finally block "
                "— an exception after the acquire strands the lock (and its "
                "fd) until process exit; pair the acquire with a "
                "try/finally release or wrap the lock in a context manager",
                self.scope,
            )


# --------------------------------------------------------------------------
# module-level pass
# --------------------------------------------------------------------------


class _ModuleAnalysis:
    """One module's resource pass: RL101-RL105 findings."""

    def __init__(self, tree: ast.Module, emit):
        self.tree = tree
        self.emit = emit

    def run(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.ClassDef):
                self._check_class(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _FunctionLifetimes(self, node, node.name, False).run()

    # -- classes ----------------------------------------------------------------
    def _check_class(self, cls: ast.ClassDef) -> None:
        if self._is_dataclass(cls) and cls.name.endswith(_SPEC_SUFFIXES):
            self._check_spec_fields(cls)
        method_names = {
            m.name for m in cls.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        is_lock_class = (
            {"acquire", "release"} <= method_names
            or {"__enter__", "__exit__"} <= method_names
        )
        for method in cls.body:
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _FunctionLifetimes(
                    self, method, f"{cls.name}.{method.name}", is_lock_class
                ).run()

    @staticmethod
    def _is_dataclass(cls: ast.ClassDef) -> bool:
        for dec in cls.decorator_list:
            name = final_name(dec.func if isinstance(dec, ast.Call) else dec)
            if name == "dataclass":
                return True
        return False

    def _check_spec_fields(self, cls: ast.ClassDef) -> None:
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            if not isinstance(stmt.target, ast.Name):
                continue
            bad = self._non_spawn_safe(stmt.annotation)
            if bad is None and stmt.value is not None:
                if isinstance(stmt.value, ast.Lambda):
                    bad = "lambda default"
            if bad is not None:
                self.emit(
                    "RL102", stmt,
                    f"field {stmt.target.id!r} of spec-protocol dataclass "
                    f"{cls.name} has non-spawn-safe type {bad!r}: it cannot "
                    "(or must not) cross the pickle/spawn boundary — ship a "
                    "name/path/bytes surrogate instead",
                    cls.name,
                )

    def _non_spawn_safe(self, annotation: ast.AST) -> str | None:
        """The offending type name inside an annotation, or None."""
        for sub in ast.walk(annotation):
            name = None
            if isinstance(sub, (ast.Name, ast.Attribute)):
                name = final_name(sub)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                # string annotations: cheap containment check
                for known in _NON_SPAWN_SAFE_TYPES:
                    if known in sub.value:
                        name = known
                        break
            if name in _NON_SPAWN_SAFE_TYPES:
                return name
        return None


def _check(source: Source, emit, facts: list) -> None:
    _ModuleAnalysis(source.tree, emit).run()


FAMILY = LintFamily(tag="res", rules=RL_RULES, check=_check)
