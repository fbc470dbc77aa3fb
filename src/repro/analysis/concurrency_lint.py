"""Static lock-discipline lint for the threaded host layer.

The device side of this repo has :mod:`repro.analysis.kernel_lint`; this
module is its host-side sibling. The batched engine
(:mod:`repro.core.batch`), the single-flight session cache
(:mod:`repro.core.session`) and the observability layer
(:mod:`repro.obs`) are real multi-threaded code, and the PR-4 bugs that
motivated this pass (a duplicate-build race and a ``cache_info()``
iteration race) were both found by hand. This AST pass makes that bug
class machine-checkable.

Lock protocol annotation
------------------------

A class declares which attributes a lock guards with a trailing comment
on the lock's creation line::

    self._lock = threading.Lock()  # guards: _row_indexes, _hits, _misses

A subclass that inherits its lock declares what the lock guards for it
with a class-level annotation::

    _lock: threading.Lock  # guards: _edges, _n_locks

Module-level locks use the same convention::

    _session_cache_lock = threading.Lock()  # guards: _session_cache

Both ``threading`` and ``multiprocessing`` lock constructors are
recognized (``Lock()``/``RLock()`` by final call name, so ``mp.Lock()``
and ``get_context("spawn").RLock()`` count), as are the injectable
``new_lock``/``new_rlock`` factories; a lock created that way is tracked
even when its variable name does not contain "lock".

Rules
-----

``CL101`` **guarded attribute outside its lock** *(error, class scope)*
    A ``self.<attr>`` access (read or write) to an attribute listed in a
    ``# guards:`` annotation, in a method body that does not hold the
    declaring lock via ``with self.<lock>:``. ``__init__``/``__new__``
    are exempt (construction is single-threaded by convention).

``CL102`` **inconsistent lock order** *(error, whole-tree scope)*
    Somewhere lock A is acquired while B is held and somewhere else B is
    acquired while A is held (directly or through a longer chain). Two
    threads taking the two paths concurrently can deadlock. The lint
    builds a lock-order graph over every ``with <lock>:`` nesting in the
    linted tree (lock identity is the *name*, lockdep-style: every
    per-row build lock is one lock class) and reports each cycle once.

``CL103`` **blocking call while holding a lock** *(warning)*
    ``Future.result()``, ``Condition/Event.wait()``, ``Thread.join()``,
    ``lock.acquire()``, ``Queue.get(timeout=...)``, ``time.sleep()`` or
    ``open()`` inside a ``with <lock>:`` body. A blocked holder stalls
    every waiter; if the blocked-on work needs the same lock, that is a
    deadlock.

``CL104`` **unguarded module-level mutable state** *(warning, module scope)*
    A function mutates a module-level dict/list/set/deque (or rebinds a
    ``global``) without holding any module-level lock. Process-wide
    caches like ``get_session``'s LRU are exactly where this bites.

A finding on a line whose trailing comment contains ``conc: ignore`` (or
``conc: ignore[CL101]`` for one rule) is suppressed; every suppression in
the shipped tree must carry a justification comment.

Run via ``gpumem analyze --host [paths...]`` (or ``--all`` together with
the SIMT kernel lint); see ``docs/analysis.md``.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass

from repro.analysis._framework import (
    Finding,
    LintFamily,
    Source,
    final_name,
    walk_no_nested_functions,
)

__all__ = ["CL_RULES", "FAMILY"]

#: rule id -> (severity, short description)
CL_RULES = {
    "CL101": ("error", "guarded attribute accessed outside its declared lock"),
    "CL102": ("error", "inconsistent lock acquisition order (potential deadlock)"),
    "CL103": ("warning", "blocking call while holding a lock"),
    "CL104": ("warning", "module-level mutable state mutated without a module lock"),
}

_GUARDS_RE = re.compile(r"#\s*guards:\s*([A-Za-z0-9_,\s]+)")
#: Constructor final names that plainly build a lock. Matched on the last
#: attribute of the call chain, so ``threading.Lock()``,
#: ``multiprocessing.Lock()``, ``mp.RLock()`` and
#: ``get_context("spawn").Lock()`` all qualify.
_LOCK_CTORS = {"Lock", "RLock"}
_LOCK_FACTORIES = {"new_lock", "new_rlock", "lock", "rlock"}
_MUTABLE_CTORS = {
    "dict", "list", "set", "OrderedDict", "defaultdict", "deque", "Counter",
}
_MUTATOR_METHODS = {
    "append", "appendleft", "extend", "insert", "add", "update",
    "setdefault", "pop", "popleft", "popitem", "clear", "remove",
    "discard", "move_to_end",
}
#: construction-time methods where CL101 does not apply
_CTOR_METHODS = {"__init__", "__new__", "__post_init__"}


@dataclass(frozen=True)
class LockEdge:
    """``held -> acquired`` observation: one nesting site in the source."""

    src: str
    dst: str
    path: str
    line: int
    col: int
    scope: str


def _looks_like_lock_ctor(value: ast.AST) -> bool:
    """RHS that plainly constructs a lock (threading.Lock(), new_lock(...))."""
    if not isinstance(value, ast.Call):
        return False
    name = final_name(value.func)
    return name in _LOCK_CTORS or name in _LOCK_FACTORIES


def _blocking_call(node: ast.Call) -> str | None:
    """A human-readable label if ``node`` is a known blocking call."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id == "open":
            return "open()"
        if func.id in ("sleep", "wait"):
            return f"{func.id}()"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    attr = func.attr
    recv = func.value
    if attr == "sleep":
        return "time.sleep()" if final_name(recv) == "time" else None
    if attr == "result":
        return "Future.result()"
    if attr == "wait":
        return f"{final_name(recv) or '<obj>'}.wait()"
    if attr == "acquire":
        return f"{final_name(recv) or '<lock>'}.acquire()"
    if attr == "join":
        # str.join / os.path.join are not blocking; Thread/Process.join is.
        if isinstance(recv, ast.Constant):
            return None
        if final_name(recv) in ("os", "path", "posixpath", "ntpath"):
            return None
        return f"{final_name(recv) or '<obj>'}.join()"
    if attr == "get":
        # dict.get is everywhere; only a timeout/block kwarg marks a queue.
        if any(k.arg in ("timeout", "block") for k in node.keywords):
            return f"{final_name(recv) or '<queue>'}.get(timeout=...)"
        return None
    return None


class _ModuleAnalysis:
    """One module's pass: findings (CL101/103/104) plus lock-order edges."""

    def __init__(self, source: Source, emit, edges: list[LockEdge]):
        self.tree = source.tree
        self.path = source.path
        self.lines = source.lines
        self.emit = emit
        self.modname = os.path.splitext(os.path.basename(self.path))[0]
        self.edges = edges
        #: module-level lock names
        self.module_locks: set[str] = set()
        #: module-level mutable names (containers, or global-rebound scalars)
        self.module_mutables: set[str] = set()
        self.module_names: set[str] = set()
        #: class name -> attr names assigned from a lock constructor
        #: (``self._mu = multiprocessing.Lock()``); lets :meth:`lock_key`
        #: recognize locks whose names do not contain "lock".
        self.class_lock_attrs: dict[str, set[str]] = {}
        self._collect_module_state()

    # -- annotation / declaration harvesting --------------------------------
    def _guards_on_line(self, lineno: int) -> list[str] | None:
        if not (1 <= lineno <= len(self.lines)):
            return None
        match = _GUARDS_RE.search(self.lines[lineno - 1])
        if not match:
            return None
        return [n.strip() for n in match.group(1).split(",") if n.strip()]

    def _collect_module_state(self) -> None:
        for node in self.tree.body:
            targets: list[ast.expr] = []
            value: ast.AST | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                self.module_names.add(name)
                if _looks_like_lock_ctor(value) or "lock" in name.lower():
                    self.module_locks.add(name)
                elif isinstance(
                    value,
                    (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                     ast.SetComp),
                ) or (
                    isinstance(value, ast.Call)
                    and final_name(value.func) in _MUTABLE_CTORS
                ):
                    self.module_mutables.add(name)
        # Scalars only count as mutable state once a function rebinds them
        # through ``global`` (e.g. the ``_lru_hits`` counters).
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Global):
                for name in node.names:
                    if name in self.module_names and name not in self.module_locks:
                        self.module_mutables.add(name)

    def run(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.ClassDef):
                _ClassChecker(self, node).run()
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _ScopeWalker(self, scope=node.name).walk(node.body, ())

    # -- lock identity --------------------------------------------------------
    def lock_key(self, expr: ast.AST, owner: str | None) -> str | None:
        """Canonical lock-class key of a with-item, or None if not a lock.

        ``with self.X:`` inside class C keys as ``C.X``; a bare name keys
        as ``<module>.N`` when module-level, else ``<owner>.N``. Identity
        is by *name* (lockdep-style lock classes), so e.g. every per-row
        build lock of a session is one class. A name qualifies either by
        containing "lock" or by having been assigned from a recognized
        lock constructor (``threading``/``multiprocessing`` ``Lock`` /
        ``RLock``, or a ``new_lock``-style factory).
        """
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            if expr.value.id == "self" and owner:
                name = expr.attr
                cls = owner.split(".", 1)[0]
                if "lock" in name.lower() or name in self.class_lock_attrs.get(cls, ()):
                    return f"{cls}.{name}"
            return None
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in self.module_locks:
                return f"{self.modname}.{name}"
            if "lock" in name.lower():
                prefix = owner.split(".", 1)[0] if owner else self.modname
                return f"{prefix}.{name}"
        return None


class _ScopeWalker:
    """Held-lock-aware statement walker shared by class and module scopes."""

    def __init__(
        self,
        module: _ModuleAnalysis,
        scope: str,
        guarded_by: dict[str, str] | None = None,
        class_name: str | None = None,
        check_guards: bool = True,
    ):
        self.m = module
        self.scope = scope
        self.guarded_by = guarded_by or {}
        self.class_name = class_name
        self.check_guards = check_guards

    # -- statement recursion ---------------------------------------------------
    def walk(self, stmts: list[ast.stmt], held: tuple[str, ...]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested def may run on another thread (worker closures):
                # analyze it with an empty held set.
                self.walk(stmt.body, ())
                continue
            if isinstance(stmt, ast.ClassDef):
                continue
            if isinstance(stmt, ast.With):
                new_held = held
                for item in stmt.items:
                    self._check_exprs(item.context_expr, new_held)
                    key = self.m.lock_key(item.context_expr, self.class_name
                                          or self.scope)
                    if key is not None:
                        for h in new_held:
                            if h != key:
                                self.m.edges.append(
                                    LockEdge(h, key, self.m.path, stmt.lineno,
                                             stmt.col_offset, self.scope)
                                )
                        new_held = new_held + (key,)
                self.walk(stmt.body, new_held)
                continue
            if isinstance(stmt, ast.If):
                self._check_exprs(stmt.test, held)
                self.walk(stmt.body, held)
                self.walk(stmt.orelse, held)
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._check_exprs(stmt.iter, held)
                self._check_store_target(stmt.target, held, stmt)
                self.walk(stmt.body, held)
                self.walk(stmt.orelse, held)
                continue
            if isinstance(stmt, ast.While):
                self._check_exprs(stmt.test, held)
                self.walk(stmt.body, held)
                self.walk(stmt.orelse, held)
                continue
            if isinstance(stmt, ast.Try):
                self.walk(stmt.body, held)
                for handler in stmt.handlers:
                    self.walk(handler.body, held)
                self.walk(stmt.orelse, held)
                self.walk(stmt.finalbody, held)
                continue
            # leaf statement: expression-level checks + mutation checks
            self._check_mutation(stmt, held)
            self._check_exprs(stmt, held)

    # -- expression-level checks ----------------------------------------------
    def _check_exprs(self, node: ast.AST, held: tuple[str, ...]) -> None:
        for sub in walk_no_nested_functions(node):
            if (
                self.check_guards
                and isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
                and sub.attr in self.guarded_by
            ):
                guard = self.guarded_by[sub.attr]
                key = f"{self.class_name}.{guard}"
                if key not in held:
                    self.m.emit(
                        "CL101", sub,
                        f"self.{sub.attr} is declared '# guards:' by "
                        f"self.{guard} but is accessed without holding it "
                        f"(wrap in 'with self.{guard}:')",
                        self.scope,
                    )
            if isinstance(sub, ast.Call) and held:
                label = _blocking_call(sub)
                if label is not None:
                    self.m.emit(
                        "CL103", sub,
                        f"blocking call {label} while holding "
                        f"{', '.join(held)} — waiters stall behind the "
                        "blocked holder (deadlock if the blocked-on work "
                        "needs the same lock)",
                        self.scope,
                    )

    def _check_store_target(self, target: ast.AST, held, stmt) -> None:
        self._check_exprs(target, held)

    # -- CL104 ------------------------------------------------------------------
    def _module_lock_held(self, held: tuple[str, ...]) -> bool:
        return any(
            h.startswith(f"{self.m.modname}.")
            and h.split(".", 1)[1] in self.m.module_locks
            for h in held
        )

    def _check_mutation(self, stmt: ast.stmt, held: tuple[str, ...]) -> None:
        mutated: list[tuple[str, ast.AST]] = []
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            for t in ([target] if not isinstance(target, (ast.Tuple, ast.List))
                      else target.elts):
                if isinstance(t, ast.Name) and t.id in self.m.module_mutables:
                    mutated.append((t.id, t))
                elif (
                    isinstance(t, ast.Subscript)
                    and isinstance(t.value, ast.Name)
                    and t.value.id in self.m.module_mutables
                ):
                    mutated.append((t.value.id, t))
        for sub in walk_no_nested_functions(stmt):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _MUTATOR_METHODS
                and isinstance(sub.func.value, ast.Name)
                and sub.func.value.id in self.m.module_mutables
            ):
                mutated.append((sub.func.value.id, sub))
        if not mutated or self._module_lock_held(held):
            return
        for name, node in mutated:
            locks = ", ".join(sorted(self.m.module_locks)) or "none declared"
            self.m.emit(
                "CL104", node,
                f"module-level mutable {name!r} mutated without holding a "
                f"module lock (module locks: {locks})",
                self.scope,
            )


class _ClassChecker:
    """Harvest a class's ``# guards:`` protocol and check every method."""

    def __init__(self, module: _ModuleAnalysis, cls: ast.ClassDef):
        self.m = module
        self.cls = cls
        #: guarded attr name -> declaring lock attr name
        self.guarded_by: dict[str, str] = {}
        self._harvest()

    def _harvest(self) -> None:
        for method in self.cls.body:
            if isinstance(method, ast.AnnAssign) and isinstance(method.target, ast.Name):
                # ``_lock: threading.Lock  # guards: ...`` on an inherited lock
                for attr in self.m._guards_on_line(method.lineno) or ():
                    self.guarded_by[attr] = method.target.id
                continue
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in walk_no_nested_functions(method):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    if _looks_like_lock_ctor(node.value):
                        self.m.class_lock_attrs.setdefault(
                            self.cls.name, set()
                        ).add(target.attr)
                    guarded = self.m._guards_on_line(node.lineno)
                    if guarded:
                        for attr in guarded:
                            self.guarded_by[attr] = target.attr

    def run(self) -> None:
        for method in self.cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            walker = _ScopeWalker(
                self.m,
                scope=f"{self.cls.name}.{method.name}",
                guarded_by=self.guarded_by,
                class_name=self.cls.name,
                check_guards=method.name not in _CTOR_METHODS,
            )
            walker.walk(method.body, ())


# --------------------------------------------------------------------------
# lock-order graph / CL102
# --------------------------------------------------------------------------


def _order_cycles(edges: list[LockEdge]) -> list[Finding]:
    """One CL102 finding per distinct cycle in the aggregated order graph."""
    graph: dict[str, dict[str, LockEdge]] = {}
    for edge in edges:
        graph.setdefault(edge.src, {}).setdefault(edge.dst, edge)

    def path_between(start: str, goal: str) -> list[LockEdge] | None:
        seen = {start}
        stack: list[tuple[str, list[LockEdge]]] = [(start, [])]
        while stack:
            node, path = stack.pop()
            for nxt, edge in sorted(graph.get(node, {}).items()):
                if nxt == goal:
                    return path + [edge]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [edge]))
        return None

    findings: list[Finding] = []
    reported: set[frozenset] = set()
    for edge in edges:
        back = path_between(edge.dst, edge.src)
        if back is None:
            continue
        cycle = [edge] + back
        signature = frozenset((e.src, e.dst) for e in cycle)
        if signature in reported:
            continue
        reported.add(signature)
        chain = "; ".join(
            f"{e.src} -> {e.dst} at {e.path}:{e.line} ({e.scope})"
            for e in cycle
        )
        findings.append(
            Finding(
                rule="CL102",
                severity=CL_RULES["CL102"][0],
                path=edge.path,
                line=edge.line,
                col=edge.col,
                message=(
                    "inconsistent lock order — two threads taking these "
                    f"paths concurrently can deadlock: {chain}"
                ),
                scope=edge.scope,
            )
        )
    return findings


def _check(source: Source, emit, edges: list) -> None:
    _ModuleAnalysis(source, emit, edges).run()


#: CL102 runs over the lock-order graph aggregated across every linted file
FAMILY = LintFamily(tag="conc", rules=CL_RULES, check=_check, cross_file=_order_cycles)
