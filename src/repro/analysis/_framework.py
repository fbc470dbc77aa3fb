"""Shared machinery under the three static+runtime analyzer pairs.

Each family — SIMT kernels (tag ``simt``, KL rules), host locks (``conc``,
CL rules) and IPC resource lifetimes (``res``, RL rules) — keeps only its
own rules and events; everything else lives here:

- one :class:`Finding` record with its text and JSON reporters;
- the AST helpers the rule passes walk with;
- one ``# <tag>: ignore[CODE, ...]`` suppression parser;
- one path linter (:func:`lint_paths`): it parses each file once for every
  requested family, runs each family's cross-file pass, then suppresses,
  filters (``select`` / ``ignore``) and sorts;
- a :class:`Tracker` base for the runtime twins (mode, findings, metrics)
  and an :class:`InstallSlot` holding a family's process-wide tracker.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import threading
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

from repro.errors import AnalysisInputError

#: suppression tags of the static families, in report order
TAGS = ("simt", "conc", "res")


# --------------------------------------------------------------------------
# findings and reporters
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One static finding, with enough provenance to be a CI gate message.

    ``scope`` names the enclosing kernel, function, method or class; it is
    None for module-level findings.
    """

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    scope: str | None = None

    def format(self) -> str:
        where = f"{self.path}:{self.line}:{self.col}"
        scope = f" [{self.scope}]" if self.scope else ""
        return f"{where}: {self.rule} {self.severity}:{scope} {self.message}"


def format_findings(findings) -> str:
    """Human-readable report: one line per finding plus a summary line."""
    lines = [f.format() for f in findings]
    n_err = sum(1 for f in findings if f.severity == "error")
    n_warn = len(findings) - n_err
    lines.append(f"{len(findings)} finding(s): {n_err} error(s), {n_warn} warning(s)")
    return "\n".join(lines)


def findings_to_json(findings) -> str:
    """Findings as a JSON array (``gpumem analyze --format json``)."""
    return json.dumps([asdict(f) for f in findings], indent=2)


# --------------------------------------------------------------------------
# AST helpers and suppression
# --------------------------------------------------------------------------


def final_name(expr: ast.AST) -> str | None:
    """The trailing identifier of a Name/Attribute chain, else None."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def walk_no_nested_functions(node: ast.AST):
    """``ast.walk`` that does not descend into nested function/class defs."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        for child in ast.iter_child_nodes(cur):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                continue
            stack.append(child)


def is_suppressed(lines, line: int, tag: str, rule: str) -> bool:
    """Does ``# <tag>: ignore`` (bare, or naming ``rule``) cover ``line``?

    A bracket that never closes suppresses nothing.
    """
    if not 1 <= line <= len(lines):
        return False
    marker = f"{tag}: ignore"
    text = lines[line - 1]
    if marker not in text:
        return False
    rest = text.split(marker, 1)[1]
    if not rest.startswith("["):
        return True
    codes, closed, _ = rest[1:].partition("]")
    return bool(closed) and rule in {c.strip() for c in codes.split(",")}


# --------------------------------------------------------------------------
# static families and the path linter
# --------------------------------------------------------------------------


class Source(NamedTuple):
    """One parsed module, shared by every family that lints it."""

    tree: ast.Module
    path: str
    lines: list


#: ``emit(rule, node, message, scope=None)``: record a finding at ``node``
Emit = Callable[..., None]


@dataclass(frozen=True)
class LintFamily:
    """One static rule family.

    ``check(source, emit, facts)`` lints one module; it may append
    cross-file facts to ``facts`` (one list per family per run), which
    ``cross_file(facts)`` turns into findings once every file is seen.
    """

    tag: str
    rules: dict
    check: Callable[[Source, Emit, list], None]
    cross_file: Callable[[list], list] | None = None


def _families(tags) -> list[LintFamily]:
    from repro.analysis import concurrency_lint, kernel_lint, resource_lint

    known = {
        m.FAMILY.tag: m.FAMILY for m in (kernel_lint, concurrency_lint, resource_lint)
    }
    unknown = [t for t in tags if t not in known]
    if unknown:
        raise ValueError(f"unknown analyzer families {unknown}; expected {TAGS}")
    return [known[t] for t in tags]


def _python_files(paths) -> list[str]:
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            for root, _dirs, names in os.walk(p):
                files.extend(os.path.join(root, n) for n in names if n.endswith(".py"))
        else:
            files.append(p)
    return sorted(set(files))


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise AnalysisInputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise AnalysisInputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _emitter(family: LintFamily, path: str, out: list) -> Emit:
    def emit(rule: str, node: ast.AST, message: str, scope: str | None = None) -> None:
        out.append(Finding(
            rule=rule, severity=family.rules[rule][0], path=path,
            line=getattr(node, "lineno", 1), col=getattr(node, "col_offset", 0),
            message=message, scope=scope,
        ))

    return emit


def _lint(sources, tags, select, ignore) -> list[Finding]:
    families = _families(tags)
    found: dict[str, list[Finding]] = {fam.tag: [] for fam in families}
    facts: dict[str, list] = {fam.tag: [] for fam in families}
    lines_by_path: dict[str, list[str]] = {}
    for path, text in sources:
        try:
            tree = ast.parse(text, filename=path)
        except SyntaxError as exc:
            raise AnalysisInputError(
                f"{path}: syntax error at line {exc.lineno}: {exc.msg}"
            ) from None
        source = Source(tree, path, text.splitlines())
        lines_by_path[path] = source.lines
        for fam in families:
            fam.check(source, _emitter(fam, path, found[fam.tag]), facts[fam.tag])
    findings: list[Finding] = []
    for fam in families:
        if fam.cross_file is not None:
            found[fam.tag] += fam.cross_file(facts[fam.tag])
        findings += [
            f for f in found[fam.tag]
            if not is_suppressed(lines_by_path.get(f.path, ()), f.line, fam.tag, f.rule)
        ]
    if select:
        allowed = set(select)
        findings = [f for f in findings if f.rule in allowed]
    if ignore:
        blocked = set(ignore)
        findings = [f for f in findings if f.rule not in blocked]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_paths(paths, families=TAGS, *, select=None, ignore=None) -> list[Finding]:
    """Lint files and/or directory trees of ``*.py`` files.

    ``families`` are suppression tags (:data:`TAGS`); ``select`` /
    ``ignore`` are rule ids filtering the output. A missing, unreadable or
    unparsable file raises :class:`~repro.errors.AnalysisInputError`.
    """
    files = _python_files(paths)
    return _lint(((f, _read(f)) for f in files), families, select, ignore)


def lint_file(path: str, families=TAGS) -> list[Finding]:
    """Lint one ``.py`` file (see :func:`lint_paths`)."""
    return lint_paths([path], families)


def lint_source(source: str, path: str = "<string>", families=TAGS) -> list[Finding]:
    """Lint one module's source text (cross-file passes see only it)."""
    return _lint([(path, source)], families, None, None)


# --------------------------------------------------------------------------
# runtime twins
# --------------------------------------------------------------------------


def call_site(depth: int) -> str:
    """Cheap ``file:line`` of the frame ``depth`` levels up (no stack walk)."""
    try:
        frame = sys._getframe(depth)
    except ValueError:  # pragma: no cover - shallow stacks in exotic embeds
        return "<unknown>"
    return f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_lineno}"


class Tracker:
    """Base of the runtime twins: mode, findings under a lock, metrics.

    ``mode="raise"`` raises the family's structured error at the event
    that produced a finding; ``"collect"`` only records it. ``metrics``
    defaults to a fresh :class:`repro.obs.metrics.MetricsRegistry`, whose
    internal locks are plain (never tracked), so emission cannot recurse
    into a tracker.
    """

    #: noun of the :meth:`format_findings` summary line
    noun = "tracker"

    def __init__(self, mode: str = "raise", metrics=None):
        if mode not in ("raise", "collect"):
            raise ValueError(f"mode must be 'raise' or 'collect', got {mode!r}")
        self.mode = mode
        if metrics is None:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics
        self._lock = threading.Lock()  # guards: findings
        self.findings: list = []

    def bind_metrics(self, registry) -> None:
        """Redirect metric emission into ``registry``.

        In a procpool worker this is the :class:`WorkerObs` registry, so
        the counters ride the ``ObsPayload`` delta freight back to the
        parent tracer like every other ``proc.*`` series.
        """
        self.metrics = registry

    def _report(self, findings, error: Exception | None = None) -> None:
        """Record ``findings``; in raise mode, then raise ``error``."""
        with self._lock:
            self.findings.extend(findings)
        if error is not None and self.mode == "raise":
            raise error

    def format_findings(self) -> str:
        with self._lock:
            findings = list(self.findings)
        return "\n".join([f.format() for f in findings] + [self._summary(findings)])

    def _summary(self, findings) -> str:
        return f"{len(findings)} {self.noun} finding(s)"

    # -- per-test accounting (the pytest plugin's teardown checks) -------------
    def checkpoint(self):
        """A mark for :meth:`problems_since`."""
        with self._lock:
            return len(self.findings)

    def problems_since(self, mark) -> list[str]:
        """Formatted findings recorded after ``mark``."""
        with self._lock:
            return [f.format() for f in self.findings[mark:]]


def env_flag(name: str) -> bool:
    """Is the switch ``name`` on (``1`` / ``true`` / ``on``)?"""
    return os.environ.get(name, "").lower() in ("1", "true", "on")


class InstallSlot:
    """One family's process-wide tracker: installed, or built from env.

    With no tracker installed, the first :meth:`active` call checks the
    ``env_var`` switch once and, when it is on, installs ``factory()`` (a
    raise-mode tracker). That is how CI legs and spawned workers, which
    inherit the environment, run under a tracker without touching a call
    site. Hooks pay one call plus a ``None`` check when no tracker is on.
    """

    def __init__(self, env_var: str, factory: Callable[[], Tracker]):
        self.env_var = env_var
        self._factory = factory
        self._lock = threading.Lock()  # guards: _tracker, _env_checked
        self._tracker: Tracker | None = None
        self._env_checked = False

    def install(self, tracker: Tracker) -> None:
        """Make ``tracker`` the process-wide one."""
        with self._lock:
            self._tracker = tracker

    def uninstall(self) -> None:
        """Remove the installed tracker (later events are untracked)."""
        with self._lock:
            self._tracker = None

    def active(self) -> Tracker | None:
        """The installed tracker, honouring ``env_var`` lazily."""
        with self._lock:
            if self._tracker is None and not self._env_checked:
                if env_flag(self.env_var):
                    self._tracker = self._factory()
                self._env_checked = True
            return self._tracker
