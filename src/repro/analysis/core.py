"""Core of the project lint engine: findings, module contexts, rule registry.

The engine is deliberately small and dependency-free: ``ast`` for structure,
``tokenize`` for the comment channel (``# guarded-by:`` annotations and
``# repro-lint: disable=`` suppressions live in comments, which ``ast``
drops).  Rules are classes registered by decorator; a :class:`LintEngine`
instantiates a fresh rule set per run so rules may accumulate cross-module
state (RL002 needs the whole tree to detect inverted lock orders) without
leaking between runs.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

#: Inline suppression marker: ``# repro-lint: disable=RL001,RL003`` or
#: ``# repro-lint: disable=all``.  Applies to findings reported on that line.
SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")

#: Lock-discipline annotation: ``# guarded-by: _lock`` (optionally
#: ``self._lock``; several locks comma-separated).  On an attribute
#: assignment it declares the guard; on a ``def`` line it declares locks the
#: caller is required to hold.
GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z0-9_.,\s]+)")

SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict:
        return {"rule": self.rule, "severity": self.severity,
                "path": self.path, "line": self.line, "col": self.col,
                "message": self.message}

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} [{self.severity}] {self.message}")


@dataclass(frozen=True)
class LintError:
    """A file the engine could not analyze (syntax error, rule crash)."""

    path: str
    line: int
    message: str
    rule: str = ""

    def to_dict(self) -> dict:
        return {"path": self.path, "line": self.line,
                "message": self.message, "rule": self.rule}

    def render(self) -> str:
        origin = f" ({self.rule})" if self.rule else ""
        return f"{self.path}:{self.line}: ERROR{origin} {self.message}"


def _parse_lock_list(raw: str) -> tuple:
    locks = []
    for item in raw.split(","):
        name = item.strip()
        if not name:
            continue
        if name.startswith("self."):
            name = name[len("self."):]
        locks.append(name)
    return tuple(locks)


class ModuleContext:
    """Everything the rules need to know about one source file."""

    def __init__(self, path: Path, source: str, root: Path | None = None):
        self.path = path
        display = path
        if root is not None:
            try:
                display = path.relative_to(root)
            except ValueError:
                pass
        self.display_path = display.as_posix()
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        #: Dotted module parts after the last ``repro`` path component, with
        #: ``.py`` / ``__init__`` stripped — ``("service", "engine")`` for
        #: ``src/repro/service/engine.py``.  Rules key their scoping on this,
        #: which also makes tmp-dir fixtures in the tests resolve naturally.
        self.module = _module_parts(path)
        self.comments = _comments_by_line(source)
        self.suppressions = self._parse_suppressions()
        self.guarded_lines = self._parse_guarded_by()
        self.imports_threading = any(
            isinstance(node, (ast.Import, ast.ImportFrom))
            and any(alias.name == "threading" or
                    getattr(node, "module", None) == "threading"
                    for alias in node.names)
            for node in ast.walk(self.tree))
        self._lines = source.splitlines()

    def _parse_suppressions(self) -> dict:
        suppressions: dict = {}
        for lineno, text in self.comments.items():
            match = SUPPRESS_RE.search(text)
            if match:
                rules = {part.strip().upper() if part.strip().lower() != "all"
                         else "all"
                         for part in match.group(1).split(",") if part.strip()}
                suppressions.setdefault(lineno, set()).update(rules)
        return suppressions

    def _parse_guarded_by(self) -> dict:
        guarded: dict = {}
        for lineno, text in self.comments.items():
            match = GUARDED_BY_RE.search(text)
            if match:
                guarded[lineno] = _parse_lock_list(match.group(1))
        return guarded

    def suppressed(self, rule: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        if not rules:
            return False
        return "all" in rules or rule.upper() in rules

    def segment(self, node: ast.AST) -> str:
        """Source text of ``node`` (best-effort, single-line fallback)."""
        text = ast.get_source_segment(self.source, node)
        if text is not None:
            return text
        lineno = getattr(node, "lineno", 0)
        if 1 <= lineno <= len(self._lines):
            return self._lines[lineno - 1].strip()
        return ""


def _module_parts(path: Path) -> tuple:
    parts = list(path.parts)
    anchor = -1
    for i, part in enumerate(parts):
        if part == "repro":
            anchor = i
    if anchor < 0:
        tail = [parts[-1]]
    else:
        tail = parts[anchor + 1:]
    if tail and tail[-1].endswith(".py"):
        tail[-1] = tail[-1][:-3]
    if tail and tail[-1] == "__init__":
        tail = tail[:-1]
    return tuple(tail)


def _comments_by_line(source: str) -> dict:
    comments: dict = {}
    reader = io.StringIO(source).readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError):
        # ast.parse succeeded, so any trailing tokenizer hiccup is cosmetic;
        # keep whatever comments were collected before it.
        pass
    return comments


class Rule:
    """Base class for lint rules.

    Subclasses set ``id``/``name``/``severity``/``description`` and override
    :meth:`check`; rules needing whole-tree state (lock-order inversion)
    additionally override :meth:`finalize`, which runs after every module has
    been checked.
    """

    id = "RL000"
    name = "base"
    severity = "error"
    description = ""

    def applies(self, ctx: ModuleContext) -> bool:
        return True

    def check(self, ctx: ModuleContext):
        """Yield :class:`Finding` objects for one module."""
        return ()

    def finalize(self):
        """Yield cross-module findings after all modules were checked."""
        return ()


#: ``{rule_id: rule_class}`` — populated by the ``register`` decorator when
#: the rule modules import.
RULE_REGISTRY: dict = {}


def register(cls):
    """Class decorator adding a rule to :data:`RULE_REGISTRY`."""
    if cls.id in RULE_REGISTRY and RULE_REGISTRY[cls.id] is not cls:
        raise ValueError(f"duplicate rule id {cls.id}")
    if cls.severity not in SEVERITIES:
        raise ValueError(f"bad severity {cls.severity!r} for {cls.id}")
    RULE_REGISTRY[cls.id] = cls
    return cls


def all_rules() -> list:
    """Registered rule classes, importing the bundled rule modules first."""
    from . import (rules_arrays, rules_determinism, rules_locks,  # noqa: F401
                   rules_reach, rules_storage)
    return [RULE_REGISTRY[rule_id] for rule_id in sorted(RULE_REGISTRY)]


@dataclass
class LintReport:
    """The outcome of one engine run."""

    findings: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    files: int = 0
    #: ``{rule_id: count}`` of findings silenced by inline suppressions.
    suppressed: dict = field(default_factory=dict)
    #: ``{display_path: count}`` of suppressed findings per file.
    suppressed_by_file: dict = field(default_factory=dict)

    def exit_code(self) -> int:
        if self.errors:
            return 2
        if self.findings:
            return 1
        return 0

    def by_rule(self) -> dict:
        counts: dict = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts


class LintEngine:
    """Discovers files, runs every applicable rule, aggregates a report."""

    def __init__(self, select=None, ignore=None):
        classes = all_rules()
        selected = {r.upper() for r in select} if select else None
        ignored = {r.upper() for r in ignore} if ignore else set()
        self.rules = [cls() for cls in classes
                      if (selected is None or cls.id in selected)
                      and cls.id not in ignored]

    @staticmethod
    def discover(paths) -> list:
        """Sorted ``.py`` files under ``paths`` (files accepted verbatim)."""
        files = set()
        for raw in paths:
            path = Path(raw)
            if path.is_file():
                files.add(path)
            elif path.is_dir():
                for candidate in path.rglob("*.py"):
                    if any(part == "__pycache__" or part.startswith(".")
                           for part in candidate.parts):
                        continue
                    files.add(candidate)
        return sorted(files)

    def run(self, paths, root: Path | None = None) -> LintReport:
        report = LintReport()
        if root is None:
            root = Path.cwd()
        for path in self.discover(paths):
            report.files += 1
            try:
                source = path.read_text(encoding="utf-8")
                ctx = ModuleContext(path, source, root=root)
            except (SyntaxError, UnicodeDecodeError, OSError) as exc:
                line = getattr(exc, "lineno", 0) or 0
                report.errors.append(LintError(
                    path=str(path), line=line,
                    message=f"unable to parse: {exc}"))
                continue
            for rule in self.rules:
                if not rule.applies(ctx):
                    continue
                try:
                    candidates = list(rule.check(ctx))
                except Exception as exc:  # rule crash → analyzable error, exit 2
                    report.errors.append(LintError(
                        path=ctx.display_path, line=0, rule=rule.id,
                        message=f"rule crashed: {type(exc).__name__}: {exc}"))
                    continue
                for finding in candidates:
                    if ctx.suppressed(finding.rule, finding.line):
                        report.suppressed[finding.rule] = \
                            report.suppressed.get(finding.rule, 0) + 1
                        report.suppressed_by_file[ctx.display_path] = \
                            report.suppressed_by_file.get(ctx.display_path, 0) + 1
                    else:
                        report.findings.append(finding)
        for rule in self.rules:
            try:
                report.findings.extend(rule.finalize())
            except Exception as exc:
                report.errors.append(LintError(
                    path="<finalize>", line=0, rule=rule.id,
                    message=f"rule crashed: {type(exc).__name__}: {exc}"))
        report.findings.sort(key=Finding.sort_key)
        report.errors.sort(key=lambda e: (e.path, e.line, e.rule))
        return report
