"""Storage rules: RL005 atomic-commit discipline, RL007 the trust boundary.

RL005 has two sub-checks, both scoped to functions in the storage package:

* **Write-mode opens** must be crash-safe.  A function that opens a file for
  writing is exempt when it also calls ``os.replace`` (the tmp-file +
  rename idiom), takes a file lock via ``fcntl.flock`` (append-log
  protocol), or writes to a path handed in verbatim as a parameter (the
  ``write_shard(path, ...)`` contract, where the *caller* does the rename).
  A path expression mentioning the manifest is never parameter-exempt: the
  manifest is the commit point, so its writer must itself ``os.replace``.

* **Commit ordering** (CFG approximation): inside any function that calls
  ``commit_manifest``, every shard-producing call (``write_shard`` /
  ``_write_shard`` / ``os.replace``) must appear on an earlier line than the
  first commit — data must be durable before the manifest names it.

RL007 flags, anywhere in the linted tree, an import of a deserializer that
executes code found in the bytes it reads (``pickle``, ``marshal``,
``shelve``, …).  Store files are data; whoever can write a store directory
must not thereby run code in the server.
"""

from __future__ import annotations

import ast

from .core import Finding, ModuleContext, Rule, register

_WRITE_MODE_CHARS = set("wax+")

#: Calls that produce shard data and must precede the manifest commit.
_SHARD_WRITERS = ("write_shard", "_write_shard")


def _call_name(node: ast.Call):
    """Dotted name of a call: ``os.replace`` -> ("os", "replace")."""
    func = node.func
    if isinstance(func, ast.Name):
        return (func.id,)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return (func.value.id, func.attr)
    if isinstance(func, ast.Attribute):
        return ("?", func.attr)
    return ()


def _literal_mode(node: ast.Call):
    """The mode string of an ``open`` call if literal, else ``None``."""
    for i, arg in enumerate(node.args):
        if i == 1 and isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    for kw in node.keywords:
        if kw.arg == "mode" and isinstance(kw.value, ast.Constant) \
                and isinstance(kw.value.value, str):
            return kw.value.value
    if isinstance(node.func, ast.Attribute) and node.args:
        # Path.open(mode) style: mode is the first argument.
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
    return None


def _unwrap_path(expr: ast.expr):
    """Strip a single ``Path(...)`` wrapper, returning the inner expression."""
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.id == "Path" and len(expr.args) == 1):
        return expr.args[0]
    return expr


@register
class AtomicCommitRule(Rule):
    id = "RL005"
    name = "atomic-commit"
    severity = "error"
    description = ("storage write without tmp-file + os.replace protection, "
                   "or shard write ordered after the manifest commit")

    def applies(self, ctx: ModuleContext) -> bool:
        return bool(ctx.module) and ctx.module[0] == "storage"

    def check(self, ctx: ModuleContext):
        findings = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(ctx, node, findings)
        return findings

    def _check_function(self, ctx, func, findings):
        has_replace = False
        has_flock = False
        commit_lines = []
        writer_lines = []
        calls = []
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                calls.append(node)
                name = _call_name(node)
                if name == ("os", "replace"):
                    has_replace = True
                    writer_lines.append(node.lineno)
                elif name == ("fcntl", "flock"):
                    has_flock = True
                elif name and name[-1] == "commit_manifest":
                    commit_lines.append(node.lineno)
                elif name and name[-1] in _SHARD_WRITERS:
                    writer_lines.append(node.lineno)

        params = {arg.arg for arg in func.args.args}
        params.update(arg.arg for arg in func.args.kwonlyargs)
        params.update(arg.arg for arg in func.args.posonlyargs)

        for call in calls:
            path_expr = self._write_target(call)
            if path_expr is None:
                continue
            segment = ctx.segment(path_expr).lower()
            manifestish = "manifest" in segment
            if has_replace or has_flock:
                continue
            if not manifestish and self._is_bare_param(path_expr, params):
                # write_shard(path, ...) contract: caller renames.
                continue
            what = ("manifest path written" if manifestish
                    else "file opened for writing")
            findings.append(Finding(
                rule=self.id, severity=self.severity, path=ctx.display_path,
                line=call.lineno, col=call.col_offset,
                message=(f"{what} without tmp-file + `os.replace` in "
                         f"`{func.name}`; a crash here leaves a torn file")))

        if commit_lines and writer_lines:
            first_commit = min(commit_lines)
            late = [line for line in writer_lines if line > first_commit]
            for line in late:
                findings.append(Finding(
                    rule=self.id, severity=self.severity,
                    path=ctx.display_path, line=line, col=0,
                    message=(f"shard write at line {line} ordered after the "
                             f"manifest commit at line {first_commit} in "
                             f"`{func.name}`; the manifest must never name "
                             f"data that is not yet durable")))

    @staticmethod
    def _write_target(call: ast.Call):
        """The path expression of a write-mode call, or ``None``."""
        name = _call_name(call)
        if not name:
            return None
        tail = name[-1]
        if tail == "open":
            mode = _literal_mode(call)
            if mode is None:
                # plain open() defaults to read mode
                return None
            if not (_WRITE_MODE_CHARS & set(mode)):
                return None
            if isinstance(call.func, ast.Name):  # builtin open(path, mode)
                return call.args[0] if call.args else None
            return call.func.value  # path.open(mode)
        if tail in ("write_text", "write_bytes"):
            if isinstance(call.func, ast.Attribute):
                return call.func.value
            return None
        if name == ("json", "dump") and len(call.args) >= 2:
            return call.args[1]  # the file object expression
        return None

    @staticmethod
    def _is_bare_param(path_expr: ast.expr, params) -> bool:
        inner = _unwrap_path(path_expr)
        return isinstance(inner, ast.Name) and inner.id in params


#: Modules whose loaders run code embedded in the bytes they read.
_CODE_LOADERS = ("pickle", "cPickle", "_pickle", "marshal", "shelve", "dill")


def _imported_modules(node: ast.AST, package: tuple | None = None) -> list[str]:
    """Module names an import statement loads; a relative import resolves
    against ``package`` (the importer's parts under ``repro``) or is skipped."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and (node.level == 0 or package is not None):
        base = ["repro", *package[:len(package) + 1 - node.level]] if node.level else []
        return [".".join(base + [node.module or ""]).strip(".")]
    return []


@register
class TrustBoundaryRule(Rule):
    id = "RL007"
    name = "trust-boundary"
    severity = "error"
    description = ("import of a code-executing deserializer (pickle, marshal, "
                   "shelve, dill): stored bytes must never become code")

    def check(self, ctx: ModuleContext):
        findings = []
        for node in ast.walk(ctx.tree):
            for module in _imported_modules(node):
                if module.split(".")[0] in _CODE_LOADERS:
                    findings.append(Finding(
                        rule=self.id, severity=self.severity,
                        path=ctx.display_path, line=node.lineno,
                        col=node.col_offset,
                        message=(f"`{module}` imported: its loader executes "
                                 f"code from the bytes it reads; persist "
                                 f"through a schema-checked JSON codec")))
        return findings
