"""RL006: determinism of the fingerprint-feeding modules.

A canonical query's ``fingerprint`` / ``where_key`` (computed by
``normalize_query`` and the query class in ``sql/query.py``) are the
cache keys of the whole serving stack; two processes must derive identical
keys for identical logical inputs.  Any dict-order-dependent iteration,
``id()``, wall clock, or randomness in the modules that feed them silently
breaks cross-process cache sharing and the repro's byte-identical-output
claim, so those modules ban the constructs outright.
"""

from __future__ import annotations

import ast

from .core import Finding, ModuleContext, Rule, register

#: Modules whose outputs feed fingerprint/where_key/normalize.
DETERMINISM_MODULES = (
    ("sql", "query"),
    ("dataframe", "predicates"),
)

#: Importing any of these into a fingerprint-feeding module is a finding.
_BANNED_MODULES = ("time", "random", "uuid")

_DICT_VIEWS = ("keys", "values", "items")

#: Iteration wrapped in any of these is order-independent.
_ORDERING_WRAPPERS = ("sorted", "set", "frozenset", "len", "min", "max", "sum")


@register
class FingerprintDeterminismRule(Rule):
    id = "RL006"
    name = "fingerprint-determinism"
    severity = "error"
    description = ("non-deterministic construct (dict-order iteration, id(), "
                   "time, random) in a fingerprint-feeding module")

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.module in DETERMINISM_MODULES

    def check(self, ctx: ModuleContext):
        findings = []
        sorted_wrapped = self._ordering_wrapped_calls(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._check_import(ctx, node, findings)
            elif isinstance(node, ast.Call):
                self._check_call(ctx, node, findings)
            elif isinstance(node, ast.Attribute):
                if (isinstance(node.value, ast.Name)
                        and node.value.id in ("np", "numpy")
                        and node.attr == "random"):
                    findings.append(self._finding(
                        ctx, node, "`np.random` used"))
            elif isinstance(node, ast.For):
                self._check_iteration(ctx, node.iter, sorted_wrapped, findings)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    self._check_iteration(ctx, gen.iter, sorted_wrapped,
                                          findings)
        return findings

    @staticmethod
    def _ordering_wrapped_calls(tree) -> set:
        """id()s of Call nodes that sit directly inside ``sorted(...)`` etc."""
        wrapped = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in _ORDERING_WRAPPERS):
                for arg in node.args:
                    wrapped.add(id(arg))
        return wrapped

    def _check_import(self, ctx, node, findings):
        if isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in _BANNED_MODULES:
                findings.append(self._finding(
                    ctx, node, f"import from `{node.module}`"))
            return
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in _BANNED_MODULES:
                findings.append(self._finding(
                    ctx, node, f"import of `{alias.name}`"))

    def _check_call(self, ctx, node, findings):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "id":
            findings.append(self._finding(
                ctx, node, "`id()` is process-specific"))
        elif (isinstance(func, ast.Attribute)
              and isinstance(func.value, ast.Name)
              and func.value.id in _BANNED_MODULES):
            findings.append(self._finding(
                ctx, node, f"`{func.value.id}.{func.attr}()` call"))

    def _check_iteration(self, ctx, iter_expr, sorted_wrapped, findings):
        if not isinstance(iter_expr, ast.Call):
            return
        func = iter_expr.func
        if not (isinstance(func, ast.Attribute) and func.attr in _DICT_VIEWS
                and not iter_expr.args and not iter_expr.keywords):
            return
        if id(iter_expr) in sorted_wrapped:
            return
        findings.append(self._finding(
            ctx, iter_expr,
            f"iteration over `.{func.attr}()` without `sorted(...)`"))

    def _finding(self, ctx, node, what) -> Finding:
        return Finding(
            rule=self.id, severity=self.severity, path=ctx.display_path,
            line=node.lineno, col=node.col_offset,
            message=(f"{what} in a fingerprint-feeding module; cache keys "
                     f"must be deterministic across processes"))
