"""RL008: every module is reached from an entry point.

A module no command, server or paper harness imports is code no request
runs.  The walk from :data:`ROOTS` follows a package ``__init__``'s imports
only in a root package; a name imported from a package reaches the module
its ``__init__`` re-exports it from.  Silent unless ``repro/__main__.py``
is linted, since reachability is a property of the whole tree.
"""

import ast

from .core import Finding, ModuleContext, Rule, register
from .rules_storage import _imported_modules

#: Entry points, as module parts under ``repro``, each with its reader.
ROOTS = (
    ("__main__",),             # ``python -m repro``: the CLI and both servers
    ("analysis", "__main__"),  # ``python -m repro.analysis``: this linter
    ("net",),                  # benchmarks/e2e/workloads.py, bench_http_load.py
    ("experiments",),          # benchmarks/bench_fig*.py, bench_table4_dag_stats.py
    ("baselines",),            # benchmarks/bench_baselines.py (paper §6.2)
)


@register
class UnreachedModuleRule(Rule):
    id = "RL008"
    name = "unreached-module"
    severity = "error"
    description = ("module no entry point reaches by imports; a package "
                   "`__init__` re-export alone does not count")

    def __init__(self):
        self._modules: dict = {}  # module parts -> (path, imports to follow)
        self._exports: dict = {}  # (package, name) -> re-exporting imports
        self._whole_tree = False

    def check(self, ctx: ModuleContext):
        is_package = ctx.path.name == "__init__.py"
        self._whole_tree |= ctx.path.parts[-2:] == ("repro", "__main__.py")
        package = ctx.module if is_package else ctx.module[:-1]
        targets = set()
        for node in ast.walk(ctx.tree):
            for name in _imported_modules(node, package):
                parts = tuple(name.split("."))
                if parts[0] != "repro":
                    continue
                targets.add(parts[1:])
                for alias in (node.names if isinstance(node, ast.ImportFrom)
                              else ()):
                    target = parts[1:] + (alias.name,)
                    targets.add(target)
                    if is_package:
                        binding = ctx.module + (alias.asname or alias.name,)
                        self._exports[binding] = (parts[1:], target)
        follow = not is_package or ctx.module in ROOTS
        self._modules[ctx.module] = (ctx.display_path, targets if follow else ())
        return ()

    def finalize(self):
        if not self._whole_tree:
            return []
        reached: set = set()
        stack = [root for root in ROOTS if root in self._modules]
        while stack:
            module = stack.pop()
            if module not in reached:
                reached.add(module)
                stack.extend(self._exports.get(module, ()))
                stack.extend(self._modules.get(module, ("", ()))[1])
        reached.update(module[:i] for module in list(reached)
                       for i in range(len(module)))
        return [Finding(self.id, self.severity, path, 1, 0,
                        f"no entry point reaches `repro.{'.'.join(module)}`")
                for module, (path, _) in sorted(self._modules.items())
                if module not in reached]
