"""Tests for :mod:`repro.analysis` — the lint engine, all eight rules, the
CLI exit-code contract, and the runtime lockwatch."""

import ast
import json
import threading
from pathlib import Path

import pytest

from repro.analysis import LintEngine, lockwatch
from repro.analysis.cli import main as lint_main
from repro.analysis.core import all_rules
from repro.analysis.lockwatch import LockOrderError, WatchedLock, named_lock
from repro.analysis.reporters import render_json

SRC = Path(__file__).resolve().parents[1] / "src"


def write_module(tmp_path: Path, rel: str, source: str) -> Path:
    """Materialise a fixture under ``tmp_path/repro/<rel>`` so the module
    scoping (``service/...``, ``storage/...``) resolves like the real tree."""
    path = tmp_path / "repro" / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def lint(tmp_path: Path, **kwargs):
    engine = LintEngine(**kwargs)
    return engine.run([tmp_path], root=tmp_path)


def rules_fired(report):
    return sorted({f.rule for f in report.findings})


# ---------------------------------------------------------------------- engine


class TestEngine:
    def test_shipped_tree_lints_clean_with_zero_suppressions(self):
        """The acceptance gate: src/repro has no findings and, stronger than
        required (zero under service/ and storage/), no suppressions at all."""
        report = LintEngine().run([SRC / "repro"], root=SRC)
        assert report.errors == []
        assert report.findings == []
        assert report.suppressed == {}
        assert report.suppressed_by_file == {}
        assert report.files > 50

    def test_no_module_imports_concurrent_futures(self):
        """A request runs on the thread that received it: no module may
        bring back an intra-request executor."""
        offenders = []
        for path in sorted((SRC / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                else:
                    continue
                if any(name == "concurrent" or name.startswith("concurrent.")
                       for name in names):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert offenders == []

    def test_unparseable_file_is_an_error(self, tmp_path):
        write_module(tmp_path, "service/broken.py", "def nope(:\n")
        report = lint(tmp_path)
        assert report.findings == []
        assert len(report.errors) == 1
        assert "unable to parse" in report.errors[0].message
        assert report.exit_code() == 2

    def test_exit_code_priority_errors_beat_findings(self, tmp_path):
        write_module(tmp_path, "service/broken.py", "def nope(:\n")
        write_module(tmp_path, "causal/bad.py",
                     "import numpy as np\nx = np.zeros(3)\n")
        report = lint(tmp_path)
        assert report.findings and report.errors
        assert report.exit_code() == 2

    def test_select_and_ignore(self, tmp_path):
        write_module(tmp_path, "causal/bad.py",
                     "import numpy as np\nx = np.zeros(3)\n")
        assert rules_fired(lint(tmp_path, select=["RL003"])) == ["RL003"]
        assert rules_fired(lint(tmp_path, ignore=["RL003"])) == []

    def test_findings_stable_sorted(self, tmp_path):
        write_module(tmp_path, "causal/b.py",
                     "import numpy as np\nx = np.zeros(3)\ny = np.empty(2)\n")
        write_module(tmp_path, "causal/a.py",
                     "import numpy as np\nz = np.full(2, 0.0)\n")
        report = lint(tmp_path)
        keys = [(f.path, f.line, f.col, f.rule) for f in report.findings]
        assert keys == sorted(keys)
        assert [f.path for f in report.findings] == [
            "repro/causal/a.py", "repro/causal/b.py", "repro/causal/b.py"]

    def test_json_report_is_deterministic(self, tmp_path):
        write_module(tmp_path, "causal/bad.py",
                     "import numpy as np\nx = np.zeros(3)\n")
        first = render_json(lint(tmp_path))
        second = render_json(lint(tmp_path))
        assert first == second
        payload = json.loads(first)
        assert payload["format_version"] == 1
        assert payload["summary"]["by_rule"] == {"RL003": 1}
        assert payload["exit_code"] == 1

    def test_rule_registry_covers_all_eight(self):
        assert [cls.id for cls in all_rules()] == [
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
            "RL008"]


class TestSuppressions:
    def test_inline_suppression_silences_and_is_counted(self, tmp_path):
        write_module(tmp_path, "causal/bad.py",
                     "import numpy as np\n"
                     "x = np.zeros(3)  # repro-lint: disable=RL003\n")
        report = lint(tmp_path)
        assert report.findings == []
        assert report.suppressed == {"RL003": 1}
        assert report.suppressed_by_file == {"repro/causal/bad.py": 1}
        assert report.exit_code() == 0

    def test_suppression_is_rule_specific(self, tmp_path):
        write_module(tmp_path, "causal/bad.py",
                     "import numpy as np\n"
                     "x = np.zeros(3)  # repro-lint: disable=RL001\n")
        assert rules_fired(lint(tmp_path)) == ["RL003"]

    def test_disable_all(self, tmp_path):
        write_module(tmp_path, "causal/bad.py",
                     "import numpy as np\n"
                     "x = np.zeros(3)  # repro-lint: disable=all\n")
        assert lint(tmp_path).findings == []


class TestCLI:
    def test_exit_zero_on_clean(self, tmp_path, capsys):
        write_module(tmp_path, "causal/good.py",
                     "import numpy as np\nx = np.zeros(3, dtype=np.int32)\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_on_findings_and_json_out(self, tmp_path, capsys):
        write_module(tmp_path, "causal/bad.py",
                     "import numpy as np\nx = np.zeros(3)\n")
        out_file = tmp_path / "report.json"
        code = lint_main([str(tmp_path), "--format", "json",
                          "--out", str(out_file)])
        assert code == 1
        stdout = capsys.readouterr().out
        assert json.loads(stdout)["summary"]["total"] == 1
        assert json.loads(out_file.read_text())["summary"]["total"] == 1

    def test_exit_two_on_unparseable(self, tmp_path, capsys):
        write_module(tmp_path, "service/broken.py", "def nope(:\n")
        assert lint_main([str(tmp_path)]) == 2
        assert "ERROR" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL001", "RL006"):
            assert rule_id in out


# ---------------------------------------------------------------------- RL001


RL001_BAD = """\
import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0  # guarded-by: _lock

    def bump(self):
        with self._lock:
            self._count += 1

    def peek(self):
        return self._count
"""


class TestGuardedBy:
    def test_unguarded_read_fires(self, tmp_path):
        write_module(tmp_path, "service/bad.py", RL001_BAD)
        report = lint(tmp_path, select=["RL001"])
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.rule == "RL001"
        assert finding.line == 14
        assert "_count" in finding.message

    def test_guarded_access_is_clean(self, tmp_path):
        write_module(tmp_path, "service/good.py", RL001_BAD.replace(
            "    def peek(self):\n        return self._count\n",
            "    def peek(self):\n"
            "        with self._lock:\n"
            "            return self._count\n"))
        assert lint(tmp_path, select=["RL001"]).findings == []

    def test_def_line_annotation_seeds_held_locks(self, tmp_path):
        write_module(tmp_path, "service/helper.py", RL001_BAD.replace(
            "    def peek(self):\n        return self._count\n",
            "    def _peek_locked(self):  # guarded-by: _lock\n"
            "        return self._count\n"))
        assert lint(tmp_path, select=["RL001"]).findings == []

    def test_nested_function_does_not_inherit_held_locks(self, tmp_path):
        write_module(tmp_path, "service/closure.py", RL001_BAD.replace(
            "    def peek(self):\n        return self._count\n",
            "    def peek(self):\n"
            "        with self._lock:\n"
            "            def later():\n"
            "                return self._count\n"
            "            return later\n"))
        report = lint(tmp_path, select=["RL001"])
        assert len(report.findings) == 1

    def test_multi_item_with_holds_both(self, tmp_path):
        write_module(tmp_path, "service/multi.py", """\
import threading


class Engine:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()
        self._data = {}  # guarded-by: _b

    def swap(self):
        with self._a, self._b:
            self._data.clear()
""")
        assert lint(tmp_path, select=["RL001"]).findings == []

    def test_dataclass_field_annotation(self, tmp_path):
        write_module(tmp_path, "plan/statsy.py", """\
import threading
from dataclasses import dataclass, field


@dataclass
class Stats:
    plans: int = 0  # guarded-by: _lock
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self):
        with self._lock:
            self.plans += 1

    def snapshot(self):
        return self.plans
""")
        report = lint(tmp_path, select=["RL001"])
        assert len(report.findings) == 1
        assert report.findings[0].line == 15

    def test_init_is_exempt(self, tmp_path):
        assert not any(f.line <= 7 for f in
                       lint(tmp_path, select=["RL001"]).findings)

    def test_unthreaded_module_is_exempt(self, tmp_path):
        write_module(tmp_path, "service/serial.py",
                     RL001_BAD.replace("import threading\n", "")
                     .replace("threading.Lock()", "object()"))
        assert lint(tmp_path, select=["RL001"]).findings == []


# ---------------------------------------------------------------------- RL002


RL002_INVERTED = """\
import threading


class Engine:
    def __init__(self):
        self._a_lock = threading.Lock()
        self._b_lock = threading.Lock()

    def forward(self):
        with self._a_lock:
            with self._b_lock:
                pass

    def backward(self):
        with self._b_lock:
            with self._a_lock:
                pass
"""


class TestLockOrder:
    def test_inverted_nesting_fires(self, tmp_path):
        write_module(tmp_path, "service/abba.py", RL002_INVERTED)
        report = lint(tmp_path, select=["RL002"])
        assert len(report.findings) == 1
        message = report.findings[0].message
        assert "both orders" in message
        assert "_a_lock" in message and "_b_lock" in message

    def test_consistent_nesting_is_clean(self, tmp_path):
        write_module(tmp_path, "service/ordered.py", RL002_INVERTED.replace(
            "        with self._b_lock:\n"
            "            with self._a_lock:\n",
            "        with self._a_lock:\n"
            "            with self._b_lock:\n"))
        assert lint(tmp_path, select=["RL002"]).findings == []

    def test_multi_item_with_orders_left_to_right(self, tmp_path):
        write_module(tmp_path, "service/multi.py", RL002_INVERTED.replace(
            "        with self._b_lock:\n"
            "            with self._a_lock:\n"
            "                pass\n",
            "        with self._b_lock, self._a_lock:\n"
            "            pass\n"))
        assert len(lint(tmp_path, select=["RL002"]).findings) == 1

    def test_cross_module_inversion_detected(self, tmp_path):
        half = RL002_INVERTED.replace(
            "    def backward(self):\n"
            "        with self._b_lock:\n"
            "            with self._a_lock:\n"
            "                pass\n", "")
        other = half.replace(
            "        with self._a_lock:\n"
            "            with self._b_lock:\n",
            "        with self._b_lock:\n"
            "            with self._a_lock:\n")
        write_module(tmp_path, "service/one.py", half)
        write_module(tmp_path, "service/two.py", other)
        report = lint(tmp_path, select=["RL002"])
        assert len(report.findings) == 1
        assert "both orders" in report.findings[0].message

    def test_reacquiring_held_lock_fires(self, tmp_path):
        write_module(tmp_path, "service/reent.py", RL002_INVERTED.replace(
            "        with self._b_lock:\n"
            "            with self._a_lock:\n",
            "        with self._a_lock:\n"
            "            with self._a_lock:\n"))
        report = lint(tmp_path, select=["RL002"])
        assert any("already held" in f.message for f in report.findings)

    def test_suppressed_edge_skips_inversion(self, tmp_path):
        write_module(tmp_path, "service/hushed.py", RL002_INVERTED.replace(
            "            with self._a_lock:\n"
            "                pass\n",
            "            with self._a_lock:"
            "  # repro-lint: disable=RL002\n"
            "                pass\n"))
        assert lint(tmp_path, select=["RL002"]).findings == []

    def test_non_lock_context_managers_ignored(self, tmp_path):
        write_module(tmp_path, "service/files.py", """\
import threading


class Writer:
    def __init__(self):
        self._lock = threading.Lock()

    def dump(self, path):
        with self._lock:
            with open(path) as fh:
                return fh.read()
""")
        assert lint(tmp_path, select=["RL002"]).findings == []


# ---------------------------------------------------------------------- RL003


class TestDtypeDiscipline:
    @pytest.mark.parametrize("call", [
        "np.array([1, 2])", "np.zeros(4)", "np.empty(4)", "np.full(4, 0.0)"])
    def test_missing_dtype_fires(self, tmp_path, call):
        write_module(tmp_path, "dataframe/bad.py",
                     f"import numpy as np\nx = {call}\n")
        report = lint(tmp_path, select=["RL003"])
        assert len(report.findings) == 1
        assert report.findings[0].severity == "warning"

    @pytest.mark.parametrize("call", [
        "np.array([1, 2], dtype=np.int32)",
        "np.array([1, 2], np.int32)",           # positional dtype
        "np.zeros(4, dtype=bool)",
        "np.full(4, 0.0, np.float64)",
    ])
    def test_explicit_dtype_is_clean(self, tmp_path, call):
        write_module(tmp_path, "plan/good.py",
                     f"import numpy as np\nx = {call}\n")
        assert lint(tmp_path, select=["RL003"]).findings == []

    def test_non_kernel_module_is_exempt(self, tmp_path):
        write_module(tmp_path, "service/free.py",
                     "import numpy as np\nx = np.zeros(4)\n")
        assert lint(tmp_path, select=["RL003"]).findings == []


# ---------------------------------------------------------------------- RL004


class TestEncodingImmutability:
    @pytest.mark.parametrize("stmt", [
        "col._codes = other",
        "col._vocab = ()",
        "col._codes[0] = 5",
        "col._codes += other",
        "del col._vocab",
        "col._codes.sort()",
        "col._vocab.setflags(write=True)",
    ])
    def test_mutation_fires(self, tmp_path, stmt):
        write_module(tmp_path, "mining/bad.py",
                     f"def f(col, other):\n    {stmt}\n")
        report = lint(tmp_path, select=["RL004"])
        assert len(report.findings) == 1
        assert report.findings[0].rule == "RL004"

    def test_reads_are_allowed(self, tmp_path):
        write_module(tmp_path, "mining/good.py",
                     "def f(col):\n"
                     "    codes = col._codes\n"
                     "    return codes == 3, len(col._vocab)\n")
        assert lint(tmp_path, select=["RL004"]).findings == []

    def test_column_module_is_exempt(self, tmp_path):
        write_module(tmp_path, "dataframe/column.py",
                     "def f(col, other):\n    col._codes = other\n")
        assert lint(tmp_path, select=["RL004"]).findings == []


# ---------------------------------------------------------------------- RL005


class TestAtomicCommit:
    def test_manifest_write_without_replace_fires(self, tmp_path):
        write_module(tmp_path, "storage/bad.py", """\
import json

MANIFEST_NAME = "MANIFEST.json"


def save(directory, payload):
    with open(directory / MANIFEST_NAME, "w") as fh:
        json.dump(payload, fh)
""")
        report = lint(tmp_path, select=["RL005"])
        assert report.findings
        assert all(f.rule == "RL005" for f in report.findings)

    def test_tmp_plus_replace_is_clean(self, tmp_path):
        write_module(tmp_path, "storage/good.py", """\
import json
import os


def save(path, payload):
    tmp = path.with_name(".tmp-" + path.name)
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)
""")
        assert lint(tmp_path, select=["RL005"]).findings == []

    def test_caller_supplied_path_is_clean(self, tmp_path):
        write_module(tmp_path, "storage/shardw.py", """\
from pathlib import Path


def write_shard(path, data):
    with Path(path).open("wb") as fh:
        fh.write(data)
""")
        assert lint(tmp_path, select=["RL005"]).findings == []

    def test_flock_protocol_is_clean(self, tmp_path):
        write_module(tmp_path, "storage/lockfile.py", """\
import fcntl


def guard(directory):
    handle = (directory / ".lock").open("a+b")
    fcntl.flock(handle, fcntl.LOCK_EX)
    return handle
""")
        assert lint(tmp_path, select=["RL005"]).findings == []

    def test_write_after_commit_fires(self, tmp_path):
        write_module(tmp_path, "storage/ordering.py", """\
from repro.storage.format import commit_manifest
from repro.storage.shard import write_shard


def append(directory, manifest, shard_path, arrays):
    commit_manifest(directory, manifest)
    write_shard(shard_path, arrays)
""")
        report = lint(tmp_path, select=["RL005"])
        assert len(report.findings) == 1
        assert "after the manifest commit" in report.findings[0].message

    def test_write_before_commit_is_clean(self, tmp_path):
        write_module(tmp_path, "storage/ordered.py", """\
from repro.storage.format import commit_manifest
from repro.storage.shard import write_shard


def append(directory, manifest, shard_path, arrays):
    write_shard(shard_path, arrays)
    commit_manifest(directory, manifest)
""")
        assert lint(tmp_path, select=["RL005"]).findings == []

    def test_non_storage_module_is_exempt(self, tmp_path):
        write_module(tmp_path, "service/writer.py", """\
import json


def save(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
""")
        assert lint(tmp_path, select=["RL005"]).findings == []


# ---------------------------------------------------------------------- RL007


class TestTrustBoundary:
    @pytest.mark.parametrize("source", [
        "import pickle\n",
        "import marshal, json\n",
        "from pickle import loads\n",
        "import shelve as store\n",
        "import dill\n",
        "import cPickle\n",
        "from _pickle import Unpickler\n",
    ])
    def test_code_executing_loader_fires_anywhere(self, tmp_path, source):
        write_module(tmp_path, "core/codec.py", source)
        report = lint(tmp_path, select=["RL007"])
        assert [f.rule for f in report.findings] == ["RL007"]
        assert "imported" in report.findings[0].message

    def test_json_and_numpy_without_pickle_are_clean(self, tmp_path):
        write_module(tmp_path, "storage/reader.py", """\
import json

import numpy as np


def read(path):
    with np.load(path, allow_pickle=False) as archive:
        return json.dumps(archive.files)
""")
        assert lint(tmp_path, select=["RL007"]).findings == []


# ---------------------------------------------------------------------- RL008


def write_entry_point(tmp_path: Path) -> None:
    """``repro/__main__.py`` reaches ``repro.cli`` and, by a name the
    package ``__init__`` re-exports, ``repro.core.engine``."""
    write_module(tmp_path, "__main__.py", "from repro.cli import main\n")
    write_module(tmp_path, "cli.py", "from repro.core import Engine\n")
    write_module(tmp_path, "core/__init__.py",
                 "from repro.core.engine import Engine\n"
                 "from repro.core.extra import helper\n")
    write_module(tmp_path, "core/engine.py", "class Engine:\n    pass\n")
    write_module(tmp_path, "core/extra.py", "def helper():\n    pass\n")


def unreached(tmp_path: Path) -> list:
    report = lint(tmp_path, select=["RL008"])
    assert all(f.severity == "error" for f in report.findings)
    return [f.path for f in report.findings]


class TestUnreachedModule:
    def test_module_a_root_reaches_is_not_reported(self, tmp_path):
        write_entry_point(tmp_path)
        write_module(tmp_path, "cli.py", "from repro.core import Engine\n"
                                         "from repro.core.extra import helper\n")
        write_module(tmp_path, "analysis/__main__.py", "from . import rules\n")
        write_module(tmp_path, "analysis/rules.py", "")
        assert unreached(tmp_path) == []

    def test_orphan_module_is_reported(self, tmp_path):
        write_entry_point(tmp_path)
        write_module(tmp_path, "cli.py", "from repro.core import Engine, helper\n")
        write_module(tmp_path, "orphan/chart.py", "import numpy as np\n")
        assert unreached(tmp_path) == ["repro/orphan/chart.py"]
        report = lint(tmp_path, select=["RL008"])
        assert "`repro.orphan.chart`" in report.findings[0].message

    def test_module_only_an_init_reexports_is_reported(self, tmp_path):
        write_entry_point(tmp_path)
        assert unreached(tmp_path) == ["repro/core/extra.py"]

    def test_root_package_init_is_followed(self, tmp_path):
        write_entry_point(tmp_path)
        write_module(tmp_path, "experiments/__init__.py",
                     "from repro.experiments.sweeps import sweep_k\n")
        write_module(tmp_path, "experiments/sweeps.py",
                     "from ..core.extra import helper\n")
        assert unreached(tmp_path) == []

    def test_silent_without_repro_main(self, tmp_path):
        write_entry_point(tmp_path)
        (tmp_path / "repro" / "__main__.py").unlink()
        write_module(tmp_path, "orphan/chart.py", "")
        assert unreached(tmp_path) == []


# ---------------------------------------------------------------------- RL006


class TestFingerprintDeterminism:
    @pytest.mark.parametrize("source,marker", [
        ("def f(d):\n    return [k for k in d.keys()]\n", ".keys()"),
        ("def f(d):\n    for k, v in d.items():\n        pass\n", ".items()"),
        ("def f(x):\n    return id(x)\n", "id()"),
        ("import time\n", "time"),
        ("import random\n", "random"),
        ("from uuid import uuid4\n", "uuid"),
        ("import numpy as np\n\n\ndef f():\n    return np.random.rand()\n",
         "np.random"),
    ])
    def test_nondeterminism_fires(self, tmp_path, source, marker):
        write_module(tmp_path, "plan/ir.py", source)
        report = lint(tmp_path, select=["RL006"])
        assert report.findings, marker
        assert all(f.rule == "RL006" for f in report.findings)

    def test_sorted_iteration_is_clean(self, tmp_path):
        write_module(tmp_path, "sql/normalize.py",
                     "def f(d):\n"
                     "    return [v for _, v in sorted(d.items())]\n")
        assert lint(tmp_path, select=["RL006"]).findings == []

    def test_only_fingerprint_modules_checked(self, tmp_path):
        write_module(tmp_path, "service/clock.py", "import time\n")
        assert lint(tmp_path, select=["RL006"]).findings == []


# ------------------------------------------------------------------- lockwatch


@pytest.fixture()
def watch():
    """Enabled lockwatch with a clean registry; always restored."""
    registry = lockwatch.enable()
    registry.reset()
    yield registry
    registry.reset()
    lockwatch.disable()


class TestLockwatch:
    def test_named_lock_plain_when_disabled(self, monkeypatch):
        # disable() reverts to the environment, so clear that too — this
        # test must pass on the REPRO_LOCKWATCH=1 CI leg as well.
        monkeypatch.delenv(lockwatch.ENV_VAR, raising=False)
        lockwatch.disable()
        assert isinstance(named_lock("x"), type(threading.Lock()))

    def test_named_lock_watched_when_enabled(self, watch):
        lock = named_lock("x")
        assert isinstance(lock, WatchedLock)
        with lock:
            pass
        assert not lock.locked()

    def test_consistent_order_stays_acyclic(self, watch):
        a, b = WatchedLock("A"), WatchedLock("B")
        for _ in range(3):
            with a:
                with b:
                    pass
        watch.assert_acyclic()
        assert watch.violations == []
        edges = watch.edges()
        assert [(e.source, e.target) for e in edges] == [("A", "B")]
        assert edges[0].count == 3
        assert edges[0].stack  # acquisition stack captured

    def test_inverted_pair_across_threads_detected(self, watch):
        """The deliberately inverted acquisition pair from the issue: one
        thread takes A then B, another takes B then A.  Run sequentially so
        the test never actually deadlocks — the *graph* still shows the
        cycle, which is the point of the detector."""
        a1, b1 = WatchedLock("A"), WatchedLock("B")
        a2, b2 = WatchedLock("A"), WatchedLock("B")
        errors = []

        def forward():
            try:
                with a1:
                    with b1:
                        pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def backward():
            try:
                with b2:
                    with a2:
                        pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        for target in (forward, backward):
            thread = threading.Thread(target=target)
            thread.start()
            thread.join(timeout=30)
        assert not errors
        assert len(watch.violations) == 1
        violation = watch.violations[0]
        assert set(violation.cycle) == {"A", "B"}
        assert "lock-order cycle" in violation.describe()
        assert watch.cycles()
        with pytest.raises(LockOrderError):
            watch.assert_acyclic()

    def test_same_name_reacquisition_is_a_self_cycle(self, watch):
        outer, inner = WatchedLock("L"), WatchedLock("L")
        with outer:
            with inner:
                pass
        assert any(v.cycle == ("L", "L") for v in watch.violations)

    def test_strict_mode_raises_at_acquisition(self, watch):
        a1, b1 = WatchedLock("A"), WatchedLock("B")
        with a1:
            with b1:
                pass
        b2, a2 = WatchedLock("B", strict=True), WatchedLock("A", strict=True)
        with pytest.raises(LockOrderError):
            with b2:
                with a2:
                    pass
        # The raise happened inside a2.acquire(), before a2 was taken, and
        # propagating out of `with b2:` released b2.
        assert not a2.locked() and not b2.locked()

    def test_release_out_of_order_is_legal(self, watch):
        a, b = WatchedLock("A"), WatchedLock("B")
        a.acquire()
        b.acquire()
        a.release()
        assert watch.held_locks() == ("B",)
        b.release()
        assert watch.held_locks() == ()

    def test_reset_clears_graph(self, watch):
        a, b = WatchedLock("A"), WatchedLock("B")
        with a:
            with b:
                pass
        assert watch.edges()
        watch.reset()
        assert watch.edges() == []
        assert watch.acquisitions == 0
