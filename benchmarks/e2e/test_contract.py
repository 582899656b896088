"""Contract test: every workload at ``--smoke`` scale, against BENCHMARK.json.

Collected by the tier-1 command.  The runs are the child processes the
driver would start, in two waves of five started at once: one traced run per
workload (it prints the per-layer metrics and carries an untraced reference
pass) and one untraced run for the end-to-end side of the contract; then the
equal-work runs — ``--seconds 20``, which ``--smoke`` work ends by round cap
long before the clock — and a ``serve_http`` run whose miss iterator dies.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# ``run.py`` with the third draw of the HTTP miss traffic raising, the way
# an exhausted pool does.
DEAD_CLIENT = f"""
import sys
sys.path.insert(0, {str(HERE)!r})
import run, workloads
singles = workloads.QueryPool.singles
def dry(pool):
    source = singles(pool)
    yield next(source)
    yield next(source)
    raise RuntimeError("injected: the miss iterator ran dry")
workloads.QueryPool.singles = dry
raise SystemExit(run.main(sys.argv[1:]))
"""


def _start(workload: str, trace: int, out: Path, seconds: int = 1,
           program=(str(HERE / "run.py"),)) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, *program, "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace),
         "--smoke", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _result(process: subprocess.Popen) -> dict:
    """The result line, after checking the table printed above it: every
    metric of the result by name with its unit, and ``failed_share`` 0."""
    stdout, stderr = process.communicate(timeout=120)
    assert process.returncode == 0, stderr[-2000:]
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {fields[0]: fields[1:] for fields in map(str.split, lines[:-1])
               if len(fields) == 3}
    for name, entry in result["metrics"].items():
        assert printed[name][1] == entry["unit"], name
    assert printed["failed_share"] == ["0", "share"]
    return result


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    started = {name: _start(name, 1, out) for name in WORKLOADS}
    started["untraced"] = _start("store_restart", 0, out / "untraced")
    return out, {name: _result(process) for name, process in started.items()}


@pytest.fixture(scope="module")
def capped(tmp_path_factory):
    """``{name: end_to_end section}`` of untraced runs given twenty times
    the seconds their round caps need, plus the dead-client process."""
    out = tmp_path_factory.mktemp("e2e-capped")
    started = {name: _start(name, 0, out / name, seconds=20)
               for name in ("store_restart", "append_explain", "serve_http")}
    started["append_explain_longer"] = _start(
        "append_explain", 0, out / "append_explain_longer", seconds=40)
    dead = _start("serve_http", 0, out / "dead",
                  program=("-c", DEAD_CLIENT))
    sections = {}
    for name, process in started.items():
        _result(process)
        workload = name.removesuffix("_longer")
        sections[name] = json.loads(
            (out / name / f"{workload}.json").read_text())["end_to_end"]
    stdout, stderr = dead.communicate(timeout=120)
    return sections, (dead.returncode, stdout, stderr)


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's ``workloads`` module, importable for this test only."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import workloads

    return workloads


@pytest.fixture(scope="module")
def traced(runs):
    out, results = runs
    return out, {name: results[name] for name in WORKLOADS}


def test_benchmark_json_shape():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 12) <= 3420, \
        "timed phase plus ~12 s of set-up and verification per run must fit"


def test_config_is_the_benchmark_default(workloads):
    spec = importlib.util.spec_from_file_location(
        "benchmarks_conftest", HERE.parent / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)

    assert workloads.CONFIG == conftest.bench_config()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_trace(traced, workload):
    out, results = traced
    result = results[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == expected

    trace = json.loads((out / f"trace_{workload}.json").read_text())
    assert trace["requests"]
    for request in trace["requests"]:
        assert sum(request["self_ns"].values()) == \
            pytest.approx(request["wall_ns"], rel=0.01)
    kinds = {request["kind"] for request in trace["requests"]}
    assert "explain" in kinds

    document = json.loads((out / f"{workload}.json").read_text())
    host = document["per_layer"]["host"]
    assert {"nproc", "loadavg_start", "loadavg_end", "python", "numpy",
            "blas_threads", "git_sha", "seed", "scrubbed_env"} <= set(host)


def test_bypassed_layers_stay_silent(traced):
    out, results = traced
    cold = results["cold_explain"]["metrics"]
    for name, entry in cold.items():
        if name.startswith(("storage.", "net.")) or (
                name.startswith("service.") and name.endswith("_hit_rate")):
            assert entry["value"] == 0, name
    assert results["store_restart"]["metrics"]["storage.append_p50_s"][
        "value"] == 0
    assert results["serve_http"]["metrics"]["net.hit_rtt_p50_s"]["value"] > 0
    served = json.loads((out / "trace_serve_http.json").read_text())
    hits = [r for r in served["requests"] if r["cached"]]
    assert hits
    for request in hits:
        assert not [name for name in request["count"]
                    if name.startswith(("causal.", "mining."))]


def test_end_to_end_metrics(runs):
    out, results = runs
    result = results["untraced"]
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == expected
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    document = json.loads(
        (out / "untraced" / "store_restart.json").read_text())
    section = document["end_to_end"]
    assert section["failed_share"] == 0
    assert len(section["blocks"]) == 5
    for name in ("explain_p50_s", "explain_p90_s", "wall_s_per_explain",
                 "cpu_s_per_explain"):
        assert all(block[name] > 0 for block in section["blocks"])
    assert section["rounds"] == sum(b["rounds"] for b in section["blocks"]) \
        == result["metrics"]["rounds"]["value"]
    assert {b["ended_by"] for b in section["blocks"]} <= {"cap", "clock"}


# ---------------------------------------------------------------- equal work


@pytest.mark.parametrize("workload",
                         ["store_restart", "append_explain", "serve_http"])
def test_speed_headroom(capped, workloads, workload):
    """Seconds to spare change nothing: every block ends by its round cap
    (this command exhausted the query pool before blocks had caps)."""
    section = capped[0][workload]
    assert section["failed"] == 0
    assert [b["ended_by"] for b in section["blocks"]] == ["cap"] * 5
    cap = workloads.SMOKE.block_cap[workload]
    assert [b["rounds"] for b in section["blocks"]] == [cap] * 5


def test_equal_work(capped, workloads):
    """Cap-bound runs end on the same table whatever ``--seconds`` was."""
    scale = workloads.SMOKE
    short, longer = (capped[0][name] for name in
                     ("append_explain", "append_explain_longer"))
    assert short["seconds"] == 20 and longer["seconds"] == 40
    assert short["rounds"] == longer["rounds"] \
        == workloads.BLOCKS * scale.block_cap["append_explain"]
    assert short["final_rows"] == longer["final_rows"] == scale.store_rows \
        + scale.rounds("append_explain") * scale.append_rows


@pytest.mark.parametrize("scale", ["FULL", "SMOKE"])
def test_capacity_by_construction(workloads, tmp_path, scale):
    """Every pool holds what the scale's fixed number of rounds draws;
    ``reserve`` is what ``build`` runs first and needs no set-up."""
    for workload in workloads.WORKLOADS.values():
        workload(7, getattr(workloads, scale), tmp_path).reserve()


@pytest.mark.parametrize("workload, cap", [
    ("store_restart", 60), ("append_explain", 4), ("serve_http", 400)])
def test_cap_past_a_pool_is_refused_at_build(workloads, tmp_path, workload,
                                             cap):
    scale = dataclasses.replace(
        workloads.SMOKE, block_cap={**workloads.SMOKE.block_cap,
                                    workload: cap})
    with pytest.raises(ValueError, match=r"holds \d+ draws, the run needs "
                                         r"\d+") as refused:
        workloads.WORKLOADS[workload](7, scale, tmp_path).build()
    holds, needs = map(int, re.findall(r"\d+", str(refused.value))[-2:])
    assert holds < needs
    assert not list(tmp_path.iterdir())  # refused before any set-up


def test_dead_client_fails_the_run(capped):
    """A client thread that raises outside a timed request is a failed
    operation and a non-zero exit, not a short block reported as clean."""
    code, stdout, stderr = capped[1]
    assert code == 1, stderr[-2000:]
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["failed"] >= 1 and not result["correct"]
    assert "the miss iterator ran dry" in stderr
