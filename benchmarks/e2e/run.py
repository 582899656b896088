"""Request-level benchmark runner (see README.md beside this file).

Driver protocol — one workload, one run, last stdout line is the result::

    python3 benchmarks/e2e/run.py --workload cold_explain --seed 1 \\
        --seconds 24 --trace 0      # end-to-end metrics
    python3 benchmarks/e2e/run.py --workload cold_explain --seed 1 \\
        --seconds 24 --trace 1      # per-layer metrics + trace file

Conveniences: ``--workload all`` (every workload, untraced then traced, one
child process each), ``--selfcheck`` (A/A: two interleaved sets of runs per
workload, their medians compared against the bounds in BENCHMARK.json),
``--smoke`` (2 000-row tables, ~1/50 of the work), ``--out DIR`` (where the
result files go: ``results/`` beside this file; ``out/`` with --smoke or
--selfcheck).
"""

from __future__ import annotations

import os
import sys
import time

_STARTED = time.perf_counter()

# Run the program as a user gets it: no REPRO_* knobs and no BLAS thread
# pins reach the process under test.  This happens before numpy loads,
# because BLAS reads its thread count when the library is loaded.
SCRUBBED = {key: os.environ.pop(key) for key in list(os.environ)
            if key.startswith("REPRO_") or key.endswith("_NUM_THREADS")}

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Runs per set of ``--selfcheck``; the sets' medians are compared.
SELFCHECK_RUNS = 3
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def _single(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'}: the program under test is not in "
              "this checkout", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    import harness
    import workloads

    scale = workloads.SMOKE if args.smoke else workloads.FULL
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    workdir = HERE / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, scale, workdir)
    try:
        if args.trace:
            result = harness.run_traced(workload, args.seed, args.seconds)
        else:
            result = harness.run_untraced(workload, args.seed, args.seconds,
                                          _STARTED)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    units = dict(harness.PER_LAYER if args.trace else harness.END_TO_END)
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    section = {key: value for key, value in result.items()
               if key not in ("metrics", "trace")}
    section.update(metrics=metrics, seconds=args.seconds, smoke=args.smoke,
                   host=harness.host_block(args.seed, SCRUBBED, load_start))
    _write_results(out, args.workload, args.trace, section,
                   result.get("trace"))

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} explain_samples={result['explain_samples']} "
          f"oracle_runs={result['oracle_runs']} rounds={result['rounds']}")
    if args.trace:
        for name, value in result["reference"].items():
            print(f"{'reference.' + name:38s} {value:.6g}")
        print(f"{'traced.peak_rss_mb':38s} "
              f"{result['traced_peak_rss_mb']:.6g}")
    for name, entry in metrics.items():
        print(f"{name:38s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'failed_share':38s} {result['failed_share']:.6g} share")
    spread = section.get("block_spread",
                         result["metrics"].get("host.block_spread", 0.0))
    if spread > harness.DISTURBED_SPREAD:
        print(f"# disturbed: block medians spread {spread:.3f} > "
              f"{harness.DISTURBED_SPREAD}")
    by_clock = [str(i + 1) for i, block in enumerate(result["blocks"])
                if block["ended_by"] == "clock"]
    if by_clock:
        print(f"# clock-bound: block {', '.join(by_clock)} of "
              f"{len(result['blocks'])} ran out of seconds before its round "
              f"cap ({result['rounds']} rounds done): less work than a "
              "cap-bound run, so not comparable with one")
    for error in result["errors"]:
        print(f"# failed op:\n{error}", file=sys.stderr)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["failed"] == 0 else 1


def _write_results(out: Path, workload: str, trace: int, section: dict,
                   trace_document: dict | None) -> None:
    """``<out>/<workload>.json`` keeps the latest untraced and traced
    sections side by side; the trace goes to ``trace_<workload>.json``."""
    path = out / f"{workload}.json"
    document = json.loads(path.read_text()) if path.exists() else {}
    document["workload"] = workload
    document["per_layer" if trace else "end_to_end"] = section
    path.write_text(json.dumps(document, indent=1, default=str) + "\n")
    if trace_document is not None:
        (out / f"trace_{workload}.json").write_text(
            json.dumps(trace_document, separators=(",", ":")) + "\n")


def _child(args: argparse.Namespace, workload: str, trace: int,
           seed: int) -> dict:
    """One workload run in its own process (its own peak RSS and caches)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--out", str(args.out)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    if not done.stdout.strip():
        raise SystemExit(f"{workload}: run produced no result "
                         f"(exit {done.returncode})")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _all(args: argparse.Namespace, names: list[str]) -> int:
    results = [_child(args, name, trace, args.seed)
               for name in names for trace in (0, 1)]
    return 0 if all(r["correct"] for r in results) else 1


def _selfcheck(args: argparse.Namespace, names: list[str]) -> int:
    """A/A: two interleaved sets of ``SELFCHECK_RUNS`` runs of the same code
    (the i-th run of both sets has seed ``--seed`` + i); the sets' medians
    must agree within each metric's bound, and ``failed_share`` — which has
    no bound: it may not rise — must be 0 in both."""
    spec = {m["name"]: m["bound"] for m in
            json.loads(BENCHMARK_JSON.read_text())["end_to_end"]}
    rows, bad = [], 0
    for name in names:
        sets: tuple[list, list] = ([], [])
        for i in range(SELFCHECK_RUNS):
            for runs in sets:
                runs.append(_child(args, name, 0, args.seed + i))
        a, b = (sum(run["failed"] for run in runs)
                / sum(run["attempted"] for run in runs) for runs in sets)
        verdict = "ok" if a == b == 0 else "OUTSIDE"
        bad += verdict != "ok"
        rows.append(f"{name:15s} {'failed_share':18s} {a:12.5g} {b:12.5g} "
                    f"{'':8s} {'0':>6s}  {verdict}")
        for metric, bound in spec.items():
            a, b = (statistics.median(run["metrics"][metric]["value"]
                                      for run in runs) for runs in sets)
            difference = abs(a - b) / min(a, b)
            verdict = "ok" if difference <= bound else "OUTSIDE"
            bad += verdict != "ok"
            rows.append(f"{name:15s} {metric:18s} {a:12.5g} {b:12.5g} "
                        f"{difference:8.2%} {bound:6.0%}  {verdict}")
    print(f"\n{'workload':15s} {'metric':18s} {'A':>12s} {'B':>12s} "
          f"{'diff':>8s} {'bound':>6s}   (medians of {SELFCHECK_RUNS})")
    print("\n".join(rows))
    return 1 if bad else 0


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK_JSON.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.out is None:  # only a plain full-scale run replaces results/
        args.out = HERE / ("out" if args.smoke or args.selfcheck
                           else "results")
    selected = names if args.workload == "all" else [args.workload]
    if args.selfcheck:
        return _selfcheck(args, selected)
    if args.workload == "all":
        return _all(args, selected)
    return _single(args)


if __name__ == "__main__":
    raise SystemExit(main())
