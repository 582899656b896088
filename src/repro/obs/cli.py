"""The ``repro obs`` subcommand: aggregate a store's query-telemetry log.

Three views over ``<store>/telemetry/queries-*.jsonl``:

* ``repro obs summary STORE`` — totals, cache-outcome rates, mean
  duration and the largest admission queue wait across every record;
* ``repro obs top STORE`` — the most frequent query fingerprints with
  request counts and mean latency;
* ``repro obs slow STORE`` — the slowest individual requests, with where
  the time went (their top spans).

``STORE`` is a store root (the ``telemetry/`` subdirectory is implied) or a
telemetry directory itself.  Reading goes through
:class:`~repro.obs.TelemetryReader`: given a store root, records whose
dataset or data version is unknown to the store's committed manifests are
skipped as stale (and counted); a bare telemetry directory is read
unfiltered.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.obs.telemetry import TelemetryReader


def add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="obs_command", required=True)
    for name, help_text in (
            ("summary", "aggregate totals, cache rates, durations"),
            ("top", "most frequent fingerprints by request count"),
            ("slow", "slowest individual requests")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("store", type=Path,
                         help="store root (or telemetry directory)")
        if name in ("top", "slow"):
            cmd.add_argument("-n", "--limit", type=int, default=10,
                             help="rows to show (default 10)")


def telemetry_directory(store: Path) -> Path:
    """Resolve a store root or telemetry directory to the telemetry directory."""
    candidate = store / "telemetry"
    return candidate if candidate.is_dir() else store


def telemetry_reader(store: Path) -> TelemetryReader:
    """Build the reader for a store root or bare telemetry directory.

    A store root (``STORE.json`` present) gets the store's version-filtered
    reader; a bare directory is read unfiltered (no versions to check
    against).
    """
    if (store / "STORE.json").exists():
        from repro.storage import DatasetStore

        return DatasetStore(store).telemetry_reader()
    return TelemetryReader(telemetry_directory(store))


def aggregate(records: list[dict]) -> dict:
    """Roll a record list up into the ``summary`` view's numbers."""
    total = len(records)
    by_dataset: dict[str, int] = {}
    outcome_hits: dict[str, int] = {}
    outcome_totals: dict[str, int] = {}
    durations: list[float] = []
    queue_waits: list[float] = []
    for record in records:
        dataset = record.get("dataset")
        if dataset:
            by_dataset[dataset] = by_dataset.get(dataset, 0) + 1
        for level, outcome in (record.get("cache_outcomes") or {}).items():
            if outcome in ("hit", "miss"):
                outcome_totals[level] = outcome_totals.get(level, 0) + 1
                if outcome == "hit":
                    outcome_hits[level] = outcome_hits.get(level, 0) + 1
        if isinstance(record.get("duration_ms"), (int, float)):
            durations.append(float(record["duration_ms"]))
        if isinstance(record.get("queue_wait_ms"), (int, float)):
            queue_waits.append(float(record["queue_wait_ms"]))
    hit_rates = {level: outcome_hits.get(level, 0) / count
                 for level, count in sorted(outcome_totals.items())}
    return {
        "records": total,
        "by_dataset": dict(sorted(by_dataset.items())),
        "cache_hit_rates": hit_rates,
        "duration_ms_mean":
            sum(durations) / len(durations) if durations else None,
        "queue_wait_ms_max": max(queue_waits) if queue_waits else None,
    }


def _top(records: list[dict], limit: int) -> list[dict]:
    groups: dict[str, dict] = {}
    for record in records:
        fingerprint = record.get("fingerprint")
        if not fingerprint:
            continue
        entry = groups.setdefault(fingerprint, {
            "fingerprint": fingerprint, "count": 0, "duration_ms": 0.0,
            "sql": record.get("sql"), "cached": 0})
        entry["count"] += 1
        if record.get("cached"):
            entry["cached"] += 1
        if isinstance(record.get("duration_ms"), (int, float)):
            entry["duration_ms"] += float(record["duration_ms"])
    rows = sorted(groups.values(),
                  key=lambda e: (-e["count"], e["fingerprint"]))[:limit]
    for row in rows:
        row["mean_ms"] = row.pop("duration_ms") / row["count"] \
            if row["count"] else 0.0
    return rows


def _slowest(records: list[dict], limit: int) -> list[dict]:
    timed = [r for r in records
             if isinstance(r.get("duration_ms"), (int, float))]
    return sorted(timed, key=lambda r: -float(r["duration_ms"]))[:limit]


def _span_hotspots(record: dict, n: int = 3) -> str:
    """The ``n`` longest spans of one record's tree, rendered compactly."""
    spans: list[tuple[float, str]] = []

    def walk(node: dict) -> None:
        duration = node.get("duration_ms")
        if isinstance(duration, (int, float)):
            spans.append((float(duration), node.get("name", "?")))
        for child in node.get("children") or []:
            walk(child)

    tree = record.get("spans")
    if isinstance(tree, dict):
        for child in tree.get("children") or []:
            walk(child)
    spans.sort(reverse=True)
    return ", ".join(f"{name} {duration:.1f}ms"
                     for duration, name in spans[:n]) or "-"


def run_obs(args: argparse.Namespace) -> int:
    directory = telemetry_directory(args.store)
    reader = telemetry_reader(args.store)
    records, corrupt, stale = reader.read()
    if not records:
        print(f"no telemetry records under {directory} "
              f"(set REPRO_TRACE=1 — or REPRO_TELEMETRY=1 — while serving "
              f"a store-backed engine)")
        return 1
    if args.obs_command == "summary":
        summary = aggregate(records)
        print(f"telemetry: {summary['records']} records "
              f"({corrupt} corrupt line(s), {stale} stale record(s) skipped) "
              f"under {directory}")
        for dataset, count in summary["by_dataset"].items():
            print(f"  dataset {dataset}: {count} queries")
        for level, rate in summary["cache_hit_rates"].items():
            print(f"  cache {level}: {rate:.1%} hit rate")
        if summary["duration_ms_mean"] is not None:
            print(f"  duration: mean {summary['duration_ms_mean']:.2f}ms")
        if summary["queue_wait_ms_max"] is not None:
            print(f"  admission queue wait: max "
                  f"{summary['queue_wait_ms_max']:.2f}ms")
        return 0
    if args.obs_command == "top":
        for row in _top(records, args.limit):
            sql = f"  {row['sql']}" if row.get("sql") else ""
            print(f"{row['count']:>6}x  {row['mean_ms']:>9.2f}ms mean  "
                  f"{row['cached']:>5} cached  {row['fingerprint']}{sql}")
        return 0
    # slow
    for record in _slowest(records, args.limit):
        print(f"{record['duration_ms']:>9.2f}ms  "
              f"{record.get('dataset', '?')} v{record.get('version', '?')}  "
              f"{record.get('fingerprint', '?')}  "
              f"[{_span_hotspots(record)}]")
    return 0
