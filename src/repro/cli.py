"""Command-line interface for CauSumX.

Usage examples::

    python -m repro list-datasets
    python -m repro explain --dataset stackoverflow --n 2000 --k 3 --theta 1.0
    python -m repro explain --csv data.csv \
        --query "SELECT Region, AVG(Revenue) FROM t GROUP BY Region" --dag dag.json
    python -m repro case-study figure7_accidents --n 3000
    python -m repro serve --dataset stackoverflow --n 2000     # JSON-lines loop
    python -m repro batch --dataset adult --queries q.sql --out summaries.json
    python -m repro store init ./causumx-store
    python -m repro store import ./causumx-store --dataset stackoverflow \
        --n 20000 --shard-rows 5000
    python -m repro store ls ./causumx-store
    python -m repro serve --store ./causumx-store              # warm restarts
    python -m repro lint src --format json                     # invariant lint
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from repro.analysis.cli import add_lint_arguments, run_lint
from repro.obs.cli import add_obs_arguments, run_obs
from repro.core import CauSumX, CauSumXConfig, render_summary
from repro.dataframe import read_csv
from repro.datasets import list_datasets, load_dataset
from repro.discovery import no_dag, pc_algorithm
from repro.experiments.case_studies import CASE_STUDIES, run_case_study
from repro.graph import CausalDAG
from repro.service import ExplanationEngine, read_queries, run_batch, serve_loop
from repro.sql import parse_query


def _row_count(text: str) -> int:
    """argparse type of ``--n``: a generated table has at least one row."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _byte_cap(text: str) -> int | None:
    """argparse type of ``--memory-budget-mb``: whole bytes, ``None`` for 0
    (no cap)."""
    megabytes = float(text)
    if megabytes == 0:
        return None
    if not math.isfinite(megabytes) or megabytes * 2**20 < 1:
        raise argparse.ArgumentTypeError(
            f"must be 0 (no cap) or at least one byte, got {text}")
    return int(megabytes * 2**20)


def _add_source_arguments(parser: argparse.ArgumentParser,
                          query_help: str, required: bool = True) -> None:
    """The table/DAG/query source options shared by explain, serve, and batch."""
    source = parser.add_mutually_exclusive_group(required=required)
    source.add_argument("--dataset", choices=sorted(list_datasets()),
                        help="built-in dataset generator to use")
    source.add_argument("--csv", type=Path, help="CSV file containing the relation")
    parser.add_argument("--query", help=query_help)
    parser.add_argument("--dag", type=Path,
                        help="causal DAG as JSON ({child: [parents...]}); "
                             "default: the dataset's DAG, or PC discovery for CSV input")
    parser.add_argument("--n", type=_row_count, default=2000,
                        help="number of tuples to generate for built-in datasets")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=5,
                        help="maximum number of explanation patterns")
    parser.add_argument("--theta", type=float, default=0.75, help="coverage constraint")
    parser.add_argument("--apriori-threshold", type=float, default=0.1)
    parser.add_argument("--no-discovery", action="store_true",
                        help="with --csv and no --dag, use the No-DAG baseline instead of PC")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="CauSumX: summarized causal explanations for aggregate views")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-datasets", help="list the built-in dataset generators")

    explain = sub.add_parser("explain", help="explain an aggregate view")
    _add_source_arguments(explain, "group-by-average SQL query "
                                   "(default: the dataset's representative query)")
    explain.add_argument("--outcome-label", default="the outcome",
                         help="noun used in the rendered explanation text")

    serve = sub.add_parser(
        "serve", help="serve explanations over a JSON-lines stdin/stdout loop")
    _add_source_arguments(serve, "default query (informational; requests carry "
                                 "their own queries)", required=False)
    serve.add_argument("--store", type=Path, default=None,
                       help="serve every dataset of an on-disk store "
                            "(memory-mapped tables, durable appends, warm "
                            "restart from the persisted summary cache; "
                            "state is snapshotted back on quit)")
    serve.add_argument("--store-dataset", default=None,
                       help="with --store: default dataset for requests that "
                            "don't name one (default: the first by name)")
    serve.add_argument("--summary-cache-size", type=int, default=256,
                       help="LRU capacity of the summary cache")
    serve.add_argument("--memory-budget-mb", dest="summary_cache_bytes",
                       type=_byte_cap, default=None, metavar="MB",
                       help="byte cap of the summary cache (LRU eviction; "
                            "with --http, of each tenant's); 0: no cap")
    serve.add_argument("--http", metavar="HOST:PORT", default=None,
                       help="serve over HTTP instead of the stdin loop "
                            "(POST /v1/<op>, GET /healthz, GET /metrics; "
                            "multi-tenant via the X-Repro-Tenant header)")
    serve.add_argument("--http-max-inflight", type=int, default=8,
                       help="requests executing concurrently (HTTP mode)")
    serve.add_argument("--http-max-queue", type=int, default=64,
                       help="requests waiting for a slot before 429 shedding")
    serve.add_argument("--http-tenant-inflight", type=int, default=None,
                       help="per-tenant cap on requests inside the server")
    serve.add_argument("--http-deadline-ms", type=float, default=None,
                       help="default per-request deadline (504 on expiry); "
                            "X-Repro-Deadline-Ms overrides per request")
    serve.add_argument("--http-drain-timeout", type=float, default=10.0,
                       help="seconds to let in-flight requests finish on "
                            "SIGTERM before snapshotting and closing")

    batch = sub.add_parser(
        "batch", help="answer a file of queries and emit JSON summaries")
    _add_source_arguments(batch, "unused for batch (queries come from --queries)")
    batch.add_argument("--queries", type=Path, required=True,
                       help="file of queries: one SQL per line (# comments) "
                            "or a JSON array of strings")
    batch.add_argument("--out", type=Path, default=None,
                       help="output JSON file (default: stdout)")

    plan = sub.add_parser(
        "plan", help="show how a query would execute (logical plan, shard "
                     "skips, rows in and out) without mining any treatment")
    _add_source_arguments(plan, "group-by-average SQL query "
                                "(default: the dataset's representative query)",
                          required=False)
    plan.add_argument("--store", type=Path, default=None,
                      help="plan against a dataset of an on-disk store")
    plan.add_argument("--store-dataset", default=None,
                      help="with --store: dataset to plan against "
                           "(default: the first by name)")

    lint = sub.add_parser(
        "lint", help="run the project-invariant static analyzer "
                     "(see repro.analysis)")
    add_lint_arguments(lint)

    obs = sub.add_parser(
        "obs", help="aggregate a store's persisted query telemetry "
                    "(see repro.obs)")
    add_obs_arguments(obs)

    case = sub.add_parser("case-study", help="run one of the paper's case studies")
    case.add_argument("name", choices=sorted(CASE_STUDIES),
                      help="case-study identifier (paper figure)")
    case.add_argument("--n", type=_row_count, default=None, help="dataset size override")
    case.add_argument("--seed", type=int, default=0)

    store = sub.add_parser(
        "store", help="manage on-disk dataset stores (sharded columnar format)")
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_init = store_sub.add_parser("init", help="create an empty store")
    store_init.add_argument("root", type=Path, help="store directory")

    store_import = store_sub.add_parser(
        "import", help="import a dataset (generator or CSV) into a store")
    store_import.add_argument("root", type=Path, help="store directory")
    _add_source_arguments(store_import,
                          "representative query (informational)")
    store_import.add_argument("--name", default=None,
                              help="dataset name inside the store "
                                   "(default: source name)")
    store_import.add_argument("--shard-rows", type=int, default=None,
                              help="rows per shard (default: one shard; "
                                   "smaller shards enable zone-map pruning)")

    store_ls = store_sub.add_parser("ls", help="list a store's datasets")
    store_ls.add_argument("root", type=Path, help="store directory")

    store_compact = store_sub.add_parser(
        "compact", help="merge undersized shards (and optionally re-cluster "
                        "by a sort key), rebuilding zone maps and "
                        "fingerprints")
    store_compact.add_argument("root", type=Path, help="store directory")
    store_compact.add_argument("name", help="dataset to compact")
    store_compact.add_argument("--shard-rows", type=int, default=None,
                               help="target rows per rewritten shard "
                                    "(default: the largest current shard)")
    store_compact.add_argument("--cluster-by", default=None,
                               help="stably re-sort the whole dataset by "
                                    "this attribute while rewriting")
    store_compact.add_argument("--min-rows", type=int, default=None,
                               help="shards smaller than this are merged "
                                    "(default: the target shard size)")
    return parser


def _cmd_list_datasets() -> int:
    for name in list_datasets():
        print(name)
    return 0


def _load_source(args: argparse.Namespace, require_query: bool,
                 machine_output: bool = False):
    """Resolve (table, dag, query, grouping_attrs, treatment_attrs, config, name).

    Returns ``None`` after printing an error when the source is unusable.
    ``machine_output`` sends informational notices to stderr so commands whose
    stdout is a machine-readable protocol (serve/batch) stay parseable.
    """
    config = CauSumXConfig(k=args.k, theta=args.theta,
                           apriori_threshold=args.apriori_threshold,
                           sample_size=None)
    grouping_attributes = treatment_attributes = None
    if args.dataset:
        bundle = load_dataset(args.dataset, n=args.n, seed=args.seed)
        table, dag, query = bundle.table, bundle.dag, bundle.query
        grouping_attributes = bundle.grouping_attributes
        treatment_attributes = bundle.treatment_attributes
        name = args.dataset
        if args.dataset == "german":
            config = config.with_overrides(include_singleton_groups=True)
    else:
        table = read_csv(args.csv)
        if require_query and not args.query:
            print("error: --query is required with --csv", file=sys.stderr)
            return None
        query = None
        dag = None
        name = args.csv.stem
    if args.query:
        query = parse_query(args.query)
    if args.dag:
        with args.dag.open() as handle:
            dag = CausalDAG.from_dict(json.load(handle))
    if dag is None:
        if args.no_discovery and query is None:
            print("error: --no-discovery needs --query (or --dag) to know "
                  "the outcome attribute", file=sys.stderr)
            return None
        dag = no_dag(table, query.average) if args.no_discovery \
            else pc_algorithm(table)
        source = "No-DAG baseline" if args.no_discovery else "PC causal discovery"
        print(f"[no causal DAG supplied — using {source}: {dag.n_edges} edges]\n",
              file=sys.stderr if machine_output else sys.stdout)
    return table, dag, query, grouping_attributes, treatment_attributes, config, name


def _cmd_explain(args: argparse.Namespace) -> int:
    source = _load_source(args, require_query=True)
    if source is None:
        return 2
    table, dag, query, grouping_attributes, treatment_attributes, config, _ = source
    summary = CauSumX(table, dag, config).explain(
        query, grouping_attributes=grouping_attributes,
        treatment_attributes=treatment_attributes)
    print(render_summary(summary, outcome=args.outcome_label))
    return 0 if summary.feasible else 1


def _engine_kwargs(args: argparse.Namespace) -> dict:
    """The serve command's cache sizes as engine keywords."""
    return {"summary_cache_size": args.summary_cache_size,
            "summary_cache_bytes": args.summary_cache_bytes}


def _make_engine(args: argparse.Namespace, **engine_kwargs):
    """Build an engine with one registered dataset from the CLI source options."""
    source = _load_source(args, require_query=False, machine_output=True)
    if source is None:
        return None
    table, dag, _, grouping_attributes, treatment_attributes, config, name = source
    engine = ExplanationEngine(**engine_kwargs)
    engine.register_dataset(name, table, dag=dag, config=config,
                            grouping_attributes=grouping_attributes,
                            treatment_attributes=treatment_attributes)
    return engine, name


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.store is not None:
        if args.dataset or args.csv:
            print("error: --store cannot be combined with --dataset/--csv",
                  file=sys.stderr)
            return 2
        if args.http:
            return _serve_http(args)
        return _serve_store(args)
    if not args.dataset and not args.csv:
        print("error: one of --dataset, --csv, or --store is required",
              file=sys.stderr)
        return 2
    if args.http:
        return _serve_http(args)
    made = _make_engine(args, **_engine_kwargs(args))
    if made is None:
        return 2
    engine, name = made
    print(f"[serving dataset {name!r}; one JSON request per line, "
          '{"op": "quit"} to stop]', file=sys.stderr)
    serve_loop(engine, name, sys.stdin, sys.stdout)
    return 0


def _open_store(args: argparse.Namespace):
    """``(store, dataset)`` for ``--store``: the dataset is
    ``--store-dataset`` or the store's first.  ``None`` after printing the
    error when the store cannot be opened, holds no dataset, or lacks the
    named one."""
    from repro.storage import DatasetStore, StorageError

    try:
        store = DatasetStore(args.store)
    except StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    names = store.dataset_names()
    if not names:
        print(f"error: store {args.store} holds no datasets "
              "(use `repro store import`)", file=sys.stderr)
        return None
    name = args.store_dataset or names[0]
    if name not in names:
        print(f"error: no dataset {name!r} in store (have: {names})",
              file=sys.stderr)
        return None
    return store, name


def _http_registry(args: argparse.Namespace):
    """A TenantRegistry from the serve command's source options, or None."""
    from repro.net import TenantRegistry

    if args.store is not None:
        opened = _open_store(args)
        if opened is None:
            return None
        return TenantRegistry.from_store(opened[0],
                                         default_dataset=args.store_dataset,
                                         **_engine_kwargs(args))
    source = _load_source(args, require_query=False, machine_output=True)
    if source is None:
        return None
    table, dag, _, grouping_attributes, treatment_attributes, config, name = source
    return TenantRegistry.single_dataset(
        name, table, dag=dag, config=config,
        grouping_attributes=grouping_attributes,
        treatment_attributes=treatment_attributes, **_engine_kwargs(args))


def _serve_http(args: argparse.Namespace) -> int:
    """Serve over HTTP until SIGTERM/SIGINT, then drain and snapshot."""
    import signal
    import threading

    from repro.net import Deadline, create_server

    deadline_ms = args.http_deadline_ms
    if deadline_ms is not None:
        try:
            Deadline(deadline_ms / 1000.0)
        except ValueError:
            print(f"error: --http-deadline-ms must be a finite positive "
                  f"number, got {deadline_ms!r}", file=sys.stderr)
            return 2
    host, _, port_text = args.http.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        print(f"error: --http expects HOST:PORT, got {args.http!r}",
              file=sys.stderr)
        return 2
    registry = _http_registry(args)
    if registry is None:
        return 2
    server = create_server(
        registry, host, port,
        max_inflight=args.http_max_inflight,
        max_queue=args.http_max_queue,
        tenant_inflight=args.http_tenant_inflight,
        default_deadline=deadline_ms / 1000.0
        if deadline_ms is not None else None)

    def request_stop(signum, frame):
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, request_stop)
    signal.signal(signal.SIGINT, request_stop)
    bound_host, bound_port = server.server_address[:2]
    print(f"[serving HTTP on {bound_host}:{bound_port}; default dataset "
          f"{registry.default_dataset!r}; SIGTERM drains and snapshots]",
          file=sys.stderr)
    try:
        server.serve_forever()
    finally:
        result = server.graceful_shutdown(args.http_drain_timeout)
        persisted = sum(1 for s in result["snapshots"].values()
                        if s is not None)
        print(f"[drained={result['drained']}; {persisted} tenant "
              f"snapshot(s) persisted]", file=sys.stderr)
    return 0


def _serve_store(args: argparse.Namespace) -> int:
    """Serve every dataset of an on-disk store, with warm-restart state."""
    opened = _open_store(args)
    if opened is None:
        return 2
    store, default = opened
    engine = ExplanationEngine.from_store(store, **_engine_kwargs(args))
    restored = engine.stats().get("restored_summaries", 0)
    print(f"[serving store {str(args.store)!r}: datasets "
          f"{store.dataset_names()}, default "
          f"{default!r}, {restored} summaries restored; one JSON request per "
          'line, {"op": "quit"} to stop]', file=sys.stderr)
    serve_loop(engine, default, sys.stdin, sys.stdout)
    snapshot = engine.snapshot()
    print(f"[snapshot: {snapshot['summaries']} summaries persisted]",
          file=sys.stderr)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.storage import DatasetStore, StorageError

    if args.store_command == "init":
        DatasetStore.init(args.root)
        print(f"initialized store at {args.root}")
        return 0
    if args.store_command == "ls":
        try:
            store = DatasetStore(args.root)
        except StorageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        registry = store.registry()
        for name in store.dataset_names():
            stats = store.dataset(name).stats()
            registered = "registered" if name in registry else "data only"
            print(f"{name}  rows={stats['rows']}  shards={stats['shards']}  "
                  f"version={stats['version']}  bytes={stats['bytes']}  "
                  f"[{registered}]")
        return 0
    if args.store_command == "compact":
        try:
            store = DatasetStore(args.root)
            result = store.compact(args.name, shard_rows=args.shard_rows,
                                   cluster_by=args.cluster_by,
                                   min_rows=args.min_rows)
        except StorageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        clustered = f"  clustered by {result['cluster_by']}" \
            if result["cluster_by"] else ""
        print(f"compacted {args.name!r}: shards "
              f"{result['shards_before']} -> {result['shards_after']} "
              f"({result['rewritten']} rewritten){clustered}  "
              f"version={result['version']}")
        return 0
    # import
    source = _load_source(args, require_query=False, machine_output=True)
    if source is None:
        return 2
    table, dag, _, grouping_attributes, treatment_attributes, config, name = source
    name = args.name or name
    try:
        store = DatasetStore.init(args.root)
        store.import_table(name, table, shard_rows=args.shard_rows)
        store.register_entry(name, dag=dag, config=config,
                             grouping_attributes=grouping_attributes,
                             treatment_attributes=treatment_attributes)
    except StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stats = store.dataset(name).stats()
    print(f"imported {name!r}: rows={stats['rows']} shards={stats['shards']} "
          f"bytes={stats['bytes']} -> {args.root}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """Print one query's logical plan and what its WHERE scan measured."""
    if args.store is not None:
        if args.dataset or args.csv:
            print("error: --store cannot be combined with --dataset/--csv",
                  file=sys.stderr)
            return 2
        if not args.query:
            print("error: --query is required with --store", file=sys.stderr)
            return 2
        opened = _open_store(args)
        if opened is None:
            return 2
        store, name = opened
        engine = ExplanationEngine.from_store(store)
        query = args.query
    else:
        # Planning needs no causal DAG, so the table/query resolve directly
        # (no PC discovery run for --csv input, unlike `repro explain`).
        if args.dataset:
            bundle = load_dataset(args.dataset, n=args.n, seed=args.seed)
            table, query, name = bundle.table, bundle.query, args.dataset
        elif args.csv:
            table = read_csv(args.csv)
            query, name = None, args.csv.stem
        else:
            print("error: one of --dataset, --csv, or --store is required",
                  file=sys.stderr)
            return 2
        if args.query:
            query = parse_query(args.query)
        if query is None:
            print("error: --query is required with --csv", file=sys.stderr)
            return 2
        engine = ExplanationEngine()
        engine.register_dataset(name, table)
    try:
        report = engine.explain_plan(name, query)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report["logical_plan"])
    print(f"\ndataset {report['dataset']!r} v{report['version']}  "
          f"fingerprint {report['fingerprint']}")
    scan = report["scan"]
    if scan is None:
        print("scan: no WHERE clause — full scan")
    else:
        print(f"scan: rows {scan['rows_in']} -> {scan['rows_out']}")
        shards = scan["shards"]
        if shards["total"]:
            print(f"shards: {shards['total']} total, "
                  f"{shards['zone_map_skipped']} zone-map skipped, "
                  f"{shards['scanned']} scanned")
    rows = report["rows"]
    print(f"rows: {rows['table']} -> {rows['filtered']}  "
          f"groups: {report['groups']}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    made = _make_engine(args)
    if made is None:
        return 2
    engine, name = made
    try:
        queries = read_queries(args.queries.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read --queries file: {exc}", file=sys.stderr)
        return 2
    if not queries:
        print("error: no queries found in --queries file", file=sys.stderr)
        return 2
    try:
        if args.out is None:
            run_batch(engine, name, queries, sys.stdout)
        else:
            with args.out.open("w") as handle:
                run_batch(engine, name, queries, handle)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_case_study(args: argparse.Namespace) -> int:
    _, text = run_case_study(args.name, n=args.n, seed=args.seed)
    print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-datasets":
        return _cmd_list_datasets()
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "lint":
        return run_lint(args)
    if args.command == "obs":
        return run_obs(args)
    return _cmd_case_study(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
