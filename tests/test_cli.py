"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.dataframe import write_csv
from repro.datasets import list_datasets


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_explain_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain"])

    def test_dataset_and_csv_are_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain", "--dataset", "german",
                                       "--csv", str(tmp_path / "x.csv")])


    @pytest.mark.parametrize("argv", [
        ["explain", "--dataset", "accidents", "--n", "-1"],
        ["store", "import", "s", "--dataset", "cps", "--n", "0"],
        ["case-study", "figure7_accidents", "--n", "0"],
    ])
    def test_row_count_below_one_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err


class TestCommands:
    def test_list_datasets(self, capsys):
        assert main(["list-datasets"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(list_datasets())

    def test_explain_builtin_dataset(self, capsys):
        code = main(["explain", "--dataset", "synthetic", "--n", "300",
                     "--k", "2", "--theta", "0.5", "--outcome-label", "O"])
        out = capsys.readouterr().out
        assert code == 0
        assert "effect size" in out

    def test_explain_csv_with_dag(self, tmp_path, capsys, so_bundle):
        csv_path = tmp_path / "so.csv"
        write_csv(so_bundle.table.sample(400, seed=0), csv_path)
        dag_path = tmp_path / "dag.json"
        dag_path.write_text(json.dumps(so_bundle.dag.to_dict()))
        code = main(["explain", "--csv", str(csv_path),
                     "--query", "SELECT Country, AVG(Salary) FROM SO GROUP BY Country",
                     "--dag", str(dag_path), "--k", "2", "--theta", "0.3"])
        out = capsys.readouterr().out
        assert code in (0, 1)  # may be infeasible at this tiny size, but must run
        assert "explanation pattern" in out or "No explanation patterns" in out

    def test_explain_csv_without_query_errors(self, tmp_path, capsys, so_bundle):
        csv_path = tmp_path / "so.csv"
        write_csv(so_bundle.table.sample(50, seed=0), csv_path)
        assert main(["explain", "--csv", str(csv_path)]) == 2

    def test_explain_csv_no_dag_uses_discovery(self, tmp_path, capsys, synthetic_bundle):
        csv_path = tmp_path / "synthetic.csv"
        write_csv(synthetic_bundle.table, csv_path)
        code = main(["explain", "--csv", str(csv_path), "--no-discovery",
                     "--query", "SELECT G1, AVG(O) FROM t GROUP BY G1",
                     "--k", "2", "--theta", "0.5"])
        out = capsys.readouterr().out
        assert "No-DAG baseline" in out
        assert code in (0, 1)

    def test_batch_command(self, tmp_path, capsys):
        queries = tmp_path / "queries.sql"
        queries.write_text(
            "# repeated on purpose — served from the summary cache\n"
            "SELECT G1, AVG(O) FROM t GROUP BY G1\n"
            "SELECT G1, AVG(O) FROM t GROUP BY G1\n")
        out = tmp_path / "summaries.json"
        code = main(["batch", "--dataset", "synthetic", "--n", "300",
                     "--k", "2", "--theta", "0.5",
                     "--queries", str(queries), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 2
        assert payload[0]["patterns"] == payload[1]["patterns"]

    def test_batch_empty_queries_errors(self, tmp_path):
        queries = tmp_path / "queries.sql"
        queries.write_text("# only a comment\n")
        assert main(["batch", "--dataset", "synthetic", "--n", "200",
                     "--queries", str(queries)]) == 2

    def test_serve_command_loop(self, tmp_path, capsys, monkeypatch):
        import io

        requests = "\n".join([
            "SELECT G1, AVG(O) FROM t GROUP BY G1",
            json.dumps({"op": "stats", "id": 9}),
            json.dumps({"op": "quit"}),
        ]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(requests))
        code = main(["serve", "--dataset", "synthetic", "--n", "300",
                     "--k", "2", "--theta", "0.5"])
        out = capsys.readouterr().out
        responses = [json.loads(line) for line in out.splitlines() if line.strip()]
        assert code == 0
        assert len(responses) == 3  # explain, stats, quit ack
        assert all(r["ok"] for r in responses)
        assert responses[1]["id"] == 9
        assert responses[2]["quit"] is True

    @pytest.mark.parametrize("millis", ["nan", "inf", "0", "-5"])
    def test_serve_http_refuses_unusable_deadline(self, capsys, monkeypatch,
                                                  millis):
        def no_server(*args, **kwargs):
            raise AssertionError("the server must not be built")

        monkeypatch.setattr("repro.net.create_server", no_server)
        code = main(["serve", "--dataset", "synthetic", "--n", "300",
                     "--http", "127.0.0.1:0", "--http-deadline-ms", millis])
        assert code == 2
        assert "--http-deadline-ms" in capsys.readouterr().err

    @pytest.mark.parametrize("megabytes", ["-1", "1e-9", "nan", "inf"])
    def test_serve_refuses_an_unusable_memory_budget(self, capsys,
                                                     megabytes):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--dataset", "synthetic", "--n", "300",
                  "--memory-budget-mb", megabytes])
        assert exit_info.value.code == 2
        assert "--memory-budget-mb" in capsys.readouterr().err

    def test_tenant_budget_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["serve", "--dataset", "synthetic", "--http", "127.0.0.1:0",
                 "--http-tenant-budget-mb", "1"])
        assert exit_info.value.code == 2
        assert "--http-tenant-budget-mb" in capsys.readouterr().err

    @pytest.mark.parametrize("megabytes, capacity",
                             [("1", 1 << 20), ("0.5", 1 << 19), ("0", None)])
    @pytest.mark.parametrize("source", ["dataset", "store"])
    def test_memory_budget_caps_each_http_tenant(self, tmp_path, capsys,
                                                 source, megabytes, capacity):
        from repro.cli import _http_registry

        if source == "store":
            store = str(tmp_path / "store")
            assert main(["store", "import", store, "--dataset", "synthetic",
                         "--n", "300"]) == 0
            argv = ["serve", "--store", store]
        else:
            argv = ["serve", "--dataset", "synthetic", "--n", "300"]
        registry = _http_registry(build_parser().parse_args(
            argv + ["--http", "127.0.0.1:0",
                    "--memory-budget-mb", megabytes]))
        for tenant in ("default", "guest"):
            stats = registry.engine_for(tenant).stats()
            if capacity is None:
                assert "memory_budget" not in stats
            else:
                assert stats["memory_budget"]["capacity_bytes"] == capacity

    @pytest.mark.parametrize("pick, expected", [
        ([], "german"), (["--store-dataset", "synthetic"], "synthetic")])
    def test_http_serves_a_store_with_several_datasets(self, tmp_path, capsys,
                                                       pick, expected):
        from repro.cli import _http_registry

        store = str(tmp_path / "store")
        for name in ("synthetic", "german"):
            assert main(["store", "import", store, "--dataset", name,
                         "--n", "300"]) == 0
        registry = _http_registry(build_parser().parse_args(
            ["serve", "--store", store, "--http", "127.0.0.1:0", *pick]))
        assert "error" not in capsys.readouterr().err
        assert registry.default_dataset == expected

    def test_case_study_command(self, capsys):
        code = main(["case-study", "figure18_german", "--n", "800"])
        out = capsys.readouterr().out
        assert code == 0
        # At reduced sizes some purposes may lack significant treatments; the
        # command must still run and print either the summary or the
        # constraints message.
        assert ("credit risk" in out) or ("No explanation patterns" in out)
