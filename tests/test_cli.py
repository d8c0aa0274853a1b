"""Tests for the ``python -m repro`` CLI."""

import json

import pytest

from repro.__main__ import main


class TestCli:
    def test_demo(self, capsys):
        assert main(["--rows", "300", "demo"]) == 0
        out = capsys.readouterr().out
        assert "best plan" in out
        assert "top-5 results" in out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 6" in out
        assert "k* = " in out

    def test_sql_topk(self, capsys):
        assert main([
            "--rows", "200", "sql",
            "SELECT A.c1 FROM A ORDER BY A.c1 DESC LIMIT 3",
        ]) == 0
        out = capsys.readouterr().out
        assert "3 rows:" in out

    def test_sql_join_query(self, capsys):
        assert main([
            "--rows", "200", "sql",
            "WITH R AS (SELECT A.c1 AS x, rank() OVER "
            "(ORDER BY (A.c1 + B.c1)) AS r FROM A, B "
            "WHERE A.c2 = B.c2) SELECT x, r FROM R WHERE r <= 4",
        ]) == 0
        out = capsys.readouterr().out
        assert "4 rows:" in out

    def test_sql_limit_flag(self, capsys):
        assert main([
            "--rows", "200", "sql", "--limit", "2",
            "SELECT A.c1 FROM A ORDER BY A.c1 DESC LIMIT 10",
        ]) == 0
        out = capsys.readouterr().out
        assert "... (8 more)" in out

    def test_report(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "reproduction report" in out
        assert "Figure 13" in out and "Table 1" in out

    def test_traced_metrics_out_writes_json_lines(self, tmp_path, capsys):
        path = tmp_path / "metrics.jsonl"
        assert main(["--rows", "300", "--trace", "--metrics-out",
                     str(path), "demo"]) == 0
        lines = [line for line in path.read_text().splitlines()
                 if line.strip()]
        assert lines
        for line in lines:
            json.loads(line)

    def test_metrics_out_prom_writes_prometheus_text(self, tmp_path,
                                                     capsys):
        path = tmp_path / "metrics.prom"
        assert main(["--rows", "300", "--metrics-out", str(path),
                     "demo"]) == 0
        text = path.read_text()
        assert "# TYPE " in text
        assert not text.lstrip().startswith("{")

    def test_traced_selection_records_fused_columnar_rows(self, tmp_path,
                                                          capsys):
        # Observed = shipped: a traced selection still runs the fused
        # columnar Filter, so its telemetry carries the fused counters.
        path = tmp_path / "fused.jsonl"
        assert main(["--rows", "300", "--trace", "--metrics-out", str(path),
                     "sql", "SELECT A.c1 FROM A WHERE A.c1 >= 0.5"]) == 0
        assert "columnar_fused_rows_total" in path.read_text()

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        ["--rows", "0", "demo"],
        ["--checkpoint-every", "0", "demo"],
        ["--shards", "0", "demo"],
        ["--rows", "many", "demo"],
        ["--seed", "-1", "demo"],
        ["serve", "--clients", "-1"],
        ["serve", "--instalment", "0"],
        ["sql", "--limit", "-1", "SELECT A.c1 FROM A"],
    ], ids=["rows", "checkpoint-every", "shards", "rows-not-int", "seed",
            "clients", "instalment", "limit"])
    def test_bad_count_exits_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        assert "error: argument" in err

    def test_demo_checkpoint_every(self, capsys):
        assert main(["--rows", "300", "--checkpoint-every", "2",
                     "demo"]) == 0
        out = capsys.readouterr().out
        assert "top-5 results" in out
        assert "recovery: path=direct" in out
        assert "checkpoints: taken=" in out

    def test_sql_checkpoint_every_matches_plain_run(self, capsys):
        query = ("WITH R AS (SELECT A.c1 AS x, rank() OVER "
                 "(ORDER BY (A.c1 + B.c1)) AS r FROM A, B "
                 "WHERE A.c2 = B.c2) SELECT x, r FROM R WHERE r <= 4")
        assert main(["--rows", "200", "sql", query]) == 0
        plain = capsys.readouterr().out
        assert main(["--rows", "200", "--checkpoint-every", "1",
                     "sql", query]) == 0
        guarded = capsys.readouterr().out
        assert "4 rows:" in guarded
        # Same generated data, same answer rows.
        assert [line for line in plain.splitlines()
                if line.startswith("  Row")] == \
               [line for line in guarded.splitlines()
                if line.startswith("  Row")]
