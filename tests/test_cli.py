"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import load_relation, main
from repro.engine.io import save_attribute_csv, save_json, save_tuple_csv
from repro.exceptions import SchemaError
from repro.models import TupleLevelRelation


@pytest.fixture
def attribute_csv(fig2, tmp_path):
    path = tmp_path / "attr.csv"
    save_attribute_csv(fig2, path)
    return path


@pytest.fixture
def tuple_csv(fig4, tmp_path):
    path = tmp_path / "tup.csv"
    save_tuple_csv(fig4, path)
    return path


class TestLoadRelation:
    def test_sniffs_attribute_csv(self, attribute_csv):
        relation = load_relation(attribute_csv)
        assert relation.size == 3

    def test_sniffs_tuple_csv(self, tuple_csv):
        relation = load_relation(tuple_csv)
        assert isinstance(relation, TupleLevelRelation)
        assert relation.rule_of("t2").tids == ("t2", "t4")

    def test_loads_json(self, fig2, tmp_path):
        path = tmp_path / "rel.json"
        save_json(fig2, path)
        assert load_relation(path).size == 3

    def test_rejects_unknown_header(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("alpha,beta\n1,2\n")
        with pytest.raises(SchemaError):
            load_relation(path)


class TestTopkCommand:
    def test_expected_rank_output(self, attribute_csv, capsys):
        code = main(["topk", str(attribute_csv), "-k", "3"])
        output = capsys.readouterr().out
        assert code == 0
        assert "expected_rank top-3" in output
        assert output.splitlines()[-3].startswith("1\tt2")

    def test_pt_k_requires_threshold_flag(self, tuple_csv, capsys):
        code = main(
            [
                "topk",
                str(tuple_csv),
                "-k",
                "2",
                "--method",
                "pt_k",
                "--threshold",
                "0.4",
            ]
        )
        assert code == 0
        assert "pt_k" in capsys.readouterr().out

    def test_quantile_phi_flag(self, tuple_csv, capsys):
        code = main(
            [
                "topk",
                str(tuple_csv),
                "--method",
                "quantile_rank",
                "--phi",
                "0.75",
            ]
        )
        assert code == 0
        assert "quantile_rank[0.75]" in capsys.readouterr().out

    def test_error_reported_not_raised(self, attribute_csv, capsys):
        code = main(
            [
                "topk",
                str(attribute_csv),
                "--method",
                "probability_only",
            ]
        )
        # UnsupportedModelError is a RankingError: family exit code 5.
        assert code == 5
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["topk", str(tmp_path / "ghost.csv")])
        # OSError family (missing file): exit code 10.
        assert code == 10
        assert "error:" in capsys.readouterr().err

    def test_json_output(self, attribute_csv, capsys):
        import json

        code = main(["topk", str(attribute_csv), "-k", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "expected_rank"
        assert [item["tid"] for item in payload["items"]] == [
            "t2",
            "t3",
        ]
        assert payload["metadata"]["exact"] is True


class TestDescribeCommand:
    def test_attribute(self, attribute_csv, capsys):
        assert main(["describe", str(attribute_csv)]) == 0
        output = capsys.readouterr().out
        assert "attribute-level" in output
        assert "possible worlds: 4" in output

    def test_tuple(self, tuple_csv, capsys):
        assert main(["describe", str(tuple_csv)]) == 0
        output = capsys.readouterr().out
        assert "x-relation" in output
        assert "expected world size: 2.4" in output


class TestDistributionCommand:
    def test_attribute(self, attribute_csv, capsys):
        assert main(["distribution", str(attribute_csv), "t1"]) == 0
        output = capsys.readouterr().out
        assert "Pr[rank = 0] = 0.4" in output
        assert "median rank: 2" in output

    def test_tuple(self, tuple_csv, capsys):
        assert main(["distribution", str(tuple_csv), "t4"]) == 0
        output = capsys.readouterr().out
        assert "Pr[rank = 2] = 0.5" in output

    def test_unknown_tid(self, tuple_csv, capsys):
        # ModelError family: exit code 4.
        assert main(["distribution", str(tuple_csv), "zzz"]) == 4


class TestExplainCommand:
    def test_explains_valid_pair(self, tuple_csv, capsys):
        code = main(["explain", str(tuple_csv), "t3", "t4"])
        assert code == 0
        output = capsys.readouterr().out
        assert "outranks" in output and "gap" in output

    def test_wrong_direction_reports_error(self, tuple_csv, capsys):
        code = main(["explain", str(tuple_csv), "t4", "t3"])
        assert code == 5
        assert "swap" in capsys.readouterr().err

    def test_unknown_tuple(self, tuple_csv, capsys):
        assert main(["explain", str(tuple_csv), "t3", "zzz"]) == 4

    def test_single_tuple_id_is_usage_error(self, tuple_csv, capsys):
        code = main(["explain", str(tuple_csv), "t3"])
        assert code == 2
        assert "two tuple ids" in capsys.readouterr().err

    def test_query_mode_prints_report(self, tuple_csv, capsys):
        code = main(["explain", str(tuple_csv), "-k", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "EXPLAIN" in output
        assert "trace_id=" in output
        assert "plan" in output

    def test_query_mode_json_satisfies_schema(self, tuple_csv, capsys):
        from repro.obs import validate_report

        code = main(["explain", str(tuple_csv), "-k", "2", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        validate_report(report)
        assert report["query"]["k"] == 2
        assert report["plan"]["method"]
        assert report["execution"]["tuples_accessed"] is not None
        assert len(report["execution"]["answer"]) == 2

    def test_query_mode_dry_run(self, tuple_csv, capsys):
        code = main(
            ["explain", str(tuple_csv), "-k", "2", "--dry-run"]
        )
        assert code == 0
        assert "dry run" in capsys.readouterr().out

    def test_cheap_access_changes_the_plan(self, tuple_csv, capsys):
        main(["explain", str(tuple_csv), "-k", "2", "--json"])
        pruned = json.loads(capsys.readouterr().out)
        main(
            [
                "explain",
                str(tuple_csv),
                "-k",
                "2",
                "--json",
                "--cheap-access",
            ]
        )
        cheap = json.loads(capsys.readouterr().out)
        assert pruned["plan"]["method"] == "expected_rank_prune"
        assert cheap["plan"]["method"] == "expected_rank"

    def test_query_mode_with_resilience_flags(self, tuple_csv, capsys):
        code = main(
            [
                "explain",
                str(tuple_csv),
                "-k",
                "2",
                "--json",
                "--inject-faults",
                "0.7",
                "--fault-seed",
                "6",
                "--max-retries",
                "2",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        # Seeded chaos: this (rate, seed) pair deterministically lets
        # the load through, exhausts the exact rung's retries, and
        # answers from a fallback rung.
        assert report["execution"]["degraded"] is True
        names = [event["name"] for event in report["events"]]
        assert "robust.degrade" in names
        assert "robust.fallback" in names


class TestChurnCommand:
    def test_profile_printed(self, tuple_csv, capsys):
        code = main(
            [
                "churn",
                str(tuple_csv),
                "-k",
                "2",
                "--noise",
                "0.05",
                "0.2",
                "--trials",
                "5",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "±5%" in output and "±20%" in output
        assert "stable core" in output

    def test_method_flag(self, tuple_csv, capsys):
        code = main(
            [
                "churn",
                str(tuple_csv),
                "-k",
                "2",
                "--noise",
                "0.1",
                "--trials",
                "3",
                "--method",
                "median_rank",
            ]
        )
        assert code == 0
        assert "median_rank" in capsys.readouterr().out


class TestAuditCommand:
    def test_audit_fixture(self, attribute_csv, capsys):
        code = main(
            [
                "audit",
                str(attribute_csv),
                "--methods",
                "expected_rank,u_topk",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "expected_rank" in output
        # U-Topk's containment violation shows as an N plus a
        # counterexample line.
        assert "u_topk / containment" in output

    def test_audit_unknown_method(self, attribute_csv, capsys):
        code = main(
            ["audit", str(attribute_csv), "--methods", "bogus"]
        )
        # UnknownMethodError → RankingError family exit code, and the
        # message must name the valid alternatives.
        assert code == 5
        err = capsys.readouterr().err
        assert "unknown ranking method 'bogus'" in err
        assert "available:" in err
        assert "expected_rank" in err

    def test_audit_includes_pt_k_with_threshold(
        self, tuple_csv, capsys
    ):
        code = main(
            [
                "audit",
                str(tuple_csv),
                "--methods",
                "pt_k",
                "--threshold",
                "0.4",
                "--max-k",
                "2",
            ]
        )
        assert code == 0
        assert "pt_k" in capsys.readouterr().out


class TestGenerateCommand:
    def test_generate_attribute_csv(self, tmp_path, capsys):
        out = tmp_path / "gen.csv"
        assert main(
            ["generate", "attribute", str(out), "-n", "25"]
        ) == 0
        relation = load_relation(out)
        assert relation.size == 25

    def test_generate_tuple_json(self, tmp_path):
        out = tmp_path / "gen.json"
        assert main(
            [
                "generate",
                "tuple",
                str(out),
                "-n",
                "30",
                "--workload",
                "cor",
                "--seed",
                "3",
            ]
        ) == 0
        relation = load_relation(out)
        assert isinstance(relation, TupleLevelRelation)
        assert relation.size == 30

    def test_bad_workload_reports_error(self, tmp_path, capsys):
        out = tmp_path / "gen.csv"
        # WorkloadError family: exit code 8.
        assert main(
            ["generate", "tuple", str(out), "--workload", "bogus"]
        ) == 8
        assert "error:" in capsys.readouterr().err

    def test_generated_file_is_rankable_via_cli(self, tmp_path, capsys):
        out = tmp_path / "gen.csv"
        main(["generate", "tuple", str(out), "-n", "40"])
        capsys.readouterr()
        assert main(["topk", str(out), "-k", "5"]) == 0
        assert "top-5" in capsys.readouterr().out


class TestMetricsOut:
    def test_topk_writes_spans_and_snapshot(
        self, attribute_csv, tmp_path, capsys
    ):
        out = tmp_path / "metrics.jsonl"
        code = main(
            [
                "--metrics-out",
                str(out),
                "topk",
                str(attribute_csv),
                "-k",
                "2",
            ]
        )
        assert code == 0
        assert "top-2" in capsys.readouterr().out
        lines = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        # Spans stream first; the registry snapshot closes the file.
        assert lines[-1]["type"] == "metrics"
        span_names = [
            line["name"] for line in lines if line["type"] == "span"
        ]
        assert "cli.topk" in span_names
        assert "a_erank" in span_names
        counters = lines[-1]["counters"]
        histograms = lines[-1]["histograms"]
        assert histograms["span.a_erank.seconds"]["count"] == 1
        # Figure 2 relation: the exact pass reads all three tuples.
        assert counters["a_erank.tuples_accessed"] == 3

    def test_main_restores_ambient_observability(
        self, attribute_csv, tmp_path, capsys
    ):
        from repro.obs import get_registry, get_sink

        before_registry = get_registry()
        before_sink = get_sink()
        main(
            [
                "--metrics-out",
                str(tmp_path / "m.jsonl"),
                "topk",
                str(attribute_csv),
                "-k",
                "1",
            ]
        )
        capsys.readouterr()
        assert get_registry() is before_registry
        assert get_sink() is before_sink

    def test_without_flag_no_file_and_registry_untouched(
        self, attribute_csv, tmp_path, capsys
    ):
        from repro.obs import get_registry

        main(["topk", str(attribute_csv), "-k", "1"])
        capsys.readouterr()
        assert not list(tmp_path.glob("*.jsonl"))
        assert not get_registry().snapshot()["counters"]


class TestMetricsFormat:
    def test_prom_output_parses_back(
        self, attribute_csv, tmp_path, capsys
    ):
        from repro.obs import parse_prometheus

        out = tmp_path / "metrics.prom"
        code = main(
            [
                "--metrics-out",
                str(out),
                "--metrics-format",
                "prom",
                "topk",
                str(attribute_csv),
                "-k",
                "2",
            ]
        )
        assert code == 0
        capsys.readouterr()
        families = parse_prometheus(out.read_text())
        kernel = families["repro_span_a_erank_seconds"]
        assert kernel["type"] == "histogram"

    def test_prom_without_metrics_out_is_usage_error(
        self, attribute_csv, capsys
    ):
        code = main(
            [
                "--metrics-format",
                "prom",
                "topk",
                str(attribute_csv),
                "-k",
                "1",
            ]
        )
        assert code == 2
        assert "--metrics-out" in capsys.readouterr().err

    def test_json_stays_the_default_stream(
        self, attribute_csv, tmp_path, capsys
    ):
        out = tmp_path / "metrics.jsonl"
        main(
            [
                "--metrics-out",
                str(out),
                "topk",
                str(attribute_csv),
                "-k",
                "1",
            ]
        )
        capsys.readouterr()
        lines = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        assert lines[-1]["type"] == "metrics"

    def test_prom_restores_ambient_registry(
        self, attribute_csv, tmp_path, capsys
    ):
        from repro.obs import get_registry

        before = get_registry()
        main(
            [
                "--metrics-out",
                str(tmp_path / "m.prom"),
                "--metrics-format",
                "prom",
                "topk",
                str(attribute_csv),
                "-k",
                "1",
            ]
        )
        capsys.readouterr()
        assert get_registry() is before


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        assert output.startswith("repro ")
        assert repro.__version__ in output


class TestLintCommand:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("VALUE = 1\n")
        assert main(["lint", str(target)]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import random\nrandom.random()\n")
        assert main(["lint", str(target)]) == 1
        output = capsys.readouterr().out
        assert "RPR001" in output

    def test_repo_is_clean_under_baseline(self, capsys):
        code = main(
            ["lint", "src", "--baseline", "analysis_baseline.json"]
        )
        assert code == 0
        capsys.readouterr()

    def test_internal_error_exits_thirteen(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.analysis.cli as analysis_cli

        def boom(*args, **kwargs):
            raise RuntimeError("rule crashed")

        monkeypatch.setattr(analysis_cli, "analyze_paths", boom)
        target = tmp_path / "any.py"
        target.write_text("VALUE = 1\n")
        assert main(["lint", str(target)]) == 13
        assert "internal analyzer error" in capsys.readouterr().err

    def test_list_rules_catalogue(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        output = capsys.readouterr().out
        for code in (
            "RPR001",
            "RPR002",
            "RPR003",
            "RPR004",
            "RPR005",
            "RPR006",
            "RPR007",
            "RPR008",
        ):
            assert code in output


class TestProfileCommand:
    def test_requires_out_or_json(self, attribute_csv, capsys):
        code = main(["profile", str(attribute_csv), "-k", "2"])
        assert code == 2
        assert "--out PATH or --json" in capsys.readouterr().err

    def test_rejects_non_positive_seconds(
        self, attribute_csv, tmp_path, capsys
    ):
        code = main(
            [
                "profile",
                str(attribute_csv),
                "-k",
                "2",
                "--seconds",
                "0",
                "--out",
                str(tmp_path / "p.json"),
            ]
        )
        assert code == 2
        assert "--seconds" in capsys.readouterr().err

    def test_writes_a_valid_speedscope_dump(
        self, attribute_csv, tmp_path, capsys
    ):
        from repro.obs.profiler import validate_speedscope

        out = tmp_path / "profile.speedscope.json"
        code = main(
            [
                "profile",
                str(attribute_csv),
                "-k",
                "2",
                "--seconds",
                "0.2",
                "--out",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "profiled" in captured.err
        validate_speedscope(json.loads(out.read_text()))

    def test_topk_profile_out_rides_along(
        self, attribute_csv, tmp_path, capsys
    ):
        from repro.obs.profiler import validate_speedscope

        out = tmp_path / "topk.speedscope.json"
        code = main(
            [
                "topk",
                str(attribute_csv),
                "-k",
                "2",
                "--profile-out",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "profile:" in captured.err
        validate_speedscope(json.loads(out.read_text()))


class TestBenchTrendCommand:
    def history_file(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(
            "\n".join(
                json.dumps(
                    {
                        "commit": commit,
                        "suite": "smoke",
                        "metrics": {
                            "a_erank/uu/n=2000/seconds": value
                        },
                    }
                )
                for commit, value in (
                    ("aaa1234", 1.0),
                    ("bbb5678", 1.5),
                )
            )
            + "\n"
        )
        return path

    def test_renders_the_delta_table(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "trend",
                "--history",
                str(self.history_file(tmp_path)),
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "a_erank/uu/n=2000/seconds" in output
        assert "+50.0%" in output
        assert output.rstrip().endswith("1 metrics over 2 runs")

    def test_json_output(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "trend",
                "--history",
                str(self.history_file(tmp_path)),
                "--json",
            ]
        )
        assert code == 0
        table = json.loads(capsys.readouterr().out)
        assert table["commits"] == ["aaa1234", "bbb5678"]

    def test_metric_glob_filters(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "trend",
                "--history",
                str(self.history_file(tmp_path)),
                "--filter",
                "*/tuples_accessed",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "0 metrics over 2 runs" in output
