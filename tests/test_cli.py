"""Tests of the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import build_parser, main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_svd_defaults(self):
        args = build_parser().parse_args(["svd"])
        assert args.m == 96 and args.n == 64
        assert args.ordering == "hybrid" and args.topology == "cm5"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fat_tree" in out and "cm5" in out and "FIG9" in out

    def test_svd_serial(self, capsys):
        rc = main(["svd", "--m", "24", "--n", "16", "--serial",
                   "--ordering", "fat_tree"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged=True" in out
        assert "sigma error" in out

    def test_svd_parallel(self, capsys):
        rc = main(["svd", "--m", "24", "--n", "16",
                   "--ordering", "ring_new", "--topology", "binary"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "contention-free=True" in out

    def test_figures_subset(self, capsys):
        assert main(["figures", "FIG2"]) == 0
        out = capsys.readouterr().out
        assert "two-block basic module" in out

    def test_figures_unknown_id(self, capsys):
        assert main(["figures", "FIG99"]) == 2

    def test_tables_unknown_id(self, capsys):
        assert main(["tables", "TAB-NOPE"]) == 2

    def test_tables_subset(self, capsys):
        assert main(["tables", "TAB-SWEEP"]) == 0
        out = capsys.readouterr().out
        assert "rotation-gap" in out

    def test_svd_serial_batched_kernel(self, capsys):
        rc = main(["svd", "--m", "24", "--n", "16", "--serial",
                   "--ordering", "fat_tree", "--kernel", "batched"])
        assert rc == 0
        assert "converged=True" in capsys.readouterr().out

    def test_svd_serial_block_gram_kernel(self, capsys):
        rc = main(["svd", "--m", "24", "--n", "16", "--serial",
                   "--ordering", "ring_new", "--kernel", "gram",
                   "--block-size", "4"])
        assert rc == 0
        assert "converged=True" in capsys.readouterr().out

    def test_svd_parallel_block_mode(self, capsys):
        rc = main(["svd", "--m", "24", "--n", "16",
                   "--ordering", "hybrid", "--block-size", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged=True" in out
        assert "contention-free=True" in out

    def test_svd_gram_without_block_size_is_usage_error(self, capsys):
        rc = main(["svd", "--kernel", "gram"])
        assert rc == 2
        assert "--block-size" in capsys.readouterr().out

    def test_svd_nonpositive_block_size_is_usage_error(self, capsys):
        rc = main(["svd", "--block-size", "0"])
        assert rc == 2
        assert "positive" in capsys.readouterr().out

    def test_svd_batched_with_block_size_is_usage_error(self, capsys):
        rc = main(["svd", "--kernel", "batched", "--block-size", "4"])
        assert rc == 2
        assert "scalar kernel" in capsys.readouterr().out


def _bench(tmp_path, *extra):
    """Run the cheapest scenario subset into tmp_path; returns exit code."""
    return main(["bench", "--quick", "--repeats", "1", "--warmup", "0",
                 "--out", str(tmp_path), "--scenario", "lint/registry",
                 *extra])


class TestBenchCommand:
    def test_writes_schema_valid_report(self, tmp_path, capsys):
        from repro.bench import validate_report

        assert _bench(tmp_path, "--tag", "t1") == 0
        out = capsys.readouterr().out
        path = tmp_path / "BENCH_t1.json"
        assert path.exists()
        assert "BENCH_t1.json" in out
        doc = json.loads(path.read_text())
        assert validate_report(doc) == []
        assert doc["tag"] == "t1"
        assert [s["name"] for s in doc["scenarios"]] == ["lint/registry"]

    def test_json_flag_prints_valid_report(self, tmp_path, capsys):
        from repro.bench import validate_report

        assert _bench(tmp_path, "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert validate_report(doc) == []
        assert doc["scenarios"][0]["wall_time_s"] > 0

    def test_speedup_derived_for_kernel_pairs(self, tmp_path, capsys):
        rc = main(["bench", "--quick", "--repeats", "1", "--warmup", "0",
                   "--out", str(tmp_path), "--json",
                   "--scenario", "svd/reference/fat_tree/n16",
                   "--scenario", "svd/batched/fat_tree/n16"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        batched = {s["name"]: s for s in doc["scenarios"]}[
            "svd/batched/fat_tree/n16"]
        assert batched["speedup_vs_reference"] > 0

    def test_compare_clean_exits_zero(self, tmp_path, capsys):
        rc = _bench(tmp_path, "--compare",
                    str(FIXTURES / "bench_baseline_slow.json"))
        assert rc == 0
        assert "no regression" in capsys.readouterr().out

    def test_compare_regression_exits_one(self, tmp_path, capsys):
        rc = _bench(tmp_path, "--compare",
                    str(FIXTURES / "bench_baseline_fast.json"))
        assert rc == 1
        assert "PERF REGRESSION" in capsys.readouterr().out

    def test_filter_selects_matching_scenarios(self, tmp_path, capsys):
        rc = main(["bench", "--quick", "--repeats", "1", "--warmup", "0",
                   "--out", str(tmp_path), "--json", "--filter", "^lint/"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in doc["scenarios"]] == ["lint/registry"]

    def test_filter_composes_with_scenario(self, tmp_path, capsys):
        # --filter narrows the list --scenario then picks from
        rc = main(["bench", "--quick", "--repeats", "1", "--warmup", "0",
                   "--out", str(tmp_path), "--filter", "registry",
                   "--scenario", "lint/registry", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in doc["scenarios"]] == ["lint/registry"]

    def test_filter_without_match_is_usage_error(self, tmp_path, capsys):
        rc = main(["bench", "--out", str(tmp_path),
                   "--filter", "no-such-scenario-anywhere"])
        assert rc == 2
        assert "matches no scenario" in capsys.readouterr().out

    def test_invalid_filter_regex_is_usage_error(self, tmp_path, capsys):
        rc = main(["bench", "--out", str(tmp_path), "--filter", "(["])
        assert rc == 2
        assert "invalid --filter regex" in capsys.readouterr().out

    def test_unknown_scenario_is_usage_error(self, tmp_path, capsys):
        rc = main(["bench", "--out", str(tmp_path),
                   "--scenario", "svd/warp/n4096"])
        assert rc == 2
        assert "unknown scenario" in capsys.readouterr().out

    def test_bad_tag_is_usage_error(self, tmp_path, capsys):
        assert _bench(tmp_path, "--tag", "../evil") == 2
        assert "invalid tag" in capsys.readouterr().out

    def test_bad_repeats_is_usage_error(self, tmp_path, capsys):
        rc = main(["bench", "--out", str(tmp_path), "--repeats", "0"])
        assert rc == 2

    def test_missing_compare_file_is_usage_error(self, tmp_path, capsys):
        rc = _bench(tmp_path, "--compare", str(tmp_path / "nope.json"))
        assert rc == 2
        assert "cannot read" in capsys.readouterr().out

    def test_invalid_compare_schema_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "repro.bench/999",
                                   "scenarios": []}))
        rc = _bench(tmp_path, "--compare", str(bad))
        assert rc == 2
        assert "invalid report" in capsys.readouterr().out

    def test_fixture_baselines_are_schema_valid(self):
        from repro.bench import validate_report

        for name in ("bench_baseline_slow.json", "bench_baseline_fast.json"):
            doc = json.loads((FIXTURES / name).read_text())
            assert validate_report(doc) == [], name
