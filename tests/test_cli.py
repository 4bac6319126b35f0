"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.itc02.writer import write_soc_file

#: A fast sweep space: two tiny synthetic catalog SOCs, two channel counts.
SWEEP_ARGS = [
    "sweep", "synthetic:7:4", "synthetic:8:4",
    "--channels", "48", "64", "--depth-m", "1",
]


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("design", "sweep", "benchmarks", "solvers", "table1",
                        "figure5", "figure6", "figure7", "economics",
                        "solver_comparison", "all"):
            assert command in text

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_design_defaults(self):
        args = build_parser().parse_args(["design", "d695"])
        assert args.channels == 512
        assert args.depth_m == 7.0
        assert not args.broadcast
        assert args.solver == "goel05"


class TestCommands:
    def test_benchmarks_command(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "d695" in out and "p93791" in out

    def test_design_command_on_benchmark(self, capsys):
        exit_code = main([
            "design", "d695", "--channels", "128", "--depth-m", "0.125",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "two-step result" in out
        assert "optimal" in out

    def test_design_command_with_broadcast_and_architecture(self, capsys):
        exit_code = main([
            "design", "d695", "--channels", "128", "--depth-m", "0.125",
            "--broadcast", "--show-architecture",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "architecture for d695" in out

    def test_design_command_on_soc_file(self, tmp_path, tiny_soc, capsys):
        path = write_soc_file(tiny_soc, tmp_path / "tiny.soc")
        exit_code = main([
            "design", str(path), "--channels", "64", "--depth-m", "0.25",
        ])
        assert exit_code == 0
        assert "tiny" in capsys.readouterr().out

    def test_design_command_infeasible_returns_error(self, capsys):
        exit_code = main([
            "design", "p93791", "--channels", "8", "--depth-m", "0.01",
        ])
        assert exit_code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_benchmark_returns_error(self, capsys):
        exit_code = main(["design", "not_a_chip", "--channels", "64"])
        assert exit_code == 1
        assert "unknown benchmark" in capsys.readouterr().err

    def test_solvers_command_lists_backends(self, capsys):
        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        for name in ("goel05", "exhaustive", "restart"):
            assert name in out
        assert "[default]" in out
        assert len(out.strip().splitlines()) >= 3

    def test_solvers_command_prints_descriptions(self, capsys):
        from repro.solvers.registry import list_solvers

        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        for solver in list_solvers():
            assert solver.description
            assert solver.description in out

    def test_benchmarks_command_lists_catalog_extras(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "pnx8550" in out
        assert "synthetic:<seed>:<modules>" in out

    def test_design_command_with_solver(self, capsys):
        exit_code = main([
            "design", "d695", "--channels", "128", "--depth-m", "0.125",
            "--solver", "restart",
        ])
        assert exit_code == 0
        assert "two-step result" in capsys.readouterr().out

    def test_design_command_with_unknown_solver_errors(self, capsys):
        exit_code = main([
            "design", "d695", "--channels", "128", "--depth-m", "0.125",
            "--solver", "annealing",
        ])
        assert exit_code == 1
        assert "unknown solver" in capsys.readouterr().err

    def test_design_command_on_synthetic_catalog_soc(self, capsys):
        exit_code = main(["design", "synthetic:7:4", "--channels", "64", "--depth-m", "1"])
        assert exit_code == 0
        assert "synthetic:7:4" in capsys.readouterr().out


class TestSweepCommand:
    def _read_jsonl(self, path):
        return [json.loads(line) for line in path.read_text().splitlines()]

    def test_registered_with_grid_flags(self):
        args = build_parser().parse_args(SWEEP_ARGS + ["--shard", "1/2", "--resume"])
        assert args.command == "sweep"
        assert args.channels == [48, 64]
        assert args.shard == "1/2"
        assert args.resume

    def test_streams_jsonl_records(self, tmp_path, capsys):
        output = tmp_path / "sweep.jsonl"
        assert main(SWEEP_ARGS + ["--output", str(output)]) == 0
        records = self._read_jsonl(output)
        assert len(records) == 4
        assert {record["soc"] for record in records} == {"synthetic:7:4", "synthetic:8:4"}
        assert {record["ate_channels"] for record in records} == {48, 64}
        captured = capsys.readouterr()
        assert "sweep digest:" in captured.out
        assert "[4/4]" in captured.err  # progress lines on stderr

    def test_jsonl_to_stdout_keeps_summary_on_stderr(self, capsys):
        assert main(SWEEP_ARGS) == 0
        captured = capsys.readouterr()
        for line in captured.out.strip().splitlines():
            json.loads(line)  # stdout is pure JSONL
        assert "sweep digest:" in captured.err

    def test_shards_partition_the_grid(self, tmp_path, capsys):
        full = tmp_path / "full.jsonl"
        assert main(SWEEP_ARGS + ["--output", str(full)]) == 0
        shard_keys: list[str] = []
        for index in range(2):
            part = tmp_path / f"shard{index}.jsonl"
            assert main(
                SWEEP_ARGS + ["--shard", f"{index}/2", "--output", str(part)]
            ) == 0
            shard_keys.extend(r["scenario_key"] for r in self._read_jsonl(part))
        full_keys = [r["scenario_key"] for r in self._read_jsonl(full)]
        assert sorted(shard_keys) == sorted(full_keys)
        assert len(set(shard_keys)) == len(shard_keys)
        capsys.readouterr()

    def test_store_backed_rerun_is_all_store_hits(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        cold = tmp_path / "cold.jsonl"
        warm = tmp_path / "warm.jsonl"
        assert main(SWEEP_ARGS + ["--store", store, "--output", str(cold)]) == 0
        cold_digest = capsys.readouterr().out
        assert main(
            SWEEP_ARGS + ["--store", store, "--resume", "--output", str(warm)]
        ) == 0
        warm_out = capsys.readouterr().out
        assert "4 from store" in warm_out
        assert "resumed" in warm_out
        digest = [l for l in cold_digest.splitlines() if l.startswith("sweep digest")]
        assert digest and digest[0] in warm_out
        assert self._read_jsonl(cold) == self._read_jsonl(warm)

    def test_resume_without_store_errors(self, capsys):
        assert main(SWEEP_ARGS + ["--resume"]) == 1
        assert "--store" in capsys.readouterr().err

    def test_malformed_shard_errors(self, capsys):
        assert main(SWEEP_ARGS + ["--shard", "nope"]) == 1
        assert "shard" in capsys.readouterr().err

    def test_out_of_range_shard_errors(self, capsys):
        assert main(SWEEP_ARGS + ["--shard", "2/2"]) == 1
        assert "shard index" in capsys.readouterr().err

    def test_unknown_catalog_soc_errors(self, capsys):
        assert main(["sweep", "not_a_chip", "--channels", "64"]) == 1
        assert "unknown benchmark" in capsys.readouterr().err

    def test_ten_catalog_socs_shard_into_disjoint_complete_partition(
        self, tmp_path, capsys
    ):
        # The acceptance campaign: an ITC'02 benchmark plus a 9-member
        # synthetic family -- 10 catalog SOCs by name -- swept through the
        # CLI in 3 shards that partition the grid exactly.
        from repro.soc.catalog import synthetic_family

        socs = ["d695", *synthetic_family(60, count=9, modules=4)]
        args = ["sweep", *socs, "--channels", "64", "--depth-m", "1"]
        full = tmp_path / "full.jsonl"
        assert main(args + ["--output", str(full)]) == 0
        shard_keys: list[str] = []
        for index in range(3):
            part = tmp_path / f"shard{index}.jsonl"
            assert main(args + ["--shard", f"{index}/3", "--output", str(part)]) == 0
            shard_keys.extend(r["scenario_key"] for r in self._read_jsonl(part))
        full_records = self._read_jsonl(full)
        assert len(full_records) == 10
        assert {r["soc"] for r in full_records} == set(socs)
        full_keys = [r["scenario_key"] for r in full_records]
        assert len(shard_keys) == len(set(shard_keys)) == 10  # disjoint
        assert sorted(shard_keys) == sorted(full_keys)        # complete
        capsys.readouterr()


class TestObjectivesCommand:
    def test_lists_registered_objectives(self, capsys):
        assert main(["objectives"]) == 0
        out = capsys.readouterr().out
        for name in ("throughput", "test_time", "cost_per_good_die", "channel_budget"):
            assert name in out
        assert "[default]" in out

    def test_design_with_objective(self, capsys):
        exit_code = main([
            "design", "d695", "--channels", "256", "--depth-m", "0.0625",
            "--objective", "test_time",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "optimized: test_time (minimised)" in out
        # The minimised objective spends the whole budget on one wide site.
        assert "n_opt=1" in out

    def test_design_with_unknown_objective_errors(self, capsys):
        assert main(["design", "d695", "--objective", "velocity"]) == 1
        assert "unknown objective" in capsys.readouterr().err

    def test_sweep_objective_axis(self, tmp_path, capsys):
        output = tmp_path / "sweep.jsonl"
        exit_code = main([
            "sweep", "synthetic:7:4", "--channels", "48", "--depth-m", "1",
            "--objective", "throughput", "test_time", "--output", str(output),
        ])
        assert exit_code == 0
        records = [json.loads(line) for line in output.read_text().splitlines()]
        assert sorted(r["objective_name"] for r in records) == [
            "test_time", "throughput",
        ]


class TestStoreInfoCommand:
    def test_requires_store_flag(self, capsys):
        assert main(["store", "info"]) == 1
        assert "--store" in capsys.readouterr().err

    def test_reports_counts_and_bytes(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(SWEEP_ARGS + ["--store", str(store_dir), "--output",
                                  str(tmp_path / "out.jsonl")]) == 0
        capsys.readouterr()
        assert main(["store", "info", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "records: 4" in out
        assert "format: 1" in out
        assert "by SOC: synthetic:7:4=2, synthetic:8:4=2" in out
        assert "by solver: goel05=4" in out
        assert "by objective: throughput=4" in out
        bytes_line = next(line for line in out.splitlines() if line.startswith("bytes:"))
        assert int(bytes_line.split()[1]) > 0

    def test_empty_store_reports_zero(self, tmp_path, capsys):
        (tmp_path / "fresh").mkdir()
        assert main(["store", "info", "--store", str(tmp_path / "fresh")]) == 0
        out = capsys.readouterr().out
        assert "records: 0" in out
        assert "bytes: 0" in out

    @pytest.mark.parametrize(
        "command", [["info"], ["compact"], ["reindex"], ["reindex", "--columns"]]
    )
    def test_missing_store_is_an_error_and_creates_nothing(self, tmp_path, capsys, command):
        missing = tmp_path / "no" / "such" / "dir"
        assert main(["store", *command, "--store", str(missing)]) == 1
        assert "not a store directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestAnalyzeCommand:
    @pytest.fixture()
    def sweep_artifacts(self, tmp_path, capsys):
        """A store + JSONL pair produced by one small sweep."""
        store_dir = tmp_path / "store"
        output = tmp_path / "sweep.jsonl"
        assert main(SWEEP_ARGS + ["--store", str(store_dir), "--output", str(output)]) == 0
        capsys.readouterr()
        return store_dir, output

    def test_records_table_from_jsonl(self, sweep_artifacts, capsys):
        _, output = sweep_artifacts
        assert main(["analyze", str(output)]) == 0
        out = capsys.readouterr().out
        assert "Campaign records" in out
        assert "4 records analysed" in out

    def test_records_table_from_store(self, sweep_artifacts, capsys):
        store_dir, _ = sweep_artifacts
        assert main(["analyze", "--store", str(store_dir)]) == 0
        assert "4 records analysed" in capsys.readouterr().out

    def test_store_and_jsonl_dedupe(self, sweep_artifacts, capsys):
        store_dir, output = sweep_artifacts
        assert main(["analyze", "--store", str(store_dir), str(output)]) == 0
        assert "4 records analysed" in capsys.readouterr().out

    def test_group_by_and_best(self, sweep_artifacts, capsys):
        _, output = sweep_artifacts
        assert main([
            "analyze", str(output), "--group-by", "soc", "--best",
            "--metric", "throughput",
        ]) == 0
        out = capsys.readouterr().out
        assert "by soc" in out
        assert "Best per SOC" in out

    def test_pareto_view(self, sweep_artifacts, capsys):
        _, output = sweep_artifacts
        assert main(["analyze", str(output), "--pareto", "time,cost"]) == 0
        out = capsys.readouterr().out
        assert "Pareto front: time (min) vs cost (min)" in out

    def test_pareto_output_is_deterministic(self, sweep_artifacts, capsys):
        _, output = sweep_artifacts
        assert main(["analyze", str(output), "--pareto", "time,cost"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", str(output), "--pareto", "time,cost"]) == 0
        assert capsys.readouterr().out == first

    def test_malformed_pareto_spec_errors(self, sweep_artifacts, capsys):
        _, output = sweep_artifacts
        assert main(["analyze", str(output), "--pareto", "time"]) == 1
        assert "malformed pareto spec" in capsys.readouterr().err

    def test_no_sources_errors(self, capsys):
        assert main(["analyze"]) == 1
        assert "at least one source" in capsys.readouterr().err

    def test_empty_store_reports_no_records(self, tmp_path, capsys):
        (tmp_path / "fresh").mkdir()
        assert main(["analyze", "--store", str(tmp_path / "fresh")]) == 1
        assert "no records found" in capsys.readouterr().err

    def test_missing_store_is_an_error_and_creates_nothing(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir"
        assert main(["analyze", "--store", str(missing)]) == 1
        assert "analyze: " + str(missing) + " is not a store directory" in (
            capsys.readouterr().err
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_non_positive_workers_rejected(self, sweep_artifacts, capsys, workers):
        store_dir, _ = sweep_artifacts
        assert main(["analyze", "--store", str(store_dir), "--workers", workers]) == 1
        assert "worker count must be positive" in capsys.readouterr().err


class TestBenchCompareFlag:
    def test_parser_accepts_compare(self):
        args = build_parser().parse_args(["bench", "--smoke", "--compare", "PREV.json"])
        assert args.compare == "PREV.json"
        assert args.objective == "throughput"

    def test_missing_compare_file_errors(self, capsys, tmp_path):
        exit_code = main([
            "bench", "--smoke", "--compare", str(tmp_path / "nope.json"),
            "--output", str(tmp_path),
        ])
        assert exit_code == 1
        assert "cannot read bench report" in capsys.readouterr().err
