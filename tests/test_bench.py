"""Tests for the benchmark telemetry runner (repro.bench).

The smoke bench runs three times in this module: the cold/warm pair of
``smoke_reports`` and the one CLI invocation of ``cli_run``.  Every other
test reuses those reports.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.api import Engine, Scenario, reference_test_cell, results_digest
from repro.bench import (
    BENCH_FORMAT,
    bench_sweep_grid,
    compare_reports,
    default_tag,
    load_report,
    report_filename,
    run_bench,
    summarize_report,
    write_report,
)
from repro.bench.runner import (
    check_parity,
    find_regressions,
    pair_rows,
    row_key,
    row_label,
    synthetic_sweep_grid,
)
from repro.cli import main
from repro.core.exceptions import ConfigurationError, ReproError
from repro.solvers.registry import solver_names
from repro.store import PackedResultStore

SEED_PATH = Path(__file__).resolve().parents[1] / "BENCH_seed.json"

KERNEL_COUNTERS = {"hits", "misses", "batch_calls", "batch_points", "max_batch"}


@pytest.fixture(scope="module")
def smoke_reports(tmp_path_factory):
    """One cold and one warm smoke bench against a shared store."""
    store_dir = tmp_path_factory.mktemp("bench-store")
    cold = run_bench(tag="cold", store=PackedResultStore(store_dir), smoke=True)
    warm = run_bench(tag="warm", store=PackedResultStore(store_dir), smoke=True)
    return cold, warm


@pytest.fixture(scope="module")
def cli_run(smoke_reports, tmp_path_factory):
    """The one CLI bench run, using every flag, ratcheted against the cold report."""
    cold, _ = smoke_reports
    out_dir = tmp_path_factory.mktemp("bench-cli")
    baseline = write_report(cold, out_dir)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(
            [
                "bench",
                "--smoke",
                "--tag",
                "cli",
                "--store",
                str(out_dir / "store"),
                "--output",
                str(out_dir),
                "--compare",
                str(baseline),
                "--fail-on-regression",
                "1000000",
                "--noise-floor",
                "100",
                "--profile",
                "--profile-out",
                str(out_dir / "bench.prof"),
            ]
        )
    return code, stdout.getvalue(), stderr.getvalue(), out_dir


def rows_of(report, workload):
    return [row for row in report["rows"] if row["workload"] == workload]


def row_of(report, workload):
    (row,) = rows_of(report, workload)
    return row


def with_row(report, workload, **changes):
    """Copy of ``report`` whose (single) ``workload`` row has ``changes`` applied."""
    return dict(
        report,
        rows=[
            dict(row, **changes) if row["workload"] == workload else row
            for row in report["rows"]
        ],
    )


class TestReportShape:
    def test_top_level_schema(self, smoke_reports):
        cold, _ = smoke_reports
        from repro import __version__

        assert cold["format"] == BENCH_FORMAT == 2
        assert cold["tag"] == "cold"
        assert cold["package_version"] == __version__
        assert cold["smoke"] is True
        assert cold["store"]["enabled"] is True
        assert cold["wall_seconds"] > 0
        assert cold["store_info"]["puts"] > 0
        for row in cold["rows"]:
            fields = {"workload", "params", "skipped"} if "skipped" in row else {
                "workload", "params", "seconds", "digest", "counters",
            }
            assert set(row) == fields

    def test_row_keys_are_unique(self, smoke_reports):
        for report in smoke_reports:
            keys = [row_key(row) for row in report["rows"]]
            assert len(keys) == len(set(keys))

    def test_experiment_rows(self, smoke_reports):
        cold, _ = smoke_reports
        row = row_of(cold, "experiment")
        assert row["params"] == {"name": "economics"}
        assert row["seconds"] > 0
        assert row["counters"]["cache"]["misses"] > 0

    def test_solver_rows_cover_registry(self, smoke_reports):
        cold, _ = smoke_reports
        rows = {row["params"]["name"]: row for row in rows_of(cold, "solver")}
        assert set(rows) == set(solver_names())
        # The exhaustive oracle cannot handle the 10-module d695: it must be
        # recorded as skipped (with the reason), not dropped or crashed.
        assert "skipped" in rows["exhaustive"]
        assert "8 modules" in rows["exhaustive"]["skipped"]
        assert rows["goel05"]["seconds"] > 0
        # The digest pins the solved result (every site point and the optimum).
        cell = reference_test_cell(channels=256, depth_m=0.0625)
        outcome = Engine().run(Scenario(soc="d695", test_cell=cell, solver="goel05"))
        assert outcome.optimal_sites >= 1
        assert rows["goel05"]["digest"] == results_digest([outcome])

    def test_sweep_row(self, smoke_reports):
        cold, _ = smoke_reports
        sweep = row_of(cold, "d695 sweep")
        assert sweep["params"] == {
            "scenarios": len(bench_sweep_grid(smoke=True)),
            "objective": "throughput",
            "workers": None,
        }
        assert sweep["params"]["scenarios"] == 4
        assert len(sweep["digest"]) == 64
        assert sweep["counters"]["kernel"]["misses"] >= 0

    def test_analysis_row(self, smoke_reports):
        cold, _ = smoke_reports
        decode = row_of(cold, "analysis decode")
        sidecar = row_of(cold, "analysis sidecar")
        for row in (decode, sidecar):
            assert row["counters"]["scan"]["rows"] == row["params"]["records"]
            assert len(row["digest"]) == 64
        # Equal records were checked in the run; equal tables follow.
        assert decode["digest"] == sidecar["digest"]
        assert decode["seconds"] > 0
        # The acceptance threshold (>= 10x) is asserted under the benchmark
        # harness; the unit test only requires a genuine speedup.
        assert sidecar["seconds"] < decode["seconds"]

    def test_report_is_json_serializable(self, smoke_reports):
        cold, warm = smoke_reports
        for report in (cold, warm):
            json.loads(json.dumps(report))


class TestParity:
    def test_check_parity_raises_on_mismatch(self):
        check_parity("equal legs", "a", "a", "a")
        with pytest.raises(ReproError, match="fanout digests differ"):
            check_parity("fanout digests", "a", "b")

    def test_parity_legs_agree_in_the_run(self, smoke_reports):
        cold, _ = smoke_reports
        fanout = rows_of(cold, "fanout")
        assert [row["params"]["chunk"] for row in fanout] == ["1", "auto"]
        assert len({row["digest"] for row in fanout}) == 1
        assert row_of(cold, "campaign cold")["digest"] == row_of(cold, "campaign resume")["digest"]


class TestWarmStore:
    def test_warm_run_reports_store_hits(self, smoke_reports):
        _, warm = smoke_reports
        sweep = row_of(warm, "d695 sweep")
        assert sweep["counters"]["cache"]["store_hits"] == sweep["params"]["scenarios"]
        assert sweep["counters"]["cache"]["misses"] == 0
        assert row_of(warm, "experiment")["counters"]["cache"]["store_hits"] > 0

    def test_warm_run_is_bit_identical(self, smoke_reports):
        cold, warm = smoke_reports
        assert row_of(cold, "d695 sweep")["digest"] == row_of(warm, "d695 sweep")["digest"]

    def test_warm_run_does_no_kernel_work(self, smoke_reports):
        # The work count a faster warm run stands for; the wall-clock claim
        # (>= 2x on a larger grid) is pinned under the benchmark harness.
        cold, warm = smoke_reports
        assert row_of(cold, "d695 sweep")["counters"]["kernel"]["batch_calls"] > 0
        warm_sweep = row_of(warm, "d695 sweep")
        assert warm_sweep["counters"]["kernel"]["batch_calls"] == 0
        assert warm_sweep["counters"]["cache"]["misses"] == 0


class TestReportFile:
    def test_write_report_names_file_after_tag(self, smoke_reports, tmp_path):
        cold, _ = smoke_reports
        path = write_report(cold, tmp_path)
        assert path.name == report_filename(cold) == "BENCH_cold.json"
        assert json.loads(path.read_text())["tag"] == "cold"

    def test_default_tag_is_package_version(self):
        from repro import __version__

        assert default_tag() == f"v{__version__}"

    def test_tag_validation(self):
        with pytest.raises(ConfigurationError):
            run_bench(tag="bad/tag", smoke=True)
        with pytest.raises(ConfigurationError):
            run_bench(tag="", smoke=True)

    def test_summary_mentions_all_sections(self, smoke_reports):
        cold, _ = smoke_reports
        text = summarize_report(cold)
        for row in cold["rows"]:
            assert row_label(row) in text
        assert "skipped: exhaustive" in text
        assert f"digest {row_of(cold, 'd695 sweep')['digest'][:16]}" in text


class TestBenchCli:
    def test_bench_subcommand_writes_report(self, cli_run):
        code, out, err, out_dir = cli_run
        assert code == 0, err
        assert "BENCH_cli.json" in out
        report = json.loads((out_dir / "BENCH_cli.json").read_text())
        assert report["tag"] == "cli"
        assert report["store"]["enabled"] is True

    def test_bench_rejects_bad_tag(self, tmp_path, capsys):
        code = main(["bench", "--smoke", "--tag", "a/b", "--output", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_ratchet_refuses_baseline_sharing_no_rows(
        self, smoke_reports, tmp_path, capsys, monkeypatch
    ):
        cold, warm = smoke_reports
        unrelated = dict(
            cold,
            tag="unrelated",
            rows=[dict(row, workload=f"other {row['workload']}") for row in cold["rows"]],
        )
        baseline = write_report(unrelated, tmp_path)
        monkeypatch.setattr("repro.cli.run_bench", lambda **_: warm)
        code = main(
            [
                "bench",
                "--smoke",
                "--output",
                str(tmp_path),
                "--compare",
                str(baseline),
                "--fail-on-regression",
                "100",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "paired 0 row(s)" in captured.out
        assert "perf ratchet passed" not in captured.out
        assert "nothing to compare" in captured.err


class TestResultsDigest:
    def test_digest_depends_on_values(self):
        grid = bench_sweep_grid(smoke=True)
        results = Engine().run_batch(grid[:2])
        assert results_digest(results) != results_digest(results[:1])
        assert results_digest(results) == results_digest(tuple(results))


class TestCompareReports:
    def test_compare_smoke_reports(self, smoke_reports):
        cold, warm = smoke_reports
        text = compare_reports(warm, cold)
        assert "bench compare: cold" in text and "-> warm" in text
        timed = sum(1 for row in warm["rows"] if "seconds" in row)
        assert f"paired {timed} row(s) on (workload, params); 0 new, 0 gone" in text
        assert "experiment name=economics" in text
        assert "digest identical" in text
        assert "x)" in text  # at least one speedup ratio

    def test_regressions_pair_analysis_legs(self, smoke_reports):
        cold, warm = smoke_reports
        slow = with_row(warm, "analysis sidecar", seconds=100.0)
        regressions = find_regressions(slow, cold, 10.0)
        assert any(line.startswith("analysis sidecar") for line in regressions)
        # Different record counts never pair.
        resized = dict(
            slow,
            rows=[
                dict(row, params={"records": 1}) if row["workload"].startswith("analysis")
                else row
                for row in slow["rows"]
            ],
        )
        assert not any(
            "analysis" in line for line in find_regressions(resized, cold, 10.0)
        )

    def test_campaign_legs_do_not_pair_across_grid_sizes(self, smoke_reports):
        cold, _ = smoke_reports
        bigger = dict(
            cold,
            rows=[
                dict(
                    row,
                    params=dict(row["params"], scenarios=12),
                    seconds=row["seconds"] * (10 if row["workload"] == "campaign cold" else 1),
                )
                if row["workload"].startswith("campaign")
                else row
                for row in cold["rows"]
            ],
        )
        regressions = find_regressions(bigger, cold, 100.0, noise_floor_seconds=0.0)
        assert not any(line.startswith("campaign") for line in regressions)
        text = compare_reports(bigger, cold)
        assert "new: campaign cold scenarios=12" in text
        assert "gone: campaign cold scenarios=6" in text

    def test_compare_flags_different_workloads(self, smoke_reports):
        cold, warm = smoke_reports
        sweep = row_of(warm, "d695 sweep")
        other = with_row(warm, "d695 sweep", params=dict(sweep["params"], scenarios=99))
        text = compare_reports(other, cold)
        assert "new: d695 sweep objective=throughput scenarios=99" in text
        assert "gone: d695 sweep objective=throughput scenarios=4" in text

    def test_compare_flags_digest_mismatch(self, smoke_reports):
        cold, warm = smoke_reports
        other = with_row(warm, "d695 sweep", digest="deadbeef")
        assert "digest DIFFER" in compare_reports(other, cold)

    def test_load_report_roundtrip(self, smoke_reports, tmp_path):
        cold, _ = smoke_reports
        path = write_report(cold, tmp_path)
        assert load_report(path) == json.loads(json.dumps(cold))

    def test_load_report_rejects_non_reports(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_report(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_report(bad)
        empty = tmp_path / "empty.json"
        empty.write_text("{}", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not a bench report"):
            load_report(empty)
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"format": 1, "tag": "old", "sweep": {}}), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="format 1 bench report"):
            load_report(old)

    def test_committed_seed_baseline_loads(self):
        assert SEED_PATH.is_file(), "BENCH_seed.json baseline missing from the repo root"
        seed = load_report(SEED_PATH)
        assert seed["tag"] == "seed"
        assert row_of(seed, "d695 sweep")["params"]["scenarios"] >= 4

    def test_seed_pairs_every_smoke_workload(self, smoke_reports):
        cold, _ = smoke_reports
        pairs, new, gone = pair_rows(cold, load_report(SEED_PATH))
        assert new == [] and gone == []
        assert len(pairs) == sum(1 for row in cold["rows"] if "seconds" in row)
        assert {row_label(after) for _, after in pairs} >= {
            "experiment name=economics",
            "solver name=goel05",
            "solver name=restart",
            "solver name=simulated_annealing",
            "d695 sweep objective=throughput scenarios=4",
            "synthetic sweep scenarios=16",
            "fanout chunk=1 scenarios=16 workers=2",
            "fanout chunk=auto scenarios=16 workers=2",
            "campaign cold scenarios=6",
            "analysis decode records=1500",
            "analysis sidecar records=1500",
        }

    def test_bench_sweep_grid_objective_axis(self):
        grid = bench_sweep_grid(smoke=True, objective="cost_per_good_die")
        assert all(s.objective == "cost_per_good_die" for s in grid)
        # The default-objective grid keeps its pre-objective digests.
        default = bench_sweep_grid(smoke=True)
        assert all(len(s.canonical_key()) == 4 for s in default)


class TestKernelCounters:
    def test_every_section_records_kernel_counters(self, smoke_reports):
        cold, _ = smoke_reports
        for row in cold["rows"]:
            if "skipped" not in row:
                assert set(row["counters"]["kernel"]) == KERNEL_COUNTERS
        assert row_of(cold, "synthetic sweep")["counters"]["kernel"]["misses"] > 0
        assert cold["kernel"]["batch_calls"] > 0

    def test_summary_prints_kernel_totals(self, smoke_reports):
        cold, _ = smoke_reports
        text = summarize_report(cold)
        assert "total kernel: batch_calls=" in text
        assert "synthetic sweep scenarios=16" in text


class TestSyntheticSweep:
    def test_smoke_grid_size(self):
        assert len(synthetic_sweep_grid(smoke=True)) == 16

    def test_full_grid_size(self):
        assert len(synthetic_sweep_grid(smoke=False)) == 1000

    def test_section_shape(self, smoke_reports):
        cold, warm = smoke_reports
        row = row_of(cold, "synthetic sweep")
        assert row["params"]["scenarios"] == 16
        assert row["seconds"] > 0
        assert len(row["digest"]) == 64
        # The synthetic sweep is always cold (caches cleared, no store), so
        # the warm report must reproduce the digest by recomputation.
        warm_row = row_of(warm, "synthetic sweep")
        assert warm_row["digest"] == row["digest"]
        assert warm_row["counters"]["cache"]["store_hits"] == 0


class TestNoiseFloor:
    @staticmethod
    def _reports(before, after):
        def report(tag, seconds):
            row = {
                "workload": "experiment",
                "params": {"name": "x"},
                "seconds": seconds,
                "digest": None,
                "counters": {},
            }
            return {"tag": tag, "rows": [row]}

        return report("current", after), report("previous", before)

    def test_default_floor_ignores_sub_50ms_workloads(self):
        current, previous = self._reports(0.010, 0.040)
        assert find_regressions(current, previous, 10.0) == []

    def test_custom_floor_catches_fast_workloads(self):
        current, previous = self._reports(0.010, 0.040)
        regressions = find_regressions(
            current, previous, 10.0, noise_floor_seconds=0.005
        )
        assert len(regressions) == 1
        assert regressions[0].startswith("experiment name=x: 0.010s -> 0.040s (+300.0%")

    def test_raised_floor_silences_regressions(self):
        current, previous = self._reports(0.2, 0.9)
        assert find_regressions(current, previous, 10.0, noise_floor_seconds=1.0) == []
        assert len(find_regressions(current, previous, 10.0)) == 1

    def test_negative_floor_rejected(self):
        current, previous = self._reports(0.2, 0.9)
        with pytest.raises(ConfigurationError, match="noise floor"):
            find_regressions(current, previous, 10.0, noise_floor_seconds=-0.1)

    def test_cli_noise_floor_flag(self, cli_run):
        code, out, err, _ = cli_run
        assert code == 0, err
        assert "perf ratchet passed" in out

    def test_cli_rejects_negative_noise_floor(self, tmp_path, capsys):
        code = main(
            ["bench", "--smoke", "--output", str(tmp_path), "--noise-floor", "-5"]
        )
        assert code == 1
        assert "noise-floor" in capsys.readouterr().err


class TestProfile:
    def test_format_profile_is_deterministic_given_stats(self):
        import cProfile
        import pstats

        from repro.bench.runner import format_profile

        profiler = cProfile.Profile()
        profiler.enable()
        sum(range(1000))
        profiler.disable()
        stats = pstats.Stats(profiler)
        first = format_profile(stats)
        second = format_profile(stats)
        assert first == second
        assert first.splitlines()[0].startswith("profile: top")

    def test_normalise_profile_path(self):
        from repro.bench.runner import _normalise_profile_path

        assert _normalise_profile_path(
            "/home/me/checkout/src/repro/bench/runner.py"
        ) == "repro/bench/runner.py"
        assert _normalise_profile_path(
            "/usr/lib/python3.11/site-packages/numpy/core/x.py"
        ) == "numpy/core/x.py"
        assert _normalise_profile_path("~") == "~"

    def test_cli_profile_prints_table_and_writes_stats(self, cli_run):
        import pstats

        code, out, err, out_dir = cli_run
        assert code == 0, err
        assert "profile: top" in out
        assert "cumtime" in out
        assert (out_dir / "bench.prof").is_file()
        pstats.Stats(str(out_dir / "bench.prof"))  # the dump must be loadable
