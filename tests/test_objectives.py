"""Tests for the pluggable objective layer (registry, backends, threading).

Covers the registry contract, the four built-in backends, the objective's
path through the evaluation kernel / Step 2 / every solver backend, the
scenario axis (canonical keys, digests, engine caching, store records) and
the digest-stability guarantee: the default objective leaves every
pre-existing key, digest and store record untouched.
"""

import pytest

from repro.api.engine import Engine
from repro.api.grid import SweepGrid
from repro.api.scenario import Scenario
from repro.api.testcell import reference_test_cell
from repro.ate.pricing import AtePricing
from repro.core.exceptions import ConfigurationError
from repro.objectives import (
    DEFAULT_OBJECTIVE,
    ObjectiveSpec,
    get_objective,
    list_objectives,
    objective_names,
    register_objective,
)
from repro.objectives.backends import DEPRECIATION_HOURS
from repro.objectives.registry import _REGISTRY
from repro.optimize.step2 import run_step2
from repro.solvers import evaluate as evaluate_kernel
from repro.solvers.problem import TestInfraProblem, make_problem
from repro.solvers.registry import solve
from repro.store.packed import PackedResultStore

BUILTIN_OBJECTIVES = ("channel_budget", "cost_per_good_die", "test_time", "throughput")


@pytest.fixture(scope="module")
def cell():
    return reference_test_cell(channels=256, depth_m=0.0625)


@pytest.fixture(scope="module")
def outcomes(cell):
    """One d695 run per built-in objective, through one engine."""
    engine = Engine()
    return {
        name: engine.run(Scenario(soc="d695", test_cell=cell, objective=name))
        for name in objective_names()
    }


class TestRegistry:
    def test_builtin_objectives_registered(self):
        assert objective_names() == BUILTIN_OBJECTIVES

    def test_default_objective_is_throughput(self):
        assert DEFAULT_OBJECTIVE == "throughput"
        assert get_objective(DEFAULT_OBJECTIVE).sense == "max"

    def test_list_objectives_sorted_specs(self):
        specs = list_objectives()
        assert [spec.name for spec in specs] == list(objective_names())
        assert all(isinstance(spec, ObjectiveSpec) for spec in specs)

    def test_unknown_objective_raises(self):
        with pytest.raises(ConfigurationError, match="unknown objective"):
            get_objective("no-such-objective")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_objective("throughput", title="dup")(lambda s, c, a: 0.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            register_objective("", title="anon")

    def test_bad_sense_rejected(self):
        with pytest.raises(ConfigurationError, match="sense"):
            ObjectiveSpec(name="x", title="x", backend=lambda s, c, a: 0.0, sense="best")

    def test_signed_maps_min_to_negation(self):
        assert get_objective("throughput").signed(7.0) == 7.0
        assert get_objective("test_time").signed(7.0) == -7.0

    def test_custom_registration_roundtrip(self):
        @register_objective("tmp_index_time", title="Index time", sense="min", units="s")
        def _index_time(scenario, config, ate):
            return scenario.timing.index_time_s

        try:
            spec = get_objective("tmp_index_time")
            assert not spec.maximize
            assert "tmp_index_time" in objective_names()
        finally:
            _REGISTRY.pop("tmp_index_time")

    def test_senses_of_builtins(self):
        assert get_objective("test_time").sense == "min"
        assert get_objective("cost_per_good_die").sense == "min"
        assert get_objective("channel_budget").sense == "max"


class TestBackendsOnD695:
    """Pinned optima of every objective on d695 at 256ch x 64K vectors."""

    def test_throughput_matches_paper_point(self, outcomes):
        result = outcomes["throughput"].result
        assert (result.optimal_sites, result.best.channels_per_site) == (11, 22)

    def test_test_time_widens_one_site(self, outcomes):
        result = outcomes["test_time"].result
        assert (result.optimal_sites, result.best.channels_per_site) == (1, 256)
        # The value is the raw test time in seconds of the widest design.
        assert result.optimal_throughput == pytest.approx(0.0119, abs=1e-3)

    def test_cost_per_good_die_consistent_with_capital(self, outcomes):
        result = outcomes["cost_per_good_die"].result
        best = result.best
        capital = AtePricing().capital_cost_usd(
            best.sites * best.channels_per_site, 65536
        )
        expected = capital / (DEPRECIATION_HOURS * best.scenario.throughput())
        assert result.optimal_throughput == pytest.approx(expected, rel=1e-12)

    def test_channel_budget_is_throughput_per_channel(self, outcomes):
        result = outcomes["channel_budget"].result
        best = result.best
        per_channel = best.scenario.throughput() / (best.sites * best.channels_per_site)
        assert result.optimal_throughput == pytest.approx(per_channel, rel=1e-12)

    def test_minimised_objectives_pick_smallest_value(self, outcomes):
        for name in ("test_time", "cost_per_good_die"):
            result = outcomes[name].result
            values = [point.throughput for point in result.points]
            assert result.optimal_throughput == min(values), name

    def test_maximised_objectives_pick_largest_value(self, outcomes):
        for name in ("throughput", "channel_budget"):
            result = outcomes[name].result
            values = [point.throughput for point in result.points]
            assert result.optimal_throughput == max(values), name

    def test_runs_are_deterministic(self, cell, outcomes):
        rerun = Engine().run(
            Scenario(soc="d695", test_cell=cell, objective="cost_per_good_die")
        )
        assert rerun.result == outcomes["cost_per_good_die"].result


class TestKernelAndStep2:
    def test_evaluate_point_carries_signed_score(self, cell, outcomes):
        step1 = outcomes["throughput"].result.step1
        point = evaluate_kernel.evaluate_point(
            step1.architecture, 2, step1.ate, step1.probe_station, step1.config, "test_time"
        )
        assert point.score == -point.objective

    def test_run_step2_unknown_objective_raises(self, outcomes):
        step1 = outcomes["throughput"].result.step1
        with pytest.raises(ConfigurationError, match="unknown objective"):
            run_step2(step1, "no-such-objective")

    def test_default_objective_unchanged_result(self, outcomes):
        step1 = outcomes["throughput"].result.step1
        assert run_step2(step1) == run_step2(step1, DEFAULT_OBJECTIVE)


class TestProblemThreading:
    def test_problem_carries_objective(self, cell):
        soc = Scenario(soc="d695", test_cell=cell).resolve()
        problem = make_problem(soc, cell.ate, objective="test_time")
        assert problem.objective == "test_time"
        assert "optimize=test_time" in problem.describe()
        assert "optimize=" not in make_problem(soc, cell.ate).describe()

    def test_problem_rejects_empty_objective(self, cell):
        soc = Scenario(soc="d695", test_cell=cell).resolve()
        with pytest.raises(ConfigurationError, match="objective"):
            TestInfraProblem(soc=soc, ate=cell.ate, objective="")

    @pytest.mark.parametrize("solver", ["goel05", "restart"])
    def test_every_solver_honours_min_objective(self, cell, solver):
        soc = Scenario(soc="d695", test_cell=cell).resolve()
        problem = make_problem(soc, cell.ate, objective="test_time")
        solution = solve(solver, problem)
        values = [point.throughput for point in solution.result.points]
        assert solution.result.optimal_throughput == min(values)

    def test_exhaustive_honours_min_objective(self, cell):
        from repro.experiments.solver_comparison import derived_small_socs

        (small,) = derived_small_socs([3])
        ate = cell.ate.with_channels(64).with_depth(200_000)
        exhaustive = solve("exhaustive", make_problem(small, ate, objective="test_time"))
        greedy = solve("goel05", make_problem(small, ate, objective="test_time"))
        # The oracle can never be worse than the greedy under the same objective.
        assert exhaustive.result.optimal_throughput <= greedy.result.optimal_throughput


class TestScenarioAxis:
    def test_default_objective_keeps_canonical_key(self, cell):
        plain = Scenario(soc="d695", test_cell=cell)
        explicit = Scenario(soc="d695", test_cell=cell, objective=DEFAULT_OBJECTIVE)
        assert plain.canonical_key() == explicit.canonical_key()
        assert plain.digest == explicit.digest
        # The default key has no objective element at all: its shape (and
        # therefore every persisted digest) predates the objective layer.
        assert len(plain.canonical_key()) == 4

    def test_non_default_objective_changes_digest(self, cell):
        plain = Scenario(soc="d695", test_cell=cell)
        costed = plain.with_objective("cost_per_good_die")
        assert plain.digest != costed.digest
        assert plain != costed
        assert costed == Scenario(
            soc="d695", test_cell=cell, objective="cost_per_good_die"
        )

    def test_with_objective_and_describe(self, cell):
        scenario = Scenario(soc="d695", test_cell=cell).with_objective("test_time")
        assert scenario.objective == "test_time"
        assert "optimize=test_time" in scenario.describe()
        assert "optimize=" not in Scenario(soc="d695", test_cell=cell).describe()

    def test_empty_objective_rejected(self, cell):
        with pytest.raises(ConfigurationError, match="objective"):
            Scenario(soc="d695", test_cell=cell, objective="")

    def test_sweep_objectives_axis(self, cell):
        grid = Scenario.sweep(
            "d695", cell, channels=[128, 256], objectives=["throughput", "test_time"]
        )
        assert len(grid) == 4
        assert [s.objective for s in grid] == [
            "throughput", "test_time", "throughput", "test_time",
        ]

    def test_grid_objectives_axis_varies_fastest(self, cell):
        grid = SweepGrid(
            "d695", cell, solvers=["goel05", "restart"], objectives=["throughput", "test_time"]
        )
        assert len(grid) == 4
        assert [(s.solver, s.objective) for s in grid] == [
            ("goel05", "throughput"),
            ("goel05", "test_time"),
            ("restart", "throughput"),
            ("restart", "test_time"),
        ]
        assert "objectives" in grid.axes

    def test_to_record_carries_objective(self, outcomes):
        record = outcomes["cost_per_good_die"].to_record()
        assert record["objective_name"] == "cost_per_good_die"
        assert record["solver"] == "goel05"


class TestEngineAndStore:
    def test_engine_caches_per_objective(self, cell):
        engine = Engine()
        base = Scenario(soc="d695", test_cell=cell)
        engine.run(base)
        engine.run(base.with_objective("channel_budget"))
        info = engine.cache_info()
        assert (info.hits, info.misses) == (0, 2)
        engine.run(base.with_objective("channel_budget"))
        assert engine.cache_info().hits == 1

    def test_store_roundtrip_per_objective(self, cell, tmp_path, outcomes):
        store = PackedResultStore(tmp_path)
        scenario = Scenario(soc="d695", test_cell=cell, objective="test_time")
        store.put(scenario, outcomes["test_time"].result)
        assert store.get(scenario) == outcomes["test_time"].result
        # The default-objective scenario addresses a different record.
        assert store.get(Scenario(soc="d695", test_cell=cell)) is None

    def test_store_entry_records_objective(self, cell, tmp_path, outcomes):
        store = PackedResultStore(tmp_path)
        store.put(
            Scenario(soc="d695", test_cell=cell, objective="test_time"),
            outcomes["test_time"].result,
        )
        (entry,) = store.scan()
        assert entry.objective == "test_time"

    def test_store_entry_defaults_objective_for_old_records(self, cell, tmp_path, outcomes):
        from repro.store import make_record

        store = PackedResultStore(tmp_path)
        record = make_record(
            Scenario(soc="d695", test_cell=cell), outcomes["throughput"].result
        )
        # Strip the objective key, simulating a record written before PR 5.
        del record["scenario"]["objective"]
        store.put_record(record)
        (entry,) = store.scan()
        assert entry.objective == DEFAULT_OBJECTIVE


class TestBroadcastAndDegenerateAccounting:
    """Employed-channel accounting must be broadcast-aware, never divide by zero."""

    def test_broadcast_shares_stimulus_channels(self, cell):
        from repro.objectives.backends import (
            DEFAULT_PRICING,
            DEPRECIATION_HOURS,
            evaluate_cost_per_good_die,
        )
        from repro.optimize.channels import total_channels_used
        from repro.optimize.config import OptimizationConfig

        outcome = Engine().run(
            Scenario(
                soc="d695",
                test_cell=cell,
                config=OptimizationConfig(broadcast=True),
                objective="cost_per_good_die",
            )
        )
        best = outcome.result.best
        employed = total_channels_used(best.channels_per_site, best.sites, True)
        # Shared stimulus: k/2 + sites*k/2, strictly less than sites*k and
        # never more than the machine provides.
        assert employed == best.channels_per_site // 2 * (best.sites + 1)
        assert employed <= cell.ate.channels
        expected = DEFAULT_PRICING.capital_cost_usd(employed, cell.ate.depth) / (
            DEPRECIATION_HOURS * best.scenario.throughput()
        )
        assert outcome.optimal_throughput == pytest.approx(expected, rel=1e-12)

    def test_channel_budget_broadcast_aware(self, cell):
        from repro.optimize.channels import total_channels_used
        from repro.optimize.config import OptimizationConfig

        outcome = Engine().run(
            Scenario(
                soc="d695",
                test_cell=cell,
                config=OptimizationConfig(broadcast=True),
                objective="channel_budget",
            )
        )
        best = outcome.result.best
        employed = total_channels_used(best.channels_per_site, best.sites, True)
        assert outcome.optimal_throughput == pytest.approx(
            best.scenario.throughput() / employed, rel=1e-12
        )

    def test_zero_yield_costs_infinity_not_crash(self, cell):
        import math

        from repro.optimize.config import OptimizationConfig

        outcome = Engine().run(
            Scenario(
                soc="d695",
                test_cell=cell,
                config=OptimizationConfig(manufacturing_yield=0.0),
                objective="cost_per_good_die",
            )
        )
        assert math.isinf(outcome.optimal_throughput)

    def test_analysis_employed_channels_broadcast_aware(self, cell):
        import dataclasses

        from repro.analysis.records import records_from_results
        from repro.optimize.channels import total_channels_used
        from repro.optimize.config import OptimizationConfig

        outcome = Engine().run(
            Scenario(
                soc="d695", test_cell=cell, config=OptimizationConfig(broadcast=True)
            )
        )
        (record,) = records_from_results([outcome])
        assert record.broadcast
        assert record.employed_channels == total_channels_used(
            record.channels_per_site, record.optimal_sites, True
        )
        off = dataclasses.replace(record, broadcast=False)
        assert off.employed_channels == record.optimal_sites * record.channels_per_site
