"""Bit-identity of the batch evaluation kernel against the scalar path.

The batch kernel (:mod:`repro.solvers.evaluate` routing through
:mod:`repro.multisite.batch` and the array objective backends) promises to
produce *exactly* the bytes the scalar path produces -- ``repro all``
digests and store records depend on it.  This suite pins that promise:

* the vectorised objective math equals per-point scalar evaluation across
  SOCs, objectives, broadcast modes and yield settings (``==`` on floats,
  no tolerance);
* the incremental Step-2 widening equals from-scratch widening for every
  site count;
* :func:`~repro.solvers.evaluate.evaluate_move` equals a full
  re-evaluation for random single-module width moves;
* the fast wrapper test time equals the full
  :func:`~repro.wrapper.combine.design_wrapper` construction, and the
  closed-form partition helpers equal their brute-force references.
"""

from __future__ import annotations

import random

import pytest

from repro.api.scenario import Scenario
from repro.api.testcell import reference_test_cell
from repro.core.units import kilo_vectors, mega_vectors
from repro.multisite.batch import ScenarioBatch
from repro.objectives.registry import get_objective, objective_names
from repro.optimize.channels import max_channels_per_site
from repro.optimize.config import Objective, OptimizationConfig
from repro.optimize.step1 import run_step1
from repro.soc.catalog import resolve_catalog_soc
from repro.solvers import evaluate as kernel
from repro.tam.redistribution import widen_to_channel_budget
from repro.wrapper.combine import _fast_test_time, design_wrapper, module_test_time
from repro.wrapper.partition import (
    best_partition,
    bfd_partition,
    lpt_partition,
    spread_cells,
    water_level,
)

SOC_NAMES = ("d695", "pnx8550", "synthetic:42:8")

#: Per-SOC test-cell operating points (channels, vector depth in M) that
#: are feasible in both broadcast modes.
SOC_CELLS = {
    "d695": (256, 0.0625),
    "pnx8550": (512, 7.0),
    "synthetic:42:8": (256, 2.0),
}


def _step1_for(soc_name, broadcast=False, **config_kwargs):
    soc = resolve_catalog_soc(soc_name)
    channels, depth_m = SOC_CELLS[soc_name]
    cell = reference_test_cell(channels=channels, depth_m=depth_m)
    config = OptimizationConfig(broadcast=broadcast, **config_kwargs)
    return run_step1(soc, cell.ate, cell.probe_station, config)


def _scalar_points(step1, site_counts, objective):
    """Per-point scalar evaluation, bypassing the batch path and the memo."""
    spec = get_objective(objective)
    values = []
    current = step1.architecture
    architectures = {}
    for sites in sorted(set(site_counts), reverse=True):
        budget = max_channels_per_site(
            step1.ate.channels, sites, step1.config.broadcast
        )
        current = widen_to_channel_budget(current, budget)
        architectures[sites] = current
    for sites in site_counts:
        scenario = kernel.scenario_for(
            architectures[sites], sites, step1.ate, step1.probe_station, step1.config
        )
        values.append(spec.value(scenario, step1.config, step1.ate))
    return values


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    @pytest.mark.parametrize("broadcast", [False, True])
    def test_all_objectives_bit_identical(self, soc_name, broadcast):
        step1 = _step1_for(soc_name, broadcast=broadcast)
        site_counts = list(range(step1.max_sites, 0, -1))
        for objective in objective_names():
            kernel.clear_cache()
            batch = kernel.evaluate_points(step1, site_counts, objective)
            scalar = _scalar_points(step1, site_counts, objective)
            assert [point.objective for point in batch] == scalar, objective

    @pytest.mark.parametrize(
        "config_kwargs",
        [
            {"abort_on_fail": True, "manufacturing_yield": 0.85},
            {"objective": Objective.UNIQUE_THROUGHPUT},
            {
                "objective": Objective.UNIQUE_THROUGHPUT,
                "abort_on_fail": True,
                "manufacturing_yield": 0.6,
            },
        ],
    )
    def test_yield_and_retest_variants_bit_identical(self, config_kwargs):
        step1 = _step1_for("d695", **config_kwargs)
        site_counts = list(range(step1.max_sites, 0, -1))
        kernel.clear_cache()
        batch = kernel.evaluate_points(step1, site_counts)
        scalar = _scalar_points(step1, site_counts, "throughput")
        assert [point.objective for point in batch] == scalar

    def test_batch_and_scalar_entry_points_share_results(self):
        step1 = _step1_for("d695")
        kernel.clear_cache()
        batched = kernel.evaluate_points(step1, range(step1.max_sites, 0, -1))
        for point in batched:
            again = kernel.evaluate_point(
                point.architecture,
                point.sites,
                step1.ate,
                step1.probe_station,
                step1.config,
            )
            assert again.objective == point.objective
            assert again.scenario == point.scenario


class TestIncrementalWidening:
    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    @pytest.mark.parametrize("broadcast", [False, True])
    def test_incremental_equals_from_scratch(self, soc_name, broadcast):
        step1 = _step1_for(soc_name, broadcast=broadcast)
        current = step1.architecture
        for sites in range(step1.max_sites, 0, -1):
            budget = max_channels_per_site(step1.ate.channels, sites, broadcast)
            current = widen_to_channel_budget(current, budget)
            scratch = widen_to_channel_budget(step1.architecture, budget)
            assert current == scratch, f"{soc_name} sites={sites}"

    def test_budgets_monotone_as_sites_descend(self):
        # The incremental chain is only valid because budgets never shrink
        # while sites are given up -- pin that property for both modes.
        for broadcast in (False, True):
            budgets = [
                max_channels_per_site(512, sites, broadcast)
                for sites in range(32, 0, -1)
            ]
            assert budgets == sorted(budgets)


class TestEvaluateMove:
    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    def test_move_equals_full_reevaluation(self, soc_name):
        step1 = _step1_for(soc_name)
        kernel.clear_cache()
        point = kernel.evaluate_points(step1, (step1.max_sites,))[0]
        rng = random.Random(1205)
        modules = list(point.architecture.soc.modules)
        for _ in range(20):
            module = rng.choice(modules)
            delta = rng.choice([-2, -1, 1, 2])
            width = point.architecture.group_of(module.name).width + delta
            if width <= 0:
                continue
            moved = kernel.evaluate_move(point, module, delta)
            reference_architecture = point.architecture.with_group_width(
                point.architecture.group_of(module.name).index, width
            )
            reference = kernel.evaluate_point(
                reference_architecture,
                point.sites,
                step1.ate,
                step1.probe_station,
                step1.config,
            )
            assert moved.objective == reference.objective
            assert moved.architecture == reference_architecture
            assert moved.scenario == reference.scenario

    def test_undoing_a_move_is_a_cache_hit(self):
        step1 = _step1_for("d695")
        kernel.clear_cache()
        point = kernel.evaluate_points(step1, (step1.max_sites,))[0]
        module = point.architecture.soc.modules[0]
        there = kernel.evaluate_move(point, module, 1)
        before = kernel.cache_info()
        back = kernel.evaluate_move(there, module, -1)
        after = kernel.cache_info()
        assert back.objective == point.objective
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_zero_delta_returns_same_point(self):
        step1 = _step1_for("d695")
        point = kernel.evaluate_points(step1, (1,))[0]
        assert kernel.evaluate_move(point, point.architecture.soc.modules[0], 0) is point


class TestFastWrapperTime:
    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    def test_fast_test_time_equals_full_design(self, soc_name):
        soc = resolve_catalog_soc(soc_name)
        for module in soc.modules:
            for width in range(1, min(40, module.max_useful_width + 3)):
                assert (
                    _fast_test_time(module, width)
                    == design_wrapper(module, width).test_time_cycles
                ), f"{module.name} width={width}"

    def test_module_test_time_is_cached_fast_path(self):
        soc = resolve_catalog_soc("d695")
        module = soc.modules[0]
        assert module_test_time(module, 4) == _fast_test_time(module, 4)


def _greedy_spread(base_loads, cells):
    """Reference: assign cells one by one to the least-loaded chain."""
    loads = list(base_loads)
    added = [0] * len(loads)
    for _ in range(cells):
        index = min(range(len(loads)), key=lambda i: (loads[i], i))
        loads[index] += 1
        added[index] += 1
    return tuple(added)


class TestPartitionHelpers:
    def test_spread_cells_matches_greedy_reference(self):
        rng = random.Random(7)
        for _ in range(200):
            num = rng.randint(1, 8)
            loads = [rng.randint(0, 30) for _ in range(num)]
            cells = rng.randint(0, 60)
            assert spread_cells(loads, cells) == _greedy_spread(loads, cells), (
                loads,
                cells,
            )

    def test_water_level_is_max_final_load(self):
        rng = random.Random(11)
        for _ in range(200):
            num = rng.randint(1, 8)
            loads = [rng.randint(0, 30) for _ in range(num)]
            cells = rng.randint(1, 60)
            added = spread_cells(loads, cells)
            expected = max(load + extra for load, extra in zip(loads, added))
            level = water_level(sorted(loads), cells)
            assert max(max(loads), level) == expected, (loads, cells)

    def test_best_partition_shortcut_preserves_choice(self):
        # The LPT lower-bound shortcut must never change which partition
        # best_partition returns.
        rng = random.Random(23)
        for _ in range(300):
            num_items = rng.randint(1, 10)
            sizes = [rng.randint(1, 50) for _ in range(num_items)]
            bins = rng.randint(1, num_items)
            lpt = lpt_partition(sizes, bins)
            bfd = bfd_partition(sizes, bins)
            reference = bfd if bfd.makespan < lpt.makespan else lpt
            assert best_partition(sizes, bins) == reference, (sizes, bins)


class TestScenarioGridSanity:
    def test_sweep_scenarios_reproduce_after_kernel_clear(self):
        # A whole engine-level scenario evaluated twice -- once against a
        # cold kernel, once warm -- must give identical results.
        from repro.api.engine import Engine

        cell = reference_test_cell(channels=128, depth_m=0.0625)
        scenarios = Scenario.sweep(
            "d695",
            cell,
            channels=[128],
            depths=[kilo_vectors(48), kilo_vectors(64)],
            broadcast=[False, True],
        )
        kernel.clear_cache()
        cold = [Engine().run(s).result for s in scenarios]
        warm = [Engine().run(s).result for s in scenarios]
        assert cold == warm

    def test_synthetic_deep_grid_bit_identical(self):
        # A synthetic SOC at M-deep vectors (the synthetic sweep's regime).
        soc = resolve_catalog_soc("synthetic:42:8")
        cell = reference_test_cell(channels=192, depth_m=2.0)
        config = OptimizationConfig(broadcast=True)
        step1 = run_step1(soc, cell.ate, cell.probe_station, config)
        site_counts = list(range(step1.max_sites, 0, -1))
        kernel.clear_cache()
        batch = kernel.evaluate_points(step1, site_counts, "cost_per_good_die")
        scalar = _scalar_points(step1, site_counts, "cost_per_good_die")
        assert [point.objective for point in batch] == scalar


class TestArrayPathIsLive:
    """The shipped configuration routes batches through the array backends."""

    @pytest.mark.parametrize(
        "objective", ["throughput", "test_time", "cost_per_good_die", "channel_budget"]
    )
    def test_builtin_objective_has_array_backend(self, objective):
        assert get_objective(objective).array_backend is not None

    def test_multi_point_values_go_through_scenario_batch(self, monkeypatch):
        built = []

        def spy(**fields):
            built.append(ScenarioBatch(**fields))
            return built[-1]

        monkeypatch.setattr(kernel, "ScenarioBatch", spy)
        cell = reference_test_cell(channels=256, depth_m=0.0625)
        args = (cell.ate, cell.probe_station, OptimizationConfig(), get_objective("throughput"))
        batched = kernel.objective_values([1, 2, 3], [64, 64, 64], [0.1, 0.2, 0.3], *args)
        assert len(built) == 1 and len(batched) == 3
        # A batch of one stays on the scalar path, with the same value.
        assert kernel.objective_values([2], [64], [0.2], *args) == batched[1:2]
        assert len(built) == 1
