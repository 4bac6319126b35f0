"""Tests of the shared memoized evaluation kernel (``repro.solvers.evaluate``)."""

import pytest

from repro.multisite.throughput import MultiSiteScenario
from repro.optimize.config import Objective, OptimizationConfig
from repro.optimize.step1 import run_step1
from repro.optimize.step2 import run_step2, step1_only_throughput
from repro.solvers import evaluate
from repro.tam.assignment import design_architecture


@pytest.fixture
def step1(tiny_soc, small_ate, probe):
    return run_step1(tiny_soc, small_ate, probe, OptimizationConfig())


class TestKernel:
    def test_scenario_matches_manual_derivation(self, step1):
        scenario = evaluate.scenario_for(
            step1.architecture, 2, step1.ate, step1.probe_station, step1.config
        )
        assert isinstance(scenario, MultiSiteScenario)
        assert scenario.sites == 2
        assert scenario.channels_per_site == step1.architecture.ate_channels
        assert scenario.timing.manufacturing_test_time_s == pytest.approx(
            step1.ate.cycles_to_seconds(step1.architecture.test_time_cycles)
        )

    def test_objective_switches_with_config(self, step1):
        scenario = evaluate.scenario_for(
            step1.architecture, 2, step1.ate, step1.probe_station, step1.config
        )
        raw = evaluate.objective_value(scenario, OptimizationConfig())
        unique = evaluate.objective_value(
            scenario, OptimizationConfig(objective=Objective.UNIQUE_THROUGHPUT)
        )
        assert raw == pytest.approx(scenario.throughput())
        assert unique == pytest.approx(scenario.unique_throughput())

    def test_point_is_memoised(self, step1):
        evaluate.clear_cache()
        args = (step1.architecture, 3, step1.ate, step1.probe_station, step1.config)
        first = evaluate.evaluate_point(*args)
        before = evaluate.cache_info()
        second = evaluate.evaluate_point(*args)
        after = evaluate.cache_info()
        assert second is first
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_drop_process_caches_empties_every_cache(self, tiny_soc, small_ate, probe):
        from repro.api import Engine, Scenario, TestCell
        from repro.solvers import bounds
        from repro.store.result_store import make_record
        from repro.wrapper import combine, pareto

        scenario = Scenario(soc=tiny_soc, test_cell=TestCell(ate=small_ate, probe_station=probe))
        # Solving fills the kernel memo and the wrapper caches; building the
        # record fills the certificate cache.
        make_record(scenario, Engine().run(scenario).result)
        caches = (combine._cached_test_time, pareto._cached_pareto, bounds._certificate)
        assert all(cache.cache_info().currsize for cache in caches)
        assert evaluate.cache_info().currsize
        before = evaluate.cache_info()
        evaluate.drop_process_caches()
        after = evaluate.cache_info()
        assert after.currsize == 0
        assert (after.hits, after.misses) == (before.hits, before.misses)
        assert not any(cache.cache_info().currsize for cache in caches)

    def test_step2_sweep_populates_the_kernel_cache(self, step1):
        evaluate.clear_cache()
        result = run_step2(step1)
        info = evaluate.cache_info()
        assert info.currsize >= len(result.points)
        # Re-running the whole sweep is pure cache hits.
        rerun = run_step2(step1)
        assert rerun == result
        assert evaluate.cache_info().misses == info.misses

    def test_step1_only_throughput_uses_the_kernel(self, step1):
        evaluate.clear_cache()
        value = step1_only_throughput(step1, 1)
        assert value > 0
        repeat = step1_only_throughput(step1, 1)
        assert repeat == value
        info = evaluate.cache_info()
        assert info.hits >= 1

    def test_distinct_designs_do_not_collide(self, tiny_soc, medium_soc, small_ate, probe):
        evaluate.clear_cache()
        config = OptimizationConfig()
        tiny_arch = design_architecture(tiny_soc, small_ate.channels, small_ate.depth)
        deep = small_ate.with_depth(131072)
        medium_arch = design_architecture(medium_soc, deep.channels, deep.depth)
        a = evaluate.evaluate_point(tiny_arch, 2, small_ate, probe, config)
        b = evaluate.evaluate_point(medium_arch, 2, deep, probe, config)
        assert a.objective != b.objective
        assert evaluate.cache_info().misses == 2
