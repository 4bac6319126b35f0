"""Tests of the lower-bound certificate layer (:mod:`repro.solvers.bounds`).

The load-bearing property is *soundness*: on every SOC small enough for the
exhaustive oracle, the certificate must never be beaten by the true optimum
-- for any registered objective.  An unsound certificate would silently
report negative "optimality gaps" all over the analysis layer.
"""

import math

import pytest

from repro.ate.spec import AteSpec
from repro.core.units import kilo_vectors
from repro.itc02.registry import load_benchmark
from repro.multisite.cost_model import TestTiming
from repro.multisite.throughput import MultiSiteScenario
from repro.objectives.registry import get_objective, objective_names
from repro.optimize.channels import max_channels_per_site
from repro.optimize.config import Objective, OptimizationConfig
from repro.soc.catalog import resolve_catalog_soc
from repro.soc.soc import Soc
from repro.solvers import bounds, evaluate
from repro.solvers.bounds import (
    certificate,
    problem_certificate,
    problem_lower_bound,
    relative_gap,
    scenario_lower_bound,
)
from repro.solvers.problem import make_problem
from repro.solvers.registry import solve


def _oracle_socs(d695):
    """Every exhaustively tractable SOC family of the suite."""
    return (
        Soc(name="d695-3", modules=d695.modules[:3]),
        Soc(name="d695-5", modules=d695.modules[:5]),
    )


def pytest_generate_tests(metafunc):
    if "objective" in metafunc.fixturenames:
        metafunc.parametrize("objective", objective_names())


class TestSoundness:
    """No exhaustive optimum may beat the certificate (per objective)."""

    def _assert_sound(self, soc, ate, objective):
        problem = make_problem(soc, ate, objective=objective)
        cert = problem_certificate(problem)
        assert cert is not None
        oracle = solve("exhaustive", problem)
        spec = get_objective(objective)
        tolerance = 1e-9 * max(1.0, abs(cert.signed_value))
        assert oracle.score <= cert.signed_value + tolerance
        gap = relative_gap(oracle.optimal_throughput, cert.value, objective)
        assert gap is not None and gap >= 0.0
        assert cert.objective == spec.name
        assert cert.sense == spec.sense

    def test_certificate_dominates_oracle_on_tiny_soc(
        self, tiny_soc, small_ate, objective
    ):
        self._assert_sound(tiny_soc, small_ate, objective)

    def test_certificate_dominates_oracle_on_medium_soc(
        self, medium_soc, small_ate, objective
    ):
        self._assert_sound(medium_soc, small_ate.with_depth(kilo_vectors(128)), objective)

    def test_certificate_dominates_oracle_on_flat_soc(
        self, flat_soc, medium_ate, objective
    ):
        self._assert_sound(flat_soc, medium_ate.with_depth(kilo_vectors(256)), objective)

    def test_certificate_dominates_oracle_on_d695_instances(self, d695, objective):
        ate = AteSpec(channels=64, depth=200_000, name="ate-oracle")
        for soc in _oracle_socs(d695):
            self._assert_sound(soc, ate, objective)

    def test_certificate_dominates_oracle_with_lossy_contact(
        self, tiny_soc, small_ate, lossy_probe, objective
    ):
        # Abort-on-fail timing depends on the contact yield; the bound's
        # full width scan must stay sound there too.
        problem = make_problem(
            tiny_soc, small_ate, probe_station=lossy_probe, objective=objective
        )
        cert = problem_certificate(problem)
        assert cert is not None
        oracle = solve("exhaustive", problem)
        assert oracle.score <= cert.signed_value + 1e-9 * max(1.0, abs(cert.signed_value))


class TestCertificate:
    def test_describes_the_attaining_configuration(self, tiny_soc, small_ate):
        cert = problem_certificate(make_problem(tiny_soc, small_ate))
        text = cert.describe()
        assert "throughput" in text
        assert f"n={cert.sites}" in text
        assert cert.channels_per_site % 2 == 0
        assert cert.channels_per_site <= small_ate.channels
        assert cert.test_time_cycles <= small_ate.depth

    def test_signed_value_follows_the_sense(self, tiny_soc, small_ate):
        maximised = problem_certificate(
            make_problem(tiny_soc, small_ate, objective="throughput")
        )
        minimised = problem_certificate(
            make_problem(tiny_soc, small_ate, objective="test_time")
        )
        assert maximised.signed_value == maximised.value
        assert minimised.signed_value == -minimised.value

    def test_unknown_objective_yields_no_certificate(self, tiny_soc, small_ate, probe):
        assert certificate(
            tiny_soc, small_ate, probe, OptimizationConfig(), "no-such-objective"
        ) is None

    def test_infeasible_relaxation_yields_no_certificate(self, flat_soc, small_ate, probe):
        cramped = small_ate.with_depth(100)
        assert certificate(
            flat_soc, cramped, probe, OptimizationConfig(), "throughput"
        ) is None

    def test_test_cell_names_do_not_matter(self, tiny_soc, small_ate, probe):
        from dataclasses import replace

        config = OptimizationConfig()
        renamed = replace(small_ate, name="some-other-label")
        first = certificate(tiny_soc, small_ate, probe, config, "throughput")
        second = certificate(tiny_soc, renamed, probe, config, "throughput")
        assert first == second

    def test_respects_site_clamps(self, tiny_soc, small_ate, probe):
        clamped = certificate(
            tiny_soc, small_ate, probe, OptimizationConfig(max_sites=1), "throughput"
        )
        assert clamped.sites == 1

    def test_problem_lower_bound_matches_certificate(self, tiny_problem):
        cert = problem_certificate(tiny_problem)
        assert problem_lower_bound(tiny_problem) == cert.value

    def test_scenario_lower_bound_matches_problem(self, small_ate):
        from repro.api.scenario import Scenario
        from repro.api.testcell import TestCell

        scenario = Scenario(soc="d695", test_cell=TestCell(ate=small_ate))
        bound = scenario_lower_bound(scenario)
        problem = make_problem(scenario.resolve(), small_ate)
        assert bound == problem_lower_bound(problem)

    def test_unresolvable_scenario_yields_none(self, small_ate):
        from repro.api.scenario import Scenario
        from repro.api.testcell import TestCell

        scenario = Scenario(soc="no-such-benchmark", test_cell=TestCell(ate=small_ate))
        assert scenario_lower_bound(scenario) is None


class TestRelativeGap:
    def test_attaining_the_bound_gives_zero(self):
        assert relative_gap(100.0, 100.0, "throughput") == 0.0

    def test_shortfall_is_relative_to_the_bound(self):
        assert relative_gap(90.0, 100.0, "throughput") == pytest.approx(0.10)
        # Minimised objective: exceeding the bound is the shortfall.
        assert relative_gap(110.0, 100.0, "test_time") == pytest.approx(0.10)

    def test_rounding_residue_clamps_to_zero(self):
        assert relative_gap(100.0 + 1e-12, 100.0, "throughput") == 0.0

    def test_degenerate_inputs_give_none(self):
        assert relative_gap(90.0, None, "throughput") is None
        assert relative_gap(90.0, 0.0, "throughput") is None
        assert relative_gap(90.0, float("inf"), "throughput") is None
        assert relative_gap(float("nan"), 100.0, "throughput") is None
        assert relative_gap(90.0, 100.0, "no-such-objective") is None


class TestSolutionWiring:
    def test_solver_solutions_report_bound_and_gap(self, tiny_problem):
        solution = solve("goel05", tiny_problem)
        assert solution.lower_bound == problem_lower_bound(tiny_problem)
        gap = solution.gap
        assert gap is not None
        assert 0.0 <= gap < 1.0

    def test_exhaustive_gap_is_small_on_d695(self, d695):
        # The certificate is useful, not just sound: at d695's Table-1
        # point the relaxation is within a percent of what goel05 achieves.
        ate = AteSpec(channels=256, depth=kilo_vectors(88), name="ate-table1")
        solution = solve("goel05", make_problem(d695, ate))
        assert solution.gap < 0.01


def _scalar_certificate(soc, ate, probe_station, config, objective):
    """Independent oracle: the sites x width scan, one scalar call per pair.

    Builds a validated :class:`MultiSiteScenario` for every admissible
    ``(sites, width)`` pair, sites-major and width-minor, and keeps the
    strict first maximum of the signed value -- the certificate's contract
    spelled out point by point, bypassing the batch helper and the cache.
    """
    spec = get_objective(objective)
    width_cap = ate.channels // 2
    times = bounds._relaxed_test_times(soc, ate.depth, width_cap)
    feasible = [width for width in range(1, width_cap + 1) if times[width] is not None]
    if not feasible:
        return None
    best = None
    best_signed = -math.inf
    sites = max(1, config.min_sites)
    while config.max_sites is None or sites <= config.max_sites:
        site_cap = min(max_channels_per_site(ate.channels, sites, config.broadcast) // 2, width_cap)
        if site_cap < feasible[0]:
            break
        for width in range(feasible[0], site_cap + 1):
            cycles = times[width]
            if cycles is None:
                continue
            scenario = MultiSiteScenario(
                sites=sites,
                timing=TestTiming(
                    index_time_s=probe_station.index_time_s,
                    contact_test_time_s=probe_station.contact_test_time_s,
                    manufacturing_test_time_s=ate.cycles_to_seconds(cycles),
                ),
                channels_per_site=2 * width,
                contact_yield=probe_station.contact_yield,
                manufacturing_yield=config.manufacturing_yield,
            )
            value = spec.value(scenario, config, ate)
            if spec.signed(value) > best_signed:
                best_signed = spec.signed(value)
                best = (value, sites, 2 * width, cycles)
        sites += 1
    return best


#: Config variants of the parity suite: the plain default, abort-on-fail
#: (yield-dependent test time), re-test throughput, a zero manufacturing
#: yield (cost per good die goes to inf), broadcast, and both site clamps.
PARITY_CONFIGS = (
    OptimizationConfig(),
    OptimizationConfig(abort_on_fail=True, manufacturing_yield=0.85),
    OptimizationConfig(objective=Objective.UNIQUE_THROUGHPUT),
    OptimizationConfig(manufacturing_yield=0.0),
    OptimizationConfig(broadcast=True, abort_on_fail=True, manufacturing_yield=0.6),
    OptimizationConfig(max_sites=3),
    OptimizationConfig(min_sites=2),
    OptimizationConfig(min_sites=3, max_sites=6, broadcast=True),
)


class TestCertificateParity:
    """The batched certificate scan equals the scalar oracle field for field."""

    @pytest.fixture
    def cells(self, tiny_soc, d695, small_ate, probe, lossy_probe):
        synthetic = resolve_catalog_soc("synthetic:42:8")
        return (
            (tiny_soc, small_ate, probe),
            (tiny_soc, small_ate, lossy_probe),
            (d695, AteSpec(channels=256, depth=kilo_vectors(88), name="ate-table1"), lossy_probe),
            (synthetic, AteSpec(channels=512, depth=2_000_000, frequency_hz=5e6), probe),
        )

    def _assert_parity(self, cells, objective):
        checked = 0
        for soc, ate, probe_station in cells:
            for config in PARITY_CONFIGS:
                expected = _scalar_certificate(soc, ate, probe_station, config, objective)
                # Bypass the lru_cache: the forced-scalar run must recompute.
                cert = bounds._certificate.__wrapped__(
                    soc, ate, probe_station, config, objective
                )
                if expected is None:
                    assert cert is None, (soc.name, config, objective)
                    continue
                actual = (cert.value, cert.sites, cert.channels_per_site, cert.test_time_cycles)
                assert actual == expected, (soc.name, config, objective)
                assert cert.objective == objective
                checked += 1
        assert checked > 0

    def test_batched_scan_matches_scalar_oracle(self, cells, objective):
        self._assert_parity(cells, objective)

    def test_scalar_fallback_matches_scalar_oracle(self, cells, objective, monkeypatch):
        monkeypatch.setattr(evaluate, "ScenarioBatch", None)
        self._assert_parity(cells, objective)

    def test_zero_yield_certifies_no_cost(self, tiny_soc, small_ate, probe):
        # Every pair costs inf per good die, so no signed value beats -inf.
        config = OptimizationConfig(manufacturing_yield=0.0)
        assert bounds._certificate.__wrapped__(
            tiny_soc, small_ate, probe, config, "cost_per_good_die"
        ) is None
