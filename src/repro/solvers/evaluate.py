"""Shared memoized evaluation kernel for ``(design, sites)`` points.

Before this module existed, :mod:`repro.optimize.step2`,
:mod:`repro.experiments.figure7` and the throughput call sites each
re-derived the same evaluation -- build the :class:`~repro.multisite.
cost_model.TestTiming` from an architecture and a test cell, bundle it into
a :class:`~repro.multisite.throughput.MultiSiteScenario`, and evaluate the
configured objective.  The kernel centralises that derivation and memoises
it on the ``(architecture, sites, ate, probe station, config, objective)``
tuple, so a Step-2 sweep (and every solver backend that sweeps candidate
architectures, like the multi-start solver) computes each point exactly
once per process.

The kernel is *batch-first*: :func:`evaluate_points` evaluates a whole
Step-2 site-count range in one pass -- the per-site channel budgets are
precomputed, the channel redistribution is *incremental* (each site count
widens the previous site count's architecture instead of rebuilding from
the Step-1 design; bit-identical because the greedy bottleneck widening
only depends on the current state and the budgets grow monotonically as
sites are given up), and the objective math runs vectorised over the
candidate site counts through the numpy array forms in
:mod:`repro.multisite.batch` when numpy is available.  The scalar
:func:`evaluate_point` and the single-move :func:`evaluate_move` (the API a
simulated-annealing / local-search backend needs) share the same memo, so
every entry point sees the same cache.

All memo-key inputs are frozen dataclasses with cached structural
fingerprints (:mod:`repro.core.fingerprint`) plus the objective's registry
name, so lookups hash precomputed ints.  The memo is a bounded LRU;
:func:`cache_info` / :func:`clear_cache` expose it (hits, misses and batch
statistics) for tests, the bench telemetry and diagnostics.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.ate.probe_station import ProbeStation
from repro.ate.spec import AteSpec
from repro.core.exceptions import ConfigurationError
from repro.multisite.cost_model import TestTiming
from repro.multisite.throughput import MultiSiteScenario
from repro.objectives.registry import DEFAULT_OBJECTIVE, ObjectiveSpec, get_objective
from repro.optimize.channels import max_channels_per_site
from repro.optimize.config import Objective, OptimizationConfig
from repro.soc.module import Module
from repro.tam.architecture import TestArchitecture
from repro.tam.redistribution import widen_to_channel_budget

try:  # numpy powers the vectorised objective math; scalar fallback without.
    from repro.multisite.batch import ScenarioBatch
except ImportError:  # pragma: no cover - exercised only without numpy
    ScenarioBatch = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimize.result import Step1Result

#: Upper bound on memoised points; generous for every sweep in the repo
#: while keeping a runaway synthetic sweep from exhausting memory.
EVALUATE_CACHE_SIZE = 65_536


def timing_for(architecture: TestArchitecture, ate: AteSpec, probe_station: ProbeStation) -> TestTiming:
    """Touchdown timing of ``architecture`` on the given test cell."""
    return TestTiming(
        index_time_s=probe_station.index_time_s,
        contact_test_time_s=probe_station.contact_test_time_s,
        manufacturing_test_time_s=ate.cycles_to_seconds(architecture.test_time_cycles),
    )


def scenario_for(
    architecture: TestArchitecture,
    sites: int,
    ate: AteSpec,
    probe_station: ProbeStation,
    config: OptimizationConfig,
) -> MultiSiteScenario:
    """Build the multi-site throughput scenario for a design at a site count."""
    return MultiSiteScenario(
        sites=sites,
        timing=timing_for(architecture, ate, probe_station),
        channels_per_site=architecture.ate_channels,
        contact_yield=probe_station.contact_yield,
        manufacturing_yield=config.manufacturing_yield,
    )


def objective_value(scenario: MultiSiteScenario, config: OptimizationConfig) -> float:
    """Evaluate the classic throughput objective (``D_th`` or ``D^u_th``).

    Kept as the registry-free shortcut for call sites that explicitly want
    the paper's throughput numbers (figure baselines, reports); solvers go
    through :func:`evaluate_point`, which dispatches on the registered
    objective name instead.
    """
    if config.objective is Objective.UNIQUE_THROUGHPUT:
        return scenario.unique_throughput(abort_on_fail=config.abort_on_fail)
    return scenario.throughput(abort_on_fail=config.abort_on_fail)


@dataclass(frozen=True)
class EvaluatedPoint:
    """One memoised evaluation of a design at a site count.

    ``objective`` is the raw value of the evaluated objective; ``score`` is
    its :meth:`~repro.objectives.registry.ObjectiveSpec.signed` form, which
    solvers maximise regardless of the objective's sense.  Kernel-produced
    points additionally carry the test cell and config they were evaluated
    under plus the objective's registry name, so incremental re-evaluation
    (:func:`evaluate_move`) needs nothing but the point itself.
    """

    architecture: TestArchitecture
    sites: int
    scenario: MultiSiteScenario
    objective: float
    score: float = 0.0
    ate: AteSpec | None = None
    probe_station: ProbeStation | None = None
    config: OptimizationConfig | None = None
    objective_name: str = DEFAULT_OBJECTIVE


@dataclass(frozen=True)
class KernelCacheInfo:
    """Statistics of the kernel memo, in the :func:`functools.lru_cache`
    shape (``hits`` / ``misses`` / ``maxsize`` / ``currsize``) plus the
    batch-entry counters the bench telemetry reports.

    ``batch_calls`` counts :func:`evaluate_batch` / :func:`evaluate_points`
    invocations, ``batch_points`` the points they requested (hits and
    misses alike) and ``max_batch`` the largest single batch.
    """

    hits: int
    misses: int
    maxsize: int
    currsize: int
    batch_calls: int = 0
    batch_points: int = 0
    max_batch: int = 0


_memo: "OrderedDict[tuple, EvaluatedPoint]" = OrderedDict()
_hits = 0
_misses = 0
_batch_calls = 0
_batch_points = 0
_max_batch = 0


def _memo_get(key: tuple) -> EvaluatedPoint | None:
    """Memo lookup counting a hit or a miss (hits refresh LRU recency)."""
    global _hits, _misses
    point = _memo.get(key)
    if point is not None:
        _memo.move_to_end(key)
        _hits += 1
    else:
        _misses += 1
    return point


def _memo_put(key: tuple, point: EvaluatedPoint) -> None:
    _memo[key] = point
    if len(_memo) > EVALUATE_CACHE_SIZE:
        _memo.popitem(last=False)


def _compute_point(
    architecture: TestArchitecture,
    sites: int,
    ate: AteSpec,
    probe_station: ProbeStation,
    config: OptimizationConfig,
    spec: ObjectiveSpec,
    value: float | None = None,
) -> EvaluatedPoint:
    """Build the :class:`EvaluatedPoint` for one configuration.

    ``value`` is passed in when the objective was already evaluated by the
    vectorised batch path; otherwise the scalar backend runs here.
    """
    scenario = scenario_for(architecture, sites, ate, probe_station, config)
    if value is None:
        value = spec.value(scenario, config, ate)
    return EvaluatedPoint(
        architecture=architecture,
        sites=sites,
        scenario=scenario,
        objective=value,
        score=spec.signed(value),
        ate=ate,
        probe_station=probe_station,
        config=config,
        objective_name=spec.name,
    )


def evaluate_point(
    architecture: TestArchitecture,
    sites: int,
    ate: AteSpec,
    probe_station: ProbeStation,
    config: OptimizationConfig,
    objective: str = DEFAULT_OBJECTIVE,
) -> EvaluatedPoint:
    """Evaluate one ``(design, sites)`` point, memoised per process.

    ``objective`` names a registered objective (:mod:`repro.objectives`);
    the default is the paper's throughput.  The returned
    :class:`EvaluatedPoint` carries the scenario (timing, yields), the raw
    objective value and its sense-signed score, so callers never rebuild
    any of them.
    """
    key = (architecture, sites, ate, probe_station, config, objective)
    point = _memo_get(key)
    if point is None:
        point = _compute_point(
            architecture, sites, ate, probe_station, config, get_objective(objective)
        )
        _memo_put(key, point)
    return point


def objective_values(
    sites: Sequence[int],
    channels_per_site: Sequence[int],
    manufacturing_test_time_s: Sequence[float],
    ate: AteSpec,
    probe_station: ProbeStation,
    config: OptimizationConfig,
    spec: ObjectiveSpec,
) -> list[float]:
    """Objective values of many configurations sharing one test cell.

    Point ``i`` is ``sites[i]`` sites of ``channels_per_site[i]`` channels
    each, testing for ``manufacturing_test_time_s[i]`` seconds.  The array
    path is taken when numpy is importable, the objective registered an
    array backend, and the batch is big enough to amortise the array
    construction; validation of the shared test-cell parameters then
    happens once, in the :class:`~repro.multisite.batch.ScenarioBatch`
    constructor, instead of once per point.  Otherwise every point runs
    through the scalar backend.  Both paths are bit-identical (the kernel
    equivalence suite pins it), so callers never branch on which ran.

    This is the one batch-objective entry point: :func:`evaluate_batch`
    and the certificate scan in :mod:`repro.solvers.bounds` both use it.
    """
    if ScenarioBatch is not None and spec.array_backend is not None and len(sites) >= 2:
        import numpy as np

        batch = ScenarioBatch(
            sites=np.array(sites, dtype=np.int64),
            channels_per_site=np.array(channels_per_site, dtype=np.int64),
            manufacturing_test_time_s=np.array(manufacturing_test_time_s, dtype=np.float64),
            index_time_s=probe_station.index_time_s,
            contact_test_time_s=probe_station.contact_test_time_s,
            contact_yield=probe_station.contact_yield,
            manufacturing_yield=config.manufacturing_yield,
        )
        return [float(value) for value in spec.value_batch(batch, config, ate)]
    return [
        spec.value(
            MultiSiteScenario(
                sites=count,
                timing=TestTiming(
                    index_time_s=probe_station.index_time_s,
                    contact_test_time_s=probe_station.contact_test_time_s,
                    manufacturing_test_time_s=seconds,
                ),
                channels_per_site=channels,
                contact_yield=probe_station.contact_yield,
                manufacturing_yield=config.manufacturing_yield,
            ),
            config,
            ate,
        )
        for count, channels, seconds in zip(sites, channels_per_site, manufacturing_test_time_s)
    ]


def evaluate_batch(
    pairs: Iterable[tuple[TestArchitecture, int]],
    ate: AteSpec,
    probe_station: ProbeStation,
    config: OptimizationConfig,
    objective: str = DEFAULT_OBJECTIVE,
) -> tuple[EvaluatedPoint, ...]:
    """Evaluate many ``(architecture, sites)`` pairs against one test cell.

    Memo hits are served straight from the cache; the misses are evaluated
    together through the objective's vectorised array backend (scalar
    fallback when numpy or the array form is unavailable).  Results come
    back in input order and are bit-identical to per-point
    :func:`evaluate_point` calls -- the array forms perform the same
    IEEE-754 double operations in the same order, which the kernel
    equivalence test suite pins.
    """
    global _batch_calls, _batch_points, _max_batch
    pairs = list(pairs)
    _batch_calls += 1
    _batch_points += len(pairs)
    if len(pairs) > _max_batch:
        _max_batch = len(pairs)

    spec = get_objective(objective)
    results: list[EvaluatedPoint | None] = [None] * len(pairs)
    keys: list[tuple] = []
    missing: list[int] = []
    for position, (architecture, sites) in enumerate(pairs):
        key = (architecture, sites, ate, probe_station, config, objective)
        keys.append(key)
        point = _memo_get(key)
        if point is None:
            missing.append(position)
        else:
            results[position] = point

    if missing:
        missing_pairs = [pairs[position] for position in missing]
        values = objective_values(
            [sites for _, sites in missing_pairs],
            [architecture.ate_channels for architecture, _ in missing_pairs],
            [
                ate.cycles_to_seconds(architecture.test_time_cycles)
                for architecture, _ in missing_pairs
            ],
            ate,
            probe_station,
            config,
            spec,
        )
        for position, value in zip(missing, values):
            architecture, sites = pairs[position]
            point = _compute_point(
                architecture, sites, ate, probe_station, config, spec, value
            )
            _memo_put(keys[position], point)
            results[position] = point
    return tuple(results)  # type: ignore[arg-type]


def evaluate_points(
    step1: "Step1Result",
    sites_range: Iterable[int],
    objective: str = DEFAULT_OBJECTIVE,
) -> tuple[EvaluatedPoint, ...]:
    """Evaluate a whole Step-2 site-count range in one pass.

    For every candidate site count the per-site channel budget follows from
    the ATE channel count and the broadcast mode; the Step-1 architecture
    is widened to that budget by bottleneck redistribution.  The widening
    is *incremental*: site counts are processed in descending order, and
    each architecture is widened from the previous (smaller-budget) one
    rather than rebuilt from the Step-1 design.  This is bit-identical to
    the from-scratch widening because the greedy one-wire-at-a-time
    bottleneck choice depends only on the current architecture, and the
    channel budgets grow monotonically as sites are given up -- widening to
    budget ``b1`` and then to ``b2 >= b1`` performs exactly the wire
    assignments of widening straight to ``b2``.

    Returns one :class:`EvaluatedPoint` per requested site count, in input
    order.  Raises :class:`~repro.core.exceptions.ConfigurationError` for
    site counts outside ``[1, step1.max_sites]``.
    """
    site_counts = list(sites_range)
    for sites in site_counts:
        if sites <= 0:
            raise ConfigurationError(f"site count must be positive, got {sites}")
        if sites > step1.max_sites:
            raise ConfigurationError(
                f"site count {sites} exceeds the Step-1 maximum of {step1.max_sites}"
            )

    channels = step1.ate.channels
    broadcast = step1.config.broadcast
    architectures: dict[int, TestArchitecture] = {}
    current = step1.architecture
    for sites in sorted(set(site_counts), reverse=True):
        budget = max_channels_per_site(channels, sites, broadcast)
        current = widen_to_channel_budget(current, budget)
        architectures[sites] = current

    pairs = [(architectures[sites], sites) for sites in site_counts]
    points = evaluate_batch(pairs, step1.ate, step1.probe_station, step1.config, objective)
    # A memo hit may return a point computed from an *equal but distinct*
    # architecture earlier in the process.  Rebind such points to this
    # call's architectures so every point of one Step-2 result shares the
    # caller's object graph (the store codec's interning relies on the
    # SOC appearing once per result, by identity).
    return tuple(
        point
        if point.architecture is architecture
        else replace(point, architecture=architecture)
        for point, (architecture, _) in zip(points, pairs)
    )


def evaluate_move(point: EvaluatedPoint, module: Module | str, delta: int) -> EvaluatedPoint:
    """Incrementally re-evaluate ``point`` after one module-width move.

    This is the primitive a simulated-annealing / local-search backend
    needs: change the width of the channel group that tests ``module`` by
    ``delta`` TAM wires and re-evaluate the point.  Only the resized
    group's timing is recomputed -- the architecture update shares the
    untouched :class:`~repro.tam.channel_group.ChannelGroup` objects, whose
    fills are cached -- and the result lands in (and is served from) the
    same memo as every other kernel entry point, so undoing a move is a
    cache hit.

    ``module`` is a :class:`~repro.soc.module.Module` or a module name;
    ``delta`` may be negative.  The move is purely structural: the caller
    owns channel-budget feasibility of the resulting architecture (the
    returned point's ``architecture.ate_channels`` says what it now needs).

    Raises
    ------
    ConfigurationError
        If the point was built by hand without its test cell, or the move
        would make the group width non-positive.
    KeyError
        If ``module`` is not assigned to any group of the architecture.
    """
    if point.ate is None or point.probe_station is None or point.config is None:
        raise ConfigurationError(
            "evaluate_move needs a kernel-produced point carrying its test cell"
        )
    name = module.name if isinstance(module, Module) else module
    group = point.architecture.group_of(name)
    width = group.width + delta
    if width <= 0:
        raise ConfigurationError(
            f"move of {delta:+d} wires would give group {group.index} "
            f"width {width}; widths must stay positive"
        )
    if delta == 0:
        return point
    moved = point.architecture.with_group_width(group.index, width)
    return evaluate_point(
        moved, point.sites, point.ate, point.probe_station, point.config, point.objective_name
    )


def cache_info() -> KernelCacheInfo:
    """Hit/miss and batch statistics of the evaluation kernel's memo cache."""
    return KernelCacheInfo(
        hits=_hits,
        misses=_misses,
        maxsize=EVALUATE_CACHE_SIZE,
        currsize=len(_memo),
        batch_calls=_batch_calls,
        batch_points=_batch_points,
        max_batch=_max_batch,
    )


def drop_memo() -> None:
    """Drop every memoised evaluation but keep the cumulative counters.

    The bench runner uses this to force a cold compute leg without making
    the process-wide counter deltas go backwards mid-report.
    """
    _memo.clear()


def clear_cache() -> None:
    """Drop every memoised evaluation and reset the counters (used by tests)."""
    global _hits, _misses, _batch_calls, _batch_points, _max_batch
    _memo.clear()
    _hits = _misses = _batch_calls = _batch_points = _max_batch = 0
