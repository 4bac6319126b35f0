"""Lower-bound certificates for the test-infrastructure problem.

The 8-module :mod:`exhaustive <repro.solvers.exhaustive>` oracle cannot say
anything about solution quality on the ITC'02 benchmarks or the large
``synthetic:*`` chips.  This module closes that gap with a *certificate*:
an objective value that provably cannot be beaten by any feasible design,
derived from two classic relaxations of the channel-group model:

* **per-module test-time bound** -- with a total TAM width of ``W`` wires,
  every module runs at a wrapper width of at most ``W``, so the SOC test
  time is at least the largest per-module minimum test time over widths
  ``<= W`` (a consequence of the staircase wrapper model, see
  :mod:`repro.wrapper.pareto`);
* **channel-capacity bound** -- ``W`` wires over ``T`` cycles provide
  ``W * T`` channel*cycle units, while every module consumes at least the
  area of its cheapest depth-feasible Pareto point, so
  ``T >= ceil(sum(min areas) / W)``.

For every admissible combination of site count ``n`` and per-site channel
count ``k = 2 * W`` the certificate evaluates the objective at the relaxed
test time ``T_min(W) = max(time bound, capacity bound)`` and keeps the best
(sense-signed) value.  The scan collects every admissible ``(n, W)`` pair
first and evaluates them all in one call to the evaluation kernel's batch
helper (:func:`~repro.solvers.evaluate.objective_values`), which routes
through the objective's numpy array backend when one is available and is
bit-identical to per-pair scalar evaluation.  Because every built-in
objective satisfies the monotonicity contract *"for a fixed site count,
channel count and yields, the objective never improves as the
manufacturing test time grows"*, the result certifies the optimum: no
feasible design -- under any solver -- can achieve a signed score above the
certificate's.  Custom objectives must honour the same contract for their
certificates to be sound.

The raw ``value`` keeps the objective's natural orientation: for a
minimised objective (test time, cost per good die) it is a literal lower
bound, for a maximised one (throughput) it is a certified upper bound; in
both cases ``signed(value) >= signed(optimum)``.  Solvers and the analysis
layer report the relative optimality gap via :func:`relative_gap`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.ate.probe_station import ProbeStation
from repro.ate.spec import AteSpec
from repro.core.exceptions import ConfigurationError
from repro.objectives.registry import get_objective
from repro.optimize.channels import max_channels_per_site
from repro.optimize.config import OptimizationConfig
from repro.soc.soc import Soc
from repro.solvers.evaluate import objective_values
from repro.wrapper.pareto import pareto_points

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.scenario import Scenario
    from repro.solvers.problem import TestInfraProblem

#: Number of distinct ``(soc, ate, probe, config, objective)`` certificates
#: kept.  The key holds the whole ATE (channels and depth), so every point
#: of a channel/depth sweep is its own entry: the cache only pays off when
#: the same operating point is certified again (analysis re-scans, solver
#: gap reports after a sweep), not across the points of one sweep.
CERTIFICATE_CACHE_SIZE = 4096


@dataclass(frozen=True)
class BoundCertificate:
    """A certified bound on the achievable objective value.

    Attributes
    ----------
    objective:
        Registry name of the certified objective.
    sense:
        The objective's optimisation sense (``"max"`` or ``"min"``).
    value:
        The bound in the objective's raw units: no feasible design can beat
        it (``signed(value) >= signed(any feasible value)``).
    sites:
        Site count of the relaxed configuration that attains the bound.
    channels_per_site:
        Per-site channel count of that configuration.
    test_time_cycles:
        The relaxed SOC test time the bound was evaluated at.
    """

    objective: str
    sense: str
    value: float
    sites: int
    channels_per_site: int
    test_time_cycles: int

    @property
    def signed_value(self) -> float:
        """The bound on the solvers' maximise-convention scale."""
        return self.value if self.sense == "max" else -self.value

    def describe(self) -> str:
        """One-line summary used by reports and logs."""
        return (
            f"bound[{self.objective}]: {self.value:.4g} at n={self.sites}, "
            f"k={self.channels_per_site}, t>={self.test_time_cycles} cycles"
        )


def _relaxed_test_times(soc: Soc, depth: int, width_cap: int) -> list[int | None]:
    """Minimum achievable SOC test time for every total TAM width.

    Returns a list indexed by total width ``W`` (entry 0 unused) whose entry
    is the relaxed test-time bound ``T_min(W)`` described in the module
    docstring, or ``None`` when no design of total width ``W`` can fit the
    vector-memory ``depth`` (some module has no depth-feasible wrapper
    width ``<= W``, or the bound itself exceeds the depth).
    """
    slowest = [0] * (width_cap + 1)
    area_sum: list[int | None] = [0] * (width_cap + 1)
    for module in soc.modules:
        frontier = pareto_points(module, width_cap)
        position = 0
        time = None
        best_area: int | None = None
        for width in range(1, width_cap + 1):
            while position < len(frontier) and frontier[position].width <= width:
                point = frontier[position]
                time = point.test_time_cycles
                if point.test_time_cycles <= depth:
                    if best_area is None or point.area < best_area:
                        best_area = point.area
                position += 1
            # Width 1 is always on the frontier, so `time` is set from here on.
            if time > slowest[width]:
                slowest[width] = time
            if best_area is None:
                area_sum[width] = None
            elif area_sum[width] is not None:
                area_sum[width] += best_area

    times: list[int | None] = [None] * (width_cap + 1)
    for width in range(1, width_cap + 1):
        area = area_sum[width]
        if area is None:
            continue
        bound = max(slowest[width], -(-area // width))
        if bound <= depth:
            times[width] = bound
    return times


@lru_cache(maxsize=CERTIFICATE_CACHE_SIZE)
def _certificate(
    soc: Soc,
    ate: AteSpec,
    probe_station: ProbeStation,
    config: OptimizationConfig,
    objective: str,
) -> BoundCertificate | None:
    """Compute (and cache) the certificate for one problem family.

    Returns ``None`` when the objective is unknown or the relaxation itself
    is infeasible (no width/site combination fits the ATE) -- in both cases
    there is nothing sound to certify.
    """
    try:
        spec = get_objective(objective)
    except ConfigurationError:
        return None
    width_cap = ate.channels // 2
    if width_cap < 1:
        return None
    times = _relaxed_test_times(soc, ate.depth, width_cap)
    feasible_widths = [width for width in range(1, width_cap + 1) if times[width] is not None]
    if not feasible_widths:
        return None
    narrowest = feasible_widths[0]

    # Collect every admissible (sites, width) pair, sites-major and
    # width-minor, then evaluate them all in one batch.
    pair_sites: list[int] = []
    pair_widths: list[int] = []
    sites = max(1, config.min_sites)
    while config.max_sites is None or sites <= config.max_sites:
        # The per-site budget shrinks as sites grow; once even the
        # narrowest feasible width no longer fits, no larger site count can.
        site_cap = min(max_channels_per_site(ate.channels, sites, config.broadcast) // 2, width_cap)
        if site_cap < narrowest:
            break
        widths = feasible_widths[: bisect_right(feasible_widths, site_cap)]
        pair_sites.extend([sites] * len(widths))
        pair_widths.extend(widths)
        sites += 1
    if not pair_sites:
        return None

    seconds = {width: ate.cycles_to_seconds(times[width]) for width in feasible_widths}
    values = objective_values(
        pair_sites,
        [2 * width for width in pair_widths],
        [seconds[width] for width in pair_widths],
        ate,
        probe_station,
        config,
        spec,
    )
    # Strict first maximum: ties keep the earliest pair, NaN never wins, and
    # a scan whose every signed value is -inf certifies nothing.
    best: int | None = None
    best_signed = -math.inf
    for index, value in enumerate(values):
        signed = spec.signed(value)
        if signed > best_signed:
            best_signed = signed
            best = index
    if best is None:
        return None
    width = pair_widths[best]
    return BoundCertificate(
        objective=spec.name,
        sense=spec.sense,
        value=values[best],
        sites=pair_sites[best],
        channels_per_site=2 * width,
        test_time_cycles=times[width],
    )


def certificate(
    soc: Soc,
    ate: AteSpec,
    probe_station: ProbeStation,
    config: OptimizationConfig,
    objective: str,
) -> BoundCertificate | None:
    """The bound certificate for one problem family, or ``None``.

    Cosmetic labels of the test cell are blanked before the cache lookup,
    so differently-named but physically identical cells share one entry.
    """
    return _certificate(
        soc,
        replace(ate, name=""),
        replace(probe_station, name=""),
        config,
        objective,
    )


def problem_certificate(problem: "TestInfraProblem") -> BoundCertificate | None:
    """The bound certificate for a solver problem, or ``None``."""
    return certificate(
        problem.soc, problem.ate, problem.probe_station, problem.config, problem.objective
    )


def problem_lower_bound(problem: "TestInfraProblem") -> float | None:
    """The certified bound of a solver problem in raw objective units."""
    cert = problem_certificate(problem)
    return None if cert is None else cert.value


def scenario_lower_bound(scenario: "Scenario") -> float | None:
    """The certified bound of an engine scenario in raw objective units.

    Resolves catalog SOC references; returns ``None`` when the reference
    cannot be resolved (e.g. a record replayed on a machine without the
    catalog entry) rather than failing the report that asked.
    """
    from repro.core.exceptions import ReproError

    try:
        soc = scenario.resolve()
    except ReproError:
        return None
    cert = certificate(
        soc,
        scenario.test_cell.ate,
        scenario.test_cell.probe_station,
        scenario.config,
        scenario.objective,
    )
    return None if cert is None else cert.value


def relative_gap(value: float, bound: float | None, objective: str) -> float | None:
    """Relative optimality gap of an achieved ``value`` against a bound.

    The gap is ``(signed(bound) - signed(value)) / |signed(bound)|`` -- 0.0
    when the solution provably attains the certificate, growing as the
    solution falls short of it.  Returns ``None`` when no bound exists, the
    bound is zero or non-finite, or the objective is unknown; tiny negative
    rounding residues are clamped to 0.0.
    """
    if bound is None:
        return None
    try:
        spec = get_objective(objective)
    except ConfigurationError:
        return None
    signed_bound = spec.signed(bound)
    if not math.isfinite(signed_bound) or signed_bound == 0.0 or not math.isfinite(value):
        return None
    return max(0.0, (signed_bound - spec.signed(value)) / abs(signed_bound))
