"""Campaign analysis: metrics, group-by summaries, best-per-SOC, Pareto.

Everything here is a pure, deterministic function from
:class:`~repro.analysis.records.AnalysisRecord` tuples to either record
selections or :class:`~repro.reporting.tables.Table` views, so the same
campaign data always renders the same report -- the property the pinned
d695 analysis tests rely on.

Metrics are named extractors with an optimisation sense, mirroring the
objective registry one level down: ``time`` and ``cost`` are minimised,
``throughput`` and ``sites`` maximised.  The ``cost`` metric values the
employed ATE capacity (optimal sites x channels per site, at the machine's
vector depth) with the Section-7 street prices -- the same valuation the
``cost_per_good_die`` objective uses -- so objective sweeps and analysis
agree on what a configuration costs.

The aggregations (:func:`group_summary`, :func:`best_per_soc`,
:func:`pareto_front`) are pure Python on purpose: at 100k records numpy
buys the three of them together at most ~1.3x, too little to carry a second
implementation.  The Pareto front is an O(n log n) sort sweep.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis.records import AnalysisRecord
from repro.ate.pricing import AtePricing
from repro.core.exceptions import ConfigurationError
from repro.reporting.tables import Table

#: Street-price model the ``cost`` metric values employed capacity with.
_PRICING = AtePricing()


@dataclass(frozen=True)
class Metric:
    """One named per-record metric with an optimisation sense."""

    name: str
    title: str
    sense: str  # "max" | "min"
    extract: Callable[[AnalysisRecord], float]

    def signed(self, record: AnalysisRecord) -> float:
        """The metric in minimise convention (used by Pareto dominance)."""
        value = self.extract(record)
        return -value if self.sense == "max" else value


METRICS: dict[str, Metric] = {
    metric.name: metric
    for metric in (
        Metric(
            "time",
            title="optimal test time (cycles)",
            sense="min",
            extract=lambda record: float(record.test_time_cycles),
        ),
        Metric(
            "cost",
            title="employed ATE capital (USD)",
            sense="min",
            extract=lambda record: _PRICING.capital_cost_usd(
                record.employed_channels, record.depth
            ),
        ),
        Metric(
            "throughput",
            title="objective value at the optimum",
            sense="max",
            extract=lambda record: record.value,
        ),
        Metric(
            "sites",
            title="optimal number of sites",
            sense="max",
            extract=lambda record: float(record.optimal_sites),
        ),
        Metric(
            "channels",
            title="ATE channels of the operating point",
            sense="min",
            extract=lambda record: float(record.channels),
        ),
        Metric(
            "depth",
            title="vector-memory depth of the operating point",
            sense="min",
            extract=lambda record: float(record.depth),
        ),
    )
}

#: Record fields a summary can group on, with their accessors.
GROUP_COLUMNS: dict[str, Callable[[AnalysisRecord], object]] = {
    "soc": lambda record: record.soc,
    "solver": lambda record: record.solver,
    "objective": lambda record: record.objective,
    "channels": lambda record: record.channels,
    "depth": lambda record: record.depth,
    "broadcast": lambda record: record.broadcast,
}


def get_metric(name: str) -> Metric:
    """Look a metric up by name.

    Raises
    ------
    ConfigurationError
        When no metric of that name exists.
    """
    if name not in METRICS:
        known = ", ".join(sorted(METRICS))
        raise ConfigurationError(f"unknown metric {name!r}; available: {known}")
    return METRICS[name]


def records_table(records: Sequence[AnalysisRecord], title: str = "Campaign records") -> Table:
    """The full columnar view: one row per record, in deterministic order."""
    table = Table(
        title=title,
        columns=[
            "SOC",
            "solver",
            "objective",
            "N",
            "depth",
            "bcast",
            "n_opt",
            "k",
            "t (cycles)",
            "value",
            "gap",
            "cost (USD)",
        ],
    )
    cost = METRICS["cost"]
    for record in records:
        gap = record.gap
        table.add_row(
            [
                record.soc,
                record.solver,
                record.objective,
                record.channels,
                record.depth,
                "on" if record.broadcast else "off",
                record.optimal_sites,
                record.channels_per_site,
                record.test_time_cycles,
                f"{record.value:.4g}",
                "-" if gap is None else f"{gap:.2%}",
                round(cost.extract(record), 2),
            ]
        )
    return table


def group_summary(
    records: Sequence[AnalysisRecord], by: str, metric_name: str = "throughput"
) -> Table:
    """Group records by a column and summarise one metric per group.

    Groups are emitted in sorted order; each row carries the group's record
    count and the metric's min / mean / max.
    """
    if by not in GROUP_COLUMNS:
        known = ", ".join(sorted(GROUP_COLUMNS))
        raise ConfigurationError(f"cannot group by {by!r}; available: {known}")
    metric = get_metric(metric_name)
    accessor = GROUP_COLUMNS[by]
    table = Table(
        title=f"{metric.title} by {by}",
        columns=[by, "records", "min", "mean", "max"],
    )
    groups: dict[object, list[float]] = {}
    for record in records:
        groups.setdefault(accessor(record), []).append(metric.extract(record))
    for group in sorted(groups, key=repr):
        values = groups[group]
        table.add_row(
            [
                group,
                len(values),
                f"{min(values):.4g}",
                f"{statistics.fmean(values):.4g}",
                f"{max(values):.4g}",
            ]
        )
    return table


def best_per_soc(
    records: Sequence[AnalysisRecord], metric_name: str = "throughput"
) -> tuple[AnalysisRecord, ...]:
    """The metric-best record of every SOC, one row per SOC, sorted by SOC.

    Ties resolve towards the record that sorts first in the deterministic
    record order, so the selection never depends on input order.
    """
    metric = get_metric(metric_name)
    best: dict[str, tuple[float, AnalysisRecord]] = {}
    for record in sorted(records, key=AnalysisRecord.sort_key):
        signed = metric.signed(record)
        incumbent = best.get(record.soc)
        if incumbent is None or signed < incumbent[0]:
            best[record.soc] = (signed, record)
    return tuple(best[name][1] for name in sorted(best))


def pareto_front(
    records: Sequence[AnalysisRecord], x_metric: str, y_metric: str
) -> tuple[AnalysisRecord, ...]:
    """The 2-D Pareto front of the records under two named metrics.

    A record is on the front when no other record is at least as good in
    both metrics and strictly better in one (each metric's sense decides
    what "better" means).  Records with identical metric pairs are all
    kept.  The front is returned in deterministic order: ascending in the
    x metric's minimise convention, ties broken by the y value and then by
    the record sort order.

    One sort sweep finds it: ordered by (x, y) in minimise convention, a
    point is dominated iff the minimum y over strictly smaller x is <= its
    y, or the minimum y within its own x-run (the run's first y) is < its y.
    """
    if x_metric == y_metric:
        raise ConfigurationError("pareto needs two different metrics")
    x_spec, y_spec = get_metric(x_metric), get_metric(y_metric)
    valued = sorted(
        (
            (x_spec.signed(record), y_spec.signed(record), record.sort_key(), record)
            for record in records
        ),
        key=lambda item: item[:3],
    )
    front = []
    best_smaller: float | None = None  # minimum y over strictly smaller x
    run_x = run_min = None
    for x, y, _, record in valued:
        if x != run_x:
            if run_min is not None and (best_smaller is None or run_min < best_smaller):
                best_smaller = run_min
            run_x, run_min = x, y
        if run_min < y or (best_smaller is not None and best_smaller <= y):
            continue
        front.append(record)
    return tuple(front)


def pareto_table(
    records: Sequence[AnalysisRecord], x_metric: str, y_metric: str
) -> Table:
    """Render :func:`pareto_front` as a table (front order, raw values)."""
    x_spec, y_spec = get_metric(x_metric), get_metric(y_metric)
    table = Table(
        title=f"Pareto front: {x_metric} ({x_spec.sense}) vs {y_metric} ({y_spec.sense})",
        columns=["SOC", "solver", "objective", "N", "depth", "n_opt", "k",
                 x_metric, y_metric],
    )
    for record in pareto_front(records, x_metric, y_metric):
        table.add_row(
            [
                record.soc,
                record.solver,
                record.objective,
                record.channels,
                record.depth,
                record.optimal_sites,
                record.channels_per_site,
                f"{x_spec.extract(record):.4g}",
                f"{y_spec.extract(record):.4g}",
            ]
        )
    return table


def best_table(
    records: Sequence[AnalysisRecord], metric_name: str = "throughput"
) -> Table:
    """Render :func:`best_per_soc` as a table."""
    metric = get_metric(metric_name)
    table = Table(
        title=f"Best per SOC by {metric_name} ({metric.sense})",
        columns=["SOC", "solver", "objective", "N", "depth", "n_opt", "k", metric_name],
    )
    for record in best_per_soc(records, metric_name):
        table.add_row(
            [
                record.soc,
                record.solver,
                record.objective,
                record.channels,
                record.depth,
                record.optimal_sites,
                record.channels_per_site,
                f"{metric.extract(record):.4g}",
            ]
        )
    return table
