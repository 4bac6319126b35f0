"""Vectorised array twins of the built-in objective backends.

Each function here evaluates a whole
:class:`~repro.multisite.batch.ScenarioBatch` at once and is registered
next to the scalar backend of the same name via
:func:`~repro.objectives.registry.register_array_backend`.  The contract is
bit-identity: every expression performs the same IEEE-754 double operations
in the same order as the scalar backend, so the evaluation kernel may route
any point through either path without changing a single output byte (the
kernel equivalence test suite pins this).

:mod:`repro.objectives.backends` attaches these once its scalar backends
are registered.
"""

from __future__ import annotations

import numpy as np

from repro.ate.spec import AteSpec
from repro.multisite.batch import ScenarioBatch
from repro.objectives.registry import register_array_backend
from repro.optimize.config import Objective, OptimizationConfig


def _evaluate_throughput_array(
    batch: ScenarioBatch, config: OptimizationConfig, ate: AteSpec
) -> np.ndarray:
    """Array twin of ``throughput``: ``D_th``, or ``D^u_th`` under re-test."""
    if config.objective is Objective.UNIQUE_THROUGHPUT:
        return batch.unique_throughput(abort_on_fail=config.abort_on_fail)
    return batch.throughput(abort_on_fail=config.abort_on_fail)


def _evaluate_test_time_array(
    batch: ScenarioBatch, config: OptimizationConfig, ate: AteSpec
) -> np.ndarray:
    """Array twin of ``test_time``: ``t_t`` per touchdown, in seconds."""
    return batch.test_time_s(abort_on_fail=config.abort_on_fail)


def _total_channels_used_array(
    channels_per_site: np.ndarray, sites: np.ndarray, broadcast: bool
) -> np.ndarray:
    """Array twin of :func:`~repro.optimize.channels.total_channels_used`."""
    half = channels_per_site // 2
    if broadcast:
        return half + sites * half
    return sites * channels_per_site


def _evaluate_cost_per_good_die_array(
    batch: ScenarioBatch, config: OptimizationConfig, ate: AteSpec
) -> np.ndarray:
    """Array twin of ``cost_per_good_die`` (inf where no good dies emerge)."""
    from repro.objectives.backends import DEFAULT_PRICING, DEPRECIATION_HOURS

    employed = _total_channels_used_array(
        batch.channels_per_site, batch.sites, config.broadcast
    )
    capital = employed * (
        DEFAULT_PRICING.price_per_channel()
        + ate.depth * DEFAULT_PRICING.price_per_vector_per_channel()
    )
    good_dies_per_hour = (
        batch.throughput(abort_on_fail=config.abort_on_fail) * batch.manufacturing_yield
    )
    values = np.full(len(batch), np.inf, dtype=np.float64)
    positive = good_dies_per_hour > 0.0
    np.divide(
        capital, DEPRECIATION_HOURS * good_dies_per_hour, out=values, where=positive
    )
    return values


def _evaluate_channel_budget_array(
    batch: ScenarioBatch, config: OptimizationConfig, ate: AteSpec
) -> np.ndarray:
    """Array twin of ``channel_budget``: devices/hour per employed channel."""
    return batch.throughput(abort_on_fail=config.abort_on_fail) / _total_channels_used_array(
        batch.channels_per_site, batch.sites, config.broadcast
    )


def attach() -> None:
    """Register every array backend next to its scalar twin (idempotent)."""
    register_array_backend("throughput", _evaluate_throughput_array)
    register_array_backend("test_time", _evaluate_test_time_array)
    register_array_backend("cost_per_good_die", _evaluate_cost_per_good_die_array)
    register_array_backend("channel_budget", _evaluate_channel_budget_array)
