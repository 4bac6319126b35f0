"""Array-capable forms of the Section-4 multi-site formulas.

The scalar models in :mod:`repro.multisite.throughput`,
:mod:`repro.multisite.abort_on_fail`, :mod:`repro.multisite.retest` and
:mod:`repro.multisite.cost_model` evaluate one configuration at a time and
validate their inputs on every call.  The batch evaluation kernel
(:mod:`repro.solvers.evaluate`) instead evaluates a whole Step-2 site-count
range at once, so this module provides numpy twins of the same equations
operating on arrays of candidate site counts, with validation hoisted out
of the per-point hot loop into the :class:`ScenarioBatch` constructor.

**Bit-identity contract.**  The array forms must produce *exactly* the
bytes the scalar forms produce, point for point -- ``repro all`` digests
and store records depend on it.  Every expression below therefore performs
the same IEEE-754 double operations in the same order as its scalar twin
(numpy elementwise ``+ - * /``, ``minimum``/``maximum`` and ``power`` on
float64 match CPython's float arithmetic operation for operation).  The
kernel equivalence test suite pins this across SOCs, objectives and yield
settings.

This module is the only part of :mod:`repro.multisite` that imports numpy
(a declared dependency of the package); the scalar forms stay the
per-point path and the equivalence suite's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.multisite.throughput import SECONDS_PER_HOUR


def throughput_per_hour_array(
    sites: np.ndarray, index_time_s: float, test_time_s: np.ndarray
) -> np.ndarray:
    """Eq. 4.5 over arrays: devices tested per hour for ``sites``-site testing."""
    return SECONDS_PER_HOUR * sites / (index_time_s + test_time_s)


def site_contact_pass_probability_array(
    contact_yield: float, terminals: np.ndarray
) -> np.ndarray:
    """Array form of ``p_c^k`` for per-point terminal counts ``k``."""
    return np.power(contact_yield, terminals)


def contact_pass_probability_array(
    contact_yield: float, terminals: np.ndarray, sites: np.ndarray
) -> np.ndarray:
    """Eq. 4.2 over arrays: at least one of ``sites`` sites passes contact."""
    site_pass = site_contact_pass_probability_array(contact_yield, terminals)
    return 1.0 - np.power(1.0 - site_pass, sites)


def manufacturing_pass_probability_array(
    manufacturing_yield: float, sites: np.ndarray
) -> np.ndarray:
    """Eq. 4.3 over arrays: at least one of ``sites`` sites passes the test."""
    return 1.0 - np.power(1.0 - manufacturing_yield, sites)


def abort_on_fail_test_time_array(
    contact_test_time_s: float,
    manufacturing_test_time_s: np.ndarray,
    contact_yield: float,
    manufacturing_yield: float,
    terminals_per_site: np.ndarray,
    sites: np.ndarray,
) -> np.ndarray:
    """Eq. 4.4 over arrays: expected test time with abort-on-fail."""
    p_contact = contact_pass_probability_array(contact_yield, terminals_per_site, sites)
    p_manufacturing = manufacturing_pass_probability_array(manufacturing_yield, sites)
    return p_contact * (
        contact_test_time_s + p_manufacturing * manufacturing_test_time_s
    )


def contact_fail_rate_array(
    contact_yield: float, terminals: np.ndarray, approximate: bool = True
) -> np.ndarray:
    """Per-device contact-fail probability over arrays of terminal counts."""
    if approximate:
        return np.minimum(1.0, terminals * (1.0 - contact_yield))
    return 1.0 - site_contact_pass_probability_array(contact_yield, terminals)


def unique_throughput_array(
    throughput_per_hour: np.ndarray,
    contact_yield: float,
    terminals: np.ndarray,
    approximate: bool = True,
) -> np.ndarray:
    """Eq. 4.6 over arrays: unique devices tested per hour."""
    if approximate:
        rate = contact_fail_rate_array(contact_yield, terminals, approximate=True)
        return np.maximum(0.0, throughput_per_hour * (1.0 - rate))
    rate = contact_fail_rate_array(contact_yield, terminals, approximate=False)
    return throughput_per_hour / (1.0 + rate)


@dataclass(frozen=True, eq=False)
class ScenarioBatch:
    """A vector of multi-site configurations sharing one test cell.

    The array twin of :class:`~repro.multisite.throughput.MultiSiteScenario`:
    ``sites``, ``channels_per_site`` and the manufacturing test times vary
    per point, while the probe-station timing and the yields are shared.
    All domain validation runs once here instead of once per point.

    Attributes
    ----------
    sites:
        Site counts ``n``, one per configuration (int array).
    channels_per_site:
        ATE signal channels probed per site (``k``), one per configuration.
    manufacturing_test_time_s:
        Manufacturing (scan) test time ``t_m`` in seconds, one per
        configuration.
    index_time_s, contact_test_time_s:
        Shared probe-station timing ``t_i`` and ``t_c``.
    contact_yield, manufacturing_yield:
        Shared per-terminal contact yield ``p_c`` and per-device
        manufacturing yield ``p_m``.
    """

    sites: np.ndarray
    channels_per_site: np.ndarray
    manufacturing_test_time_s: np.ndarray
    index_time_s: float
    contact_test_time_s: float
    contact_yield: float = 1.0
    manufacturing_yield: float = 1.0

    def __post_init__(self) -> None:
        lengths = {
            len(self.sites),
            len(self.channels_per_site),
            len(self.manufacturing_test_time_s),
        }
        if len(lengths) != 1:
            raise ConfigurationError(
                f"batch axes must have equal lengths, got {sorted(lengths)}"
            )
        if len(self.sites) == 0:
            raise ConfigurationError("batch must contain at least one configuration")
        if np.any(self.sites <= 0):
            raise ConfigurationError("site counts must be positive")
        if np.any(self.channels_per_site <= 0):
            raise ConfigurationError("channels per site must be positive")
        if (
            self.index_time_s < 0
            or self.contact_test_time_s < 0
            or np.any(self.manufacturing_test_time_s < 0)
        ):
            raise ConfigurationError("times must be non-negative")
        for label, value in (
            ("contact yield", self.contact_yield),
            ("manufacturing yield", self.manufacturing_yield),
        ):
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{label} must be within [0, 1], got {value}")

    def __len__(self) -> int:
        return len(self.sites)

    def test_time_s(self, abort_on_fail: bool = False) -> np.ndarray:
        """Test application time ``t_t``, optionally with abort-on-fail."""
        if not abort_on_fail:
            return self.contact_test_time_s + self.manufacturing_test_time_s
        return abort_on_fail_test_time_array(
            self.contact_test_time_s,
            self.manufacturing_test_time_s,
            self.contact_yield,
            self.manufacturing_yield,
            self.channels_per_site,
            self.sites,
        )

    def throughput(self, abort_on_fail: bool = False) -> np.ndarray:
        """Devices tested per hour ``D_th`` (Eq. 4.5) per configuration."""
        return throughput_per_hour_array(
            self.sites, self.index_time_s, self.test_time_s(abort_on_fail)
        )

    def unique_throughput(
        self, abort_on_fail: bool = False, approximate: bool = True
    ) -> np.ndarray:
        """Unique devices tested per hour ``D^u_th`` (Eq. 4.6) per configuration."""
        return unique_throughput_array(
            self.throughput(abort_on_fail),
            self.contact_yield,
            self.channels_per_site,
            approximate=approximate,
        )
