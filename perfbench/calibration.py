"""Machine-speed probes interleaved with the timed work.

The speed of the VM this benchmark was built on changes from second to
second (between identical sweep repetitions by 15% and more), so a rate
measured once is as noisy as the machine.  A :class:`Pacer` measures the
machine while the work runs: a workload calls :meth:`Pacer.between`
between its units of work (a scenario, an HTTP request, a query), which
runs one short slice of a fixed pure-Python probe.  The probe time is
kept apart from the repetition's time, and the repetition's rate is
rescaled to :data:`REFERENCE_SPEED` by the speed the probe showed over
the same repetition.  Set-up steps are rescaled by slices right before and
after them (:func:`reference_seconds`).

Probe slices sampled this finely track the work: over 29 ``sweep_cold``
repetitions, the probe speed correlated 0.99 with the sweep rate, and the
rescaled rate spread by 0.03 (coefficient of variation) where the raw
rate spread by 0.14.  Probes run once before or after a repetition
correlated only 0.3-0.7.  The probe does not touch the program, so a
program change moves the rescaled rate as it moves the raw one.
"""

from __future__ import annotations

import time
from typing import Callable

#: Probe items per second the rescaled rates are expressed at: a round
#: figure near the probe's median speed on the 2-vCPU VM the bounds were
#: measured on.
REFERENCE_SPEED = 1_000_000.0
#: Probe items per slice around a set-up step (about 20 ms).
SETUP_PROBE_ITEMS = 20_000


def probe(items: int) -> None:
    """Build dicts and format strings, like the record and analysis paths."""
    total = 0
    for index in range(items):
        row = {"key": f"{index:08x}", "value": index * 0.5, "sites": index % 7}
        total += len(row["key"]) + row["sites"]


class Pacer:
    """Probe slices between units of one repetition's work, timed apart."""

    def __init__(self, items: int) -> None:
        #: Probe items per slice; a workload sizes it to about a tenth of
        #: the work between two calls.
        self.items = items
        self.seconds = 0.0
        self.slices = 0

    def between(self) -> None:
        started = time.perf_counter()
        probe(self.items)
        self.seconds += time.perf_counter() - started
        self.slices += 1

    @property
    def speed(self) -> float | None:
        """Probe items per second over the slices, or None without any."""
        return self.items * self.slices / self.seconds if self.slices else None


class NullPacer(Pacer):
    """No probing: traced repetitions, whose spans must cover the wall time."""

    def __init__(self) -> None:
        super().__init__(0)

    def between(self) -> None:
        pass


def reference_seconds(action: Callable[[], float]) -> tuple[float, float]:
    """Seconds ``action()`` reports, raw and at :data:`REFERENCE_SPEED`.

    A set-up step is a few long calls with nothing to pace between, so
    the speed comes from probe slices right before and right after it.
    """
    pacer = Pacer(SETUP_PROBE_ITEMS)
    pacer.between()
    seconds = action()
    pacer.between()
    return seconds, seconds * pacer.speed / REFERENCE_SPEED
