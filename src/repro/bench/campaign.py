"""Campaign-scale benchmark: streaming sweeps, interruption and resume.

:func:`run_campaign` measures the property the grid/``run_iter``/store
stack exists for -- that a killed campaign costs only its unfinished
scenarios.  Over a multi-SOC grid (a :func:`~repro.soc.catalog.
synthetic_family` sized by ``smoke``) it times three runs, one bench row
each:

1. ``campaign cold`` -- a fresh store-backed engine streams the full grid;
2. ``campaign interrupted`` -- a second fresh store consumes only part of
   the stream and abandons the rest, exactly like a killed process (each
   finished scenario is already on disk at that point);
3. ``campaign resume`` -- a new engine over the interrupted store streams
   the full grid again: the finished part is served from disk, only the
   remainder computes.

The resumed run must produce the same order-insensitive result digest as
the cold run (bit-identical values; checked in the run) and recompute
only the abandoned scenarios (the resume row's engine counters); because
it skips the finished majority it is several times faster than the cold
run -- ``benchmarks/test_bench_campaign.py`` pins the >= 2x floor.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.api.engine import Engine, sweep_digest
from repro.api.grid import SweepGrid
from repro.api.testcell import reference_test_cell
from repro.bench.runner import check_parity, timed_row
from repro.core.exceptions import ConfigurationError
from repro.core.units import mega_vectors
from repro.soc.catalog import synthetic_family

#: Seed of the first family member the campaign sweeps.
CAMPAIGN_SEED = 4242

#: Family shape: (SOC count, modules per SOC) -- full and smoke variants.
CAMPAIGN_FAMILY = (6, 8)
SMOKE_FAMILY = (3, 5)

#: ATE channel axis of the campaign grid.
CAMPAIGN_CHANNELS = (128, 256)


def campaign_grid(smoke: bool = False) -> SweepGrid:
    """The synthetic-family grid the campaign benchmark streams.

    12 scenarios (6 SOCs x 2 channel counts) in full mode, 6 in smoke
    mode.  Depth is fixed at 1 M vectors -- comfortably feasible for the
    compact catalog synthetics at every channel count swept.
    """
    count, modules = SMOKE_FAMILY if smoke else CAMPAIGN_FAMILY
    return SweepGrid(
        synthetic_family(CAMPAIGN_SEED, count=count, modules=modules),
        reference_test_cell(),
        channels=CAMPAIGN_CHANNELS,
        depths=[mega_vectors(1.0)],
    )


def _stream(engine: Engine, grid: SweepGrid, limit: int | None = None) -> list:
    """Consume ``grid`` through ``engine`` (at most ``limit`` results)."""
    results = []
    for record in engine.run_iter(grid):
        results.append(record)
        if limit is not None and len(results) >= limit:
            break
    return results


def run_campaign(
    work_dir: str | Path, smoke: bool = False, workers: int | None = None
) -> list[dict[str, Any]]:
    """Run the cold / interrupted / resumed campaign; return its three rows.

    ``work_dir`` receives two store directories (``cold/``, ``resume/``);
    the caller owns cleanup (the bench runner uses a temp directory).

    Raises
    ------
    ReproError
        When the resumed run's digest differs from the cold run's.
    """
    work_dir = Path(work_dir)
    grid = campaign_grid(smoke)
    total = len(grid)
    interrupt_after = max(1, (3 * total) // 4)
    if interrupt_after >= total:
        raise ConfigurationError("campaign grid too small to interrupt")

    def leg(workload: str, store: str, limit: int | None = None) -> dict[str, Any]:
        # Every engine gets the same worker setting, so the resume speedup
        # measures resumption alone, not a parallelism difference.
        params = {"scenarios": total, "workers": workers}
        if limit is not None:
            params["after"] = limit
        engine = Engine(store=work_dir / store, workers=workers)
        row, _ = timed_row(
            workload, params, lambda: _stream(engine, grid, limit), engine, sweep_digest
        )
        return row

    cold = leg("campaign cold", "cold")
    # A second cold store, abandoned after `interrupt_after` results --
    # the finished scenarios are on disk, the in-flight rest is lost.
    interrupted = leg("campaign interrupted", "resume", interrupt_after)
    resume = leg("campaign resume", "resume")
    check_parity("campaign cold vs resumed digests", cold["digest"], resume["digest"])
    return [cold, interrupted, resume]
