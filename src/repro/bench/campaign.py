"""Campaign-scale benchmark: streaming sweeps, interruption and resume.

:func:`run_campaign` measures the property the grid/``run_iter``/store
stack exists for -- that a killed campaign costs only its unfinished
scenarios.  Over a multi-SOC grid (a :func:`~repro.soc.catalog.
synthetic_family` sized by ``smoke``) it times three runs, one bench row
each (each row the fastest of :data:`LEG_REPEATS` interleaved
repetitions):

1. ``campaign cold`` -- a fresh store-backed engine streams the full grid;
2. ``campaign interrupted`` -- a second fresh store consumes only part of
   the stream and abandons the rest, exactly like a killed process (each
   finished scenario is already on disk at that point);
3. ``campaign resume`` -- a new engine over the interrupted store streams
   the full grid again: the finished part is served from disk, only the
   remainder computes.

Every leg starts process-cold: :func:`~repro.solvers.evaluate.
drop_process_caches` empties the kernel memo, the wrapper-design caches
and the certificate cache before it, so the resume leg -- like a
restarted process -- recomputes its remainder in full and reads the
finished part from disk, instead of replaying the earlier legs' memo.

The resumed run must produce the same order-insensitive result digest as
the cold run (bit-identical values; checked in the run) and recompute
only the abandoned scenarios (the resume row's engine counters); because
it skips the finished majority it runs 2.5-3x faster than the cold run --
``benchmarks/test_bench_campaign.py`` pins the >= 2x floor.  (Not 4x:
the remainder pays its SOCs' wrapper designs and certificates cold.)
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
from repro.solvers.evaluate import drop_process_caches

#: Seed of the first family member the campaign sweeps.
CAMPAIGN_SEED = 4242

#: Family shape: (SOC count, modules per SOC) -- full and smoke variants.
CAMPAIGN_FAMILY = (6, 8)
SMOKE_FAMILY = (3, 5)

#: ATE channel axis of the campaign grid.
CAMPAIGN_CHANNELS = (128, 256)

#: Timed repetitions of each leg; a leg's row is its fastest repetition.
#: The legs last ~0.05-0.2 s, so a neighbour process stealing the CPU for
#: part of one leg would otherwise decide the resume ratio; interleaving
#: the repetitions and keeping each leg's minimum measures every leg under
#: the same, quietest conditions.
LEG_REPEATS = 5


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

    The three legs run :data:`LEG_REPEATS` times, interleaved, and each
    leg's row is its fastest repetition.  ``work_dir`` receives two store
    directories per repetition (``run-<i>/cold``, ``run-<i>/resume``);
    the caller owns cleanup (the bench runner uses a temp directory).

    Raises
    ------
    ReproError
        When a resumed run's digest differs from its cold run's.
    """
    work_dir = Path(work_dir)
    grid = campaign_grid(smoke)
    total = len(grid)
    interrupt_after = max(1, (3 * total) // 4)
    if interrupt_after >= total:
        raise ConfigurationError("campaign grid too small to interrupt")

    def leg(workload: str, store: Path, limit: int | None = None) -> dict[str, Any]:
        # Every engine gets the same worker setting, so the resume speedup
        # measures resumption alone, not a parallelism difference.
        params = {"scenarios": total, "workers": workers}
        if limit is not None:
            params["after"] = limit
        engine = Engine(store=store, workers=workers)
        drop_process_caches()
        row, _ = timed_row(
            workload, params, lambda: _stream(engine, grid, limit), engine, sweep_digest
        )
        return row

    repetitions = []
    for repeat in range(LEG_REPEATS):
        run_dir = work_dir / f"run-{repeat}"
        cold = leg("campaign cold", run_dir / "cold")
        # A second cold store, abandoned after `interrupt_after` results --
        # the finished scenarios are on disk, the in-flight rest is lost.
        interrupted = leg("campaign interrupted", run_dir / "resume", interrupt_after)
        resume = leg("campaign resume", run_dir / "resume")
        check_parity("campaign cold vs resumed digests", cold["digest"], resume["digest"])
        repetitions.append((cold, interrupted, resume))
    return [min(rows, key=lambda row: row["seconds"]) for rows in zip(*repetitions)]
