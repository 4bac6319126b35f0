"""Benchmark runner: machine-readable timings for the perf trajectory.

:func:`run_bench` times seven workloads and returns one JSON-ready report
whose ``rows`` list holds one row per timed run:

* ``experiment`` -- every registered experiment
  (:mod:`repro.experiments.registry`), each through its own
  :class:`~repro.api.engine.Engine`;
* ``solver`` -- every registered solver backend
  (:mod:`repro.solvers.registry`) on the reference d695 operating point
  (256 channels x 64 K vectors); backends that cannot handle the workload
  (e.g. the exhaustive oracle on a 10-module SOC) get a ``skipped`` row,
  not a failure;
* ``d695 sweep`` -- the d695 design-space sweep (channels x depths x
  broadcast), the workload the persistent store amortises across runs;
* ``synthetic sweep`` -- a cold synthetic sweep (caches dropped, no
  store): the solver and kernel's raw throughput;
* ``fanout`` -- the cold synthetic sweep through the process pool twice
  at the same worker count, unchunked (``chunk_size=1``) and planned
  (:class:`~repro.api.plan.SweepPlan`), isolating what the execution
  planner buys;
* ``campaign cold`` / ``campaign interrupted`` / ``campaign resume`` --
  the streaming multi-SOC campaign (:mod:`repro.bench.campaign`);
* ``analysis decode`` / ``analysis sidecar`` -- loading
  :class:`~repro.analysis.records.AnalysisRecord` rows from a generated
  packed store by full-record decode and by the columnar ``.cols``
  sidecar scan (:mod:`repro.store.columns`).

A row is ``{workload, params, seconds, digest, counters}`` (or
``{workload, params, skipped}``).  ``params`` holds the inputs that change
the work a row times -- grid size, objective, workers, fan-out chunk,
record count -- and never store warmth, so a warm rerun pairs with its
cold run.  Every row is produced by :func:`timed_row`, which records the
wall-clock seconds, the engine's :class:`~repro.api.engine.CacheInfo` and
the delta of the evaluation-kernel counters
(:func:`repro.solvers.evaluate.cache_info`); ``digest`` is a SHA-256 over
the exact result values, so two rows with equal digests produced
bit-identical results.  Legs that must agree within one run (fanout
chunked vs unchunked, campaign cold vs resumed, analysis decode vs
sidecar) are checked in the run and raise :class:`ReproError` when they
do not.

:func:`summarize_report`, :func:`compare_reports` and
:func:`find_regressions` are one pass each over rows paired on
``(workload, params)``.  :func:`write_report` emits the report as
``BENCH_<tag>.json``; CI uploads these files as artifacts, so every PR
leaves a perf data point behind.
"""

from __future__ import annotations

import hashlib
import json
import platform
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.api.engine import Engine, results_digest
from repro.api.plan import AUTO_CHUNK, SweepPlan
from repro.api.scenario import Scenario
from repro.api.testcell import reference_test_cell
from repro.core.exceptions import ConfigurationError, ReproError
from repro.core.units import kilo_vectors
from repro.objectives.registry import DEFAULT_OBJECTIVE
from repro.experiments.registry import get_experiment, experiment_names
from repro.solvers import evaluate as evaluate_kernel
from repro.solvers.registry import solver_names
from repro.store.factory import open_store
from repro.store.packed import PackedResultStore

#: Version of the report payload layout (2: a flat list of keyed rows).
BENCH_FORMAT = 2

#: Registered experiments timed in ``--smoke`` mode (the fastest one).
SMOKE_EXPERIMENTS = ("economics",)

#: d695 sweep axes (depths in binary K vectors, the repo's convention):
#: full bench and smoke subset.
SWEEP_CHANNELS = (64, 128, 256, 512)
SWEEP_DEPTHS_K = (48, 64, 96, 128)
SMOKE_SWEEP_CHANNELS = (128, 256)
SMOKE_SWEEP_DEPTHS_K = (48, 64)

#: Synthetic cold-sweep axes (the batch kernel's showcase workload): a
#: deterministic synthetic SOC family swept over channels x depths (in
#: binary M vectors) x broadcast.  Full grid: 25 x 5 x 4 x 2 = 1000
#: scenarios; smoke grid: 2 x 2 x 2 x 2 = 16.
SYNTHETIC_SWEEP_SEED = 7000
SYNTHETIC_SWEEP_SOCS = 25
SYNTHETIC_SWEEP_MODULES = 10
SYNTHETIC_SWEEP_CHANNELS = (128, 192, 256, 320, 512)
SYNTHETIC_SWEEP_DEPTHS_M = (1.0, 2.0, 4.0, 8.0)
SMOKE_SYNTHETIC_SWEEP_SOCS = 2
SMOKE_SYNTHETIC_SWEEP_CHANNELS = (128, 256)
SMOKE_SYNTHETIC_SWEEP_DEPTHS_M = (1.0, 2.0)


def default_tag() -> str:
    """Default report tag: the package version (``v<x.y.z>``)."""
    from repro import __version__

    return f"v{__version__}"


def bench_sweep_grid(
    smoke: bool = False, objective: str = DEFAULT_OBJECTIVE
) -> list[Scenario]:
    """The d695 sweep scenarios the bench times (32 full, 4 in smoke mode).

    ``objective`` selects the registered objective the sweep optimises;
    the default keeps the scenarios (and their digests) exactly as before
    the objective axis existed.
    """
    cell = reference_test_cell(channels=256, depth_m=0.0625)
    if smoke:
        return Scenario.sweep(
            "d695",
            cell,
            channels=SMOKE_SWEEP_CHANNELS,
            depths=[kilo_vectors(depth) for depth in SMOKE_SWEEP_DEPTHS_K],
            objectives=objective,
        )
    return Scenario.sweep(
        "d695",
        cell,
        channels=SWEEP_CHANNELS,
        depths=[kilo_vectors(depth) for depth in SWEEP_DEPTHS_K],
        broadcast=[False, True],
        objectives=objective,
    )


def _kernel_delta(
    before: "evaluate_kernel.KernelCacheInfo",
    after: "evaluate_kernel.KernelCacheInfo",
) -> dict[str, Any]:
    """Delta of the process-wide evaluation-kernel counters over one row."""
    return {
        "hits": after.hits - before.hits,
        "misses": after.misses - before.misses,
        "batch_calls": after.batch_calls - before.batch_calls,
        "batch_points": after.batch_points - before.batch_points,
        "max_batch": after.max_batch,
    }


def timed_row(
    workload: str,
    params: dict[str, Any],
    run: Callable[[], Any],
    engine: Engine | None = None,
    digest: Callable[[Any], str] | None = None,
) -> tuple[dict[str, Any], Any]:
    """Time one call of ``run`` and return ``(row, run's value)``.

    The row's counters hold the evaluation-kernel delta over the call and,
    when ``engine`` is given, its :class:`~repro.api.engine.CacheInfo`
    afterwards; ``digest`` (applied to the value, outside the timed span)
    fills the row's digest.
    """
    kernel_before = evaluate_kernel.cache_info()
    started = time.perf_counter()
    value = run()
    seconds = time.perf_counter() - started
    counters = {"kernel": _kernel_delta(kernel_before, evaluate_kernel.cache_info())}
    if engine is not None:
        counters["cache"] = asdict(engine.cache_info())
    row = {"workload": workload, "params": params, "seconds": seconds, "counters": counters}
    row["digest"] = digest(value) if digest is not None else None
    return row, value


def check_parity(what: str, *legs: Any) -> None:
    """Raise :class:`ReproError` unless every leg of ``what`` is equal."""
    if any(leg != legs[0] for leg in legs[1:]):
        raise ReproError(f"bench parity check failed: {what} differ")


def _bench_experiments(
    names: Sequence[str], store: PackedResultStore | None
) -> list[dict[str, Any]]:
    """Time each registered experiment through its own (store-backed) engine."""
    rows = []
    for name in names:
        experiment = get_experiment(name)
        engine = Engine(store=store)
        row, _ = timed_row(
            "experiment", {"name": name}, lambda: experiment.run(engine), engine
        )
        rows.append(row)
    return rows


#: Smoke-sized annealing knobs for the solver-timing row: a short schedule
#: that keeps the bench leg cheap while still exercising the full backend.
SA_BENCH_KNOBS = {"temperature": 0.5, "cooling": 0.7, "moves_per_temp": 10}


def _bench_solvers(store: PackedResultStore | None) -> list[dict[str, Any]]:
    """Time each registered solver backend on the reference d695 point."""
    cell = reference_test_cell(channels=256, depth_m=0.0625)
    rows = []
    for name in solver_names():
        scenario = Scenario(soc="d695", test_cell=cell, solver=name)
        if name == "simulated_annealing":
            scenario = scenario.with_solver_options(**SA_BENCH_KNOBS)
        engine = Engine(store=store)
        params = {"name": name}
        try:
            row, _ = timed_row(
                "solver",
                params,
                lambda: engine.run(scenario),
                engine,
                digest=lambda outcome: results_digest([outcome]),
            )
        except ReproError as error:
            row = {"workload": "solver", "params": params, "skipped": str(error)}
        rows.append(row)
    return rows


def _bench_sweep(
    store: PackedResultStore | None,
    smoke: bool,
    workers: int | None,
    objective: str = DEFAULT_OBJECTIVE,
    chunk_size: "int | str" = AUTO_CHUNK,
    flush_every: int | None = None,
) -> dict[str, Any]:
    """Time the d695 design-space sweep (the store's showcase workload)."""
    grid = bench_sweep_grid(smoke, objective)
    engine = Engine(store=store, workers=workers)
    row, _ = timed_row(
        "d695 sweep",
        {"scenarios": len(grid), "objective": objective, "workers": workers},
        lambda: engine.run_batch(
            grid, workers=workers, chunk_size=chunk_size, flush_every=flush_every
        ),
        engine,
        results_digest,
    )
    return row


def synthetic_sweep_grid(smoke: bool = False) -> list[Scenario]:
    """The cold synthetic sweep scenarios (1000 full, 16 in smoke mode)."""
    from repro.core.units import mega_vectors
    from repro.soc.catalog import synthetic_family

    smoke_axes = (
        SMOKE_SYNTHETIC_SWEEP_SOCS, SMOKE_SYNTHETIC_SWEEP_CHANNELS, SMOKE_SYNTHETIC_SWEEP_DEPTHS_M
    )
    full_axes = (SYNTHETIC_SWEEP_SOCS, SYNTHETIC_SWEEP_CHANNELS, SYNTHETIC_SWEEP_DEPTHS_M)
    count, channels, depths_m = smoke_axes if smoke else full_axes
    return Scenario.sweep(
        synthetic_family(SYNTHETIC_SWEEP_SEED, count=count, modules=SYNTHETIC_SWEEP_MODULES),
        reference_test_cell(),
        channels=channels,
        depths=[mega_vectors(depth) for depth in depths_m],
        broadcast=[False, True],
    )


def _bench_synthetic_sweep(
    smoke: bool,
    workers: int | None,
    chunk_size: "int | str" = AUTO_CHUNK,
) -> dict[str, Any]:
    """Time the synthetic cold sweep (the batch kernel's showcase workload).

    Unlike the d695 sweep this row is always *cold*: the process-wide
    computation caches are dropped first and no store is attached, so the
    number measures raw solver + kernel throughput, run to run.
    """
    grid = synthetic_sweep_grid(smoke)
    evaluate_kernel.drop_process_caches()
    engine = Engine(workers=workers)
    row, _ = timed_row(
        "synthetic sweep",
        {"scenarios": len(grid), "workers": workers},
        lambda: engine.run_batch(grid, workers=workers, chunk_size=chunk_size),
        engine,
        results_digest,
    )
    return row


#: Pool size of the ``fanout`` rows when ``--workers`` is not given:
#: small in smoke mode (CI containers), the tentpole's 4-worker target
#: otherwise.
FANOUT_WORKERS = 4
SMOKE_FANOUT_WORKERS = 2


def _bench_fanout(
    smoke: bool,
    workers: int | None,
    chunk_size: "int | str" = AUTO_CHUNK,
) -> list[dict[str, Any]]:
    """Unchunked vs planned cold fan-out over the synthetic sweep.

    Runs the cold synthetic grid through the process pool at one worker
    count -- once at ``chunk_size=1`` (the pre-planner scenario-per-task
    protocol) and once at the planned ``chunk_size`` (default ``"auto"``;
    skipped when it is 1 too).  The ratio isolates what the execution
    planner buys: pickle/IPC amortisation and per-worker kernel-memo
    locality.  The legs' digests must be identical.
    """
    grid = synthetic_sweep_grid(smoke)
    pool_workers = workers if workers is not None else (
        SMOKE_FANOUT_WORKERS if smoke else FANOUT_WORKERS
    )
    rows = []
    for chunk in dict.fromkeys((1, chunk_size)):
        plan = SweepPlan.build(grid, chunk_size=chunk, workers=pool_workers)
        evaluate_kernel.drop_process_caches()
        engine = Engine()
        row, _ = timed_row(
            "fanout",
            {"scenarios": len(grid), "workers": pool_workers, "chunk": str(chunk)},
            lambda: engine.run_batch(grid, workers=pool_workers, chunk_size=chunk),
            engine,
            results_digest,
        )
        row["counters"]["plan"] = {
            "chunk_size": plan.chunk_size,
            "chunks": len(plan),
            "structure_groups": plan.groups,
        }
        rows.append(row)
    check_parity("fanout digests", *(row["digest"] for row in rows))
    return rows


#: Packed-store record counts of the ``analysis`` rows (replicated from a
#: handful of genuinely solved scenarios).  The full count satisfies the
#: >= 10k-record shape the sidecar-vs-decode comparison is specified at.
ANALYSIS_BENCH_RECORDS = 12000
SMOKE_ANALYSIS_BENCH_RECORDS = 1500
#: How many smoke synthetic scenarios seed the replicated store.
ANALYSIS_BENCH_BASE_SCENARIOS = 6


def _bench_analysis(smoke: bool) -> list[dict[str, Any]]:
    """Cold full-record decode vs columnar sidecar scan over a packed store.

    Builds a throwaway packed store by solving a few small synthetic
    scenarios and replicating their records under distinct keys (the
    payloads stay real, so the decode leg pays real decode cost), then
    times ``records_from_store`` both ways.  Both legs must return equal
    records; each row's digest is over its rendered ``records_table``.
    """
    from repro.analysis.analyze import records_table
    from repro.analysis.records import records_from_store
    from repro.store.result_store import make_record

    def table_digest(records) -> str:
        return hashlib.sha256(records_table(records).render().encode("utf-8")).hexdigest()

    target = SMOKE_ANALYSIS_BENCH_RECORDS if smoke else ANALYSIS_BENCH_RECORDS
    base_scenarios = synthetic_sweep_grid(smoke=True)[:ANALYSIS_BENCH_BASE_SCENARIOS]
    base_records = [
        make_record(outcome.scenario, outcome.result)
        for outcome in Engine().run_batch(base_scenarios)
    ]
    rows, legs = [], []
    with tempfile.TemporaryDirectory(prefix="repro-analysis-bench-") as work_dir:
        store = PackedResultStore(work_dir)
        for start in range(0, target, 2000):
            batch = []
            for index in range(start, min(start + 2000, target)):
                record = dict(base_records[index % len(base_records)])
                record["key"] = f"{index:016x}" + "0" * 48
                batch.append(record)
            store.put_records(batch)
        store.close()

        for workload, columns in (("analysis decode", False), ("analysis sidecar", True)):
            reader = PackedResultStore(work_dir)
            row, records = timed_row(
                workload,
                {"records": target},
                lambda: records_from_store(reader, columns=columns),
                digest=table_digest,
            )
            reader.close()
            row["counters"]["scan"] = {"rows": len(records)}
            rows.append(row)
            legs.append(records)
    check_parity("analysis decode vs sidecar records", *legs)
    return rows


def run_bench(
    tag: str | None = None,
    store: PackedResultStore | str | Path | None = None,
    smoke: bool = False,
    workers: int | None = None,
    objective: str = DEFAULT_OBJECTIVE,
    chunk_size: "int | str" = AUTO_CHUNK,
    flush_every: int | None = None,
) -> dict[str, Any]:
    """Run the full benchmark suite and return the JSON-ready report.

    Parameters
    ----------
    tag:
        Label baked into the report (and its file name); defaults to
        :func:`default_tag`.
    store:
        Optional persistent result store shared by every timed engine.  On
        a cold (empty) store the bench seeds it; rerunning against the same
        directory times the warm path and must reproduce the same sweep
        ``digest``.
    smoke:
        Restrict to the fast subset (one experiment, a 4-point sweep) --
        the mode CI runs on every push.
    workers:
        Worker processes for the sweep's ``run_batch`` (default serial).
    objective:
        Registered objective the timed sweep optimises (default: the
        paper's throughput, which keeps the sweep digest comparable with
        earlier reports).
    chunk_size:
        Scenarios per pool task in the timed sweeps (``"auto"``: the
        planner's heuristic); also the planned leg of the ``fanout``
        rows.  Chunking never changes digests.
    flush_every:
        Records per store write batch in the d695 sweep (default: every
        record immediately).

    Raises
    ------
    ReproError
        When a parity check between two legs of one workload fails.
    """
    from repro import __version__
    from repro.bench.campaign import run_campaign

    if tag is None:
        tag = default_tag()
    if not tag or any(sep in tag for sep in "/\\"):
        raise ConfigurationError(f"bench tag must be a plain label, got {tag!r}")
    if store is not None:
        store = open_store(store)

    experiments = SMOKE_EXPERIMENTS if smoke else experiment_names()
    kernel_before = evaluate_kernel.cache_info()
    started = time.perf_counter()
    # The campaign measures interruption and resume, so it runs on its own
    # throwaway stores, never on the session's --store directory.
    with tempfile.TemporaryDirectory(prefix="repro-campaign-") as campaign_dir:
        rows = [
            *_bench_experiments(experiments, store),
            *_bench_solvers(store),
            _bench_sweep(store, smoke, workers, objective, chunk_size, flush_every),
            _bench_synthetic_sweep(smoke, workers, chunk_size),
            *_bench_fanout(smoke, workers, chunk_size),
            *run_campaign(campaign_dir, smoke=smoke, workers=workers),
            *_bench_analysis(smoke),
        ]
    report: dict[str, Any] = {
        "format": BENCH_FORMAT,
        "tag": tag,
        "package_version": __version__,
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "created_at": time.time(),
        "smoke": smoke,
        "workers": workers,
        "store": {
            "enabled": store is not None,
            "root": str(store.root) if store is not None else None,
        },
        "rows": rows,
    }
    report["store_info"] = asdict(store.info()) if store is not None else None
    report["kernel"] = _kernel_delta(kernel_before, evaluate_kernel.cache_info())
    report["wall_seconds"] = time.perf_counter() - started
    return report


def report_filename(report: dict[str, Any]) -> str:
    """File name a report is written under: ``BENCH_<tag>.json``."""
    return f"BENCH_{report['tag']}.json"


def write_report(report: dict[str, Any], output_dir: str | Path = ".") -> Path:
    """Write ``report`` as ``BENCH_<tag>.json`` under ``output_dir``.

    The directory defaults to the current working directory -- the repo
    root when run as ``python -m repro bench`` from a checkout, which is
    where the perf-trajectory files are expected.
    """
    directory = Path(output_dir).expanduser()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / report_filename(report)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_report(path: str | Path) -> dict[str, Any]:
    """Load a ``BENCH_<tag>.json`` report written by :func:`write_report`.

    Raises
    ------
    ConfigurationError
        When the file is unreadable, not JSON, not a bench report, or a
        report of another :data:`BENCH_FORMAT`.
    """
    try:
        report = json.loads(Path(path).expanduser().read_text(encoding="utf-8"))
    except OSError as error:
        raise ConfigurationError(f"cannot read bench report {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"{path} is not valid JSON: {error}") from error
    if not isinstance(report, dict) or "tag" not in report:
        raise ConfigurationError(f"{path} is not a bench report (missing tag)")
    if report.get("format") != BENCH_FORMAT:
        raise ConfigurationError(
            f"{path} is a format {report.get('format')} bench report; this version "
            f"reads format {BENCH_FORMAT} only -- rerun repro bench to regenerate it"
        )
    if not isinstance(report.get("rows"), list):
        raise ConfigurationError(f"{path} is not a bench report (missing rows)")
    return report


def row_key(row: dict[str, Any]) -> tuple[str, str]:
    """The pairing key of a row: its workload and canonical params."""
    return row["workload"], json.dumps(row["params"], sort_keys=True)


def row_label(row: dict[str, Any]) -> str:
    """Human-readable form of :func:`row_key` (``workload k=v ...``, unset params omitted)."""
    params = " ".join(
        f"{name}={value}" for name, value in sorted(row["params"].items()) if value is not None
    )
    return f"{row['workload']} {params}".rstrip()


def pair_rows(
    current: dict[str, Any], previous: dict[str, Any]
) -> tuple[list[tuple[dict, dict]], list[dict], list[dict]]:
    """Timed rows of two reports matched on :func:`row_key`.

    Returns ``(pairs, new, gone)``: ``(previous row, current row)`` pairs
    in current-report order, then the current report's unmatched rows and
    the previous report's.  Skipped rows never pair.
    """
    before = {row_key(row): row for row in previous["rows"] if "seconds" in row}
    after = {row_key(row): row for row in current["rows"] if "seconds" in row}
    pairs = [(before[key], row) for key, row in after.items() if key in before]
    new = [row for key, row in after.items() if key not in before]
    gone = [row for key, row in before.items() if key not in after]
    return pairs, new, gone


def _counters_text(counters: dict[str, Any]) -> str:
    """The non-zero counters of a row as ``group: name=value ...`` text."""
    groups = []
    for group, values in sorted(counters.items()):
        shown = " ".join(f"{name}={value}" for name, value in sorted(values.items()) if value)
        if shown:
            groups.append(f"{group}: {shown}")
    return "; ".join(groups)


def summarize_report(report: dict[str, Any]) -> str:
    """Human-readable summary of a report (printed by ``repro bench``)."""
    store = report["store"]
    lines = [
        f"bench {report['tag']} (package {report['package_version']}, "
        f"python {report['python_version']}"
        + (", smoke" if report["smoke"] else "")
        + ")",
        f"  store: {store['root']}" if store["enabled"] else "  store: disabled",
    ]
    for row in report["rows"]:
        label = row_label(row)
        if "skipped" in row:
            lines.append(f"  {label:48s} skipped: {row['skipped']}")
            continue
        digest = f"  digest {row['digest'][:16]}" if row["digest"] else ""
        lines.append(f"  {label:48s} {row['seconds']:8.3f}s{digest}")
        counters = _counters_text(row["counters"])
        if counters:
            lines.append(f"      {counters}")
    lines.append(f"  total {_counters_text({'kernel': report['kernel']})}")
    lines.append(f"  total wall time: {report['wall_seconds']:.3f}s")
    return "\n".join(lines)


def _ratio_line(label: str, previous: float, current: float) -> str:
    """One comparison line: previous -> current seconds with the speedup."""
    ratio = f"{previous / current:.2f}x" if current > 0 else "inf"
    return f"  {label:48s} {previous:8.3f}s -> {current:8.3f}s  ({ratio})"


def compare_reports(current: dict[str, Any], previous: dict[str, Any]) -> str:
    """Regression summary of ``current`` against a ``previous`` report.

    Pairs the timed rows on ``(workload, params)`` (:func:`pair_rows`) and
    prints, per pair, previous -> current seconds with the speedup (ratios
    above ``1x`` mean the current run is faster) and, when both rows carry
    a digest, whether the results are bit-identical.  Unpaired rows are
    listed as new or gone.  This is what ``repro bench --compare
    PREV.json`` prints.
    """
    pairs, new, gone = pair_rows(current, previous)
    lines = [
        f"bench compare: {previous['tag']} (package "
        f"{previous.get('package_version', '?')}) -> {current['tag']} "
        f"(package {current.get('package_version', '?')})",
        f"  paired {len(pairs)} row(s) on (workload, params); "
        f"{len(new)} new, {len(gone)} gone",
    ]
    for before, after in pairs:
        line = _ratio_line(row_label(after), before["seconds"], after["seconds"])
        if before["digest"] and after["digest"]:
            same = before["digest"] == after["digest"]
            line += "  digest " + ("identical" if same else "DIFFER")
        lines.append(line)
    for status, rows in (("new", new), ("gone", gone)):
        lines.extend(f"  {status}: {row_label(row)}" for row in rows)
    lines.append(
        _ratio_line("total wall", previous.get("wall_seconds", 0.0), current["wall_seconds"])
    )
    return "\n".join(lines)


#: Rows printed by the ``--profile`` table.
PROFILE_TOP_FUNCTIONS = 20


def _normalise_profile_path(filename: str) -> str:
    """Shorten a profiled file path to a machine-independent form.

    Repo files are shown relative to the package (``repro/...``); stdlib
    and site-packages files keep their final two components.  Built-ins
    (``~``) pass through.  Keeping paths machine-independent makes profile
    tables from different checkouts comparable line by line.
    """
    if filename.startswith("~") or filename.startswith("<"):
        return filename
    parts = Path(filename).parts
    for anchor in ("repro", "site-packages"):
        if anchor in parts:
            index = parts.index(anchor)
            if anchor == "repro":
                return "/".join(parts[index:])
            return "/".join(parts[index + 1 :])
    return "/".join(parts[-2:]) if len(parts) >= 2 else filename


def format_profile(stats: Any, limit: int = PROFILE_TOP_FUNCTIONS) -> str:
    """Top-``limit`` cumulative-time table of a :class:`pstats.Stats`.

    The table is deterministic given the profile data: rows sort by
    cumulative time descending with (path, line, function) as the tie
    break, and paths are normalised via :func:`_normalise_profile_path`.
    """
    rows = []
    for (filename, lineno, name), (_, ncalls, tottime, cumtime, _) in stats.stats.items():
        rows.append(
            (cumtime, tottime, ncalls, _normalise_profile_path(filename), lineno, name)
        )
    rows.sort(key=lambda row: (-row[0], row[3], row[4], row[5]))
    lines = [
        f"profile: top {min(limit, len(rows))} of {len(rows)} functions by cumulative time",
        f"  {'cumtime':>9s} {'tottime':>9s} {'ncalls':>9s}  function",
    ]
    for cumtime, tottime, ncalls, path, lineno, name in rows[:limit]:
        lines.append(
            f"  {cumtime:9.3f} {tottime:9.3f} {ncalls:9d}  {path}:{lineno}({name})"
        )
    return "\n".join(lines)


#: Rows faster than this (in both reports) are never called regressions:
#: at sub-50ms scale, timer jitter swamps any real signal.
REGRESSION_FLOOR_SECONDS = 0.05


def find_regressions(
    current: dict[str, Any],
    previous: dict[str, Any],
    threshold_pct: float,
    noise_floor_seconds: float = REGRESSION_FLOOR_SECONDS,
) -> list[str]:
    """Rows of ``current`` slower than their ``previous`` pair beyond the threshold.

    The CI ratchet behind ``repro bench --compare BENCH_seed.json
    --fail-on-regression PCT``: every pair of :func:`pair_rows` is
    compared, and a line is returned for each one whose current time
    exceeds the previous time by more than ``threshold_pct`` percent.
    Pairs below ``noise_floor_seconds`` (default
    :data:`REGRESSION_FLOOR_SECONDS`; the ``--noise-floor`` CLI flag, in
    milliseconds) in both reports are ignored (pure timer noise).  An
    empty list means the ratchet passes.

    Raises
    ------
    ConfigurationError
        When ``threshold_pct`` or ``noise_floor_seconds`` is negative, or
        when the reports share no row (a ratchet that compares nothing
        must not pass).
    """
    if threshold_pct < 0:
        raise ConfigurationError(
            f"regression threshold must be >= 0 percent, got {threshold_pct}"
        )
    if noise_floor_seconds < 0:
        raise ConfigurationError(
            f"noise floor must be >= 0 seconds, got {noise_floor_seconds}"
        )
    pairs, _, _ = pair_rows(current, previous)
    if not pairs:
        raise ConfigurationError(
            f"bench report {current['tag']} shares no (workload, params) row with "
            f"baseline {previous['tag']}: the perf ratchet has nothing to compare"
        )
    regressions = []
    for before_row, after_row in pairs:
        before, after = before_row["seconds"], after_row["seconds"]
        if max(before, after) < noise_floor_seconds:
            continue
        if after > before * (1.0 + threshold_pct / 100.0):
            slower = (after / before - 1.0) * 100.0 if before > 0 else float("inf")
            regressions.append(
                f"{row_label(after_row)}: {before:.3f}s -> {after:.3f}s (+{slower:.1f}%, "
                f"threshold +{threshold_pct:g}%)"
            )
    return regressions
