"""The four closed-loop workloads, their inputs and their output checks.

Every workload derives its inputs from the seed alone: the SOC axis is
``synthetic_family(seed, SOCS, MODULES)``, swept over a fixed operating
grid.  A workload is driven by :mod:`perfbench.run` as

* ``setup()`` -- repeated a few times so its cost is a median; each call
  replaces the state of the previous one;
* ``reference()`` -- once, untimed: the independent outputs checks compare
  against;
* ``prepare()`` / ``run()`` / ``check()`` per repetition -- only ``run``
  is timed, less the probe slices it runs through its pacer between
  units of work; each repetition waits for the previous one (closed loop).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import shutil
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis import analyze
from repro.analysis import records as analysis_records
from repro.api.engine import Engine, ScenarioResult
from repro.core.units import mega_vectors
from repro.service.client import ServiceClient
from repro.service.protocol import GridSpec
from repro.service.server import start_server
from repro.service.worker import run_worker
from repro.soc import catalog
from repro.solvers import bounds, evaluate
from repro.store.factory import open_store
from repro.store.packed import PackedResultStore
from repro.store.result_store import make_record
from repro.wrapper import combine, pareto

from perfbench.calibration import Pacer
from perfbench.instrument import CallCount
from perfbench.spans import NullRecorder, Recorder

#: Synthetic SOCs per grid and modules per SOC.
SOCS = 5
MODULES = 10
#: Operating grid of the sweep workloads and the campaign: 5 x 4 ATE
#: points per (SOC, broadcast) structure, so ~20 scenarios share one
#: structure -- 5 SOCs x 5 channels x 4 depths x 2 broadcast = 200.
CHANNELS = (128, 192, 256, 320, 512)
DEPTHS_M = (1.0, 2.0, 4.0, 8.0)
#: Shards the campaign grid is submitted as.
CAMPAIGN_SHARDS = 5
#: The analyze store: the distinct payloads of a 5 x 2 x 2 x 2 = 40
#: scenario grid, replicated under distinct keys to this many rows.
ANALYZE_CHANNELS = (128, 256)
ANALYZE_DEPTHS_M = (1.0, 4.0)
ANALYZE_ROWS = 2000
ANALYZE_WRITE_BATCH = 500


def nproc() -> int:
    """CPUs this process may run on: the cap on pool workers."""
    return len(os.sched_getaffinity(0))


def grid_spec(seed: int, channels=CHANNELS, depths_m=DEPTHS_M, shards: int = 1) -> GridSpec:
    return GridSpec(
        socs=catalog.synthetic_family(seed, SOCS, MODULES),
        channels=tuple(channels),
        depths=tuple(mega_vectors(depth) for depth in depths_m),
        broadcast="both",
        shards=shards,
    )


def clear_caches() -> None:
    """Drop every process-wide computation cache, so a repetition runs cold."""
    evaluate.drop_memo()
    combine._cached_test_time.cache_clear()
    pareto._cached_pareto.cache_clear()
    bounds._certificate.cache_clear()


def sweep_digest(results: Sequence[ScenarioResult]) -> str:
    """Order-insensitive SHA-256 over a sweep's exact result values.

    Sorted by scenario digest, then every evaluated site point (``repr``
    of the float, so only bit-identical numbers match) and the optimum.
    The same recipe as the campaign server's digest endpoint, kept here so
    the checks do not move when the program's own copy does.
    """
    digest = hashlib.sha256()
    for outcome in sorted(results, key=lambda record: record.scenario.digest):
        digest.update(outcome.scenario.key.encode("utf-8"))
        for point in outcome.result.points:
            digest.update(
                f"{point.sites},{point.channels_per_site},{point.throughput!r};".encode("utf-8")
            )
        digest.update(
            f"opt={outcome.optimal_sites},{outcome.optimal_throughput!r}\n".encode("utf-8")
        )
    return digest.hexdigest()


def directory_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclass
class RepResult:
    """What one timed repetition completed."""

    #: Grid scenarios completed (analyze: stored scenarios the mix covered).
    scenarios: int
    #: Store rows written (sweeps, campaign) or returned (analyze).
    rows: int
    #: Operations attempted in the repetition (scenarios, requests, queries).
    attempted: int
    #: Per-repetition counters the per-layer report reads.
    extras: dict = field(default_factory=dict)


class Workload:
    """Common shape; subclasses fill in the five phases."""

    name = ""
    #: The ``RepResult`` count whose rate the workload is judged by.
    primary = "scenarios"
    #: Pool workers the workload fans out to (1: none).
    workers = 1
    #: Probe items per pacer slice: about a tenth of the work between two
    #: ``Pacer.between`` calls.
    probe_items = 2_500

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.backend = ""

    def setup(self) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        clear_caches()

    def run(self, recorder: "Recorder | NullRecorder", pacer: Pacer) -> RepResult:
        """One timed repetition, calling ``pacer.between()`` between units of work."""
        raise NotImplementedError

    def check(self, outcome: RepResult) -> list[str]:
        raise NotImplementedError

    def check_layers(self, metrics: dict) -> list[str]:
        """Invariants of the traced run's per-layer metrics."""
        return []

    def store_bytes_per_scenario(self) -> float:
        raise NotImplementedError

    def close(self) -> None:
        """Stop everything the workload started."""


class SweepWorkload(Workload):
    """A store-backed ``Engine.run_iter`` sweep into a fresh store."""

    def setup(self) -> None:
        catalog._make_synthetic.cache_clear()
        self.grid = grid_spec(self.seed).build_grid()
        for name in self.grid.socs:
            catalog.resolve_catalog_soc(name)
        self.digest: str | None = None

    def reference(self) -> None:
        """The sweeps check themselves: yielded results against the store."""

    def prepare(self) -> None:
        super().prepare()
        self.store_dir = fresh_dir(self.work_dir / "store")

    def run(self, recorder, pacer) -> RepResult:
        store = open_store(self.store_dir)
        self.backend = type(store).__name__
        engine = Engine(store=store)
        self.results = []
        with recorder.span("api.engine.run_iter"):
            for result in engine.run_iter(self.grid, workers=self.workers):
                self.results.append(result)
                pacer.between()
        self.store = store
        return RepResult(
            scenarios=len(self.results),
            rows=len(self.results),
            attempted=len(self.grid),
            extras={"engine.store_hits": engine.cache_info().store_hits},
        )

    def check(self, outcome: RepResult) -> list[str]:
        outcome.extras["store.write.bytes"] = directory_bytes(self.store_dir)
        errors = []
        if outcome.extras["engine.store_hits"]:
            errors.append(
                f"cold sweep hit the store {outcome.extras['engine.store_hits']} time(s)"
            )
        if len(self.results) != len(self.grid):
            errors.append(f"sweep yielded {len(self.results)} of {len(self.grid)} scenarios")
        stored = []
        for scenario in self.grid:
            result = self.store.get(scenario)
            if result is None:
                errors.append(f"store lacks {scenario.key}")
            else:
                stored.append(ScenarioResult(scenario=scenario, result=result))
        yielded = sweep_digest(self.results)
        if yielded != sweep_digest(stored):
            errors.append("yielded results differ from the store read-back")
        if self.digest is None:
            self.digest = yielded
        elif yielded != self.digest:
            errors.append("sweep digest changed between repetitions")
        return errors

    def store_bytes_per_scenario(self) -> float:
        return directory_bytes(self.store_dir) / len(self.grid)


class SweepCold(SweepWorkload):
    name = "sweep_cold"


class SweepPooled(SweepWorkload):
    name = "sweep_pooled"
    workers = nproc()

    def check(self, outcome: RepResult) -> list[str]:
        errors = super().check(outcome)
        pids = outcome.extras.get("pool.worker_pids", 0)
        if pids < 2:
            errors.append(
                f"only {pids} pool worker pid(s) did work: the pool fell back to serial"
            )
        return errors


class Campaign(Workload):
    """``serve`` on a loopback thread, ``work --until-idle`` in this thread."""

    name = "campaign"
    server = None
    probe_items = 5_000

    def setup(self) -> None:
        self.close()
        catalog._make_synthetic.cache_clear()
        clear_caches()
        self.spec = grid_spec(self.seed, shards=CAMPAIGN_SHARDS)
        self.grid = list(self.spec.build_grid())
        self.template = fresh_dir(self.work_dir / "template")
        half = [scenario for index, scenario in enumerate(self.grid) if index % 2 == 0]
        Engine(store=self.template).run_batch(half)
        self.presolved = len(half)
        self._start()

    def _start(self) -> None:
        self.store_dir = self.work_dir / "store"
        shutil.rmtree(self.store_dir, ignore_errors=True)
        shutil.copytree(self.template, self.store_dir)
        self.server = start_server(self.store_dir)
        self.backend = type(self.server.app.store).__name__
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self.fresh = True

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join()
            self.server = None

    def reference(self) -> None:
        self.expected = sweep_digest(Engine().run_batch(self.grid))

    def prepare(self) -> None:
        super().prepare()
        if not self.fresh:
            self.close()
            self._start()

    def run(self, recorder, pacer) -> RepResult:
        self.fresh = False
        client = ServiceClient(self.url)
        requests = _RequestCount(client, pacer)
        campaign = client.submit_campaign(self.spec)["campaign"]
        with recorder.span("service.worker.run"):
            self.stats = run_worker(client, worker="perfbench", campaign=campaign, until_idle=True)
        self.answer = client.digest(campaign)
        return RepResult(
            scenarios=int(self.answer.get("solved", 0)),
            rows=self.stats.stored,
            attempted=len(self.grid) + requests.count,
            extras={
                "worker.computed": self.stats.computed,
                "worker.skipped": self.stats.skipped,
                "worker.failed": self.stats.failed,
            },
        )

    def check(self, outcome: RepResult) -> list[str]:
        outcome.extras["store.write.bytes"] = (
            directory_bytes(self.store_dir) - directory_bytes(self.template)
        )
        errors = []
        if not self.answer.get("complete"):
            errors.append(f"campaign incomplete: {self.answer}")
        if self.answer.get("digest") != self.expected:
            errors.append("server digest differs from the local storeless sweep")
        if self.stats.skipped != self.presolved or self.stats.failed:
            errors.append(
                f"worker skipped {self.stats.skipped} (pre-solved {self.presolved}), "
                f"failed {self.stats.failed}"
            )
        return errors

    def store_bytes_per_scenario(self) -> float:
        return directory_bytes(self.store_dir) / len(self.grid)


class _RequestCount:
    """Counts the HTTP requests one client makes (the attempted operations).

    The pacer runs before each request, while client and server are idle.
    """

    def __init__(self, client: ServiceClient, pacer: Pacer) -> None:
        self.count = 0
        opener = client._open

        def counted(*args, **kwargs):
            self.count += 1
            pacer.between()
            return opener(*args, **kwargs)

        client._open = counted


#: The ``repro analyze`` query mix: name and the view it renders.
QUERIES: tuple[tuple[str, Callable], ...] = (
    ("records", lambda records: analyze.records_table(records).render()),
    ("group_summary", lambda records: analyze.group_summary(records, "soc", "throughput").render()),
    ("best_per_soc", lambda records: analyze.best_table(records, "throughput").render()),
    ("pareto", lambda records: analyze.pareto_table(records, "time", "cost").render()),
)


class Analyze(Workload):
    """The ``repro analyze`` query mix, each query opening the packed store."""

    name = "analyze"
    primary = "rows"
    probe_items = 5_000

    def setup(self) -> None:
        catalog._make_synthetic.cache_clear()
        clear_caches()
        base = Engine().run_batch(list(grid_spec(
            self.seed, ANALYZE_CHANNELS, ANALYZE_DEPTHS_M
        ).build_grid()))
        records = [make_record(outcome.scenario, outcome.result) for outcome in base]
        self.root = fresh_dir(self.work_dir / "analyze-store")
        store = PackedResultStore(self.root)
        try:
            for start in range(0, ANALYZE_ROWS, ANALYZE_WRITE_BATCH):
                batch = []
                for index in range(start, min(start + ANALYZE_WRITE_BATCH, ANALYZE_ROWS)):
                    record = dict(records[index % len(records)])
                    record["key"] = replica_key(index)
                    batch.append(record)
                store.put_records(batch)
        finally:
            store.close()
        self.base = base

    def reference(self) -> None:
        """The in-memory ``records_from_results`` rows, replicated the same way."""
        rows = [analysis_records.records_from_results([outcome])[0] for outcome in self.base]
        replicated = [
            replace(rows[index % len(rows)], key=replica_key(index)[:16])
            for index in range(ANALYZE_ROWS)
        ]
        self.expected_records = tuple(
            sorted(replicated, key=analysis_records.AnalysisRecord.sort_key)
        )
        self.expected = [query(self.expected_records) for _, query in QUERIES]

    def run(self, recorder, pacer) -> RepResult:
        self.outputs = []
        self.scanned = []
        rows = 0
        # A stale sidecar would fall back to full-record decode silently,
        # with the same outputs; the count makes that fail the check.
        with CallCount("repro.store.result_store", "decode_result") as decodes:
            for name, query in QUERIES:
                with recorder.span("bench.query", f"q-{name}"):
                    with recorder.span("store.open"):
                        store = open_store(self.root)
                    try:
                        records = analysis_records.records_from_store(store)
                        self.outputs.append(query(records))
                    finally:
                        store.close()
                self.backend = type(store).__name__
                self.scanned.append(records)
                rows += len(records)
                pacer.between()
        self.decodes = decodes.calls
        return RepResult(scenarios=ANALYZE_ROWS, rows=rows, attempted=len(QUERIES))

    def check(self, outcome: RepResult) -> list[str]:
        errors = []
        if self.decodes:
            errors.append(f"the scan decoded {self.decodes} record(s) instead of reading sidecars")
        for (name, _), records, output, expected in zip(
            QUERIES, self.scanned, self.outputs, self.expected
        ):
            if records != self.expected_records:
                errors.append(f"{name}: scanned rows differ from the in-memory rows")
            if output != expected:
                errors.append(f"{name}: output differs from the in-memory path")
        return errors

    def check_layers(self, metrics: dict) -> list[str]:
        errors = []
        if metrics["decode.calls"] != 0:
            errors.append(f"traced scan decoded {metrics['decode.calls']} record(s) per repetition")
        if metrics["scan.sidecar_ratio"] != 1:
            errors.append(f"sidecars served {metrics['scan.sidecar_ratio']} of the scanned rows")
        return errors

    def store_bytes_per_scenario(self) -> float:
        return directory_bytes(self.root) / ANALYZE_ROWS


def replica_key(index: int) -> str:
    """The distinct store key of replicated row ``index``."""
    return f"{index:016x}" + "0" * 48


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SweepCold, SweepPooled, Campaign, Analyze)
}


def wait_for_children(timeout: float = 60.0) -> None:
    """Join every child process this process started (pool workers)."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
