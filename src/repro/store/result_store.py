"""Content-addressed on-disk store for solved scenarios.

:class:`ResultStore` persists one JSON record per solved ``(scenario,
solver)`` point, keyed by the scenario's solver-aware canonical digest
(:attr:`repro.api.scenario.Scenario.digest` -- the SHA-256 of the resolved
canonical key, so the same operating point hits the same record no matter
how the SOC was referenced or which process computed it).  It is the third
caching tier of the system, and the only one that survives the process:

1. the per-process evaluation kernel (:mod:`repro.solvers.evaluate`)
   memoises ``(design, sites)`` points;
2. the :class:`~repro.api.engine.Engine` memoises whole scenario results
   in memory;
3. this store memoises scenario results **on disk**, amortising repeated
   CLI invocations, CI runs and benchmark sessions.

Records are written atomically (temp file + ``os.replace`` in the store
directory), so concurrent writers -- parallel ``run_batch`` drivers or
several engines sharing one directory -- can never expose a half-written
record to a reader; the worst case is that the same record is computed and
written twice.  Reads are corruption-tolerant: a truncated file, a
hash/format mismatch or a payload that fails validation counts as a miss
(and is reported in :meth:`ResultStore.info`), never as an error or a wrong
result.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.core.exceptions import ConfigurationError, ReproError, StoreError
from repro.objectives.registry import DEFAULT_OBJECTIVE
from repro.store.serialize import decode_result, encode_result

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.scenario import Scenario
    from repro.optimize.result import TwoStepResult

#: Version of the on-disk record layout.  Bump on incompatible changes;
#: records written under another format version are treated as misses.
STORE_FORMAT = 1

#: File-name suffix of store records.
RECORD_SUFFIX = ".json"

#: Per-process counter making staging file names unique, so concurrent
#: writers (threads of one process as well as separate processes, which
#: differ by pid) never share a temp file.
_STAGING_IDS = itertools.count()


def make_record(scenario: "Scenario", result: "TwoStepResult") -> dict:
    """Build the JSON record dict every store backend persists for a scenario.

    This is the single wire/disk format of the store layer: the directory
    backend writes one such dict per file, the packed backend appends them
    as segment lines, and the campaign service ships them over HTTP.  The
    record is self-describing (``key`` is the scenario's full digest), so a
    consumer can verify it against the scenario that requested it.

    The ``analysis`` block carries the flat metric columns analysis needs
    (plus the certified lower bound, computed here once per record rather
    than on every future scan), so the packed backend can fill its columnar
    sidecar and the analysis layer can skip decoding the payload entirely.
    The certificate cache is keyed on the full ATE, so the points of one
    channel/depth sweep never share an entry: each record pays for one
    batched certificate scan (:mod:`repro.solvers.bounds`) and one
    plan-driven payload encode (:mod:`repro.store.serialize`).
    """
    from repro import __version__
    from repro.solvers.bounds import scenario_lower_bound

    return {
        "format": STORE_FORMAT,
        "package_version": __version__,
        "key": scenario.digest,
        "created_at": time.time(),
        "scenario": {
            "soc": scenario.soc_name,
            "solver": scenario.solver,
            "objective": scenario.objective,
            "description": scenario.describe(),
        },
        "result": encode_result(result),
        "analysis": {
            "channels": result.step1.ate.channels,
            "depth": result.step1.ate.depth,
            "broadcast": result.step1.config.broadcast,
            "optimal_sites": result.optimal_sites,
            "channels_per_site": result.best.channels_per_site,
            "test_time_cycles": result.best.test_time_cycles,
            "value": result.optimal_throughput,
            "lower_bound": scenario_lower_bound(scenario),
        },
    }


def record_lower_bound(record: object) -> tuple[bool, float | None]:
    """The persisted lower bound of a record dict, as ``(present, value)``.

    ``present`` is ``True`` only when the record's ``analysis`` block
    carries a well-typed ``lower_bound`` entry (``None`` counts: it means
    "no certificate exists for this family", which is worth persisting).
    Readers fall back to recomputing the certificate when it is absent --
    the pre-sidecar behaviour.
    """
    if not isinstance(record, dict):
        return False, None
    block = record.get("analysis")
    if not isinstance(block, dict) or "lower_bound" not in block:
        return False, None
    bound = block["lower_bound"]
    if bound is None:
        return True, None
    if isinstance(bound, (int, float)) and not isinstance(bound, bool):
        return True, float(bound)
    return False, None


def decode_record(record: object, expected_key: str | None = None) -> "TwoStepResult":
    """Validate a parsed record dict and rebuild its result payload.

    Shared read-path validation of both store backends: the record must be
    a dict carrying the current :data:`STORE_FORMAT`, its recorded ``key``
    must match ``expected_key`` (when given), and its payload must decode
    into a :class:`~repro.optimize.result.TwoStepResult`.

    Raises
    ------
    StoreError
        On any violation; store readers treat it as a corrupt-record miss.
    """
    from repro.optimize.result import TwoStepResult

    if not isinstance(record, dict):
        raise StoreError("record is not a JSON object")
    if record.get("format") != STORE_FORMAT:
        raise StoreError(f"unsupported store format {record.get('format')!r}")
    if expected_key is not None and record.get("key") != expected_key:
        raise StoreError("record key does not match the scenario digest")
    if "result" not in record:
        raise StoreError("record has no result payload")
    result = decode_result(record["result"])
    if not isinstance(result, TwoStepResult):
        raise StoreError(
            f"record payload is a {type(result).__name__}, not a TwoStepResult"
        )
    return result


def entry_from_record(record: object, path: Path, size_bytes: int) -> StoreEntry:
    """Build the :class:`StoreEntry` metadata row of a parsed record dict.

    Raises :class:`StoreError` when the record is not a current-format
    record dict with a key; metadata fields degrade to empty defaults.
    """
    if not isinstance(record, dict) or record.get("format") != STORE_FORMAT:
        raise StoreError("not a current-format record")
    if "key" not in record:
        raise StoreError("record has no key")
    scenario = record.get("scenario") or {}
    has_lower_bound, lower_bound = record_lower_bound(record)
    return StoreEntry(
        key=str(record["key"]),
        path=path,
        soc_name=str(scenario.get("soc", "")),
        solver=str(scenario.get("solver", "")),
        package_version=str(record.get("package_version", "")),
        size_bytes=size_bytes,
        created_at=float(record.get("created_at", 0.0)),
        objective=str(scenario.get("objective", DEFAULT_OBJECTIVE)),
        lower_bound=lower_bound,
        has_lower_bound=has_lower_bound,
    )


def record_key(record: object) -> str:
    """The safe record key of a record dict destined for storage.

    Raises
    ------
    StoreError
        When the record carries no key, or the key could escape the store
        (path separators, dots) -- raw ingestion (the campaign service, the
        migration tool) must never let a payload name a file outside the
        store.
    """
    if not isinstance(record, dict):
        raise StoreError("record is not a JSON object")
    key = record.get("key")
    if not isinstance(key, str) or not key:
        raise StoreError("record has no key")
    if not all(ch.isalnum() or ch in "-_" for ch in key):
        raise StoreError(f"record key {key!r} is not a plain token")
    return key


@dataclass(frozen=True)
class StoreEntry:
    """One record found by :meth:`ResultStore.scan`.

    Attributes
    ----------
    key:
        The scenario's full canonical digest (also the file stem).
    path:
        Location of the record file.
    soc_name, solver, objective:
        Scenario metadata recorded at :meth:`ResultStore.put` time.
        ``objective`` falls back to the default objective name for records
        written before the objective axis existed.
    package_version:
        ``repro.__version__`` of the writer.
    size_bytes:
        Size of the record file.
    created_at:
        POSIX timestamp recorded at write time.
    lower_bound, has_lower_bound:
        The certified objective bound persisted in the record's
        ``analysis`` block at write time.  ``has_lower_bound`` separates
        "persisted as None" (no certificate exists for the family) from
        "written before bounds were persisted" (readers recompute).
    """

    key: str
    path: Path
    soc_name: str
    solver: str
    package_version: str
    size_bytes: int
    created_at: float
    objective: str = DEFAULT_OBJECTIVE
    lower_bound: float | None = None
    has_lower_bound: bool = False


@dataclass(frozen=True)
class StoreInfo:
    """Session statistics of one result-store instance.

    ``hits``/``misses`` count :meth:`ResultStore.get` outcomes; ``corrupt``
    counts reads that found a record file but could not use it (bad JSON,
    format or key mismatch, failed validation) -- each such read is also a
    miss.  ``puts`` counts written records, ``size`` is the current number
    of records on disk.  ``backend`` names the on-disk layout (``"dir"``
    for the one-file-per-record :class:`ResultStore`, ``"packed"`` for the
    segmented :class:`~repro.store.packed.PackedResultStore`), ``format``
    the record format version, and ``segments`` the number of segment
    files (always 0 for the directory backend).
    """

    hits: int
    misses: int
    puts: int
    corrupt: int
    size: int
    backend: str = "dir"
    format: int = STORE_FORMAT
    segments: int = 0


class ResultStore:
    """Content-addressed persistent cache of scenario results.

    Parameters
    ----------
    root:
        Directory holding the record files (created when missing).  One
        store directory can be shared by any number of engines and
        processes; the atomic-write discipline keeps readers safe.

    Examples
    --------
    >>> from repro import Engine, Scenario, reference_test_cell   # doctest: +SKIP
    >>> store = ResultStore("~/.cache/repro-store")               # doctest: +SKIP
    >>> engine = Engine(store=store)                              # doctest: +SKIP

    The second process running the same scenario gets a store hit instead
    of re-solving it.
    """

    def __init__(self, root: str | Path) -> None:
        self._root = Path(root).expanduser()
        if self._root.exists() and not self._root.is_dir():
            raise ConfigurationError(f"store path {self._root} exists and is not a directory")
        try:
            self._root.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise ConfigurationError(f"cannot create store directory {self._root}: {error}") from error
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._corrupt = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def root(self) -> Path:
        """The store directory."""
        return self._root

    def path_for(self, scenario: "Scenario") -> Path:
        """Record file a scenario's result is (or would be) stored at."""
        return self._root / f"{scenario.digest}{RECORD_SUFFIX}"

    def info(self) -> StoreInfo:
        """Hit/miss/put/corruption statistics of this store instance."""
        size = len(self)
        with self._lock:
            return StoreInfo(
                hits=self._hits,
                misses=self._misses,
                puts=self._puts,
                corrupt=self._corrupt,
                size=size,
            )

    def __len__(self) -> int:
        return sum(1 for _ in self._record_paths())

    def __contains__(self, scenario: "Scenario") -> bool:
        return self.path_for(scenario).is_file()

    def contains_key(self, key: str) -> bool:
        """Presence test by digest (no record bytes are read or validated).

        Keys that could not name a record file of this store (path
        separators, dots) are simply absent, never an error.
        """
        candidate = self._root / f"{key}{RECORD_SUFFIX}"
        return candidate.parent == self._root and candidate.is_file()

    def missing_keys(self, keys: "Iterator[str] | list[str] | tuple[str, ...]") -> tuple[str, ...]:
        """The subset of ``keys`` the store does not hold, in input order.

        The batch presence test the campaign service answers worker dedup
        queries with; duplicated input keys are reported once.  Same
        semantics as :meth:`PackedResultStore.missing_keys
        <repro.store.packed.PackedResultStore.missing_keys>`, so the
        service works over either backend.
        """
        seen: dict[str, None] = {}
        for key in keys:
            if key not in seen:
                seen[key] = None
        return tuple(key for key in seen if not self.contains_key(key))

    def _record_paths(self) -> Iterator[Path]:
        try:
            yield from sorted(self._root.glob(f"*{RECORD_SUFFIX}"))
        except OSError:
            return

    def record_files(self) -> Iterator[Path]:
        """The store's record files, sorted by key (one ``.json`` per record)."""
        return self._record_paths()

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, scenario: "Scenario") -> "TwoStepResult | None":
        """Return the stored result for ``scenario``, or ``None`` on a miss.

        A record only counts as a hit when it parses, carries the current
        :data:`STORE_FORMAT`, its recorded key matches the scenario's
        digest, and its payload rebuilds into a valid result.  Everything
        else -- including a record written under a different store format
        or moved to the wrong file name -- is a miss.
        """
        path = self.path_for(scenario)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self._count(misses=1)
            return None
        except OSError:
            self._count(misses=1, corrupt=1)
            return None
        try:
            result = decode_record(json.loads(raw), expected_key=scenario.digest)
        except (json.JSONDecodeError, KeyError, ReproError, TypeError, ValueError):
            self._count(misses=1, corrupt=1)
            return None
        self._count(hits=1)
        return result

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put(self, scenario: "Scenario", result: "TwoStepResult") -> Path:
        """Persist ``result`` under ``scenario``'s digest; returns the path.

        The record is staged in a sibling temp file and moved into place
        with :func:`os.replace`, which is atomic on POSIX and Windows:
        readers (including engine process-pool drivers sharing the
        directory) either see the previous record or the complete new one.
        """
        return self.put_record(make_record(scenario, result))

    def put_record(self, record: dict) -> Path:
        """Persist an already-built record dict under its own ``key``.

        The raw-ingestion path: the campaign service stores records shipped
        by remote workers through here, and so does store migration.  The
        key is validated to be a plain token (it can never name a file
        outside the store directory), but the payload is deliberately *not*
        re-decoded -- the read path validates on every :meth:`get`, so a
        bad payload becomes a corrupt-record miss, exactly like a
        truncated file.
        """
        key = record_key(record)
        path = self._root / f"{key}{RECORD_SUFFIX}"
        staging = path.with_name(f".{path.stem}.{os.getpid()}.{next(_STAGING_IDS)}.tmp")
        try:
            staging.write_text(
                json.dumps(record, separators=(",", ":")) + "\n", encoding="utf-8"
            )
            os.replace(staging, path)
        except BaseException:
            staging.unlink(missing_ok=True)
            raise
        self._count(puts=1)
        return path

    def put_records(self, records: "list[dict] | tuple[dict, ...]") -> tuple[Path, ...]:
        """Persist a batch of records; returns their paths in input order.

        The bulk form the engine's buffered flush and the campaign
        service's batched upload endpoint write through.  On this
        directory backend each record is still one atomic file replace
        (there is no cheaper multi-file primitive), so batching here only
        saves call overhead -- the packed backend is where ``put_records``
        turns a batch into a single segment append and one index
        transaction.
        """
        return tuple(self.put_record(record) for record in records)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def scan(self) -> tuple[StoreEntry, ...]:
        """List every readable record, sorted by key.

        Unreadable or malformed record files are skipped (and counted as
        ``corrupt`` in :meth:`info`); scanning never raises on a dirty
        directory.
        """
        entries: list[StoreEntry] = []
        for path in self._record_paths():
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
                entries.append(entry_from_record(record, path, path.stat().st_size))
            except (OSError, json.JSONDecodeError, KeyError, ValueError, ReproError):
                self._count(corrupt=1)
        return tuple(sorted(entries, key=lambda entry: entry.key))

    def records(self) -> "Iterator[tuple[StoreEntry, TwoStepResult]]":
        """Yield every readable ``(entry, result)`` pair, sorted by key.

        The bulk read the analysis layer (:mod:`repro.analysis`) scans a
        store with: one pass over the record files parses each file once
        and yields both the :class:`StoreEntry` metadata and the decoded
        :class:`~repro.optimize.result.TwoStepResult` payload.  Records
        that fail to parse or decode are skipped and counted as
        ``corrupt``, exactly like :meth:`scan`; no record digest
        re-verification happens here (the scenario that wrote the record
        is not being rebuilt), so a renamed record file still yields its
        payload.
        """
        for path in self._record_paths():
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
                entry = entry_from_record(record, path, path.stat().st_size)
                result = decode_record(record)
            except (OSError, json.JSONDecodeError, KeyError, ReproError, TypeError, ValueError):
                self._count(corrupt=1)
                continue
            yield entry, result

    def reindex_columns(self) -> int:
        """(Re)build the ``analysis.cols`` columnar snapshot; returns its rows.

        The directory backend has no write-path hook for the sidecar (each
        ``put`` is an independent atomic file replace), so its sidecar is
        an explicit snapshot: valid only while the record file set stays
        exactly as recorded, invalidated by any write or evict.  See
        :mod:`repro.store.columns`.
        """
        from repro.store.columns import rebuild_dir_sidecar

        return rebuild_dir_sidecar(self)

    def evict(self, keys: "Iterator[str] | list[str] | tuple[str, ...] | None" = None) -> int:
        """Delete records; returns how many files were removed.

        ``keys=None`` empties the store; otherwise only the named digests
        are removed.  Missing keys are ignored (another process may have
        evicted them first), and so are keys that do not name a plain
        record file inside the store directory (path separators, ``..``) --
        evict can only ever delete the store's own records.
        """
        if keys is None:
            targets = list(self._record_paths())
        else:
            targets = []
            for key in keys:
                candidate = self._root / f"{key}{RECORD_SUFFIX}"
                if candidate.parent == self._root:
                    targets.append(candidate)
        removed = 0
        for path in targets:
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                continue
            except OSError:
                continue
        return removed

    def _count(self, hits: int = 0, misses: int = 0, puts: int = 0, corrupt: int = 0) -> None:
        with self._lock:
            self._hits += hits
            self._misses += misses
            self._puts += puts
            self._corrupt += corrupt
