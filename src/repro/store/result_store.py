"""Store records: the one wire/disk format of the store layer.

Every solved ``(scenario, solver)`` point is persisted as one JSON record
dict (:func:`make_record`), keyed by the scenario's solver-aware canonical
digest (:attr:`repro.api.scenario.Scenario.digest` -- the SHA-256 of the
resolved canonical key, so the same operating point hits the same record
no matter how the SOC was referenced or which process computed it).  The
:class:`~repro.store.packed.PackedResultStore` appends these dicts to its
segments, and the campaign service ships them over HTTP.  The store is the
third caching tier of the system, and the only one that survives the
process:

1. the per-process evaluation kernel (:mod:`repro.solvers.evaluate`)
   memoises ``(design, sites)`` points;
2. the :class:`~repro.api.engine.Engine` memoises whole scenario results
   in memory;
3. the store memoises scenario results **on disk**, amortising repeated
   CLI invocations, CI runs and benchmark sessions.

A record is a small JSON object: ``format``, ``key``, writer metadata,
the ``scenario`` identity, the ``analysis`` columns, and the ``result``
payload.  Format 2 writes the payload in the Step-2 column layout of
:mod:`repro.store.serialize` -- the Step-1 result once, then one row per
distinct widened architecture and two short per-point columns -- instead
of format 1's whole encoded result graph with one ``SitePoint``
(scenario, timing and widened architecture) per evaluated site count.
That cut the perfbench grid's records from ~80 KB to ~12 KB each.

Reads are corruption-tolerant: a record that fails :func:`decode_record`
counts as a miss, never as an error or a wrong result.  A record of
another format -- format 1 included -- is such a miss too, so the read
path keeps one decoder; ``repro store migrate``
(:func:`~repro.store.factory.migrate_store`) rewrites format-1 records.

Earlier releases wrote one ``<key>.json`` file per record instead;
:class:`ResultStore` is the read-only view of such a directory that
``repro store migrate`` packs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.core.exceptions import ConfigurationError, ReproError, StoreError
from repro.objectives.registry import DEFAULT_OBJECTIVE
from repro.store.serialize import decode_graph, decode_result, encode_result

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.scenario import Scenario
    from repro.optimize.result import TwoStepResult

#: Version of the on-disk record layout.  Bump on incompatible changes;
#: records written under another format version are treated as misses.
#: Format 1 stored the whole result graph; format 2 stores the Step-2
#: column layout (see :mod:`repro.store.serialize`).
STORE_FORMAT = 2

#: The previous record format, which ``repro store migrate`` rewrites.
LEGACY_FORMAT = 1

#: File-name suffix of the records of a legacy directory store.
RECORD_SUFFIX = ".json"


def make_record(scenario: "Scenario", result: "TwoStepResult") -> dict:
    """Build the JSON record dict the store persists for a scenario.

    This is the single wire/disk format of the store layer: the packed
    store appends these dicts as segment lines, and the campaign service
    ships them over HTTP.  The record is self-describing (``key`` is the
    scenario's full digest), so a consumer can verify it against the
    scenario that requested it.

    The ``analysis`` block carries the flat metric columns analysis needs
    (plus the certified lower bound, computed here once per record rather
    than on every future scan), so the store can fill its columnar
    sidecar and the analysis layer can skip decoding the payload entirely.
    The certificate cache is keyed on the full ATE, so the points of one
    channel/depth sweep never share an entry: each record pays for one
    batched certificate scan (:mod:`repro.solvers.bounds`) and one
    payload encode in the Step-2 column layout
    (:mod:`repro.store.serialize`).
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

    The store's read-path validation: the record must be a dict carrying
    the current :data:`STORE_FORMAT`, its recorded ``key`` must match
    ``expected_key`` (when given), and its payload must decode into a
    :class:`~repro.optimize.result.TwoStepResult`.

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


def upgrade_record(record: dict) -> dict:
    """``record`` in the current format: a :data:`LEGACY_FORMAT` record is rewritten.

    The format-1 payload (a whole result graph) is decoded through the
    graph codec and re-encoded by :func:`encode_result` into a new dict;
    every other field -- key, scenario identity, writer metadata, the
    ``analysis`` block -- is carried over unchanged, so analysis over the
    rewritten record is identical.  A record of any other format is
    returned as it is.  ``repro store migrate`` is the one caller.

    Raises
    ------
    StoreError
        When a format-1 payload does not decode into a
        :class:`~repro.optimize.result.TwoStepResult`.
    """
    from repro.optimize.result import TwoStepResult

    if record.get("format") != LEGACY_FORMAT:
        return record
    result = decode_graph(record["result"])
    if not isinstance(result, TwoStepResult):
        raise StoreError(
            f"record payload is a {type(result).__name__}, not a TwoStepResult"
        )
    return {**record, "format": STORE_FORMAT, "result": encode_result(result)}


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
        When the record carries no key, or the key is not a plain token
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
    """One record found by :meth:`PackedResultStore.scan
    <repro.store.packed.PackedResultStore.scan>`.

    Attributes
    ----------
    key:
        The scenario's full canonical digest.
    path:
        The segment file holding the record.
    soc_name, solver, objective:
        Scenario metadata recorded at write time.
        ``objective`` falls back to the default objective name for records
        written before the objective axis existed.
    package_version:
        ``repro.__version__`` of the writer.
    size_bytes:
        Length of the record's segment line.
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

    ``hits``/``misses`` count ``get`` outcomes; ``corrupt`` counts reads
    that found a record but could not use it (bad JSON, format or key
    mismatch, failed validation) -- each such read is also a miss.
    ``puts`` counts written records, ``size`` is the current number of
    records.  ``backend`` names the on-disk layout (``"packed"``),
    ``format`` the record format version, and ``segments`` the number of
    segment files.
    """

    hits: int
    misses: int
    puts: int
    corrupt: int
    size: int
    backend: str = "packed"
    format: int = STORE_FORMAT
    segments: int = 0


class ResultStore:
    """Read-only view of a legacy directory store: one ``<key>.json`` per record.

    Nothing writes this layout any more.  A
    :class:`~repro.store.packed.PackedResultStore` refuses such a
    directory, and :func:`~repro.store.factory.migrate_store` reads its
    records through :meth:`record_files` to pack them.  The lookups answer
    from the files; writes are refused, and nothing is ever created.
    The lookup and write names stay because ``perfbench/instrument.py``
    wraps ``ResultStore.get``/``contains_key``/``missing_keys``/
    ``put_records`` by name when it traces a run.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()

    def record_files(self) -> list[Path]:
        """The record files, sorted by key."""
        return sorted(self.root.glob(f"*{RECORD_SUFFIX}"))

    def contains_key(self, key: str) -> bool:
        """Presence test by digest; a key naming a path outside the directory is absent."""
        candidate = self.root / f"{key}{RECORD_SUFFIX}"
        return candidate.parent == self.root and candidate.is_file()

    def missing_keys(self, keys: Iterable[str]) -> tuple[str, ...]:
        """The subset of ``keys`` not held, in input order, each reported once."""
        return tuple(key for key in dict.fromkeys(keys) if not self.contains_key(key))

    def get(self, scenario: "Scenario") -> "TwoStepResult | None":
        """The stored result for ``scenario``; ``None`` when absent or unusable."""
        try:
            raw = (self.root / f"{scenario.digest}{RECORD_SUFFIX}").read_text(encoding="utf-8")
            return decode_record(json.loads(raw), expected_key=scenario.digest)
        except (OSError, json.JSONDecodeError, ReproError, KeyError, TypeError, ValueError):
            return None

    def put_records(self, records: Iterable[dict]) -> None:
        """Refuse to write: the legacy layout is read-only."""
        raise ConfigurationError(
            f"{self.root} is a legacy directory store and read-only; "
            "run 'repro store migrate' to convert it to the packed format"
        )
