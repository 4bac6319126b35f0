"""Store factory and migration: one entry point for the one store backend.

Everything above the store layer (the engine, the analysis loaders, the
bench runner, the CLI, the campaign service) opens persistent stores
through :func:`open_store`, which always opens a
:class:`~repro.store.packed.PackedResultStore` (segment files + SQLite
index).  A fresh or empty directory is initialised as a packed store; a
directory of legacy one-file-per-record ``*.json`` data is refused until
it has been migrated.

:func:`migrate_store` converts such a legacy directory into the packed
format, verifying every record's digest on the way and preserving the
record bytes verbatim -- analysis over a migrated store is byte-identical
to analysis over the original records.  Migration writes through the
packed ``put_records`` path, so the new segments get their columnar
``.cols`` analysis sidecars (:mod:`repro.store.columns`) as they are
built: full column rows for records carrying a write-time ``analysis``
block, short decode-at-read rows for older records (``repro store
reindex --columns`` upgrades those once, by decoding each record a single
time).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.exceptions import ConfigurationError, StoreError
from repro.store.packed import PACKED_MANIFEST, PackedResultStore
from repro.store.result_store import ResultStore, record_key


def is_packed(root: str | Path) -> bool:
    """True when ``root`` is (marked as) a packed store directory."""
    return (Path(root).expanduser() / PACKED_MANIFEST).is_file()


def open_store(store: "PackedResultStore | str | Path") -> PackedResultStore:
    """Open a persistent result store.

    Accepts an already-open store (returned unchanged, so call sites can
    be handed either a path or a store), or a directory path, which opens
    as a :class:`~repro.store.packed.PackedResultStore` (created when
    missing; a legacy directory raises :class:`ConfigurationError` naming
    ``repro store migrate``).
    """
    if isinstance(store, PackedResultStore):
        return store
    if not isinstance(store, (str, Path)):
        raise ConfigurationError(
            f"cannot open a store from a {type(store).__name__}; "
            "pass a directory path or a store object"
        )
    return PackedResultStore(store)


@dataclass(frozen=True)
class MigrationReport:
    """Outcome of one :func:`migrate_store` run.

    ``migrated`` records were verified and packed; ``corrupt`` legacy
    files failed parsing or digest verification and were left behind
    (in-place migration moves on without them -- exactly the records the
    legacy read path would have treated as misses anyway).
    """

    source: Path
    destination: Path
    migrated: int
    corrupt: int
    bytes_before: int
    bytes_after: int
    in_place: bool


def migrate_store(
    source: str | Path, destination: str | Path | None = None
) -> MigrationReport:
    """Convert a legacy record directory into a packed store.

    With ``destination=None`` the migration is **in place**: the packed
    layout is built inside ``source`` and the legacy record files are
    removed only after every record has been packed -- a crash mid-way
    leaves the legacy records intact (the half-built packed layout is
    rebuilt by rerunning the migration; ``put_records`` supersedes
    cleanly).  With a destination directory the source is left untouched.

    Every record is **digest-verified** before packing: the file must
    parse, its recorded ``key`` must be a safe token matching the file
    stem, and the record dict is carried over as-is (the result payload is
    never decoded and re-encoded), so reading the packed store yields
    payloads identical to the legacy files'.

    Raises
    ------
    ConfigurationError
        When the source is already packed, the destination is a legacy
        store, or either path is unusable.
    """
    source = Path(source).expanduser()
    if not source.is_dir():
        raise ConfigurationError(f"store migrate: {source} is not a directory")
    if is_packed(source):
        raise ConfigurationError(f"store migrate: {source} is already a packed store")
    in_place = destination is None
    destination = source if in_place else Path(destination).expanduser()

    record_paths = ResultStore(source).record_files()
    records: list[dict] = []
    keep_paths: list[Path] = []
    corrupt = 0
    bytes_before = 0
    for path in record_paths:
        try:
            raw = path.read_text(encoding="utf-8")
            record = json.loads(raw)
            if record_key(record) != path.stem:
                raise StoreError(f"{path.name}: recorded key does not match the file name")
        except (OSError, json.JSONDecodeError, StoreError, ValueError):
            corrupt += 1
            continue
        bytes_before += path.stat().st_size
        records.append(record)
        keep_paths.append(path)

    # Build the packed layout first and commit the manifest marker last:
    # until the marker exists the directory is still a legacy store, so a
    # crash mid-migration loses nothing.
    packed = PackedResultStore(destination, manifest=False)
    try:
        if records:
            packed.put_records(records)
        # Verify the packed store can answer for every migrated key before
        # the marker is committed or any legacy file is deleted.
        missing = packed.missing_keys(path.stem for path in keep_paths)
        if missing:
            raise ConfigurationError(
                f"store migrate: {len(missing)} record(s) missing from the packed "
                f"index after migration (first: {missing[0]}); source left untouched"
            )
        packed.write_manifest()
        if in_place:
            for path in keep_paths:
                try:
                    path.unlink()
                except OSError:
                    pass
        bytes_after = sum(stat.file_bytes for stat in packed.segment_stats())
    finally:
        packed.close()

    return MigrationReport(
        source=source,
        destination=destination,
        migrated=len(records),
        corrupt=corrupt,
        bytes_before=bytes_before,
        bytes_after=bytes_after,
        in_place=in_place,
    )
