"""Store factory and migration: one entry point for the one store backend.

Everything above the store layer (the engine, the analysis loaders, the
bench runner, the CLI, the campaign service) opens persistent stores
through :func:`open_store`, which always opens a
:class:`~repro.store.packed.PackedResultStore` (segment files + SQLite
index).  A fresh or empty directory is initialised as a packed store; a
directory of legacy one-file-per-record ``*.json`` data is refused until
it has been migrated.

:func:`migrate_store` brings a store to the current layout.  It converts
such a legacy directory into the packed format, verifying every record's
digest on the way, and it rewrites format-1 records (whole result graphs)
into the format-2 column payload, in legacy directories and packed stores
alike (:func:`~repro.store.result_store.upgrade_record`).  Everything but
a format-1 payload is carried over verbatim, ``analysis`` blocks included
-- analysis over a migrated store is byte-identical to analysis over a
store written in the current format directly.  Migration writes through
the packed ``put_records`` path, so the new segments get their columnar
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

from repro.core.exceptions import ConfigurationError, ReproError, StoreError
from repro.store.packed import PACKED_MANIFEST, PackedResultStore
from repro.store.result_store import (
    STORE_FORMAT,
    ResultStore,
    record_key,
    upgrade_record,
)

#: What a record that cannot be read or upgraded raises.
_BAD_RECORD = (ReproError, KeyError, TypeError, ValueError)


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

    ``migrated`` records were verified and packed (for a packed source:
    rewritten from format 1); ``corrupt`` records failed parsing, digest
    verification or the format-1 rewrite and were left behind (in-place
    migration moves on without them -- exactly the records the read path
    would have treated as misses anyway).
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
    """Bring a store to the current layout: packed, with format-2 records.

    A legacy record directory is packed, and a packed store holding
    format-1 records has them rewritten (:func:`_migrate_packed`).  With
    ``destination=None`` the migration is **in place**: the legacy record
    files are removed only after every record has been packed -- a crash
    mid-way leaves the legacy records intact (the half-built packed layout
    is rebuilt by rerunning the migration; ``put_records`` supersedes
    cleanly).  With a destination directory the source is left untouched.

    Every legacy record is **digest-verified** before packing: the file
    must parse and its recorded ``key`` must be a safe token matching the
    file stem.  A format-1 record's payload is decoded and re-encoded in
    the current format; any other record dict is carried over as-is.

    Raises
    ------
    ConfigurationError
        When the source is already a current-format packed store, the
        destination is a legacy store, or either path is unusable.
    """
    source = Path(source).expanduser()
    if not source.is_dir():
        raise ConfigurationError(f"store migrate: {source} is not a directory")
    if is_packed(source):
        return _migrate_packed(source, destination)
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
            record = upgrade_record(record)
        except (OSError, *_BAD_RECORD):
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


def _migrate_packed(source: Path, destination: "str | Path | None") -> MigrationReport:
    """Rewrite the format-1 records of a packed store in the current format.

    In place, the rewritten records supersede their format-1 copies and a
    :meth:`~repro.store.packed.PackedResultStore.compact` reclaims the old
    bytes.  The segments stay the source of truth throughout, so a crash
    is repaired by rerunning (preceded by ``repro store reindex`` if it hit
    the compaction).  With a destination, every readable record (rewritten
    or not) is packed into a fresh store there.  The manifest is stamped
    with the current format last.  Stop writers to the store first, as
    for ``compact``.
    """
    store = PackedResultStore(source)
    try:
        live: list[dict] = []
        upgraded: list[dict] = []
        corrupt = 0
        for _, record in store.read_records():
            if record is None:
                continue
            try:
                current = upgrade_record(record)
            except _BAD_RECORD:
                corrupt += 1
                current = record
            if current is not record:
                upgraded.append(current)
            if destination is not None:
                live.append(current)
        if not upgraded and store.format == STORE_FORMAT:
            raise ConfigurationError(
                f"store migrate: {source} is already a packed format-{STORE_FORMAT} store"
            )
        bytes_before = sum(stat.file_bytes for stat in store.segment_stats())
        if destination is None:
            target = store
            if upgraded:
                store.put_records(upgraded)
                store.compact()
        else:
            destination = Path(destination).expanduser()
            target = PackedResultStore(destination, manifest=False)
        try:
            if target is not store and live:
                target.put_records(live)
            target.write_manifest()
            bytes_after = sum(stat.file_bytes for stat in target.segment_stats())
        finally:
            target.close()
    finally:
        store.close()
    return MigrationReport(
        source=source,
        destination=source if destination is None else destination,
        migrated=len(upgraded),
        corrupt=corrupt,
        bytes_before=bytes_before,
        bytes_after=bytes_after,
        in_place=destination is None,
    )
