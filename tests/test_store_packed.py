"""Tests for the packed store backend, migration, and the store factory."""

import json
import time

import pytest

from repro.api import Engine, Scenario, TestCell
from repro.ate.spec import AteSpec
from repro.cli import main
from repro.core.exceptions import ConfigurationError, StoreError
from repro.core.units import kilo_vectors
from repro.store import (
    PACKED_MANIFEST,
    STORE_FORMAT,
    PackedResultStore,
    is_packed,
    make_record,
    migrate_store,
    open_store,
)
from repro.store.packed import INDEX_FILE
from repro.store.result_store import RECORD_SUFFIX, ResultStore
from repro.store.serialize import encode_graph, encode_result


@pytest.fixture(scope="module")
def solved():
    """Two solved scenarios over the tiny SOC (computed once per module)."""
    from repro.soc.builder import SocBuilder

    soc = (
        SocBuilder("tiny", functional_pins=64)
        .add_module("alpha", inputs=8, outputs=8, bidirs=0,
                    scan_lengths=[100, 100, 90], patterns=50)
        .add_module("beta", inputs=16, outputs=4, bidirs=2,
                    scan_lengths=[200, 150], patterns=120)
        .build()
    )
    engine = Engine()
    outcomes = []
    for channels in (48, 64):
        cell = TestCell(
            ate=AteSpec(channels=channels, depth=kilo_vectors(32), frequency_hz=10e6)
        )
        scenario = Scenario(soc=soc, test_cell=cell)
        outcomes.append((scenario, engine.run(scenario).result))
    return outcomes


def write_legacy(root, solved):
    """A legacy directory store: one ``<key>.json`` record file per scenario."""
    root.mkdir(parents=True, exist_ok=True)
    for scenario, result in solved:
        record = make_record(scenario, result)
        (root / f"{record['key']}{RECORD_SUFFIX}").write_text(json.dumps(record))
    return root


class TestPackedRoundTrip:
    def test_put_get_round_trip(self, tmp_path, solved):
        store = PackedResultStore(tmp_path / "packed")
        for scenario, result in solved:
            store.put(scenario, result)
        for scenario, result in solved:
            assert scenario in store
            assert store.get(scenario) == result
        assert len(store) == len(solved)
        assert (tmp_path / "packed" / PACKED_MANIFEST).is_file()

    def test_miss_on_empty_store(self, tmp_path, solved):
        store = PackedResultStore(tmp_path / "packed")
        scenario, _ = solved[0]
        assert store.get(scenario) is None
        info = store.info()
        assert (info.hits, info.misses, info.corrupt) == (0, 1, 0)
        assert info.backend == "packed"

    def test_put_same_key_supersedes(self, tmp_path, solved):
        store = PackedResultStore(tmp_path / "packed")
        scenario, result = solved[0]
        store.put(scenario, result)
        store.put(scenario, result)
        assert len(store) == 1
        assert store.get(scenario) == result
        # The superseded line is dead bytes, visible in segment stats.
        (stat,) = store.segment_stats()
        assert stat.records == 1
        assert stat.dead_bytes > 0

    def test_records_and_scan_sorted_by_key(self, tmp_path, solved):
        store = PackedResultStore(tmp_path / "packed")
        for scenario, result in solved:
            store.put(scenario, result)
        keys = [entry.key for entry in store.scan()]
        assert keys == sorted(keys)
        assert [entry.key for entry, _ in store.records()] == keys

    def test_rejects_legacy_directory(self, tmp_path, solved):
        legacy = write_legacy(tmp_path / "legacy", solved[:1])
        before = sorted(legacy.iterdir())
        with pytest.raises(ConfigurationError, match="store migrate"):
            PackedResultStore(legacy)
        assert sorted(legacy.iterdir()) == before  # nothing created

    def test_rejects_path_escaping_record_key(self, tmp_path):
        store = PackedResultStore(tmp_path / "packed")
        with pytest.raises(StoreError, match="plain token"):
            store.put_record({"format": 1, "key": "../evil", "result": {}})

    def test_evict_then_compact_reclaims(self, tmp_path, solved):
        store = PackedResultStore(tmp_path / "packed")
        for scenario, result in solved:
            store.put(scenario, result)
        (evicted_scenario, _), (kept_scenario, kept_result) = solved
        assert store.evict([evicted_scenario.digest]) == 1
        assert len(store) == 1
        stats = store.compact()
        assert stats.records == 1
        assert stats.bytes_reclaimed > 0
        assert store.get(evicted_scenario) is None
        assert store.get(kept_scenario) == kept_result

    def test_orphans_detected_and_reindex_recovers(self, tmp_path, solved):
        store = PackedResultStore(tmp_path / "packed")
        scenario, result = solved[0]
        path = store.put(scenario, result)
        store.close()
        # Truncate the segment under the index: the row becomes an orphan.
        path.write_bytes(path.read_bytes()[:10])
        reopened = PackedResultStore(tmp_path / "packed")
        assert reopened.orphans() == (scenario.digest,)
        assert reopened.get(scenario) is None  # corrupt-record miss
        assert reopened.info().corrupt == 1
        # Reindex from the (truncated) segments drops the unreadable line.
        assert reopened.reindex() == 0
        assert reopened.orphans() == ()


class TestMigration:
    def fill_legacy(self, root, solved):
        return write_legacy(root, solved)

    def test_in_place_migration_preserves_everything(self, tmp_path, solved):
        root = tmp_path / "store"
        self.fill_legacy(root, solved)
        before = {s.digest: r for s, r in solved}
        report = migrate_store(root)
        assert report.in_place
        assert report.migrated == len(solved)
        assert report.corrupt == 0
        assert is_packed(root)
        assert not list(root.glob("*.json"))  # legacy files gone
        packed = open_store(root)
        assert isinstance(packed, PackedResultStore)
        for scenario, result in solved:
            assert packed.get(scenario) == result
        assert {e.key for e in packed.scan()} == set(before)

    def test_migration_to_destination_keeps_source(self, tmp_path, solved):
        source = tmp_path / "legacy"
        self.fill_legacy(source, solved)
        destination = tmp_path / "packed"
        report = migrate_store(source, destination=destination)
        assert not report.in_place
        assert len(list(source.glob("*.json"))) == len(solved)
        assert is_packed(destination)
        assert len(open_store(destination)) == len(solved)

    def test_migration_skips_corrupt_records(self, tmp_path, solved):
        root = tmp_path / "store"
        self.fill_legacy(root, solved)
        (root / ("0" * 64 + ".json")).write_text("{not json")
        report = migrate_store(root)
        assert report.migrated == len(solved)
        assert report.corrupt == 1
        # The corrupt file is left behind for inspection, not deleted.
        assert (root / ("0" * 64 + ".json")).exists()

    def test_migrating_a_packed_store_is_rejected(self, tmp_path, solved):
        root = tmp_path / "store"
        self.fill_legacy(root, solved)
        migrate_store(root)
        with pytest.raises(ConfigurationError, match="already"):
            migrate_store(root)

    def test_analyze_is_byte_identical_across_migration(self, tmp_path, solved, capsys):
        direct = PackedResultStore(tmp_path / "direct")
        for scenario, result in solved:
            direct.put(scenario, result)
        assert main(["analyze", "--store", str(direct.root)]) == 0
        before = capsys.readouterr().out
        root = tmp_path / "store"
        self.fill_legacy(root, solved)
        migrate_store(root)
        assert main(["analyze", "--store", str(root)]) == 0
        after = capsys.readouterr().out
        assert after == before

    def test_engine_store_hits_after_migration(self, tmp_path, solved):
        root = tmp_path / "store"
        self.fill_legacy(root, solved)
        migrate_store(root)
        engine = Engine(store=str(root))
        for scenario, result in solved:
            assert engine.run(scenario).result == result
        info = engine.cache_info()
        assert info.store_hits == len(solved)
        assert info.misses == 0


def format_1_record(scenario, result):
    """The record a format-1 writer made: the same fields, the whole graph as payload."""
    return dict(make_record(scenario, result), format=1, result=encode_graph(result))


def format_1_packed(root, solved):
    """A packed store as a format-1 writer left it (manifest and records)."""
    store = PackedResultStore(root)
    store.put_records([format_1_record(scenario, result) for scenario, result in solved])
    store.close()
    (root / PACKED_MANIFEST).write_text(
        json.dumps({"backend": "packed", "format": 1, "created_at": 0.0}) + "\n"
    )
    return root


def format_1_legacy(root, solved):
    """A legacy directory store of format-1 records."""
    root.mkdir(parents=True)
    for scenario, result in solved:
        record = format_1_record(scenario, result)
        (root / f"{record['key']}{RECORD_SUFFIX}").write_text(json.dumps(record))
    return root


class TestFormatMigration:
    """``repro store migrate`` rewrites format-1 records as format 2."""

    @pytest.mark.parametrize("layout", ["packed", "legacy"])
    def test_migrate_converts_format_1(self, tmp_path, solved, capsys, layout):
        direct = PackedResultStore(tmp_path / "direct")
        for scenario, result in solved:
            direct.put(scenario, result)
        direct.close()
        assert main(["analyze", "--store", str(direct.root)]) == 0
        expected = capsys.readouterr().out

        build = format_1_packed if layout == "packed" else format_1_legacy
        root = build(tmp_path / "store", solved)
        if layout == "packed":
            before = PackedResultStore(root)
            assert all(before.get(scenario) is None for scenario, _ in solved)
            before.close()
            assert main(["store", "info", "--store", str(root)]) == 0
            assert "format: 1" in capsys.readouterr().out

        assert main(["store", "migrate", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert f"migrated {root} in place: {len(solved)} record(s)" in out
        old_bytes, new_bytes = (
            int(value)
            for value in next(
                line for line in out.splitlines() if line.startswith("bytes:")
            ).split()[1::2]
        )
        assert 0 < new_bytes < old_bytes

        migrated = open_store(root)
        for scenario, result in solved:
            assert migrated.get(scenario) == result
        assert migrated.info().corrupt == 0
        migrated.close()
        assert main(["store", "info", "--store", str(root)]) == 0
        info = capsys.readouterr().out
        assert "format: 2" in info
        assert "store migrate" not in info
        assert main(["analyze", "--store", str(root)]) == 0
        assert capsys.readouterr().out == expected
        with pytest.raises(ConfigurationError, match="already"):
            migrate_store(root)

    def test_packed_migration_to_destination_keeps_source(self, tmp_path, solved):
        source = format_1_packed(tmp_path / "source", solved)
        report = migrate_store(source, destination=tmp_path / "dest")
        assert (report.migrated, report.corrupt, report.in_place) == (len(solved), 0, False)
        assert PackedResultStore(source).format == 1
        dest = PackedResultStore(tmp_path / "dest")
        assert dest.format == 2
        for scenario, result in solved:
            assert dest.get(scenario) == result

    def test_unreadable_format_1_payload_is_left_behind(self, tmp_path, solved):
        root = format_1_packed(tmp_path / "store", solved)
        broken = dict(format_1_record(*solved[0]), key="e" * 64, result={"__ref__": 7})
        store = PackedResultStore(root)
        store.put_record(broken)
        store.close()
        report = migrate_store(root)
        assert (report.migrated, report.corrupt) == (len(solved), 1)
        after = PackedResultStore(root)
        assert len(after) == len(solved) + 1
        for scenario, result in solved:
            assert after.get(scenario) == result


class TestOpenStore:
    def test_detects_backends(self, tmp_path, solved):
        """Packed layouts open; legacy layouts are detected and refused."""
        scenario, result = solved[0]
        packed_root = tmp_path / "packed"
        PackedResultStore(packed_root).put(scenario, result)
        reopened = open_store(packed_root)
        assert isinstance(reopened, PackedResultStore)
        assert reopened.get(scenario) == result
        legacy_root = write_legacy(tmp_path / "legacy", solved[:1])
        with pytest.raises(ConfigurationError, match="store migrate"):
            open_store(legacy_root)

    @pytest.mark.parametrize("fresh", ["missing", "empty"])
    def test_fresh_directory_opens_packed(self, tmp_path, fresh):
        root = tmp_path / "store"
        if fresh == "empty":
            root.mkdir()
        store = open_store(root)
        assert isinstance(store, PackedResultStore)
        assert is_packed(root)
        assert len(store) == 0

    def test_engine_refuses_legacy_directory(self, tmp_path, solved):
        legacy_root = write_legacy(tmp_path / "legacy", solved)
        with pytest.raises(ConfigurationError, match="store migrate"):
            Engine(store=legacy_root)
        assert not is_packed(legacy_root)

    def test_passes_instances_through(self, tmp_path):
        packed = PackedResultStore(tmp_path / "packed")
        assert open_store(packed) is packed
        with pytest.raises(ConfigurationError, match="directory path"):
            open_store(ResultStore(tmp_path / "legacy"))

    def test_missing_keys_parity_between_backends(self, tmp_path, solved):
        """The packed store and the read-only legacy view answer alike."""
        scenario, result = solved[0]
        absent = "f" * 64
        packed = PackedResultStore(tmp_path / "packed")
        packed.put(scenario, result)
        legacy = ResultStore(write_legacy(tmp_path / "legacy", solved[:1]))
        for store in (legacy, packed):
            assert store.contains_key(scenario.digest)
            assert not store.contains_key(absent)
            assert store.missing_keys([scenario.digest, absent, absent]) == (absent,)
            assert store.get(scenario) == result

    def test_legacy_view_is_read_only(self, tmp_path, solved):
        root = write_legacy(tmp_path / "legacy", solved)
        legacy = ResultStore(root)
        assert [path.stem for path in legacy.record_files()] == sorted(
            scenario.digest for scenario, _ in solved
        )
        assert not legacy.contains_key("../legacy")
        with pytest.raises(ConfigurationError, match="store migrate"):
            legacy.put_records([make_record(*solved[0])])
        assert ResultStore(tmp_path / "no-such-dir").record_files() == []
        assert not (tmp_path / "no-such-dir").exists()


class TestWriteAheadLog:
    def test_wal_stays_bounded_without_close(self, tmp_path, solved):
        """A long-lived writer that never closes keeps a small WAL file."""
        scenario, result = solved[0]
        template = make_record(scenario, result)
        store = PackedResultStore(tmp_path / "packed")
        for index in range(300):
            store.put_records([dict(template, key=f"{index:064x}")])
        assert len(store) == 300
        wal = tmp_path / "packed" / f"{INDEX_FILE}-wal"
        assert wal.stat().st_size < 512 * 1024


class TestPackedScale:
    """The packed store at campaign scale: 100k+ records, flat latency."""

    RECORDS = 100_000

    def test_100k_records_sub_second_info_and_flat_lookup(self, tmp_path, solved):
        store = PackedResultStore(tmp_path / "packed")
        scenario, result = solved[0]
        payload = encode_result(result)
        # One real record among a flood of synthetic ones.  The synthetic
        # records share one small payload: this test exercises the *index*,
        # whose cost must not depend on what the segment lines contain.
        store.put(scenario, result)
        batch: list[dict] = []
        for index in range(self.RECORDS):
            batch.append(
                {
                    "format": STORE_FORMAT,
                    "key": f"{index:064x}",
                    "scenario": {"soc": f"soc{index % 7}", "solver": "goel05",
                                 "objective": "throughput"},
                    "result": payload if index == 0 else {"synthetic": index},
                }
            )
            if len(batch) == 10_000:
                store.put_records(batch)
                batch.clear()
        if batch:
            store.put_records(batch)
        assert len(store) == self.RECORDS + 1

        started = time.perf_counter()
        info = store.info()
        stats = store.segment_stats()
        breakdown = store.breakdown("soc")
        info_seconds = time.perf_counter() - started
        assert info.size == self.RECORDS + 1
        assert sum(stat.records for stat in stats) == self.RECORDS + 1
        assert sum(breakdown.values()) == self.RECORDS + 1
        assert info_seconds < 1.0, f"store info took {info_seconds:.3f}s"

        started = time.perf_counter()
        assert store.get(scenario) == result
        get_seconds = time.perf_counter() - started
        assert get_seconds < 0.25, f"indexed get took {get_seconds:.3f}s"

        probe = [f"{index:064x}" for index in range(0, self.RECORDS, self.RECORDS // 500)]
        started = time.perf_counter()
        assert store.missing_keys(probe) == ()
        query_seconds = time.perf_counter() - started
        assert query_seconds < 0.5, f"batch presence query took {query_seconds:.3f}s"


class TestStoreCli:
    def test_store_info_on_packed_store(self, tmp_path, solved, capsys):
        root = tmp_path / "store"
        store = PackedResultStore(root)
        for scenario, result in solved:
            store.put(scenario, result)
        assert main(["store", "info", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "backend: packed" in out
        assert "segments: 1" in out
        assert "by SOC: tiny=2" in out
        assert "orphaned" not in out

    def test_store_info_flags_orphans(self, tmp_path, solved, capsys):
        root = tmp_path / "store"
        store = PackedResultStore(root)
        scenario, result = solved[0]
        path = store.put(scenario, result)
        store.close()
        path.write_bytes(b"")
        assert main(["store", "info", "--store", str(root)]) == 0
        assert "orphaned: 1" in capsys.readouterr().out

    def test_store_migrate_and_compact_cli(self, tmp_path, solved, capsys):
        root = write_legacy(tmp_path / "store", solved)
        assert main(["store", "migrate", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert f"migrated {root} in place: {len(solved)} record(s)" in out
        assert main(["store", "compact", "--store", str(root)]) == 0
        assert "compacted:" in capsys.readouterr().out

    def test_store_compact_rejects_legacy_store(self, tmp_path, solved, capsys):
        root = write_legacy(tmp_path / "store", solved[:1])
        assert main(["store", "compact", "--store", str(root)]) == 1
        assert "not a packed store" in capsys.readouterr().err

    def test_sweep_works_over_packed_store(self, tmp_path, capsys):
        root = tmp_path / "store"
        args = ["sweep", "synthetic:7:4", "--channels", "48", "64",
                "--depth-m", "1", "--store", str(root), "--output",
                str(tmp_path / "out.jsonl")]
        assert main(["store", "migrate", "--store", str(root)]) == 1  # nothing to migrate yet
        capsys.readouterr()
        PackedResultStore(root)  # initialise an empty packed store
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "2 computed, 0 from store" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 computed, 2 from store" in second
