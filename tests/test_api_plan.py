"""Tests for the execution planner: chunking invariants and bulk flushing.

The planner's contract is that it *only groups*: plan order is a
permutation of grid order, every chunk shares one structure key, and
chunked execution -- any chunk size, any worker count -- produces results
and digests bit-identical to unchunked execution.  The flushing side of
the same PR is covered here too: ``flush_every`` batches store writes
without losing records on exceptions or abandonment.
"""

import pytest

from repro.api import Engine, Scenario, SweepGrid, TestCell, sweep_digest
from repro.api.plan import (
    AUTO_CHUNK,
    AUTO_CHUNKS_PER_WORKER,
    MAX_AUTO_CHUNK_SIZE,
    SweepPlan,
    auto_chunk_size,
    normalize_chunk_size,
    structure_key,
)
from repro.ate.spec import AteSpec
from repro.core.exceptions import ConfigurationError
from repro.core.units import kilo_vectors
from repro.soc.builder import SocBuilder
from repro.store.packed import PackedResultStore


@pytest.fixture(scope="module")
def tiny_soc():
    return (
        SocBuilder("tiny", functional_pins=64)
        .add_module("alpha", inputs=8, outputs=8, bidirs=0,
                    scan_lengths=[100, 100, 90], patterns=50)
        .add_module("beta", inputs=16, outputs=4, bidirs=2,
                    scan_lengths=[200, 150], patterns=120)
        .build()
    )


@pytest.fixture(scope="module")
def other_soc():
    return (
        SocBuilder("other", functional_pins=64)
        .add_module("delta", inputs=4, outputs=4, bidirs=0,
                    scan_lengths=[80, 60], patterns=40)
        .build()
    )


@pytest.fixture(scope="module")
def tiny_cell():
    return TestCell(
        ate=AteSpec(channels=64, depth=kilo_vectors(32), frequency_hz=10e6, name="ate-small")
    )


@pytest.fixture
def grid(tiny_soc, other_soc, tiny_cell) -> SweepGrid:
    return SweepGrid([tiny_soc, other_soc], tiny_cell, channels=[32, 40, 48, 64])


class TestChunkSizeValidation:
    def test_auto_passes_through(self):
        assert normalize_chunk_size("auto") == AUTO_CHUNK

    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_positive_ints_pass_through(self, size):
        assert normalize_chunk_size(size) == size

    @pytest.mark.parametrize("bad", [0, -3, 2.5, "big", None, True, False])
    def test_invalid_sizes_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="chunk size"):
            normalize_chunk_size(bad)

    def test_engine_rejects_bad_chunk_size(self, grid):
        with pytest.raises(ConfigurationError, match="chunk size"):
            list(Engine().run_iter(grid, workers=2, chunk_size=0))

    def test_engine_rejects_bad_flush_every(self, grid):
        with pytest.raises(ConfigurationError, match="flush_every"):
            list(Engine().run_iter(grid, flush_every=0))


class TestAutoChunkSize:
    def test_targets_chunks_per_worker(self):
        assert auto_chunk_size(1000, 4) == 1000 // (4 * AUTO_CHUNKS_PER_WORKER) + (
            1000 % (4 * AUTO_CHUNKS_PER_WORKER) > 0
        )

    def test_small_grids_degrade_to_one(self):
        assert auto_chunk_size(3, 4) == 1
        assert auto_chunk_size(0, 4) == 1

    def test_capped_at_max(self):
        assert auto_chunk_size(10**6, 1) == MAX_AUTO_CHUNK_SIZE


class TestPlanInvariants:
    def test_plan_order_is_a_permutation_of_grid_order(self, grid):
        plan = SweepPlan.build(list(grid), chunk_size=3, workers=2)
        assert sorted(plan.scenario_order()) == list(range(len(grid)))

    def test_every_scenario_in_exactly_one_chunk(self, grid):
        plan = SweepPlan.build(list(grid), chunk_size=2)
        order = plan.scenario_order()
        assert len(order) == len(set(order)) == len(grid) == plan.total

    def test_chunks_share_one_structure_key(self, grid):
        scenarios = list(grid)
        plan = SweepPlan.build(scenarios, chunk_size=100)
        for chunk in plan:
            keys = {structure_key(s.canonical_key()) for s in chunk.scenarios}
            assert len(keys) == 1
        # Two SOCs in the grid -> at least two structure groups.
        assert plan.groups == 2

    def test_no_chunk_exceeds_chunk_size(self, grid):
        plan = SweepPlan.build(list(grid), chunk_size=3)
        assert plan.chunk_size == 3
        assert all(len(chunk) <= 3 for chunk in plan)

    def test_structure_key_blanks_only_the_test_cell(self, tiny_soc, tiny_cell):
        base = Scenario(soc=tiny_soc, test_cell=tiny_cell)
        assert structure_key(base.canonical_key()) == structure_key(
            base.with_channels(32).canonical_key()
        )
        assert structure_key(base.canonical_key()) != structure_key(
            Scenario(soc=tiny_soc, test_cell=tiny_cell, solver="restart").canonical_key()
        )

    def test_keys_length_mismatch_rejected(self, grid):
        scenarios = list(grid)
        with pytest.raises(ConfigurationError, match="mismatch"):
            SweepPlan.build(scenarios, keys=[scenarios[0].canonical_key()])

    def test_describe_mentions_shape(self, grid):
        plan = SweepPlan.build(list(grid), chunk_size=2)
        text = plan.describe()
        assert str(plan.total) in text and str(len(plan)) in text


class TestChunkedBitIdentity:
    """Chunked vs unchunked runs: identical results and digests."""

    @pytest.mark.parametrize("chunk_size", [1, "auto", 1000])
    def test_run_batch_identical_across_chunk_sizes(self, grid, chunk_size):
        baseline = Engine().run_batch(list(grid), workers=1)
        chunked = Engine().run_batch(list(grid), workers=2, chunk_size=chunk_size)
        assert [r.result for r in chunked] == [r.result for r in baseline]
        assert sweep_digest(chunked) == sweep_digest(baseline)

    def test_run_iter_streams_every_scenario_once(self, grid):
        results = list(Engine().run_iter(grid, workers=2, chunk_size=2))
        assert sorted(r.scenario.key for r in results) == sorted(s.key for s in grid)


class TestChunkBoundaryResume:
    """A campaign killed mid-chunk resumes recomputing only what's missing."""

    def test_interrupt_mid_stream_then_resume(self, grid, tmp_path):
        store = PackedResultStore(tmp_path / "store")
        engine = Engine(store=store)
        stream = engine.run_iter(grid, workers=2, chunk_size=2)
        seen = [next(stream), next(stream), next(stream)]
        stream.close()  # kill the campaign mid-flight
        on_disk = len(store.scan())
        assert on_disk >= len(seen)  # everything yielded was persisted

        resumed = Engine(store=store)
        results = list(resumed.run_iter(grid, workers=2, chunk_size=2))
        info = resumed.cache_info()
        assert len(results) == len(grid)
        assert info.store_hits == on_disk  # finished scenarios not recomputed
        assert info.misses == len(grid) - on_disk

    def test_resume_digest_matches_uninterrupted(self, grid, tmp_path):
        store = PackedResultStore(tmp_path / "store")
        stream = Engine(store=store).run_iter(grid, workers=2, chunk_size=3)
        next(stream)
        stream.close()
        resumed = list(Engine(store=store).run_iter(grid, workers=2, chunk_size=3))
        baseline = list(Engine().run_iter(grid))
        assert sweep_digest(resumed) == sweep_digest(baseline)


class TestFlushing:
    def test_flush_every_batches_store_writes(self, grid, tmp_path):
        store = PackedResultStore(tmp_path / "store")
        engine = Engine(store=store)
        on_disk = []
        for _ in engine.run_iter(grid, flush_every=3):
            on_disk.append(len(store.scan()))
        # 8 scenarios at flush_every=3: writes land at records 3, 6 and exit.
        assert on_disk == [0, 0, 3, 3, 3, 6, 6, 6]
        assert len(store.scan()) == len(grid)

    def test_flush_on_exception_serial(self, tiny_soc, tiny_cell, tmp_path):
        good = [
            Scenario(soc=tiny_soc, test_cell=tiny_cell).with_channels(width)
            for width in (32, 48)
        ]
        bad = Scenario(soc=tiny_soc, test_cell=tiny_cell, solver="no-such-solver")
        store = PackedResultStore(tmp_path / "store")
        engine = Engine(store=store)
        with pytest.raises(ConfigurationError, match="unknown solver"):
            list(engine.run_iter(good + [bad], flush_every=100))
        # The buffered good records survived the exception.
        assert len(store.scan()) == len(good)

    def test_failing_chunk_persists_its_partial_results(
        self, tiny_soc, tiny_cell, tmp_path
    ):
        good = [
            Scenario(soc=tiny_soc, test_cell=tiny_cell).with_channels(width)
            for width in (32, 40, 48, 64)
        ]
        # channels=1 fails inside the worker task but shares the good
        # scenarios' structure key, so all five land in ONE chunk: the
        # chunk's results computed before the failure must come back and
        # be persisted before the error re-raises.
        bad = Scenario(soc=tiny_soc, test_cell=tiny_cell).with_channels(1)
        store = PackedResultStore(tmp_path / "store")
        engine = Engine(store=store)
        with pytest.raises(ConfigurationError, match="at least 2 channels"):
            list(engine.run_iter(good + [bad], workers=2, chunk_size=100,
                                 flush_every=100))
        assert len(store.scan()) == len(good)

    def test_abandoned_stream_flushes_buffer(self, grid, tmp_path):
        store = PackedResultStore(tmp_path / "store")
        engine = Engine(store=store)
        stream = engine.run_iter(grid, flush_every=100)
        next(stream)
        next(stream)
        stream.close()
        assert len(store.scan()) == 2
