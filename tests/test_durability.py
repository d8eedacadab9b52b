"""Crash-consistency torture tests for the durable record path.

The contract under test (``repro/streaming/store.py``,
``repro/core/checkpoint.py`` + the harness in ``repro/testing/faults.py``):

* **Kill-point sweep** — for *every* filesystem mutation the stream
  store ever issues (journal appends, segment rotations, snapshot
  blob/manifest writes, renames, prunes, truncations, directory fsyncs),
  killing the process at exactly that point leaves a store from which
  ``recover()`` rebuilds a state bit-identical to a clean run over the
  surviving batch prefix — or reports the loss explicitly.  Zero silent
  divergence, in all three crash modes (clean kill, torn write,
  bit-flipped write).  The same sweep kills the batch checkpoint of
  ``sparsify_many`` at every write point: resuming the wreck (twice)
  reproduces the clean batch bit for bit, or refuses a flipped record.
* **Torn-write fuzz** — truncating a journal at *every byte offset*
  yields either a bit-exact prefix replay or a clean refusal for the
  stream journal, and a resumable prefix (appends included) for the
  batch checkpoint.
* **Media corruption** — a flipped bit mid-journal is never silently
  replayed: strict readers refuse, the recovery ladder quarantines and
  accounts for the loss; a flipped bit in the newest snapshot makes the
  ladder fall back to the previous snapshot (whose journal suffix the
  store deliberately retained); a flipped bit in a stored batch result
  fails its digest.
* **Bounded resume** — after a snapshot, recovery replays only the
  post-snapshot journal suffix, proven through the scan's read
  accounting, not timing.
* **Format versions** — a store written in another on-disk format is
  refused with a :class:`CheckpointError` naming both versions, and no
  file is renamed or rewritten.

Run with ``-m durability`` to select only this file.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import sparsify_many
from repro.core.checkpoint import BatchJournal
from repro.exceptions import CheckpointError
from repro.graphs import generators as gen
from repro.streaming import (
    SNAPSHOT_VERSION,
    STREAM_JOURNAL_VERSION,
    StreamingSparsifier,
    StreamJournal,
    StreamStateStore,
)
from repro.testing.faults import (
    CrashPointIO,
    SimulatedCrash,
    flip_bit,
    kill_point_sweep,
    truncate_file_at,
)

pytestmark = pytest.mark.durability


# --------------------------------------------------------------------- #
# Shared fixtures: a small deterministic stream and its clean-run states
# --------------------------------------------------------------------- #

SEED = 5
COMPACTION_INTERVAL = 30
SNAPSHOT_EVERY = 2
SEGMENT_BYTES = 300  # tiny: every couple of appends rotates a segment


@pytest.fixture(scope="module")
def torture_graph():
    return gen.erdos_renyi_graph(40, 0.2, seed=3, weight_range=(0.5, 2.0))


@pytest.fixture(scope="module")
def torture_batches(torture_graph):
    edges = np.column_stack([torture_graph.edge_u, torture_graph.edge_v])
    weights = torture_graph.edge_weights
    bounds = np.linspace(0, torture_graph.num_edges, 7).astype(int)
    return [
        (edges[lo:hi], weights[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def state_fingerprint(stream):
    """Deterministic bit-exact state identity (wall-clock telemetry excluded)."""
    counters, arrays = stream._state_payload()
    counters = {k: v for k, v in counters.items() if k != "ingest_seconds"}
    return counters, {name: np.array(array) for name, array in arrays.items()}


def assert_same_state(actual, expected):
    assert actual[0] == expected[0]
    assert sorted(actual[1]) == sorted(expected[1])
    for name, array in expected[1].items():
        assert np.array_equal(actual[1][name], array), name


@pytest.fixture(scope="module")
def clean_references(torture_batches, torture_graph):
    """Fingerprint of a clean (storeless) run after each batch count."""
    stream = StreamingSparsifier(
        torture_graph.num_vertices, seed=SEED, compaction_interval=COMPACTION_INTERVAL
    )
    refs = {0: state_fingerprint(stream)}
    for edges, weights in torture_batches:
        stream.ingest(edges, weights)
        refs[stream.batches_ingested] = state_fingerprint(stream)
    return refs


@pytest.fixture(scope="module")
def batch_graphs():
    return [
        gen.erdos_renyi_graph(12, 0.4, seed=20 + i, ensure_connected=True)
        for i in range(3)
    ]


def run_batch(graphs, path, io=None):
    return sparsify_many(graphs, epsilon=0.5, seed=7, checkpoint=path, checkpoint_io=io)


def result_fingerprint(result):
    """Every field a resumed batch job must reproduce bit for bit."""
    g = result.sparsifier
    return (
        g.num_vertices,
        g.edge_u.tolist(),
        g.edge_v.tolist(),
        g.edge_weights.tolist(),
        [vars(record) for record in result.rounds],
        result.epsilon,
        result.rho,
        result.input_edges,
        result.output_edges,
        result.cost.work,
        result.cost.depth,
        result.stopped_early,
    )


# --------------------------------------------------------------------- #
# The tentpole guarantee: the kill-point sweep
# --------------------------------------------------------------------- #


class TestKillPointSweep:
    @pytest.mark.parametrize("mode", ["clean", "torn", "flip"])
    def test_every_crash_point_recovers_without_silent_divergence(
        self, mode, torture_graph, torture_batches, clean_references, tmp_path
    ):
        stores = iter(range(10**6))

        current = {}

        def workload(io: CrashPointIO):
            path = tmp_path / f"store-{mode}-{next(stores)}"
            current["path"] = path
            stream = StreamingSparsifier(
                torture_graph.num_vertices,
                seed=SEED,
                compaction_interval=COMPACTION_INTERVAL,
                store=path,
                snapshot_every=SNAPSHOT_EVERY,
                segment_bytes=SEGMENT_BYTES,
                io=io,
            )
            for edges, weights in torture_batches:
                stream.ingest(edges, weights)

        def verify(point: int) -> None:
            try:
                stream, report = StreamStateStore.recover(current["path"])
            except CheckpointError as exc:
                # Dying at the very first mutation leaves an empty store;
                # refusing it loudly is the correct (non-silent) outcome.
                assert "nothing to recover" in str(exc)
                return
            # Either the recovery is bit-exact or the loss is declared.
            assert report.bit_exact or report.batches_lost > 0
            # And the recovered state is ALWAYS a clean-run prefix: the
            # store never resurrects a state no uncrashed stream ever had.
            assert_same_state(
                state_fingerprint(stream),
                clean_references[stream.batches_ingested],
            )
            # The recovered stream is live: it can keep ingesting.
            assert stream._journal.next_index == stream.batches_ingested

        points = kill_point_sweep(workload, verify, mode=mode)
        assert points > 20  # the workload really has many write points

    @pytest.mark.parametrize("mode", ["clean", "torn", "flip"])
    def test_batch_checkpoint_resumes_from_every_crash_point(
        self, mode, batch_graphs, tmp_path
    ):
        clean = [
            result_fingerprint(r)
            for r in run_batch(batch_graphs, tmp_path / "clean.jsonl").results
        ]
        journals = iter(range(10**6))
        current = {}

        def workload(io: CrashPointIO):
            current["path"] = tmp_path / f"batch-{mode}-{next(journals)}.jsonl"
            run_batch(batch_graphs, current["path"], io=io)

        def verify(point: int) -> None:
            # The first resume appends the jobs the crash lost; the second
            # must read the repaired journal back whole.
            for _ in range(2):
                try:
                    resumed = run_batch(batch_graphs, current["path"])
                except CheckpointError:
                    # Only media corruption may be refused — never a
                    # torn append or a clean kill.
                    assert mode == "flip", f"kill point {point} unresumable"
                    return
                assert [result_fingerprint(r) for r in resumed.results] == clean
            assert resumed.resumed_jobs == len(batch_graphs)

        points = kill_point_sweep(workload, verify, mode=mode)
        assert points >= 5  # header, three jobs, directory fsync

    def test_empty_store_refuses_recovery(self, tmp_path):
        with pytest.raises(CheckpointError, match="nothing to recover"):
            StreamStateStore.recover(tmp_path / "void")


# --------------------------------------------------------------------- #
# Satellite: torn-write fuzz at every byte offset, both journals
# --------------------------------------------------------------------- #


class TestTornWriteFuzz:
    def test_stream_journal_truncated_at_every_offset(self, tmp_path):
        store = tmp_path / "store"
        journal_dir = store / "journal"
        stream = StreamingSparsifier(
            12, seed=0, compaction_interval=10**6, store=store
        )
        rng = np.random.default_rng(1)
        reference = []
        for index in range(5):
            edges = rng.integers(0, 12, size=(4, 2))
            edges[:, 1] = (edges[:, 0] + 1 + edges[:, 1] % 10) % 12
            weights = rng.uniform(0.5, 2.0, size=4).round(3)
            stream.ingest(edges, weights)
            reference.append(index)
        full = list(StreamJournal.iter_batches(journal_dir))
        assert [batch[0] for batch in full] == reference
        segment = sorted(journal_dir.glob("segment-*.jsonl"))[-1]
        pristine = segment.read_bytes()
        for offset in range(len(pristine)):
            segment.write_bytes(pristine)
            truncate_file_at(segment, offset)
            try:
                got = list(StreamJournal.iter_batches(journal_dir))
            except CheckpointError:
                continue  # refused loudly: acceptable, never silent
            # Whatever survives is an exact prefix of the original batches.
            assert len(got) <= len(full)
            for actual, expected in zip(got, full):
                assert actual[0] == expected[0]
                for a, b in zip(actual[1:], expected[1:]):
                    assert np.array_equal(a, b)
        segment.write_bytes(pristine)

    def test_batch_journal_truncated_at_every_offset(self, batch_graphs, tmp_path):
        journal = tmp_path / "batch.jsonl"
        full = run_batch(batch_graphs, journal)
        reference = [result_fingerprint(r) for r in full.results]
        pristine = journal.read_bytes()

        def open_journal():
            return BatchJournal(journal, epsilon=0.5, rho=4.0, num_jobs=len(batch_graphs))

        for offset in range(len(pristine)):
            journal.write_bytes(pristine)
            truncate_file_at(journal, offset)
            loader = open_journal()
            completed = loader.load_completed(batch_graphs)
            # Whatever survives is bit-identical to the clean run's results.
            for index, result in completed.items():
                assert result_fingerprint(result) == reference[index]
            # Resume with appends: the torn tail is cut off first, so the
            # re-recorded jobs read back whole.
            for index, result in enumerate(full.results):
                if index not in completed:
                    loader.record(index, batch_graphs[index], result)
            reread = open_journal().load_completed(batch_graphs)
            assert [result_fingerprint(reread[i]) for i in sorted(reread)] == reference
        journal.write_bytes(pristine)


# --------------------------------------------------------------------- #
# Media corruption: flipped bits are refused or quarantined, never replayed
# --------------------------------------------------------------------- #


def run_store_stream(path, torture_graph, torture_batches, **overrides):
    kwargs = dict(
        seed=SEED,
        compaction_interval=COMPACTION_INTERVAL,
        store=path,
        snapshot_every=SNAPSHOT_EVERY,
        segment_bytes=SEGMENT_BYTES,
    )
    kwargs.update(overrides)
    stream = StreamingSparsifier(torture_graph.num_vertices, **kwargs)
    for edges, weights in torture_batches:
        stream.ingest(edges, weights)
    return stream


class TestBitFlipCorruption:
    def test_flipped_journal_byte_is_quarantined_and_accounted(
        self, torture_graph, torture_batches, clean_references, tmp_path
    ):
        store = tmp_path / "store"
        run_store_stream(store, torture_graph, torture_batches)
        segments = sorted((store / "journal").glob("segment-*.jsonl"))
        assert len(segments) >= 2
        victim = segments[0]  # the oldest retained segment: mid-journal
        flip_bit(victim, victim.stat().st_size // 2)
        # The strict reader refuses to attach to corruption.
        with pytest.raises(CheckpointError):
            list(StreamJournal.iter_batches(store / "journal"))
        stream, report = StreamStateStore.recover(store)
        # The ladder either salvaged around the flip bit-exactly (the flip
        # may land in a segment the snapshot already covers) or declared
        # the loss; either way the flipped bytes were never replayed.
        assert report.bit_exact or report.batches_lost > 0
        assert_same_state(
            state_fingerprint(stream), clean_references[stream.batches_ingested]
        )
        if not report.bit_exact:
            assert list(store.rglob("*.quarantined*"))

    def test_flipped_journal_key_is_declared_lossy(self, tmp_path):
        store = tmp_path / "store"
        stream = StreamingSparsifier(6, seed=0, store=store)
        stream.ingest(np.array([[0, 1], [2, 3]]))
        stream.ingest(np.array([[1, 2]]))
        segment = sorted((store / "journal").glob("segment-*.jsonl"))[0]
        flip_bit(segment, segment.read_bytes().index(b'"u": [') + 1)  # "u" -> "t"
        with pytest.raises(CheckpointError, match="malformed"):
            list(StreamJournal.iter_batches(store / "journal"))
        recovered, report = StreamStateStore.recover(store)
        assert not report.bit_exact and report.batches_lost == 2
        assert recovered.batches_ingested == 0

    def test_flipped_batch_result_weight_is_refused(self, batch_graphs, tmp_path):
        journal = tmp_path / "batch.jsonl"
        run_batch(batch_graphs, journal)
        data = journal.read_bytes()
        start = data.index(b'"edge_weights": [') + len(b'"edge_weights": [')
        # The first stored weight with a leading 2/4/6/8: flipping bit 0
        # makes it another nonzero digit (4.0 -> 5.0), still a valid graph.
        offset = start
        while data[offset : offset + 1] not in (b"2", b"4", b"6", b"8"):
            offset = data.index(b", ", offset) + 2
        flip_bit(journal, offset)
        with pytest.raises(CheckpointError, match="digest"):
            run_batch(batch_graphs, journal)

    def test_flipped_snapshot_falls_back_to_previous_snapshot(
        self, torture_graph, torture_batches, clean_references, tmp_path
    ):
        store = tmp_path / "store"
        run_store_stream(store, torture_graph, torture_batches)
        snapshots = sorted((store / "snapshots").glob("snap-*.state"))
        assert len(snapshots) == 2  # keep_snapshots=2 retained both
        flip_bit(snapshots[-1], snapshots[-1].stat().st_size // 2)
        stream, report = StreamStateStore.recover(store)
        # Newest snapshot quarantined; the previous one restores and the
        # journal suffix the store retained for it replays the rest.
        assert report.snapshots_quarantined == 1
        assert report.snapshot_used is not None
        assert report.snapshot_used < len(torture_batches)
        assert report.bit_exact
        assert stream.batches_ingested == len(torture_batches)
        assert_same_state(
            state_fingerprint(stream), clean_references[len(torture_batches)]
        )

    def test_losing_every_snapshot_still_replays_the_journal(
        self, torture_graph, torture_batches, clean_references, tmp_path
    ):
        store = tmp_path / "store"
        run_store_stream(
            store, torture_graph, torture_batches, segment_bytes=10**6
        )  # one segment: the journal holds the full history
        for blob in (store / "snapshots").glob("snap-*.state"):
            flip_bit(blob, blob.stat().st_size // 2)
        stream, report = StreamStateStore.recover(store)
        assert report.snapshots_quarantined == 2
        assert report.snapshot_used is None
        assert report.bit_exact
        assert_same_state(
            state_fingerprint(stream), clean_references[len(torture_batches)]
        )


# --------------------------------------------------------------------- #
# Bounded resume: snapshots cut replay to the journal suffix, provably
# --------------------------------------------------------------------- #


class TestSnapshotBoundedResume:
    def test_recovery_replays_only_the_post_snapshot_suffix(
        self, torture_graph, torture_batches, tmp_path
    ):
        store = tmp_path / "store"
        original = run_store_stream(store, torture_graph, torture_batches)
        last_snapshot = original._store.last_snapshot_batch
        assert last_snapshot >= 4
        stream, report = StreamStateStore.recover(store)
        assert report.bit_exact
        # Read accounting, not timing: the snapshot restored its batches,
        # replay touched only the remainder, and at least one pre-snapshot
        # segment was skipped by header without reading its body.
        assert report.batches_restored == last_snapshot
        assert report.batches_replayed == len(torture_batches) - last_snapshot
        assert report.segments_skipped + report.segments_replayed == report.segments_scanned
        assert report.segments_skipped >= 1
        # And truncation bounded the journal itself: every surviving
        # segment is needed by a retained snapshot.
        infos = StreamJournal.scan_segments(store / "journal")
        retained_from = min(
            int(p.name[len("snap-") : -len(".json")])
            for p in (store / "snapshots").glob("snap-*.json")
        )
        assert all(
            successor.first_batch > retained_from
            for successor in infos[1:]
        )

    def test_checkpoint_requires_a_store(self, torture_graph):
        stream = StreamingSparsifier(torture_graph.num_vertices, seed=SEED)
        with pytest.raises(Exception, match="store"):
            stream.checkpoint()


# --------------------------------------------------------------------- #
# Format versions: a store of another release is refused, never renamed
# --------------------------------------------------------------------- #


def store_files(store):
    return {
        str(path.relative_to(store)): path.read_bytes()
        for path in sorted(store.rglob("*"))
        if path.is_file()
    }


class TestFormatVersion:
    @pytest.mark.parametrize(
        "pattern, current, previous",
        [
            ("journal/segment-*.jsonl", STREAM_JOURNAL_VERSION, 2),
            ("snapshots/snap-*.json", SNAPSHOT_VERSION, 1),
        ],
    )
    def test_previous_format_is_refused_before_any_rename(
        self, torture_graph, torture_batches, tmp_path, pattern, current, previous
    ):
        store = tmp_path / "store"
        run_store_stream(store, torture_graph, torture_batches)
        stamp, old_stamp = (f'"version": {v}'.encode() for v in (current, previous))
        files = list(store.glob(pattern))
        assert files
        for path in files:  # the header / manifest line carries the version
            head, newline, rest = path.read_bytes().partition(b"\n")
            assert stamp in head
            path.write_bytes(head.replace(stamp, old_stamp) + newline + rest)
        before = store_files(store)
        with pytest.raises(CheckpointError, match=rf"version {previous}\b.*version {current}"):
            StreamStateStore.recover(store)
        assert store_files(store) == before
        assert not list(store.rglob("*.quarantined*"))


# --------------------------------------------------------------------- #
# Harness self-tests: the torturer must itself be trustworthy
# --------------------------------------------------------------------- #


class TestCrashPointIO:
    def test_counts_and_dies_exactly_once(self, tmp_path):
        io = CrashPointIO(crash_at=2)
        io.mkdir(tmp_path / "d")
        io.append_line(tmp_path / "d" / "f", "one\n")
        with pytest.raises(SimulatedCrash):
            io.append_line(tmp_path / "d" / "f", "two\n")
        assert io.crashed
        with pytest.raises(SimulatedCrash):  # a dead process stays dead
            io.fsync_dir(tmp_path / "d")
        assert (tmp_path / "d" / "f").read_text() == "one\n"

    def test_torn_mode_leaves_half_the_payload(self, tmp_path):
        io = CrashPointIO(crash_at=0, mode="torn")
        target = tmp_path / "t"
        with pytest.raises(SimulatedCrash):
            io.write_bytes(target, b"abcdefgh")
        assert target.read_bytes() == b"abcd"

    def test_flip_mode_corrupts_one_byte(self, tmp_path):
        io = CrashPointIO(crash_at=0, mode="flip")
        target = tmp_path / "t"
        with pytest.raises(SimulatedCrash):
            io.write_bytes(target, b"\x00" * 8)
        data = target.read_bytes()
        assert len(data) == 8
        assert data.count(b"\x10") == 1

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            CrashPointIO(mode="chaotic")
