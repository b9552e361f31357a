"""Durability of the write-ahead log: fsync discipline, crash replay and
snapshot failure.

The append/snapshot/meta paths must fsync (a) every file of a committed
artefact, (b) the artefact's own directory, and (c) the parent directory
whose entry the atomic rename changed — otherwise a power cut after the
ack can surface a committed-looking entry with empty CSVs, or lose the
rename itself.  These tests enumerate the fsync calls by path instead of
trusting the happy path.
"""

from __future__ import annotations

import asyncio
import errno
import os

import pytest

from repro.core.parser import parse_program
from repro.core.semantics.stratified import stratified_semantics
from repro.db.database import Database
from repro.db.relation import Relation
from repro.materialize.delta import Delta
from repro.server import ViewServer
from repro.server.wal import DeltaLog


def _db(edges, universe):
    return Database(frozenset(universe), [Relation("E", 2, set(edges))])


@pytest.fixture
def fsynced(monkeypatch):
    """Record the real path of every fd passed to os.fsync."""
    calls = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        try:
            calls.append(os.path.realpath("/proc/self/fd/%d" % fd))
        except OSError:
            calls.append("<unknown>")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    return calls


class TestFsyncEnumeration:
    def test_append_fsyncs_entry_files_entry_dir_and_wal_dir(
        self, tmp_path, fsynced
    ):
        log = DeltaLog.initialise(
            tmp_path / "v", "v", "T(X,Y) :- E(X,Y).", "stratified", None,
            _db([(1, 2)], range(3)),
        )
        fsynced.clear()
        log.append(1, Delta.insert("E", (0, 1)))
        entry = tmp_path / "v" / "wal" / "00000001"
        assert entry.is_dir()
        synced = set(fsynced)
        # every CSV file of the entry was fsync'd (under its tmp name)
        csvs = [p.name for p in entry.iterdir()]
        assert csvs, "append wrote no delta files"
        for name in csvs:
            assert any(p.endswith("/" + name) for p in synced), name
        # the entry directory itself, and the WAL directory whose entry
        # the rename changed
        assert any(p.endswith(".tmp-00000001") for p in synced)
        assert str(entry.parent) in synced

    def test_snapshot_and_meta_replace_are_fsynced(self, tmp_path, fsynced):
        log = DeltaLog.initialise(
            tmp_path / "v", "v", "T(X,Y) :- E(X,Y).", "stratified", None,
            _db([(1, 2)], range(3)),
        )
        log.append(1, Delta.insert("E", (0, 1)))
        fsynced.clear()
        log.snapshot(1, _db([(1, 2), (0, 1)], range(3)))
        synced = set(fsynced)
        # snapshot files + its directory, under the pre-rename tmp name
        assert any("tmp-snapshot-00000001" in p and p.endswith(".csv") for p in synced)
        assert any(p.endswith(".tmp-snapshot-00000001") for p in synced)
        # meta.json contents, then the state dir for both renames
        assert any(p.endswith("meta.json.tmp") for p in synced)
        assert str(tmp_path / "v") in synced


class TestCrashReplay:
    def test_torn_append_is_invisible_to_recovery(self, tmp_path):
        log = DeltaLog.initialise(
            tmp_path / "v", "v", "T(X,Y) :- E(X,Y).", "stratified", None,
            _db([(1, 2)], range(3)),
        )
        log.append(1, Delta.insert("E", (0, 1)))
        # a crash mid-append leaves a .tmp- directory that never renamed
        torn = tmp_path / "v" / "wal" / ".tmp-00000002"
        torn.mkdir()
        (torn / "E.csv").write_text("+,0,2\n")
        rec = log.recover()
        assert [seq for seq, _ in rec.entries] == [1]

    def test_recovery_replays_to_the_pre_crash_state(self, tmp_path):
        db = _db([(i, i + 1) for i in range(4)], range(6))
        log = DeltaLog.initialise(
            tmp_path / "v", "v", "T(X,Y) :- E(X,Y).", "stratified", None, db
        )
        deltas = [
            Delta.insert("E", (4, 5)),
            Delta.delete("E", (1, 2)),
            Delta(inserts={"E": [(1, 2)]}, deletes={"E": [(0, 1)]}),
        ]
        expected = db
        for seq, delta in enumerate(deltas, start=1):
            log.append(seq, delta)
            expected = expected.apply_delta(delta)
        # "crash": recover from a fresh DeltaLog over the same directory
        rec = DeltaLog(tmp_path / "v").recover()
        replayed = rec.db
        for _seq, delta in rec.entries:
            replayed = replayed.apply_delta(delta)
        assert replayed["E"].tuples == expected["E"].tuples
        assert replayed.universe == expected.universe


class TestSnapshotFailure:
    def test_failed_meta_write_leaves_snapshot_seq_unmoved(self, tmp_path, monkeypatch):
        log = DeltaLog.initialise(
            tmp_path / "v", "v", "T(X,Y) :- E(X,Y).", "stratified", None,
            _db([(1, 2)], range(3)),
        )
        log.append(1, Delta.insert("E", (0, 1)))

        def full_disk(self, meta):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(DeltaLog, "_write_meta", full_disk)
        with pytest.raises(OSError):
            log.snapshot(1, _db([(1, 2), (0, 1)], range(3)))
        # snapshot_seq has not moved, so the writer's next commit (and
        # the final snapshot at close) retries the snapshot.
        assert log.snapshot_seq == 0
        monkeypatch.undo()
        log.snapshot(1, _db([(1, 2), (0, 1)], range(3)))
        assert log.snapshot_seq == DeltaLog(tmp_path / "v").snapshot_seq == 1

    def test_failed_snapshot_acks_the_batch_and_retries_next_commit(
        self, tmp_path, monkeypatch
    ):
        """A full disk while snapshotting must not kill the view's writer.

        The WAL already holds each batch, so both submits are acknowledged,
        the failures are counted, the next commit after the disk recovers
        cuts the snapshot, and the state directory recovers to the same
        view as a from-scratch evaluation.
        """
        program = "T(X,Y) :- E(X,Y).\nT(X,Z) :- E(X,Y), T(Y,Z).\n"
        name = "snapfail"

        def full_disk(self, seq, db):
            raise OSError(errno.ENOSPC, "No space left on device")

        def failures(service):
            prefix = 'repro_wal_snapshot_failures_total{view="%s"} ' % name
            for line in service.metrics().splitlines():
                if line.startswith(prefix):
                    return float(line[len(prefix):])
            return 0.0

        async def scenario():
            service = ViewServer(state_dir=tmp_path, tick=0.0, snapshot_every=1)
            await service.start()
            service.register(name, program, _db([(0, 1)], range(4)))
            failed_before = failures(service)
            monkeypatch.setattr(DeltaLog, "snapshot", full_disk)
            first = await asyncio.wait_for(
                service.submit(name, Delta.insert("E", (1, 2))), 3
            )
            second = await asyncio.wait_for(
                service.submit(name, Delta.insert("E", (2, 3))), 3
            )
            assert (first[0], second[0]) == (1, 2)
            assert failures(service) == failed_before + 2
            state = service._views[name]
            assert state.log.snapshot_seq == 0

            monkeypatch.undo()
            third = await asyncio.wait_for(
                service.submit(name, Delta.delete("E", (0, 1))), 3
            )
            assert third[0] == 3
            assert state.log.snapshot_seq == 3
            live = dict(state.view.result.idb)

            # Crash without a final snapshot, then recover the directory.
            for viewstate in service._views.values():
                viewstate.task.cancel()
            restarted = ViewServer(state_dir=tmp_path, tick=0.0)
            (info,) = await restarted.start()
            recovered = restarted._views[name].view
            scratch = stratified_semantics(parse_program(program), recovered.db)
            await restarted.close()
            return info.seq, live, dict(recovered.result.idb), dict(scratch.idb)

        seq, live, recovered, scratch = asyncio.run(scenario())
        assert seq == 3
        assert recovered == live == scratch
        assert recovered["T"].tuples == {(1, 2), (1, 3), (2, 3)}
