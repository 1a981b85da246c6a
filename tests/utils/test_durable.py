"""The durable-file primitive under injected crashes and I/O faults.

Every crash-safe store (campaign chunk log and ``events.jsonl``, service
job log, fleet lease ledger, sweep point log, atomic whole-file writes)
goes through :mod:`repro.utils.durable`, so its crash policy is
enumerated here once, single fault by single fault: a kill at every byte
offset of a log; in a live process, short writes, ``ENOSPC`` after every
byte of an entry and ``EIO`` from ``fsync``; a kill or failure after
every byte of an atomic write.  The last test runs the same torn tail
through each store's own API.
"""

import errno
import json
import os
import threading

import pytest

from repro.attack.spec import AttackSample
from repro.campaign import CampaignSpec, RunStore
from repro.campaign.scheduler import Chunk
from repro.core.results import OutcomeCategory, SampleRecord
from repro.errors import EvaluationError
from repro.fleet import ChunkLedger
from repro.service.jobs import Job, JobStore
from repro.sweep.store import SweepStore
from repro.utils import durable
from repro.utils.durable import JsonlLog, atomic_path, atomic_write

#: Entries of different lengths (the kill sweep needs distinct offsets).
ENTRIES = [
    {"i": 0},
    {"i": 1, "pad": "x" * 9},
    {"i": 2, "nested": {"a": [1, 2, 3], "b": None}},
    {"i": 3, "f": 0.125, "t": True},
    {"i": 4, "pad": "y" * 31, "s": "café"},
]
IN_FLIGHT = {"i": "in-flight", "pad": "z" * 12}
NEXT = {"i": "next"}


def encoded(entry) -> bytes:
    return (json.dumps(entry, sort_keys=True) + "\n").encode()


def replay(path):
    return list(JsonlLog(path).replay())


class OsShim:
    """The ``os`` module as :mod:`repro.utils.durable` sees it, with
    some calls overridden."""

    def __init__(self, **overrides):
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(os, name)


def write_prefix_then(exc_factory, n_bytes):
    """An ``os.write`` that lands ``n_bytes`` of the first call's data,
    then raises ``exc_factory()``."""

    def write(fd, data):
        if n_bytes:
            os.write(fd, bytes(data[:n_bytes]))
        raise exc_factory()

    return write


def short_write_then(exc_factory, n_bytes):
    """An ``os.write`` whose first call is short (``n_bytes`` land and
    are reported) and whose next call raises ``exc_factory()``."""
    calls = []

    def write(fd, data):
        calls.append(len(data))
        if len(calls) == 1:
            return os.write(fd, bytes(data[:n_bytes]))
        raise exc_factory()

    return write


def oserror(code):
    return lambda: OSError(code, os.strerror(code))


# ----------------------------------------------------------------------
# the log
# ----------------------------------------------------------------------
class TestCommitRule:
    def test_append_writes_one_sorted_line_per_entry(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = JsonlLog(path)
        for entry in ENTRIES:
            log.append(entry)
        assert path.read_bytes() == b"".join(encoded(e) for e in ENTRIES)
        assert replay(path) == ENTRIES

    def test_sort_keys_false_keeps_insertion_order(self, tmp_path):
        path = tmp_path / "log.jsonl"
        JsonlLog(path, sort_keys=False).append({"b": 1, "a": 2})
        assert path.read_bytes() == b'{"b": 1, "a": 2}\n'

    def test_missing_file_replays_empty(self, tmp_path):
        assert replay(tmp_path / "absent.jsonl") == []

    def test_kill_at_every_byte_offset(self, tmp_path):
        source = tmp_path / "source.jsonl"
        log = JsonlLog(source)
        for entry in ENTRIES:
            log.append(entry)
        image = source.read_bytes()
        ends = [i + 1 for i, byte in enumerate(image) if byte == ord("\n")]
        assert len(ends) == len(ENTRIES)
        for k in range(len(image) + 1):
            path = tmp_path / f"killed-{k}.jsonl"
            path.write_bytes(image[:k])
            expected = [e for e, end in zip(ENTRIES, ends) if end <= k]
            assert replay(path) == expected, k
            JsonlLog(path).append(NEXT)
            assert replay(path) == expected + [NEXT], k

    def test_unterminated_tail_is_dropped_even_when_it_parses(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(encoded(ENTRIES[0]) + encoded(ENTRIES[1])[:-1])
        assert replay(path) == ENTRIES[:1]
        JsonlLog(path).append(NEXT)
        assert replay(path) == [ENTRIES[0], NEXT]

    def test_tail_longer_than_one_scan_block_is_cut(self, tmp_path):
        path = tmp_path / "log.jsonl"
        fragment = b'{"pad": "' + b"q" * (3 * durable._SCAN_BYTES)
        path.write_bytes(encoded(ENTRIES[0]) + fragment)
        JsonlLog(path).append(NEXT)
        assert replay(path) == [ENTRIES[0], NEXT]

    def test_corrupt_committed_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(encoded(ENTRIES[0]) + b"not json\n" + encoded(NEXT))
        log = JsonlLog(path, name="test log", error=EvaluationError)
        with pytest.raises(
            EvaluationError, match=f"corrupt test log {path} at line 2"
        ):
            list(log.replay())

    def test_advisory_log_skips_fsync(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(
            durable, "os", OsShim(fsync=lambda fd: calls.append(fd))
        )
        JsonlLog(tmp_path / "events.jsonl", fsync=False).append(NEXT)
        assert calls == []
        JsonlLog(tmp_path / "log.jsonl").append(NEXT)
        assert len(calls) == 1


class TestFaultsInALiveProcess:
    def inject(self, tmp_path, monkeypatch, name, fresh, **overrides):
        """Three acknowledged appends, then one under ``overrides``
        (which must make it raise); returns the replay after the fault,
        having checked that one more append replays intact."""
        path = tmp_path / f"{name}.jsonl"
        log = JsonlLog(path)
        for entry in ENTRIES[:3]:
            log.append(entry)
        with monkeypatch.context() as patch:
            patch.setattr(durable, "os", OsShim(**overrides))
            with pytest.raises(OSError):
                log.append(IN_FLIGHT)
        survivors = replay(path)
        writer = JsonlLog(path) if fresh else log
        writer.append(NEXT)
        assert replay(path) == survivors + [NEXT], name
        return survivors

    @pytest.mark.parametrize("fresh", [False, True], ids=["same", "fresh"])
    def test_short_write_then_eio(self, tmp_path, monkeypatch, fresh):
        for n in range(1, len(encoded(IN_FLIGHT))):
            write = short_write_then(oserror(errno.EIO), n)
            survivors = self.inject(
                tmp_path, monkeypatch, f"short-{n}", fresh, write=write
            )
            assert survivors == ENTRIES[:3], n

    @pytest.mark.parametrize("fresh", [False, True], ids=["same", "fresh"])
    def test_enospc_after_every_byte(self, tmp_path, monkeypatch, fresh):
        for j in range(len(encoded(IN_FLIGHT))):
            write = write_prefix_then(oserror(errno.ENOSPC), j)
            survivors = self.inject(
                tmp_path, monkeypatch, f"enospc-{j}", fresh, write=write
            )
            assert survivors == ENTRIES[:3], j

    @pytest.mark.parametrize("fresh", [False, True], ids=["same", "fresh"])
    def test_fsync_eio(self, tmp_path, monkeypatch, fresh):
        def fsync(fd):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        survivors = self.inject(
            tmp_path, monkeypatch, "fsync", fresh, fsync=fsync
        )
        # The line landed whole; only its durability is in doubt.
        assert survivors in (ENTRIES[:3], ENTRIES[:3] + [IN_FLIGHT])

    def test_short_writes_are_completed(self, tmp_path, monkeypatch):
        def dribble(fd, data):
            return os.write(fd, bytes(data[:3]))

        path = tmp_path / "log.jsonl"
        monkeypatch.setattr(durable, "os", OsShim(write=dribble))
        log = JsonlLog(path)
        for entry in ENTRIES:
            log.append(entry)
        assert replay(path) == ENTRIES


# ----------------------------------------------------------------------
# atomic whole-file writes
# ----------------------------------------------------------------------
class _Killed(BaseException):
    """Stands in for the process dying mid-write."""


OLD = '{"version": "old"}'
NEW = '{"version": "new", "pad": "' + "n" * 40 + '"}'


class TestAtomicWrite:
    def test_replaces_content_and_leaves_no_temporary(self, tmp_path):
        target = tmp_path / "state.json"
        atomic_write(target, OLD)
        atomic_write(target, NEW)
        assert target.read_text() == NEW
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]

    @pytest.mark.parametrize("existed", [True, False], ids=["old", "absent"])
    @pytest.mark.parametrize("killed", [False, True], ids=["raised", "killed"])
    def test_interrupted_after_any_byte(
        self, tmp_path, monkeypatch, existed, killed
    ):
        data = NEW.encode()
        for j in range(len(data)):
            folder = tmp_path / f"{j}"
            folder.mkdir()
            target = folder / "state.json"
            if existed:
                target.write_text(OLD)
            overrides = {
                "write": write_prefix_then(
                    _Killed if killed else oserror(errno.ENOSPC), j
                )
            }
            if killed:
                # A dead process runs no cleanup.
                overrides["unlink"] = lambda path: None
            with monkeypatch.context() as patch:
                patch.setattr(durable, "os", OsShim(**overrides))
                with pytest.raises((_Killed, OSError)):
                    atomic_write(target, NEW)
            if existed:
                assert target.read_text() == OLD, j
            else:
                assert not target.exists(), j
            leftovers = [p.name for p in folder.iterdir() if p != target]
            if killed:
                assert all(name.endswith(".tmp") for name in leftovers)
            else:
                assert leftovers == []
            assert list(folder.glob("*.json")) == ([target] if existed else [])

    def test_two_threads_writing_one_path_both_return(self, tmp_path):
        target = tmp_path / "state.json"
        texts = [OLD, NEW]
        start = threading.Barrier(2)
        errors = []

        def writer(text):
            try:
                start.wait(timeout=10)
                for _ in range(50):
                    atomic_write(target, text)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(t,)) for t in texts
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert errors == []
        assert target.read_text() in texts
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_atomic_path_temporary_is_unique_and_not_json(self, tmp_path):
        target = tmp_path / "artifact.json"
        with atomic_path(target) as first, atomic_path(target) as second:
            assert first != second
            assert first.parent == second.parent == tmp_path
            assert first.suffix == second.suffix == ".tmp"
            first.write_text(OLD)
            second.write_text(NEW)
        assert target.read_text() == OLD
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]

    def test_atomic_path_failure_removes_temporary(self, tmp_path):
        target = tmp_path / "artifact.json"
        with pytest.raises(RuntimeError):
            with atomic_path(target) as tmp:
                tmp.write_text("{partial")
                raise RuntimeError("builder failed")
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# every store: a torn tail, then more appends
# ----------------------------------------------------------------------
def _record():
    return SampleRecord(
        sample=AttackSample(t=3, centre=17, radius_um=5.0, weight=1.0),
        e=0,
        category=OutcomeCategory.MASKED,
        flipped_bits=frozenset(),
        injection_cycle=3,
        n_pulses_injected=1,
        n_pulses_latched=0,
        analytical=False,
    )


class _ChunkLog:
    def __init__(self, root):
        RunStore.create(root, CampaignSpec(), run_id="r")
        self.dir = root / "r"
        self.path = self.dir / "log.jsonl"

    def open(self):
        return RunStore(self.dir)

    def append(self, store, i):
        store.append_chunk(i, [_record()])

    def read(self, store):
        return [entry.index for entry in store.replay_chunks()]


class _EventLog:
    def __init__(self, root):
        self.dir = root / "run"
        self.path = self.dir / "events.jsonl"

    def open(self):
        return RunStore(self.dir)

    def append(self, store, i):
        store.append_event({"type": "tick", "i": i})

    def read(self, store):
        return [event["i"] for event in store.read_events()]


class _JobLog:
    def __init__(self, root):
        self.dir = root / "service"
        self.path = self.dir / "jobs.jsonl"

    def open(self):
        return JobStore(self.dir)

    def append(self, store, i):
        store.record_submit(
            Job(job_id=str(i), spec={}, spec_hash="h", run_id=str(i))
        )

    def read(self, store):
        return [int(job_id) for job_id in store.load()]


class _Ledger:
    CHUNKS = [Chunk(i, 10) for i in range(6)]

    def __init__(self, root):
        self.path = root / "ledger.jsonl"

    def open(self):
        return ChunkLedger(
            self.path, self.CHUNKS, ttl_s=100.0, clock=lambda: 1000.0
        )

    def append(self, ledger, i):
        assert ledger.lease(f"w{i}").chunk.index == i

    def read(self, ledger):
        return sorted(lease.chunk.index for lease in ledger.active_leases())


class _SweepPoints:
    def __init__(self, root):
        self.dir = root / "sweep"
        self.dir.mkdir()
        self.path = self.dir / "points.jsonl"

    def open(self):
        return SweepStore(self.dir)

    def append(self, store, i):
        store.record_point({"label": f"p{i}", "state": "queued", "i": i})

    def read(self, store):
        return [point["i"] for point in store.read_points().values()]


STORES = {
    "chunk-log": _ChunkLog,
    "events": _EventLog,
    "job-log": _JobLog,
    "ledger": _Ledger,
    "sweep-points": _SweepPoints,
}


@pytest.mark.parametrize("kind", sorted(STORES))
def test_store_appends_cleanly_after_a_torn_tail(tmp_path, kind):
    log = STORES[kind](tmp_path)
    store = log.open()
    log.append(store, 0)
    log.append(store, 1)
    with open(log.path, "ab") as fh:
        fh.write(b'{"torn": "fragm')
    store = log.open()
    assert log.read(store) == [0, 1]
    log.append(store, 2)
    log.append(store, 3)
    assert log.read(log.open()) == [0, 1, 2, 3]
