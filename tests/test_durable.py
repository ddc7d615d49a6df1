"""Tests for the crash-consistent checkpoint/journal store (repro.durable)."""

import json
import os
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.durable.checkpoint import (
    SCHEMA_VERSION,
    CheckpointError,
    read_checkpoint,
    read_slot,
    write_checkpoint,
)
from repro.durable.journal import RECORD_TYPES, Journal, JournalReplay
from repro.durable.state import apply_journal, empty_state
from repro.durable.store import DurableStore


def tear(path):
    """Damage a checkpoint's payload in place, as a torn write would."""
    with open(path, "r+b") as fh:
        fh.seek(len(fh.readline()) + 10)
        fh.write(b"\0" * 25)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ck.json"
        payload = {"state": {"queue": [1, 2], "now": 3.5}, "journal_seq": 7}
        write_checkpoint(path, payload)
        assert read_checkpoint(path) == payload

    def test_atomic_no_temp_left_behind(self, tmp_path):
        path = tmp_path / "ck.json"
        write_checkpoint(path, {"a": 1})
        write_checkpoint(path, {"a": 2})
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]
        assert read_checkpoint(path) == {"a": 2}

    def test_shorter_checkpoint_after_a_longer_one_reads_back_exactly(self, tmp_path):
        """In place: the longer one's bytes stay past the shorter one's line
        end, and the reader stops at that line end."""
        path = tmp_path / "ck.json"
        long = {"a": list(range(200)), "b": "x" * 300}
        write_checkpoint(path, long, generation=1)
        size = path.stat().st_size
        write_checkpoint(path, {"a": [1]}, generation=2)
        assert path.stat().st_size == size  # nothing freed, stale bytes kept
        assert read_slot(path) == (2, {"a": [1]})
        write_checkpoint(path, long, generation=3)
        assert read_slot(path) == (3, long)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="unreadable"):
            read_checkpoint(tmp_path / "nope.json")

    def test_unknown_schema_version_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        write_checkpoint(path, {"a": 1}, schema=SCHEMA_VERSION + 1)
        with pytest.raises(CheckpointError, match="unknown schema version"):
            read_checkpoint(path)

    def test_corrupted_payload_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        write_checkpoint(path, {"a": 1})
        header, body = path.read_text().splitlines()
        path.write_text(header + "\n" + body.replace("1", "2") + "\n")
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)

    def test_truncated_payload_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        write_checkpoint(path, {"a": 1, "b": list(range(50))})
        text = path.read_text()
        path.write_text(text[: len(text) - 40])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    def test_garbage_header_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("not json at all\n{}\n")
        with pytest.raises(CheckpointError, match="header"):
            read_checkpoint(path)

    def test_empty_file_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("")
        with pytest.raises(CheckpointError):
            read_checkpoint(path)


class TestJournal:
    def test_append_and_replay(self, tmp_path):
        j = Journal(tmp_path / "j.jsonl")
        j.append("job-admit", 1.0, {"kind": "queue", "spec": {"job_id": "a"}})
        j.append("job-evict", 2.0, {"kind": "goodbye", "job_id": "a"})
        j.close()
        replay = Journal(tmp_path / "j.jsonl").replay()
        assert [r.type for r in replay.records] == ["job-admit", "job-evict"]
        assert [r.seq for r in replay.records] == [1, 2]
        assert replay.dropped_tail == 0

    def test_unknown_record_type_rejected(self, tmp_path):
        j = Journal(tmp_path / "j.jsonl")
        with pytest.raises(ValueError, match="unknown journal record type"):
            j.append("nonsense", 0.0, {})

    def test_seq_resumes_across_reopen(self, tmp_path):
        j = Journal(tmp_path / "j.jsonl")
        j.append("cap-decision", 1.0, {})
        j.close()
        j2 = Journal(tmp_path / "j.jsonl")
        assert j2.seq == 1
        j2.append("cap-decision", 2.0, {})
        j2.close()
        assert [r.seq for r in j2.replay().records] == [1, 2]

    def test_torn_tail_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = Journal(path)
        j.append("cap-decision", 1.0, {"hold": {}})
        j.append("cap-decision", 2.0, {"hold": {}})
        j.close()
        text = path.read_text()
        path.write_text(text[: len(text) - 15])  # tear the last record
        replay = Journal(path).replay()
        assert len(replay.records) == 1
        assert replay.dropped_tail == 1

    def test_corrupt_middle_stops_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = Journal(path)
        for t in (1.0, 2.0, 3.0):
            j.append("cap-decision", t, {})
        j.close()
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"seq":2', '"seq":9')  # breaks the crc
        path.write_text("\n".join(lines) + "\n")
        replay = Journal(path).replay()
        # Replay cannot trust anything after the first bad record.
        assert [r.seq for r in replay.records] == [1]
        assert replay.dropped_tail == 2

    def test_single_encode_line_is_the_double_encoded_line(self, tmp_path):
        """The wrapper spliced around the canonical body is byte for byte
        ``canonical({"crc": crc32(canonical(rec)), "rec": rec})``, the form
        every journal on disk was written in, and replays under the crc."""
        def canonical(obj):
            return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()

        path = tmp_path / "j.jsonl"
        j = Journal(path)
        payloads = [
            ("cap-decision", 7.25, {"caps": {"j1": 187.5, "j\u00e9": 140.0},
                                    "correction": -3.0e-7, "target": 2720.0,
                                    "hold": {"last_good": None}}),
            ("model-accept", 8.0, {"job_id": 'q"uote\\', "a": 1e-05, "b": -0.02,
                                   "c": 7.0, "r2": None}),
            ("job-admit", 9.0, {"kind": "hello", "nodes": 4, "z": [1, 2.5, "x"],
                                "a": {"b": {"c": True}}}),
            ("cap-decision", 1e22, {}),
        ]
        expected = b""
        for seq, (rtype, t, data) in enumerate(payloads, start=1):
            j.append(rtype, t, data)
            rec = {"seq": seq, "t": float(t), "type": rtype, "data": data}
            expected += canonical({"crc": zlib.crc32(canonical(rec)), "rec": rec})
            expected += b"\n"
        j.close()
        assert path.read_bytes() == expected
        replay = Journal(path).replay()
        assert replay.dropped_tail == 0
        assert [(r.type, r.time, r.data) for r in replay.records] == payloads

    def test_watermark_skips_covered_records(self, tmp_path):
        j = Journal(tmp_path / "j.jsonl")
        for t in (1.0, 2.0, 3.0):
            j.append("cap-decision", t, {})
        replay = j.replay(min_seq=2)
        assert [r.seq for r in replay.records] == [3]
        j.close()


class TestDurableStore:
    def test_checkpoint_watermarks_journal(self, tmp_path):
        store = DurableStore(tmp_path)
        store.journal.append("job-admit", 1.0, {"kind": "queue", "spec": {}})
        store.save_checkpoint({"state": empty_state()})
        store.journal.append("job-evict", 2.0, {"kind": "goodbye", "job_id": "x"})
        store.close()
        reopened = DurableStore(tmp_path)
        payload, replay = reopened.load()
        assert payload["journal_seq"] == 1
        # Only the record past the watermark replays.
        assert [r.type for r in replay.records] == ["job-evict"]
        reopened.close()

    def test_journal_numbers_on_from_the_watermark_when_rotated_empty(self, tmp_path):
        """Feature matrix (durable, seed 786): a head that restarted right
        after a checkpoint reopened an empty journal and numbered from 1, so
        everything it journalled sat under the watermark and the next restart
        replayed none of it (a launched job vanished from the running set)."""
        store = DurableStore(tmp_path)
        for i in range(5):
            store.journal.append("job-admit", float(i), {"kind": "queue", "spec": {}})
        store.save_checkpoint({"state": empty_state()})  # watermark 5, journal empty
        store.close()
        restarted = DurableStore(tmp_path)
        restarted.load()
        assert restarted.journal.append(
            "job-evict", 9.0, {"kind": "goodbye", "job_id": "x"}) == 6
        restarted.close()
        _, replay = DurableStore(tmp_path).load()
        assert [(r.seq, r.type) for r in replay.records] == [(6, "job-evict")]

    def test_no_checkpoint_replays_everything(self, tmp_path):
        store = DurableStore(tmp_path)
        store.journal.append("cap-decision", 1.0, {})
        store.close()
        payload, replay = DurableStore(tmp_path).load()
        assert payload is None
        assert len(replay.records) == 1

    def test_corrupt_checkpoint_raises_not_guesses(self, tmp_path):
        store = DurableStore(tmp_path)
        store.save_checkpoint({"state": empty_state()})
        store.close()
        ck = DurableStore(tmp_path).newest_slot
        tear(ck)
        with pytest.raises(CheckpointError, match="checksum"):
            DurableStore(tmp_path).load()


class TestStoreCrashConsistency:
    """Two slots alternate, and the journal's base says which of them a
    recovery may still use."""

    @staticmethod
    def _store_with_two_checkpoints(path):
        store = DurableStore(path)
        store.journal.append("job-admit", 1.0, {"kind": "queue", "spec": {}})
        store.save_checkpoint({"state": "older"})  # watermark 1
        store.journal.append("cap-decision", 2.0, {})
        store.save_checkpoint({"state": "newer"})  # watermark 2, journal reset at 2
        return store

    def test_slots_alternate_and_the_highest_generation_loads(self, tmp_path):
        store = self._store_with_two_checkpoints(tmp_path)
        store.journal.append("cap-decision", 3.0, {})
        store.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint.0.json", "checkpoint.1.json", "journal.jsonl"]
        assert [read_slot(p)[0] for p in DurableStore(tmp_path).slot_paths] == [1, 2]
        reopened = DurableStore(tmp_path)
        assert (reopened.newest_slot.name, reopened.generation) == ("checkpoint.1.json", 2)
        payload, replay = reopened.load()
        assert payload["state"] == "newer"
        assert [r.seq for r in replay.records] == [3]
        # The next checkpoint overwrites the older slot, never the newest.
        reopened.save_checkpoint({"state": "third"})
        assert read_slot(tmp_path / "checkpoint.0.json")[0] == 3
        assert read_slot(tmp_path / "checkpoint.1.json")[1]["state"] == "newer"

    def test_a_slot_torn_before_its_reset_falls_back_to_the_older_one(self, tmp_path):
        store = self._store_with_two_checkpoints(tmp_path)
        store.journal.append("cap-decision", 3.0, {})
        real = store.journal.reset
        store.journal.reset = lambda: pytest.fail("reset before the slot landed")
        with pytest.MonkeyPatch.context() as mp:
            def torn_write(path, payload, *, generation):
                write_checkpoint(path, payload, generation=generation)
                tear(path)
                raise KeyboardInterrupt  # the head dies mid-write

            mp.setattr("repro.durable.store.write_checkpoint", torn_write)
            with pytest.raises(KeyboardInterrupt):
                store.save_checkpoint({"state": "torn"})
        store.journal.reset = real
        store.close()
        restarted = DurableStore(tmp_path)
        payload, replay = restarted.load()
        assert payload["state"] == "newer"  # generation 2, its slot intact
        assert [r.seq for r in replay.records] == [3]
        # The torn slot is the one the next checkpoint overwrites.
        restarted.save_checkpoint({"state": "fourth"})
        assert DurableStore(tmp_path).load()[0]["state"] == "fourth"

    def test_a_slot_torn_after_its_reset_is_refused_not_fallen_back_on(self, tmp_path):
        store = self._store_with_two_checkpoints(tmp_path)
        store.close()
        tear(tmp_path / "checkpoint.1.json")
        # The older slot's watermark (1) lies below the journal's base (2):
        # record 2 is gone, so a fallback would silently skip it.
        with pytest.raises(CheckpointError, match=r"checkpoint\.1\.json.*seq 1;"):
            DurableStore(tmp_path).load()

    def test_a_journal_behind_its_checkpoint_is_refused(self, tmp_path):
        store = self._store_with_two_checkpoints(tmp_path)
        store.close()
        (tmp_path / "journal.jsonl").write_bytes(b"")
        with pytest.raises(CheckpointError, match="ends at seq 0"):
            DurableStore(tmp_path).load()

    def test_a_reset_then_a_torn_append_numbers_on_past_the_base(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = Journal(path)
        for t in range(1, 6):
            j.append("cap-decision", float(t), {"watts": float(t)})
        j.reset()
        # The next append dies mid-write: a line with no end.
        with open(path, "r+b") as fh:
            fh.seek(len(fh.readline()))
            fh.write(b'{"crc":1,"rec":{"seq":6')
        j.close()
        reopened = Journal(path)
        replay = reopened.replay()
        assert (replay.records, replay.dropped_tail) == ([], 1)
        assert (reopened.base, reopened.seq) == (5, 5)
        assert reopened.append("cap-decision", 6.0, {}) == 6
        replay = Journal(path).replay()
        assert ([r.seq for r in replay.records], replay.dropped_tail) == ([6], 0)

    def test_a_stale_record_past_a_damaged_tail_is_never_replayed(self, tmp_path):
        """A record written over a damaged tail must not leave a well-formed
        older line behind it, where replay would take it for the next."""
        path = tmp_path / "j.jsonl"
        j = Journal(path)
        for t in range(1, 4):
            j.append("cap-decision", float(t), {"pad": "x" * 40})
        j.close()
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b'"seq":2', b'"seq":7')  # crc fails
        path.write_bytes(b"\n".join(lines))
        reopened = Journal(path)
        assert reopened.seq == 1
        reopened.append("cap-decision", 2.0, {})  # shorter than the old line 2
        replay = Journal(path).replay()
        assert ([r.seq for r in replay.records], replay.dropped_tail) == ([1, 2], 0)


class TestStoreFreesNoBlocks:
    """The store writes in place: no call that frees a disk block, no file
    replaced or shrunk, no file beside the two slots and the journal."""

    FREEING = ("replace", "rename", "unlink", "remove", "truncate", "ftruncate")

    def test_checkpoints_resets_reopen_and_restart_free_nothing(
        self, tmp_path, monkeypatch
    ):
        for name in self.FREEING:
            def refuse(*args, _name=name, **kwargs):
                raise AssertionError(f"os.{_name} called")
            monkeypatch.setattr(os, name, refuse)
        names = ["checkpoint.0.json", "checkpoint.1.json", "journal.jsonl"]
        seen: dict[str, tuple[int, int]] = {}

        def check():
            assert sorted(p.name for p in tmp_path.iterdir()) == names
            for name in names:
                st = (tmp_path / name).stat()
                ino, size = seen.setdefault(name, (st.st_ino, st.st_size))
                assert st.st_ino == ino, name
                assert st.st_size >= size, name
                seen[name] = (ino, st.st_size)

        store = DurableStore(tmp_path)
        for k in range(60):
            for t in range(5 + k % 7):
                store.journal.append("cap-decision", float(t), {"k": k})
            # Payloads shrink from one checkpoint to the next.
            store.save_checkpoint({"state": {"pad": "x" * (3000 - 40 * k)}})
            if k >= 1:
                check()
            if k == 20:  # reopen
                store.close()
                store = DurableStore(tmp_path)
            if k == 40:  # a restart: a torn append, then load and go on
                store.journal.append("cap-decision", 1.0, {})
                store.close()
                with open(tmp_path / "journal.jsonl", "ab") as fh:
                    fh.write(b'{"crc":0,"rec":')
                check()
                store = DurableStore(tmp_path)
                payload, replay = store.load()
                assert payload["state"]["pad"] == "x" * (3000 - 40 * 40)
                assert [r.seq for r in replay.records] == [store.journal.seq]
                assert replay.dropped_tail == 1
        payload, replay = DurableStore(tmp_path).load()
        assert payload["state"]["pad"] == "x" * (3000 - 40 * 59)
        assert replay.records == [] and replay.dropped_tail == 0
        assert store.checkpoints_written == 19
        store.close()


# Strategies for the lossless round-trip property test: randomized journal
# payloads (JSON-representable scalars and containers keyed by strings).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)
_payloads = st.dictionaries(
    st.text(min_size=1, max_size=10),
    st.one_of(_scalars, st.lists(_scalars, max_size=4)),
    max_size=5,
)
_records = st.lists(
    st.tuples(
        st.sampled_from(RECORD_TYPES),
        st.floats(0, 1e6, allow_nan=False),
        _payloads,
    ),
    max_size=20,
)


class TestRoundTripProperty:
    @settings(max_examples=50, deadline=None)
    @given(records=_records)
    def test_journal_round_trip_is_lossless(self, records, tmp_path_factory):
        path = tmp_path_factory.mktemp("journal") / "j.jsonl"
        j = Journal(path)
        for rtype, t, data in records:
            j.append(rtype, t, data)
        j.close()
        replay = Journal(path).replay()
        assert replay.dropped_tail == 0
        assert len(replay.records) == len(records)
        for rec, (rtype, t, data) in zip(replay.records, records):
            assert rec.type == rtype
            assert rec.time == t
            assert rec.data == json.loads(json.dumps(data))

    @settings(max_examples=25, deadline=None)
    @given(payload=_payloads)
    def test_checkpoint_round_trip_is_lossless(self, payload, tmp_path_factory):
        path = tmp_path_factory.mktemp("ck") / "ck.json"
        write_checkpoint(path, {"state": payload})
        assert read_checkpoint(path) == {"state": json.loads(json.dumps(payload))}


class TestApplyJournal:
    def _rec(self, seq, rtype, t, data):
        from repro.durable.journal import JournalRecord

        return JournalRecord(seq=seq, time=t, type=rtype, data=data)

    def test_launch_moves_queue_to_running(self):
        spec = {"job_id": "a", "type_name": "bt", "nodes": 4,
                "claimed_type": "bt", "submit_time": 0.0}
        state = apply_journal(empty_state(), [
            self._rec(1, "job-admit", 0.0, {"kind": "queue", "spec": spec}),
            self._rec(2, "job-admit", 1.0, {"kind": "launch", "spec": spec,
                                            "attempt": 1}),
        ])
        assert state["queue"] == []
        assert list(state["running"]) == ["a"]
        assert state["pending_index"] == 1

    def test_requeue_pops_running(self):
        spec = {"job_id": "a", "type_name": "bt", "nodes": 4,
                "claimed_type": "bt", "submit_time": 0.0}
        state = apply_journal(empty_state(), [
            self._rec(1, "job-admit", 1.0, {"kind": "launch", "spec": spec,
                                            "attempt": 1}),
            self._rec(2, "job-admit", 5.0, {"kind": "requeue", "spec": spec,
                                            "attempt": 2}),
        ])
        assert state["running"] == {}
        assert [s["job_id"] for s in state["queue"]] == ["a"]
        assert state["attempts"]["a"] == 2
        assert state["requeued"] == ["a"]

    def test_hello_then_model_then_evict(self):
        hello = {"kind": "hello", "job_id": "a", "claimed_type": "bt",
                 "nodes": 4, "believed_p_max": 250.0}
        state = apply_journal(empty_state(), [
            self._rec(1, "job-admit", 1.0, hello),
            self._rec(2, "model-accept", 2.0,
                      {"job_id": "a", "a": 1e-5, "b": -0.01, "c": 3.0,
                       "r2": 0.98}),
            self._rec(3, "job-evict", 9.0, {"kind": "goodbye", "job_id": "a"}),
        ])
        assert state["manager"]["jobs"] == {}

    def test_rehello_preserves_learned_state(self):
        hello = {"kind": "hello", "job_id": "a", "claimed_type": "bt",
                 "nodes": 4, "believed_p_max": 250.0}
        state = apply_journal(empty_state(), [
            self._rec(1, "job-admit", 1.0, hello),
            self._rec(2, "model-accept", 2.0,
                      {"job_id": "a", "a": 1e-5, "b": -0.01, "c": 3.0,
                       "r2": 0.98}),
            self._rec(3, "job-admit", 5.0, hello),  # reconnect
        ])
        assert state["manager"]["jobs"]["a"]["online"] == [1e-5, -0.01, 3.0]

    def test_complete_pops_running_only(self):
        spec = {"job_id": "a", "type_name": "bt", "nodes": 4,
                "claimed_type": "bt", "submit_time": 0.0}
        hello = {"kind": "hello", "job_id": "a", "claimed_type": "bt",
                 "nodes": 4, "believed_p_max": 250.0}
        state = apply_journal(empty_state(), [
            self._rec(1, "job-admit", 1.0, {"kind": "launch", "spec": spec,
                                            "attempt": 1}),
            self._rec(2, "job-admit", 1.0, hello),
            self._rec(3, "job-evict", 8.0, {"kind": "complete", "job_id": "a"}),
        ])
        assert state["running"] == {}
        # The manager's record goes separately, via the goodbye.
        assert "a" in state["manager"]["jobs"]

    @pytest.mark.parametrize("kind", ["killed", "shed", "lost"])
    def test_dropped_job_leaves_the_running_view(self, kind):
        """A shed kill, like a node-crash kill, ends the job for good: a
        replay that kept it running would have a restarted head declare it
        an orphan and requeue a job the ladder killed."""
        spec = {"job_id": "a", "type_name": "cg", "nodes": 4,
                "claimed_type": "cg", "submit_time": 0.0}
        state = apply_journal(empty_state(), [
            self._rec(1, "job-admit", 0.0, {"kind": "queue", "spec": spec}),
            self._rec(2, "job-admit", 1.0, {"kind": "launch", "spec": spec,
                                            "attempt": 1}),
            self._rec(3, "job-evict", 9.0, {"kind": kind, "job_id": "a"}),
        ])
        assert state["running"] == {} and state["queue"] == []

    def test_manager_orphan_keeps_a_running_job(self):
        """The manager's ``orphan`` clears its own record only: a job whose
        endpoint died in the outage is still running, and a second restart
        must still count it as launched."""
        spec = {"job_id": "a", "type_name": "bt", "nodes": 4,
                "claimed_type": "bt", "submit_time": 0.0}
        hello = {"kind": "hello", "job_id": "a", "claimed_type": "bt",
                 "nodes": 4, "believed_p_max": 250.0}
        state = apply_journal(empty_state(), [
            self._rec(1, "job-admit", 1.0, {"kind": "launch", "spec": spec,
                                            "attempt": 1}),
            self._rec(2, "job-admit", 1.0, hello),
            self._rec(3, "job-evict", 40.0, {"kind": "orphan", "job_id": "a"}),
        ])
        assert state["manager"]["jobs"] == {}
        assert list(state["running"]) == ["a"]

    def test_cap_decision_updates_caps_and_hold(self):
        hello = {"kind": "hello", "job_id": "a", "claimed_type": "bt",
                 "nodes": 4, "believed_p_max": 250.0}
        state = apply_journal(empty_state(), [
            self._rec(1, "job-admit", 1.0, hello),
            self._rec(2, "cap-decision", 2.0,
                      {"caps": {"a": 180.0}, "correction": -3.0,
                       "target": 2000.0,
                       "hold": {"last_good": 2000.0, "last_good_time": 2.0,
                                "degraded_reads": 0}}),
        ])
        entry = state["manager"]["jobs"]["a"]
        assert entry["last_cap"] == 180.0
        assert entry["caps_sent"] == 1
        assert state["manager"]["correction"] == -3.0
        assert state["target_hold"]["last_good"] == 2000.0


class TestJournalRotation:
    """A checkpoint resets the journal in place: a ``{"base":seq}`` first
    line, and line ends over every record behind it."""

    def test_rotate_drops_covered_records(self, tmp_path):
        j = Journal(tmp_path / "j.jsonl")
        for t in range(1, 6):
            j.append("cap-decision", float(t), {"watts": 100.0 * t})
        assert j.reset() == 5
        j.append("cap-decision", 6.0, {"watts": 600.0})
        reopened = Journal(tmp_path / "j.jsonl")
        assert (reopened.base, reopened.seq) == (5, 6)
        replay = reopened.replay()
        assert [r.seq for r in replay.records] == [6]
        assert replay.dropped_tail == 0

    def test_rotate_noop_when_nothing_covered(self, tmp_path):
        j = Journal(tmp_path / "j.jsonl")
        assert j.reset() == 0
        assert not (tmp_path / "j.jsonl").exists()  # nothing written, nothing made
        j.append("cap-decision", 1.0, {"watts": 100.0})
        assert j.reset() == 1
        before = (tmp_path / "j.jsonl").read_bytes()
        assert j.reset() == 0
        assert (tmp_path / "j.jsonl").read_bytes() == before

    def test_seq_never_resets_after_rotation(self, tmp_path):
        j = Journal(tmp_path / "j.jsonl")
        for t in range(1, 4):
            j.append("cap-decision", float(t), {"watts": 1.0})
        j.reset()  # no record left on disk
        assert j.append("cap-decision", 4.0, {"watts": 2.0}) == 4
        replay = Journal(tmp_path / "j.jsonl").replay()
        assert [r.seq for r in replay.records] == [4]

    def test_rotate_discards_torn_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = Journal(path)
        for t in range(1, 4):
            j.append("cap-decision", float(t), {"watts": 1.0})
        j.close()
        with open(path, "ab") as fh:
            fh.write(b'{"crc": 0, "rec":')  # torn final write
        j2 = Journal(path)
        assert j2.reset() == 3
        j2.append("cap-decision", 4.0, {"watts": 1.0})
        replay = Journal(path).replay()
        assert [r.seq for r in replay.records] == [4]
        assert replay.dropped_tail == 0  # the torn line is gone from disk

    def test_rotated_journal_survives_reopen_and_append(self, tmp_path):
        j = Journal(tmp_path / "j.jsonl")
        for t in range(1, 6):
            j.append("cap-decision", float(t), {"watts": float(t)})
        j.reset()
        j.append("cap-decision", 6.0, {"watts": 6.0})
        j.close()
        reopened = Journal(tmp_path / "j.jsonl")
        reopened.append("cap-decision", 7.0, {"watts": 7.0})
        reopened.close()
        replay = Journal(tmp_path / "j.jsonl").replay()
        assert [r.seq for r in replay.records] == [6, 7]

    def test_full_rotation_does_not_read_the_journal(self, tmp_path, monkeypatch):
        """What every checkpoint asks for — drop everything — is answered
        from the running count: exact, in place, and without a replay."""
        path = tmp_path / "j.jsonl"
        j = Journal(path)
        for t in range(1, 8):
            j.append("cap-decision", float(t), {"watts": float(t)})
        monkeypatch.setattr(
            Journal, "replay", lambda *a, **k: pytest.fail("reset re-read the file")
        )
        assert j.reset() == 7
        assert j.reset() == 0  # nothing on disk: nothing dropped
        j.append("cap-decision", 8.0, {"watts": 8.0})
        j.append("cap-decision", 9.0, {"watts": 9.0})
        assert j.reset() == 2
        monkeypatch.undo()
        # No trusted record, no temp file.
        assert Journal(path).replay() == JournalReplay(records=[], dropped_tail=0)
        assert [p.name for p in tmp_path.iterdir()] == ["j.jsonl"]
        assert j.append("cap-decision", 10.0, {}) == 10
        assert [r.seq for r in Journal(path).replay().records] == [10]

    def test_full_rotation_counts_exactly_after_reopen_and_partial(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = Journal(path)
        for t in range(1, 6):
            j.append("cap-decision", float(t), {})
        assert j.reset() == 5
        j.append("cap-decision", 6.0, {})
        j.close()
        reopened = Journal(path)
        reopened.append("cap-decision", 7.0, {})
        assert reopened.reset() == 2
        assert Journal(path).replay().records == []
        assert Journal(path).seq == 7

    def test_full_rotation_clears_a_torn_tail_and_counts_trusted_records(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = Journal(path)
        for t in range(1, 4):
            j.append("cap-decision", float(t), {})
        j.close()
        with open(path, "ab") as fh:
            fh.write(b'{"crc": 0, "rec":')  # torn final write
        damaged = Journal(path)
        # Only the three trusted records count as dropped; the torn line goes.
        assert damaged.reset() == 3
        # No trusted record, no temp file.
        assert Journal(path).replay() == JournalReplay(records=[], dropped_tail=0)
        assert [p.name for p in tmp_path.iterdir()] == ["j.jsonl"]
        damaged.append("cap-decision", 4.0, {})
        assert damaged.reset() == 1

    def test_store_checkpoint_rotates_journal(self, tmp_path):
        store = DurableStore(tmp_path)
        for t in range(1, 20):
            store.journal.append("cap-decision", float(t), {"watts": float(t)})
        store.save_checkpoint(empty_state())
        # Everything the checkpoint covers is physically gone from disk.
        replay = Journal(store.journal.path).replay()
        assert replay.records == []
        store.journal.append("cap-decision", 21.0, {"watts": 1.0})
        assert Journal(store.journal.path).replay().records[0].seq == 20


class TestFsyncDir:
    def test_fsync_dir_on_real_directory(self, tmp_path):
        from repro.durable.checkpoint import fsync_dir

        fsync_dir(tmp_path)  # must not raise

    def test_fsync_dir_tolerates_missing_path(self, tmp_path):
        from repro.durable.checkpoint import fsync_dir

        fsync_dir(tmp_path / "does-not-exist")  # silently skipped
