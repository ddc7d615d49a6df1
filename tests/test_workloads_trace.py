"""Tests for schedule records and CSV round-tripping (paper §4.1)."""

import pytest

from repro.workloads.trace import JobRequest, Schedule, load_schedule, save_schedule


class TestJobRequest:
    def test_valid(self):
        req = JobRequest(10.0, "j1", "bt", 2)
        assert req.nodes == 2

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="≥ 0"):
            JobRequest(-1.0, "j1", "bt", 2)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError, match="≥ 1"):
            JobRequest(0.0, "j1", "bt", 0)


class TestSchedule:
    def test_sorts_on_construction(self):
        sched = Schedule(
            requests=[
                JobRequest(5.0, "b", "bt", 1),
                JobRequest(1.0, "a", "sp", 1),
            ]
        )
        assert [r.job_id for r in sched] == ["a", "b"]

    def test_between(self):
        sched = Schedule(
            requests=[JobRequest(float(t), f"j{t}", "bt", 1) for t in (1, 5, 9)]
        )
        assert [r.job_id for r in sched.between(2.0, 9.0)] == ["j5"]

    def test_type_counts(self):
        sched = Schedule(
            requests=[
                JobRequest(0.0, "a", "bt", 1),
                JobRequest(1.0, "b", "bt", 1),
                JobRequest(2.0, "c", "sp", 1),
            ]
        )
        assert sched.type_counts() == {"bt": 2, "sp": 1}

    def test_len_and_end_time(self):
        sched = Schedule(duration=100.0, start_time=10.0)
        assert len(sched) == 0
        assert sched.end_time == 110.0


class TestFileRoundTrip:
    def test_roundtrip(self, tmp_path):
        sched = Schedule(
            requests=[
                JobRequest(0.5, "j0", "bt", 2),
                JobRequest(7.25, "j1", "sp", 4),
            ],
            duration=3600.0,
            start_time=0.0,
        )
        path = tmp_path / "schedule.csv"
        save_schedule(sched, path)
        loaded = load_schedule(path)
        assert len(loaded) == 2
        assert loaded.duration == 3600.0
        assert loaded.requests[0].submit_time == 0.5
        assert loaded.requests[1].job_id == "j1"
        assert loaded.requests[1].nodes == 4

    def test_empty_schedule_roundtrip(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_schedule(Schedule(duration=60.0, start_time=5.0), path)
        loaded = load_schedule(path)
        assert len(loaded) == 0
        assert loaded.duration == 60.0
        assert loaded.start_time == 5.0

    def test_float_precision_preserved(self, tmp_path):
        t = 123.45678901234567
        sched = Schedule(requests=[JobRequest(t, "j", "bt", 1)], duration=200.0)
        path = tmp_path / "prec.csv"
        save_schedule(sched, path)
        assert load_schedule(path).requests[0].submit_time == t

    def test_claimed_type_roundtrip(self, tmp_path):
        sched = Schedule(
            requests=[JobRequest(0.0, "a", "bt", 2, claimed_type="is")], duration=60.0
        )
        path = tmp_path / "claimed.csv"
        save_schedule(sched, path)
        assert load_schedule(path).requests == sched.requests

    def test_six_column_file_claims_the_truth(self, tmp_path):
        path = tmp_path / "old.csv"
        path.write_text(
            "submit_time,job_id,type_name,nodes,duration,start_time\n"
            "0.0,a,bt,2,60.0,0.0\n"
        )
        assert load_schedule(path).requests == [JobRequest(0.0, "a", "bt", 2)]
        assert load_schedule(path).requests[0].claimed_type == "bt"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(ValueError, match="not a schedule file"):
            load_schedule(path)
