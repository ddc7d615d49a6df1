"""Tests for file-backed power targets (paper §4.1)."""

import pytest

from repro.aqa.regulation import SinusoidSignal
from repro.core.targets import (
    ConstantTarget,
    RegulationTarget,
    load_target_file,
    save_target_file,
)


class TestRoundTrip:
    def test_constant_roundtrip(self, tmp_path):
        path = tmp_path / "targets.csv"
        save_target_file(ConstantTarget(840.0), path, duration=60.0, step=4.0)
        loaded = load_target_file(path)
        assert loaded.target(0.0) == pytest.approx(840.0)
        assert loaded.target(37.0) == pytest.approx(840.0)

    def test_regulation_roundtrip_matches_samples(self, tmp_path):
        source = RegulationTarget(
            3400.0, 1050.0, SinusoidSignal(period=120.0), update_period=4.0
        )
        path = tmp_path / "targets.csv"
        save_target_file(source, path, duration=240.0, step=4.0)
        loaded = load_target_file(path)
        for t in (0.0, 4.0, 100.0, 236.0):
            assert loaded.target(t) == pytest.approx(source.target(t), abs=0.01)

    def test_holds_between_file_rows(self, tmp_path):
        source = RegulationTarget(
            1000.0, 200.0, SinusoidSignal(period=40.0), update_period=4.0
        )
        path = tmp_path / "targets.csv"
        save_target_file(source, path, duration=40.0, step=4.0)
        loaded = load_target_file(path)
        assert loaded.target(5.5) == loaded.target(4.0)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("oops\n1,2\n")
        with pytest.raises(ValueError, match="not a power-target file"):
            load_target_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("time_s,target_w\n")
        with pytest.raises(ValueError, match="no target rows"):
            load_target_file(path)

    @pytest.mark.parametrize(
        "rows", ["0,1000\nnan,2000\n20,3000\n", "0,1000\n10,nan\n"]
    )
    def test_non_finite_row_rejected(self, tmp_path, rows):
        """A NaN time compares false both ways, so it once passed the order
        check and made every later step unreachable."""
        path = tmp_path / "nan.csv"
        path.write_text("time_s,target_w\n" + rows)
        with pytest.raises(ValueError, match="finite"):
            load_target_file(path)

    def test_invalid_save_args(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            save_target_file(ConstantTarget(1.0), tmp_path / "x.csv", duration=0.0)
