"""Trace container and file-format tests."""

import pytest

from repro.cpu.trace import Trace, TraceRecord, load_trace, save_trace
from repro.errors import TraceError


def simple_trace(name="t"):
    return Trace(
        name,
        [
            TraceRecord(3, 10, False),
            TraceRecord(0, 11, True),
            TraceRecord(5, 12, False),
        ],
    )


class TestConstruction:
    def test_cumulative_insts(self):
        trace = simple_trace()
        assert list(trace.cumulative_insts) == [4, 5, 11]
        assert trace.total_insts == 11
        assert trace.total_requests == 3

    def test_len_and_iter(self):
        trace = simple_trace()
        assert len(trace) == 3
        assert list(trace)[0] == TraceRecord(3, 10, False)

    def test_mean_gap(self):
        assert simple_trace().mean_gap == pytest.approx(8 / 3)

    def test_intrinsic_mpki(self):
        assert simple_trace().intrinsic_mpki == pytest.approx(3000 / 11)

    def test_footprint(self):
        assert simple_trace().footprint_lines() == 3

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            Trace("empty", [])

    def test_negative_gap_rejected(self):
        with pytest.raises(TraceError):
            Trace("bad", [TraceRecord(-1, 0, False)])

    def test_negative_address_rejected(self):
        with pytest.raises(TraceError):
            Trace("bad", [TraceRecord(0, -5, False)])


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        trace = simple_trace("roundtrip")
        path = tmp_path / "t.trace"
        save_trace(trace, str(path))
        loaded = load_trace(str(path))
        assert loaded.name == "roundtrip"
        assert loaded.records == trace.records

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("#trace x\n\n1 2 R\n\n")
        assert len(load_trace(str(path))) == 1

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("1 2\n")
        with pytest.raises(TraceError):
            load_trace(str(path))

    def test_bad_kind_rejected(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("1 2 X\n")
        with pytest.raises(TraceError):
            load_trace(str(path))

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("a 2 R\n")
        with pytest.raises(TraceError):
            load_trace(str(path))
