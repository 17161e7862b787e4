"""Trace analysis tests."""

import pytest

from repro.cpu.trace import Trace, TraceRecord
from repro.workloads import analyze_trace, generate_trace, get_profile


def make_trace(records):
    return Trace("t", records)


class TestBasicStats:
    def test_counts_and_mpki(self):
        analysis = analyze_trace(
            make_trace([TraceRecord(9, 0, False), TraceRecord(9, 1, True)])
        )
        assert analysis.records == 2
        assert analysis.total_insts == 20
        assert analysis.intrinsic_mpki == pytest.approx(100.0)
        assert analysis.write_fraction == pytest.approx(0.5)

    def test_footprint(self):
        records = [TraceRecord(0, i * 64, False) for i in range(3)]
        analysis = analyze_trace(make_trace(records))
        assert analysis.footprint_pages == 3
        assert analysis.footprint_lines == 3

    def test_reuse_fraction(self):
        records = [
            TraceRecord(0, 0, False),
            TraceRecord(0, 0, False),
            TraceRecord(0, 1, False),
        ]
        analysis = analyze_trace(make_trace(records))
        assert analysis.reuse_fraction == pytest.approx(0.5)

    def test_gap_percentile(self):
        records = [TraceRecord(g, i, False) for i, g in enumerate([0] * 19 + [100])]
        analysis = analyze_trace(make_trace(records))
        assert analysis.p95_gap >= 0
        assert analysis.mean_gap == pytest.approx(5.0)


class TestStructure:
    def test_sequential_run_detected(self):
        records = [TraceRecord(5, v, False) for v in range(10)]
        analysis = analyze_trace(make_trace(records))
        assert analysis.mean_run_length == pytest.approx(10.0)

    def test_scattered_runs_short(self):
        records = [TraceRecord(5, v * 10, False) for v in range(10)]
        analysis = analyze_trace(make_trace(records))
        assert analysis.mean_run_length == pytest.approx(1.0)

    def test_burst_detection(self):
        records = [
            TraceRecord(100, 0, False),
            TraceRecord(0, 10, False),
            TraceRecord(1, 20, False),
            TraceRecord(100, 30, False),
        ]
        analysis = analyze_trace(make_trace(records))
        assert analysis.max_burst_size == 3


class TestOnGeneratedTraces:
    def test_streamer_has_long_runs(self):
        libq = analyze_trace(
            generate_trace(get_profile("libquantum"), target_insts=500_000)
        )
        mcf = analyze_trace(
            generate_trace(get_profile("mcf"), target_insts=500_000)
        )
        assert libq.mean_run_length > 3 * mcf.mean_run_length

    def test_bursty_app_has_big_bursts(self):
        mcf = analyze_trace(
            generate_trace(get_profile("mcf"), target_insts=500_000)
        )
        povray = analyze_trace(
            generate_trace(get_profile("povray"), target_insts=5_000_000)
        )
        assert mcf.mean_burst_size > povray.mean_burst_size

    def test_render_contains_key_lines(self):
        analysis = analyze_trace(
            generate_trace(get_profile("gcc"), target_insts=500_000)
        )
        text = analysis.render()
        assert "intrinsic MPKI" in text
        assert "footprint" in text


class TestCLICommands:
    def test_traces_command(self, capsys):
        from repro.cli import main

        assert main(["traces", "gcc"]) == 0
        out = capsys.readouterr().out
        assert "gcc:" in out
        assert "MPKI" in out

    def test_gen_traces_roundtrip(self, tmp_path, capsys):
        from repro.cli import main
        from repro.cpu.trace import load_trace

        dest = str(tmp_path / "gcc.trace")
        assert main([
            "traces", "export", "gcc", "--library", str(tmp_path / "lib"),
            "--to", dest, "--export-format", "text",
        ]) == 0
        loaded = load_trace(dest)
        assert loaded.name == "gcc"
        assert len(loaded) > 0
