"""Workload trace library: .rtrc format, importers, characterization,
app-name resolution, on-disk catalogue, and Runner/store integration."""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.spec import CampaignSpec, RunSpec
from repro.campaign.store import (
    encode_run_result,
    result_digest,
    run_key,
    scope_of,
)
from repro.cpu.trace import Trace, TraceRecord, save_trace
from repro.errors import ConfigError, TraceError
from repro.sim.runner import Runner
from repro.traces import (
    TraceLibrary,
    characterize_trace,
    detect_format,
    import_champsim,
    import_dramsim,
    import_trace,
    library_digest,
    load_rtrc,
    read_rtrc,
    resolve_app,
    resolve_format,
    resolve_trace,
    save_rtrc,
)
from repro.traces.format import _BLOCK, _PREAMBLE, _RECORD, FORMAT_VERSION, MAGIC
from repro.workloads import (
    APP_PROFILES,
    adhoc_mix,
    app_intensive,
    generate_trace,
    get_profile,
    resolve_mix,
    validate_app,
)
from repro.workloads.synthetic import LINES_PER_PAGE

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def private_library(tmp_path, monkeypatch):
    """Every test gets a private configured library, so no test sees the
    repo's real library or another test's imports."""
    root = tmp_path / "default-lib"
    monkeypatch.setenv("REPRO_TRACE_LIBRARY", str(root))
    return root


def simple_trace(name="t"):
    return Trace(
        name,
        [
            TraceRecord(3, 10, False),
            TraceRecord(0, 11, True),
            TraceRecord(5, 12, False),
        ],
    )


def _named(result, renames):
    """``encode_run_result(result)`` with its app names mapped through
    ``renames``: two runs of the same traces under different names give
    equal documents."""
    doc = encode_run_result(result)
    metrics = doc["metrics"]
    apps = [renames.get(app, app) for app in metrics["apps"]]
    metrics["mix"], metrics["apps"] = "+".join(apps), apps
    for thread in doc["system"]["threads"].values():
        thread["app"] = renames.get(thread["app"], thread["app"])
    return doc


# ---------------------------------------------------------------------------
# Trace.digest (core-class satellite).
# ---------------------------------------------------------------------------
class TestTraceDigest:
    def test_digest_is_stable_and_content_only(self):
        a = simple_trace("a")
        b = simple_trace("completely-different-name")
        assert a.digest == b.digest  # name does not enter the digest
        assert len(a.digest) == 64

    def test_digest_changes_with_records(self):
        a = simple_trace()
        b = Trace("t", [TraceRecord(3, 10, False)])
        assert a.digest != b.digest

    def test_digest_sees_write_flag(self):
        a = Trace("t", [TraceRecord(0, 5, False)])
        b = Trace("t", [TraceRecord(0, 5, True)])
        assert a.digest != b.digest

    def test_footprint_lines_cached(self):
        trace = simple_trace()
        assert trace.footprint_lines() == 3
        assert trace._footprint_lines == 3
        assert trace.footprint_lines() == 3


# ---------------------------------------------------------------------------
# .rtrc binary format.
# ---------------------------------------------------------------------------
class TestRtrcFormat:
    def test_roundtrip_simple(self, tmp_path):
        trace = simple_trace("rt")
        path = str(tmp_path / "rt.rtrc")
        digest = save_rtrc(trace, path, provenance={"origin": "unit-test"})
        assert digest == trace.digest
        loaded, header = read_rtrc(path)
        assert loaded.name == "rt"
        assert loaded.records == trace.records
        assert loaded.digest == trace.digest
        assert header["provenance"] == {"origin": "unit-test"}
        assert header["total_insts"] == trace.total_insts

    @pytest.mark.parametrize("app", sorted(APP_PROFILES))
    def test_roundtrip_every_profile(self, tmp_path, app):
        trace = generate_trace(get_profile(app), seed=7, length_override=96)
        path = str(tmp_path / f"{app}.rtrc")
        save_rtrc(trace, path)
        loaded = load_rtrc(path)
        assert loaded.records == trace.records
        assert loaded.name == trace.name
        assert loaded.digest == trace.digest

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        recs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**6),
                st.integers(min_value=0, max_value=2**40),
                st.booleans(),
            ),
            min_size=1,
            max_size=200,
        )
    )
    def test_roundtrip_property(self, tmp_path, recs):
        trace = Trace("prop", [TraceRecord(g, v, w) for g, v, w in recs])
        path = str(tmp_path / "prop.rtrc")
        save_rtrc(trace, path)
        assert load_rtrc(path).records == trace.records

    def test_multiblock_roundtrip(self, tmp_path):
        records = [
            TraceRecord(i % 17, i * 3, i % 5 == 0) for i in range(20_000)
        ]
        trace = Trace("big", records)
        path = str(tmp_path / "big.rtrc")
        save_rtrc(trace, path)
        assert load_rtrc(path).records == records

    def test_oversized_gap_rejected(self):
        # Rejected where the trace is built, so save_rtrc never sees one.
        with pytest.raises(TraceError, match="32-bit limit"):
            Trace("huge", [TraceRecord(2**32, 0, False)])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rtrc"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(TraceError, match="bad magic"):
            load_rtrc(str(path))
        assert str(path) in _raises_message(load_rtrc, str(path))

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v9.rtrc"
        path.write_bytes(_PREAMBLE.pack(MAGIC, FORMAT_VERSION + 1, 2) + b"{}")
        with pytest.raises(TraceError, match="unsupported .rtrc version"):
            load_rtrc(str(path))

    def test_truncated_preamble(self, tmp_path):
        path = tmp_path / "short.rtrc"
        path.write_bytes(b"RT")
        with pytest.raises(TraceError, match="truncated preamble"):
            load_rtrc(str(path))

    def test_truncated_payload(self, tmp_path):
        trace = simple_trace()
        path = tmp_path / "cut.rtrc"
        save_rtrc(trace, str(path))
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(TraceError, match="truncated"):
            load_rtrc(str(path))

    def test_trailing_data(self, tmp_path):
        trace = simple_trace()
        path = tmp_path / "trail.rtrc"
        save_rtrc(trace, str(path))
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(TraceError, match="trailing data"):
            load_rtrc(str(path))

    def test_corrupt_header_json(self, tmp_path):
        path = tmp_path / "json.rtrc"
        path.write_bytes(_PREAMBLE.pack(MAGIC, FORMAT_VERSION, 4) + b"{{{{")
        with pytest.raises(TraceError, match="corrupt header JSON"):
            load_rtrc(str(path))

    def test_header_missing_field(self, tmp_path):
        header = json.dumps({"name": "x", "records": "not-an-int"}).encode()
        path = tmp_path / "typed.rtrc"
        path.write_bytes(
            _PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(header)) + header
        )
        with pytest.raises(TraceError, match="mistyped field"):
            load_rtrc(str(path))

    def test_corrupt_flags(self, tmp_path):
        header = json.dumps(
            {"name": "x", "records": 1, "total_insts": 1, "digest": "0" * 64}
        ).encode()
        payload = zlib.compress(_RECORD.pack(0, 1, 7))
        path = tmp_path / "flags.rtrc"
        path.write_bytes(
            _PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(header))
            + header
            + _BLOCK.pack(1, len(payload))
            + payload
        )
        with pytest.raises(TraceError, match="corrupt record flags"):
            load_rtrc(str(path))

    def test_digest_mismatch(self, tmp_path):
        trace = simple_trace()
        path = tmp_path / "tampered.rtrc"
        save_rtrc(trace, str(path))
        data = path.read_bytes()
        fake = "f" * 64 if trace.digest[0] != "f" else "e" * 64
        path.write_bytes(data.replace(trace.digest.encode(), fake.encode()))
        with pytest.raises(TraceError, match="digest mismatch"):
            load_rtrc(str(path))
        # ... but an explicit opt-out still loads the records.
        assert load_rtrc(str(path), verify_digest=False).records == trace.records

    def test_zlib_corruption(self, tmp_path):
        trace = simple_trace()
        path = tmp_path / "zlib.rtrc"
        save_rtrc(trace, str(path))
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError):
            load_rtrc(str(path))


def _raises_message(fn, *args):
    try:
        fn(*args)
    except TraceError as error:
        return str(error)
    raise AssertionError("expected TraceError")


# ---------------------------------------------------------------------------
# Text importers.
# ---------------------------------------------------------------------------
class TestChampsimImporter:
    def test_basic_gap_reconstruction(self, tmp_path):
        path = tmp_path / "c.trace"
        path.write_text(
            "# comment\n"
            "5 0x1000 R\n"
            "6 0x1040 W\n"
            "10 0x2000 R\n"
        )
        trace = import_champsim(str(path))
        assert [r.gap for r in trace.records] == [5, 0, 3]
        assert [r.vline for r in trace.records] == [0x40, 0x41, 0x80]
        assert [r.is_write for r in trace.records] == [False, True, False]
        assert trace.name == "c"

    def test_decimal_addresses_accepted(self, tmp_path):
        path = tmp_path / "d.trace"
        path.write_text("1 4096 READ\n2 4160 WRITE\n")
        trace = import_champsim(str(path), name="named")
        assert trace.name == "named"
        assert [r.vline for r in trace.records] == [64, 65]

    def test_backwards_instr_count(self, tmp_path):
        path = tmp_path / "b.trace"
        path.write_text("10 0x0 R\n5 0x40 R\n")
        with pytest.raises(TraceError, match=rf"{path}:2.*went backwards"):
            import_champsim(str(path))

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "w.trace"
        path.write_text("10 0x0\n")
        with pytest.raises(TraceError, match=rf"{path}:1.*expected 3 fields"):
            import_champsim(str(path))

    def test_bad_op(self, tmp_path):
        path = tmp_path / "op.trace"
        path.write_text("1 0x0 R\n2 0x40 Q\n")
        with pytest.raises(TraceError, match=rf"{path}:2.*unknown operation"):
            import_champsim(str(path))

    def test_non_integer_field(self, tmp_path):
        path = tmp_path / "i.trace"
        path.write_text("x 0x0 R\n")
        with pytest.raises(TraceError, match=rf"{path}:1.*non-integer"):
            import_champsim(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.trace"
        path.write_text("# nothing here\n\n")
        with pytest.raises(TraceError, match="no trace records"):
            import_champsim(str(path))


class TestDramsimImporter:
    def test_one_ipc_reconstruction(self, tmp_path):
        path = tmp_path / "d.trace"
        path.write_text(
            "0x1000 100 P_MEM_RD\n"
            "0x2000 101 P_MEM_WR\n"
            "0x3000 110 P_FETCH\n"
        )
        trace = import_dramsim(str(path))
        assert [r.gap for r in trace.records] == [0, 0, 8]
        assert [r.is_write for r in trace.records] == [False, True, False]

    def test_backwards_cycle(self, tmp_path):
        path = tmp_path / "b.trace"
        path.write_text("0x0 50 R\n0x40 40 R\n")
        with pytest.raises(TraceError, match=rf"{path}:2.*went backwards"):
            import_dramsim(str(path))

    def test_negative_field(self, tmp_path):
        path = tmp_path / "n.trace"
        path.write_text("0x0 -5 R\n")
        with pytest.raises(TraceError, match=rf"{path}:1.*negative"):
            import_dramsim(str(path))


class TestFormatDetection:
    def test_detect_champsim(self, tmp_path):
        path = tmp_path / "c.trace"
        path.write_text("5 0x1000 R\n")
        assert detect_format(str(path)) == "champsim"

    def test_detect_dramsim(self, tmp_path):
        path = tmp_path / "d.trace"
        path.write_text("0x1000 5 R\n")
        assert detect_format(str(path)) == "dramsim"

    def test_detect_rtrc(self, tmp_path):
        path = tmp_path / "t.rtrc"
        save_rtrc(simple_trace(), str(path))
        assert detect_format(str(path)) == "rtrc"

    def test_detect_native_text(self, tmp_path):
        path = tmp_path / "n.trace"
        save_trace(simple_trace(), str(path))
        assert resolve_format(str(path), "auto") == "text"

    def test_ambiguous_decimal(self, tmp_path):
        path = tmp_path / "a.trace"
        path.write_text("5 1000 R\n")
        with pytest.raises(TraceError, match="ambiguous"):
            detect_format(str(path))

    def test_unknown_format_name(self, tmp_path):
        with pytest.raises(TraceError, match="unknown trace format"):
            resolve_format(str(tmp_path / "x"), "elf")

    def test_import_trace_rename_and_dispatch(self, tmp_path):
        rtrc = tmp_path / "t.rtrc"
        save_rtrc(simple_trace("orig"), str(rtrc))
        trace = import_trace(str(rtrc), name="renamed")
        assert trace.name == "renamed"
        assert trace.records == simple_trace().records


# ---------------------------------------------------------------------------
# Characterization.
# ---------------------------------------------------------------------------
class TestCharacterization:
    def test_intensive_app_measures_intensive(self, small_config):
        trace = generate_trace(get_profile("lbm"), seed=3, target_insts=150_000)
        char = characterize_trace(trace, config=small_config, horizon=30_000)
        assert char.intensive
        assert char.mpki_class == "intensive"
        assert char.mpki > 1.0
        assert char.ipc_alone > 0
        assert char.digest == trace.digest
        assert char.as_dict()["class"] == "intensive"
        assert "measured MPKI" in char.render()

    def test_light_app_measures_light(self, small_config):
        trace = generate_trace(
            get_profile("povray"), seed=3, target_insts=150_000
        )
        char = characterize_trace(trace, config=small_config, horizon=30_000)
        assert not char.intensive
        assert char.mpki_class == "light"


# ---------------------------------------------------------------------------
# App-name resolution: synthetic profile, else the configured library.
# ---------------------------------------------------------------------------
def _add(name, intensive=True):
    """Add a one-record trace named ``name`` to the configured library."""
    gap = 10 if intensive else 100_000
    trace = Trace(name, [TraceRecord(gap, 7, False)])
    return TraceLibrary().add(trace, characterize=False)


def _fresh_process(code):
    """stdout of ``code`` run in a fresh interpreter with this env."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestRegistry:
    """The configured library's manifest is the only registry of
    non-synthetic app names."""

    def test_synthetic_collision_rejected(self, private_library):
        for override in (False, True):
            with pytest.raises(ConfigError, match="collides with a synthetic"):
                TraceLibrary().add(
                    simple_trace("lbm"), characterize=False, override=override
                )
        assert not private_library.exists()  # nothing written
        assert resolve_app("lbm") is None  # the synthetic profile

    def test_differing_digest_reregistration_rejected(self):
        _add("x")
        _add("x")  # same digest: idempotent
        with pytest.raises(ConfigError, match="already exists"):
            TraceLibrary().add(simple_trace("x"), characterize=False)

    def test_library_digests_skips_synthetic(self):
        entry = _add("real")
        assert library_digest("real") == entry.digest
        assert library_digest("lbm") is None
        assert library_digest("gcc") is None

    def test_validate_and_intensity_see_registry(self):
        with pytest.raises(ConfigError, match="unknown app"):
            validate_app("ghost")
        _add("ghost", intensive=False)
        validate_app("ghost")
        assert app_intensive("ghost") is False
        assert app_intensive("lbm") is True  # synthetic path untouched

    def test_unknown_app_names_both_kinds(self):
        _add("ghost")
        with pytest.raises(ConfigError) as excinfo:
            resolve_app("nope")
        message = str(excinfo.value)
        assert "unknown app 'nope'" in message
        assert "synthetic apps: GemsFDTD, astar" in message
        assert message.endswith("library traces: ghost")

    def test_adhoc_mix_with_library_app(self):
        _add("ghost")
        mix = adhoc_mix("ghost+gcc")
        assert mix.apps == ("ghost", "gcc")
        assert mix.intensive_count() == 1  # ghost intensive, gcc light
        assert resolve_mix("ghost+gcc").apps == mix.apps
        assert resolve_mix("M1").name == "M1"

    def test_load_without_backing_file(self):
        entry = _add("nofile")
        Path(entry.path).unlink()
        with pytest.raises(TraceError, match="cannot read"):
            resolve_trace("nofile", seed=1, target_insts=1_000)

    def test_a_trace_imported_elsewhere_resolves_in_a_fresh_process(
        self, tmp_path
    ):
        # This process looks the name up first and misses.
        with pytest.raises(ConfigError, match="unknown app 'elsewhere'"):
            validate_app("elsewhere")
        src = tmp_path / "e.trace"
        src.write_text("".join(f"{i * 30} {0x3000 + i * 64:#x} W\n"
                               for i in range(1, 40)))
        _fresh_process(
            "from repro.cli import main; raise SystemExit(main(["
            f"'traces', 'import', {str(src)!r}, '--name', 'elsewhere', "
            "'--no-characterize']))"
        )
        digest = TraceLibrary().entry("elsewhere")["digest"]
        # No registration call anywhere: the manifest is the registry.
        assert _fresh_process(
            "from repro.traces import library_digest; "
            "print(library_digest('elsewhere'))"
        ) == digest
        assert library_digest("elsewhere") == digest


# ---------------------------------------------------------------------------
# On-disk library.
# ---------------------------------------------------------------------------
class TestTraceLibrary:
    def _import(self, tmp_path, name="ext", **kwargs):
        src = tmp_path / "src.trace"
        src.write_text("".join(f"{i * 9} {0x1000 + i * 64:#x} R\n"
                               for i in range(1, 60)))
        library = TraceLibrary(tmp_path / "lib")
        kwargs.setdefault("characterize", False)
        return library, library.import_file(str(src), name=name, **kwargs)

    def test_import_file_end_to_end(self, tmp_path):
        library, entry = self._import(tmp_path)
        assert entry.name == "ext"
        assert entry.source_format == "champsim"  # resolved, never "auto"
        assert (library.root / "ext.rtrc").is_file()
        assert library.entry("ext")["digest"] == entry.digest
        # a fresh handle on the same directory sees the persisted entry
        fresh = TraceLibrary(library.root)
        assert fresh.names() == ["ext"]
        assert fresh.get("ext").digest == entry.digest

    def test_import_with_characterization(self, tmp_path, small_config):
        library = TraceLibrary(tmp_path / "lib")
        trace = generate_trace(
            get_profile("lbm"), seed=5, target_insts=150_000
        )
        trace = Trace("measured", trace.records)
        entry = library.add(
            trace, characterize=True, config=small_config, horizon=30_000
        )
        assert entry.intensive
        assert entry.characterization["mpki"] > 1.0
        assert library.entry("measured")["class"] == "intensive"

    def test_add_without_characterization_uses_intrinsic(self, tmp_path):
        library = TraceLibrary(tmp_path / "lib")
        sparse = Trace("sparse", [TraceRecord(100_000, 1, False)])
        entry = library.add(sparse, characterize=False)
        assert not entry.intensive
        assert library.entry("sparse")["class"] == "light"

    def test_name_conflict_needs_override(self, tmp_path):
        library, _ = self._import(tmp_path)
        other = Trace("ext", [TraceRecord(1, 2, False)])
        with pytest.raises(ConfigError, match="already exists"):
            library.add(other, characterize=False)
        entry = library.add(other, characterize=False, override=True)
        assert library.entry("ext")["digest"] == entry.digest

    def test_invalid_name_rejected(self, tmp_path):
        library = TraceLibrary(tmp_path / "lib")
        with pytest.raises(ConfigError, match="invalid library trace name"):
            library.add(
                Trace("a/b", [TraceRecord(0, 1, False)]), characterize=False
            )

    def test_export_rtrc_and_text(self, tmp_path):
        library, entry = self._import(tmp_path)
        out_rtrc = tmp_path / "out.rtrc"
        out_text = tmp_path / "out.trace"
        library.export("ext", str(out_rtrc), fmt="rtrc")
        library.export("ext", str(out_text), fmt="text")
        assert load_rtrc(str(out_rtrc)).digest == entry.digest
        assert import_trace(str(out_text), fmt="text").digest == entry.digest
        with pytest.raises(TraceError, match="unknown export format"):
            library.export("ext", str(out_rtrc), fmt="yaml")

    def test_unknown_name(self, tmp_path):
        library = TraceLibrary(tmp_path / "lib")
        with pytest.raises(ConfigError, match="unknown library trace"):
            library.entry("nope")

    def test_corrupt_manifest(self, tmp_path):
        root = tmp_path / "lib"
        root.mkdir()
        (root / "manifest.json").write_text("{broken")
        with pytest.raises(ConfigError, match="corrupt library manifest"):
            TraceLibrary(root).entries()

    def test_manifest_digest_guard(self, tmp_path):
        library, entry = self._import(tmp_path)
        # Overwrite the .rtrc behind the manifest's back.
        save_rtrc(
            Trace("ext", [TraceRecord(1, 1, False)]),
            str(library.path_for("ext")),
        )
        with pytest.raises(TraceError, match="does not match the manifest"):
            TraceLibrary(library.root).get("ext")

    def test_default_library_autoload(self, tmp_path):
        # Only the configured library's traces are apps.
        TraceLibrary(tmp_path / "elsewhere").add(
            simple_trace("otherapp"), characterize=False
        )
        with pytest.raises(ConfigError, match="unknown app 'otherapp'"):
            resolve_app("otherapp")
        TraceLibrary().add(simple_trace("autoapp"), characterize=False)
        entry = resolve_app("autoapp")
        assert entry.digest == simple_trace().digest
        assert entry.load().records == simple_trace().records


# ---------------------------------------------------------------------------
# Runner + store integration.
# ---------------------------------------------------------------------------
class TestRunnerIntegration:
    def _runner(self, small_config, **kwargs):
        return Runner(
            config=small_config,
            horizon=20_000,
            target_insts=120_000,
            **kwargs,
        )

    def test_roundtrip_run_fidelity(self, tmp_path, small_config):
        """Synthetic -> export .rtrc -> import -> run: bit-identical result."""
        baseline = self._runner(small_config)
        native = baseline.run_apps(["lbm", "gcc"], "dbp")
        synthetic_key = run_key(
            small_config, ["lbm", "gcc"], "dbp", **scope_of(baseline)
        )

        # Export the exact synthetic trace and import it under a library
        # name (synthetic names are reserved).
        native_trace = baseline.trace_for("lbm")
        path = str(tmp_path / "lbm.rtrc")
        save_rtrc(native_trace, path)
        TraceLibrary().add(
            load_rtrc(path).renamed("lbm-copy"), characterize=False
        )

        replay = self._runner(small_config)
        assert replay.trace_for("lbm-copy").records == native_trace.records
        imported = replay.run_apps(["lbm-copy", "gcc"], "dbp")
        # Every field of the result is equal, bar the app names.
        assert _named(imported, {"lbm-copy": "lbm"}) == _named(native, {})

        # ... but the store addresses differ: the library run is keyed by
        # content digest, the synthetic one by (profile, seed, length).
        assert library_digest("lbm-copy") == native_trace.digest
        library_key = run_key(
            small_config, ["lbm", "gcc"], "dbp",
            trace_digests={"lbm": native_trace.digest},
            **scope_of(replay),
        )
        assert library_key != synthetic_key

    def test_library_trace_runs_under_all_approaches(
        self, tmp_path, small_config
    ):
        trace = generate_trace(get_profile("milc"), seed=9, target_insts=120_000)
        TraceLibrary().add(
            Trace("imported", trace.records), characterize=False
        )
        runner = self._runner(small_config)
        for approach in ("shared-frfcfs", "ebp", "dbp"):
            result = runner.run_apps(["imported", "gcc"], approach)
            assert result.metrics.weighted_speedup > 0



# ---------------------------------------------------------------------------
# Campaign spec / store keys.
# ---------------------------------------------------------------------------
class TestCampaignKeys:
    def test_run_key_digest_folding(self, small_config):
        plain = run_key(
            small_config, ["a", "b"], "dbp",
            seed=1, horizon=10_000, target_insts=100_000,
        )
        empty = run_key(
            small_config, ["a", "b"], "dbp",
            seed=1, horizon=10_000, target_insts=100_000, trace_digests={},
        )
        salted = run_key(
            small_config, ["a", "b"], "dbp",
            seed=1, horizon=10_000, target_insts=100_000,
            trace_digests={"a": "9" * 64},
        )
        assert plain == empty  # all-synthetic keys unchanged
        assert salted != plain

    def test_runspec_key_carries_digests(self, small_config):
        base = dict(
            apps=("a", "b"), approach="dbp", config=small_config,
            seed=1, horizon=10_000, target_insts=100_000,
        )
        plain = RunSpec(**base)
        salted = RunSpec(trace_digests=(("a", "9" * 64),), **base)
        assert plain.key() != salted.key()
        assert plain.key() == run_key(
            small_config, ["a", "b"], "dbp",
            seed=1, horizon=10_000, target_insts=100_000,
        )

    def test_plan_sweep_fills_library_digests(self, small_config):
        digest = _add("ghost").digest
        runner = Runner(config=small_config, horizon=10_000,
                        target_insts=100_000)
        specs = CampaignSpec(
            mixes=("ghost+gcc",), approaches=("dbp",),
            horizons=(runner.horizon,), config=small_config,
            target_insts=runner.target_insts,
        ).plan()
        assert specs[0].apps == ("ghost", "gcc")
        assert specs[0].trace_digests == (("ghost", digest),)
        assert specs[0].key() == run_key(
            small_config, ["ghost", "gcc"], "dbp",
            trace_digests={"ghost": digest},
            **scope_of(runner),
        )

    def test_planned_key_sees_a_replaced_digest(self, small_config):
        """Replacing a library entry moves the key of every cell planned
        over it: the trace's digest is in the key."""
        old = _add("ghost").digest
        grid = CampaignSpec(
            mixes=("ghost+gcc",), approaches=("dbp",), horizons=(10_000,),
            config=small_config, target_insts=100_000,
        )
        before = grid.plan()[0]
        new = TraceLibrary().add(
            simple_trace("ghost"), characterize=False, override=True
        ).digest
        after = grid.plan()[0]
        assert before.trace_digests == (("ghost", old),)
        assert after.trace_digests == (("ghost", new),)
        assert before.key() != after.key()

    def test_plan_of_synthetic_apps_carries_no_digests(self, small_config):
        _add("lbm-copy")
        spec = CampaignSpec(
            mixes=("lbm+gcc",), approaches=("dbp",), horizons=(10_000,),
            config=small_config, target_insts=100_000,
        ).plan()[0]
        assert spec.trace_digests == ()

    def test_result_digest_discriminates(self, small_config):
        runner = Runner(config=small_config, horizon=20_000,
                        target_insts=120_000)
        a = runner.run_apps(["lbm", "gcc"], "dbp")
        b = runner.run_apps(["lbm", "gcc"], "ebp")
        assert result_digest(a) == result_digest(a)
        assert result_digest(a) != result_digest(b)


# ---------------------------------------------------------------------------
# CLI verbs.
# ---------------------------------------------------------------------------
class TestTracesCli:
    def _import_sample(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "s.trace"
        src.write_text("".join(f"{i * 40} {0x2000 + i * 64:#x} R\n"
                               for i in range(1, 80)))
        rc = main([
            "traces", "import", str(src), "--name", "cliapp",
            "--no-characterize",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "imported 'cliapp'" in out
        assert "digest:" in out
        return src

    def test_import_list_info_export(self, tmp_path, capsys):
        from repro.cli import main

        self._import_sample(tmp_path, capsys)
        assert main(["traces", "list"]) == 0
        assert "cliapp" in capsys.readouterr().out
        assert main(["traces", "info", "cliapp"]) == 0
        assert "source format: champsim" in capsys.readouterr().out
        dest = str(tmp_path / "out.rtrc")
        assert main(["traces", "export", "cliapp", "--to", dest]) == 0
        assert load_rtrc(dest).name == "cliapp"

    def test_list_and_info_mark_an_entry_a_synthetic_name_shadows(
        self, tmp_path, capsys, private_library
    ):
        """A manifest written before synthetic names were reserved may hold
        an ``lbm`` entry; the synthetic profile wins, and both verbs say so."""
        from repro.artefact import write_json
        from repro.cli import main

        self._import_sample(tmp_path, capsys)
        manifest = private_library / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["traces"]["lbm"] = dict(doc["traces"]["cliapp"], name="lbm")
        write_json(manifest, doc)
        assert resolve_app("lbm") is None
        assert main(["traces", "list"]) == 0
        rows = capsys.readouterr().out.splitlines()
        lbm, = [row for row in rows if row.split()[0] == "lbm"]
        cliapp, = [row for row in rows if row.split()[0] == "cliapp"]
        assert "shadowed by the synthetic profile" in lbm
        assert "shadowed" not in cliapp
        assert main(["traces", "info", "lbm"]) == 0
        assert "shadowed by the synthetic profile" in capsys.readouterr().out
        assert main(["traces", "info", "cliapp"]) == 0
        assert "shadowed" not in capsys.readouterr().out

    def test_list_empty_library(self, capsys):
        from repro.cli import main

        assert main(["traces", "list"]) == 0
        assert "is empty" in capsys.readouterr().out

    @pytest.mark.parametrize("override", [[], ["--override"]], ids=str)
    def test_import_under_a_synthetic_name_writes_nothing(
        self, tmp_path, capsys, private_library, override
    ):
        from repro.cli import main

        src = self._import_sample(tmp_path, capsys)
        rc = main([
            "traces", "import", str(src), "--name", "lbm",
            "--no-characterize", *override,
        ])
        assert rc == 1
        assert "collides with a synthetic" in capsys.readouterr().err
        assert not (private_library / "lbm.rtrc").exists()
        assert TraceLibrary().names() == ["cliapp"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["import", "x.trace", "--to", "y"],
            ["list", "--name", "y"],
            ["info", "y", "--override"],
            ["export", "y", "--format", "text"],
            ["list", "--library", "lib"],
        ],
        ids=" ".join,
    )
    def test_each_verb_takes_only_its_own_flags(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["traces", *argv])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_import_error_reported_not_raised(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.trace"
        bad.write_text("5 0x0 R\n3 0x40 R\n")  # instr count goes backwards
        rc = main(["traces", "import", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{bad}:2" in err  # file:line diagnostic, no traceback

    def test_gen_traces_rtrc(self, tmp_path, capsys):
        from repro.cli import main

        # A synthetic app exports through the library verb; no library
        # entry is needed.
        dest = str(tmp_path / "povray.rtrc")
        rc = main(["--seed", "3", "traces", "export", "povray", "--to", dest])
        assert rc == 0
        loaded, header = read_rtrc(dest)
        assert loaded.name == "povray"
        assert header["provenance"] == {
            "imported_from": "synthetic:povray seed=3",
            "source_format": "synthetic",
        }

    def test_gen_traces_roundtrip(self, tmp_path, capsys):
        from repro.cli import main
        from repro.cpu.trace import load_trace

        dest = str(tmp_path / "gcc.trace")
        assert main([
            "traces", "export", "gcc", "--to", dest,
            "--export-format", "text",
        ]) == 0
        loaded = load_trace(dest)
        assert loaded.name == "gcc"
        assert len(loaded) > 0
