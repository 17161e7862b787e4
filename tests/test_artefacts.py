"""Every persisted file kind against one rule: stale versus corrupt.

Three layers:

* the mechanism itself (:mod:`repro.artefact`): the atomic write, the
  exact JSON bytes, the classification of bytes read back;
* one parametrized chaos test that damages a freshly written file of
  every kind — store entry, alone record, failure record, library
  manifest, span file, epoch log, study document — and asserts each kind's
  documented outcome (DESIGN.md, "On-disk artefacts");
* a compatibility case over ``tests/data/artefacts/``: one file per kind
  written by the writers that predate the shared module. Each must still
  read at an unchanged version and re-emit byte-identically.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import pytest

from repro.artefact import (
    Corrupt,
    Stale,
    atomic_write,
    decode_json,
    read_json,
    tmp_glob,
    write_json,
)
from repro.campaign.failures import RECORD_VERSION
from repro.campaign.store import (
    STORE_VERSION,
    ResultStore,
    decode_run_result,
)
from repro.cli import _build_parser, main
from repro.cpu.trace import Trace, TraceRecord
from repro.errors import ConfigError
from repro.faults import corrupt_file, truncate_file
from repro.telemetry.recorder import EPOCH_LOG_VERSION, write_epoch_log
from repro.telemetry.spans import (
    SpanTracer,
    load_trace_file,
    now_us,
    write_trace_file,
)
from repro.traces import format as rtrc_format
from repro.traces.library import MANIFEST_VERSION, TraceLibrary
from repro.tuner.studies import write_study
from repro.workloads import generate_trace, get_profile
from tests.test_trace_columns import _PINNED_MCF_RTRC_SHA256

DATA = Path(__file__).parent / "data" / "artefacts"
KEY = "ab" + "c" * 62
RAW_DECODE_ERRORS = (json.JSONDecodeError, UnicodeDecodeError)


def _fixture_doc(name):
    return json.loads((DATA / name).read_text())


def _no_tmp_left(root: Path):
    return [p for p in root.rglob("*") if ".tmp." in p.name] == []


# ---------------------------------------------------------------------------
# The mechanism.
# ---------------------------------------------------------------------------
class TestMechanism:
    def test_write_json_bytes(self, tmp_path):
        doc = {"b": [1, 2], "a": {"z": 1.5, "y": "é"}}
        path = write_json(tmp_path / "deep" / "doc.json", doc)
        expected = json.dumps(doc, sort_keys=True, indent=1) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")
        assert _no_tmp_left(tmp_path)

    def test_failed_write_keeps_old_file_and_removes_tmp(self, tmp_path):
        path = tmp_path / "file.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as handle:
                handle.write(b"half of the new")
                raise RuntimeError("writer died")
        assert path.read_bytes() == b"old"
        assert _no_tmp_left(tmp_path)

    def test_tmp_name_is_per_process_and_globbed(self, tmp_path):
        path = tmp_path / "x.json"
        with atomic_write(path) as handle:
            tmp, = tmp_path.glob(tmp_glob("*.json"))
            assert tmp.name == f"x.json.tmp.{os.getpid()}"
            handle.write(b"{}")
        assert list(tmp_path.glob(tmp_glob("*.json"))) == []

    @pytest.mark.parametrize(
        "data",
        [b"", b"{torn", b'{"a": 1', b"\xff\xfe{}", b"[1, 2]", b'"text"'],
        ids=["empty", "garbage", "torn", "not-utf8", "list", "string"],
    )
    def test_undecodable_or_non_object_is_corrupt(self, data):
        with pytest.raises(Corrupt) as excinfo:
            decode_json(data, 1)
        assert not isinstance(excinfo.value, RAW_DECODE_ERRORS)
        assert isinstance(excinfo.value, ValueError)

    def test_missing_file_is_corrupt(self, tmp_path):
        with pytest.raises(Corrupt, match="corrupt file .*absent.json"):
            read_json(tmp_path / "absent.json", 1)

    def test_other_version_is_stale_and_keeps_the_doc(self):
        with pytest.raises(Stale, match="stale thing: version 3 != 2") as info:
            decode_json(b'{"version": 3, "x": 1}', 2, kind="thing")
        assert info.value.doc == {"version": 3, "x": 1}
        assert not isinstance(info.value, Corrupt)

    def test_custom_field_and_no_version(self):
        doc = decode_json(b'{"record_version": 1}', 1, "record_version")
        assert doc == {"record_version": 1}
        with pytest.raises(Stale):
            decode_json(b'{"version": 1}', 1, "record_version")
        assert decode_json(b'{"anything": 0}', None) == {"anything": 0}


# ---------------------------------------------------------------------------
# One chaos test over every kind.
# ---------------------------------------------------------------------------
def _bump_json(path: Path, field: str) -> None:
    doc = json.loads(path.read_text())
    doc[field] += 1
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


class StoreEntry:
    foreign = staticmethod(lambda path: _bump_json(path, "version"))

    def write(self, root):
        result = decode_run_result(_fixture_doc("store_entry.json")["result"])
        return ResultStore(root, index=False).put(KEY, result, 1.25)

    def check(self, root, path, case):
        store = ResultStore(root, index=False)
        assert store.get(KEY) is None
        assert store.stats.misses == 1
        quarantined = path.with_name(path.name + ".corrupt")
        if case == "foreign":  # stale: skipped, left in place
            assert (store.stats.stale, store.stats.corrupt) == (1, 0)
            assert path.exists() and not quarantined.exists()
        else:  # corrupt: quarantined and a miss
            assert (store.stats.stale, store.stats.corrupt) == (0, 1)
            assert quarantined.exists() and not path.exists()


class AloneRecord:
    foreign = staticmethod(lambda path: _bump_json(path, "version"))

    def write(self, root):
        return ResultStore(root, index=False).put_alone(KEY, 0.625, {})

    def check(self, root, path, case):
        store = ResultStore(root, index=False)
        assert store.get_alone(KEY) is None  # a miss: the caller simulates
        assert path.exists()


class FailureRecordFile:
    foreign = staticmethod(lambda path: _bump_json(path, "record_version"))

    def write(self, root):
        doc = _fixture_doc("failure_record.json")
        return ResultStore(root, index=False).put_failure(KEY, doc)

    def check(self, root, path, case):
        store = ResultStore(root, index=False)
        assert store.get_failure(KEY) is None
        assert list(store.iter_failures()) == []
        assert store.stale_paths() == ([path] if case == "foreign" else [])


class Manifest:
    foreign = staticmethod(lambda path: _bump_json(path, "version"))

    def write(self, root):
        library = TraceLibrary(root / "lib")
        library.add(
            Trace("tiny", [TraceRecord(3, 64, False)]), characterize=False
        )
        return library.manifest_path

    def check(self, root, path, case):
        with pytest.raises(ConfigError) as excinfo:
            TraceLibrary(root / "lib").entries()
        if case == "foreign":
            assert "stale library manifest" in str(excinfo.value)
            assert f"version {MANIFEST_VERSION + 1} != {MANIFEST_VERSION}" in (
                str(excinfo.value)
            )
        else:
            assert "corrupt library manifest" in str(excinfo.value)


class SpanFile:
    foreign = None  # span files carry no version

    def write(self, root):
        tracer = SpanTracer("chaos")
        tracer.complete("run", now_us(), 5, mix="M4")
        path = root / "spans.json"
        tracer.write(str(path))
        return path

    def check(self, root, path, case):
        with pytest.raises(ValueError) as excinfo:
            load_trace_file(str(path))
        assert isinstance(excinfo.value, Corrupt)


class EpochLog:
    foreign = staticmethod(lambda path: _bump_json(path, "version"))

    def write(self, root):
        record = {
            "cycle": 25_000, "fired_quantum": True, "fired_policy": False,
            "threads": {}, "controllers": [],
        }
        path = root / "epochs.json"
        write_epoch_log(path, [record], mix="M4", approach="dbp", seed=1)
        return path

    def check(self, root, path, case):
        args = _build_parser().parse_args(["explain", "--from-log", str(path)])
        with pytest.raises(ConfigError) as excinfo:
            args.handler(args)
        if case == "foreign":
            assert f"stale epoch log {path}: version " in str(excinfo.value)
            assert f"{EPOCH_LOG_VERSION + 1} != {EPOCH_LOG_VERSION}" in (
                str(excinfo.value)
            )
        else:
            assert f"corrupt epoch log {path}" in str(excinfo.value)


class StudyDocument:
    foreign = staticmethod(lambda path: _bump_json(path, "version"))

    def write(self, root):
        trial = {
            "trial_id": 0, "params": {}, "approach": "dbp",
            "horizon": 20_000, "ws": 3.0, "ms": 1.5, "hs": 0.7,
            "score": 2.0, "status": "ok", "error": None, "cached": 0,
            "executed": 1, "wall_clock": 0.5,
        }
        return write_study(root, {
            "study": "s", "strategy": "random", "objective": "balanced",
            "base_approach": "dbp", "mixes": ["M4"], "seed": 1,
            "trials": [trial],
        })

    def check(self, root, path, case):
        for argv in (["report"], ["frontier", "--study", "s"]):
            with pytest.raises(ConfigError) as excinfo:
                args = _build_parser().parse_args(
                    ["tune", *argv, "--store", str(root)]
                )
                args.handler(args)
            if case == "foreign":
                assert f"stale study document {path}: version " in str(
                    excinfo.value
                )
                assert f"{STORE_VERSION + 1} != {STORE_VERSION}" in str(
                    excinfo.value
                )
            else:
                assert f"corrupt study document {path}" in str(excinfo.value)
        # `results gc --stale` clears a foreign-version document.
        store = ResultStore(root, index=False)
        assert store.stale_paths() == ([path] if case == "foreign" else [])


KINDS = {
    "store-entry": StoreEntry(),
    "alone-record": AloneRecord(),
    "failure-record": FailureRecordFile(),
    "manifest": Manifest(),
    "span-file": SpanFile(),
    "epoch-log": EpochLog(),
    "study-document": StudyDocument(),
}
DAMAGE = {
    "torn": truncate_file,
    "empty": lambda path: Path(path).write_bytes(b""),
    "flipped": corrupt_file,
    "foreign": None,  # the kind's own version bump
}


@pytest.mark.parametrize(
    "kind, case",
    [
        (kind, case)
        for kind in sorted(KINDS)
        for case in sorted(DAMAGE)
        if case != "foreign" or KINDS[kind].foreign is not None
    ],
)
def test_damaged_artefact_has_its_documented_outcome(kind, case, tmp_path):
    artefact = KINDS[kind]
    path = Path(artefact.write(tmp_path))
    assert path.is_file() and _no_tmp_left(tmp_path)
    (artefact.foreign if case == "foreign" else DAMAGE[case])(path)
    try:
        artefact.check(tmp_path, path, case)
    except RAW_DECODE_ERRORS as error:  # pragma: no cover - the failure
        pytest.fail(f"a raw decode error escaped: {error!r}")


# ---------------------------------------------------------------------------
# Files written before the shared module still read, and re-emit exactly.
# ---------------------------------------------------------------------------
class TestParentFormatFixtures:
    @pytest.mark.parametrize(
        "name, version, field",
        [
            ("store_entry.json", STORE_VERSION, "version"),
            ("alone_record.json", STORE_VERSION, "version"),
            ("failure_record.json", RECORD_VERSION, "record_version"),
            ("manifest.json", MANIFEST_VERSION, "version"),
        ],
    )
    def test_json_kinds_read_at_their_version_and_rewrite_exactly(
        self, tmp_path, name, version, field
    ):
        doc = read_json(DATA / name, version, field)
        out = write_json(tmp_path / name, doc)
        assert out.read_bytes() == (DATA / name).read_bytes()

    def test_store_reads_its_entry_alone_and_failure_records(self, tmp_path):
        store = ResultStore(tmp_path, index=False)
        for name, path in (
            ("store_entry.json", store.path_for(KEY)),
            ("alone_record.json", store.alone_path_for(KEY)),
            ("failure_record.json", store.failure_path_for(KEY)),
        ):
            path.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(DATA / name, path)
        result, wall = store.get(KEY)
        assert wall == 1.25 and result.metrics.mix == "M4"
        assert result.system.threads[1].app == "lbm"
        assert store.get_alone(KEY) == 0.625
        record = store.get_failure(KEY)
        assert record["label"] == "M4/dbp" and len(record["attempts"]) == 1
        assert store.stale_paths() == []

    def test_library_reads_its_manifest(self, tmp_path):
        shutil.copy(DATA / "manifest.json", tmp_path / "manifest.json")
        entry = TraceLibrary(tmp_path).entries()["tiny"]
        assert entry["records"] == 2 and entry["file"] == "tiny.rtrc"

    def test_span_file_loads_and_rewrites_exactly(self, tmp_path):
        doc = load_trace_file(str(DATA / "spans.json"))
        assert [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"] == [
            "run", "measure"
        ]
        write_trace_file(str(tmp_path / "spans.json"), doc)
        assert (tmp_path / "spans.json").read_bytes() == (
            DATA / "spans.json"
        ).read_bytes()


# ---------------------------------------------------------------------------
# Per-kind behaviour the shared module fixed.
# ---------------------------------------------------------------------------
class TestFixedBehaviour:
    def test_gc_removes_a_failure_records_leftover_tmp(self, tmp_path, capsys):
        store = ResultStore(tmp_path, index=False)
        final = store.put_failure(KEY, _fixture_doc("failure_record.json"))
        # A supervisor killed inside put_failure leaves its temp file.
        orphan = final.with_name(final.name + ".tmp.4321")
        orphan.write_text("{half")
        assert store.orphaned_tmp_paths() == [orphan]
        assert main(["results", "gc", "--store", str(tmp_path)]) == 0
        assert "1 tmp" in capsys.readouterr().out
        assert not orphan.exists() and final.exists()

    @staticmethod
    def _crash_mid_rtrc_write(monkeypatch):
        """The next .rtrc write dies after its preamble and header."""

        def crash(*_args, **_kwargs):
            raise RuntimeError("writer killed mid-write")

        monkeypatch.setattr(rtrc_format.zlib, "compress", crash)

    def test_crashed_override_import_keeps_the_old_trace(
        self, tmp_path, monkeypatch
    ):
        library = TraceLibrary(tmp_path / "lib")
        mcf = generate_trace(get_profile("mcf"), seed=1).renamed("mcf-copy")
        library.add(mcf, characterize=False)
        old = library.path_for("mcf-copy").read_bytes()
        replacement = Trace("mcf-copy", [TraceRecord(1, 2, False)] * 3)
        self._crash_mid_rtrc_write(monkeypatch)
        with pytest.raises(RuntimeError):
            library.add(replacement, characterize=False, override=True)
        monkeypatch.undo()
        assert library.path_for("mcf-copy").read_bytes() == old
        assert _no_tmp_left(tmp_path)
        reopened = TraceLibrary(tmp_path / "lib")
        assert reopened.entry("mcf-copy")["digest"] == mcf.digest
        assert reopened.get("mcf-copy").digest == mcf.digest

    def test_rtrc_bytes_unchanged_and_kept_over_a_crashed_rewrite(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "mcf.rtrc")
        rtrc_format.save_rtrc(generate_trace(get_profile("mcf"), seed=1), path)
        old = Path(path).read_bytes()
        assert hashlib.sha256(old).hexdigest() == _PINNED_MCF_RTRC_SHA256
        self._crash_mid_rtrc_write(monkeypatch)
        with pytest.raises(RuntimeError):
            rtrc_format.save_rtrc(Trace("mcf", [TraceRecord(1, 2, False)]), path)
        assert Path(path).read_bytes() == old
        assert _no_tmp_left(tmp_path)

    def test_failure_record_of_another_version_is_stale(self, tmp_path, capsys):
        store = ResultStore(tmp_path, index=False)
        doc = dict(_fixture_doc("failure_record.json"))
        doc["record_version"] = RECORD_VERSION + 1
        path = store.put_failure(KEY, doc)
        assert store.get_failure(KEY) is None
        assert list(store.iter_failures()) == []
        assert store.stale_paths() == [path]
        argv = ["results", "gc", "--store", str(tmp_path), "--stale"]
        assert main(argv + ["--dry-run"]) == 0
        assert f"would delete [stale] {path}" in capsys.readouterr().out
        assert main(argv) == 0
        assert not path.exists()

    def test_manifest_of_another_version_says_stale(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"version": MANIFEST_VERSION + 1, "traces": {}})
        )
        with pytest.raises(ConfigError, match="stale library manifest") as e:
            TraceLibrary(tmp_path).entries()
        assert f"{MANIFEST_VERSION + 1} != {MANIFEST_VERSION}" in str(e.value)
        (tmp_path / "manifest.json").write_text('{"version": 1, "tra')
        with pytest.raises(ConfigError, match="corrupt library manifest"):
            TraceLibrary(tmp_path).entries()

    def test_span_file_write_makes_its_dir_and_owns_its_tmp(self, tmp_path):
        path = tmp_path / "new" / "spans.json"
        # A concurrent writer's temp file under the old shared name.
        path.parent.mkdir()
        other = Path(str(path) + ".tmp")
        other.write_text("another writer's half")
        write_trace_file(str(path), {"traceEvents": []})
        assert load_trace_file(str(path)) == {"traceEvents": []}
        assert other.read_text() == "another writer's half"
        deeper = tmp_path / "a" / "b" / "spans.json"
        write_trace_file(str(deeper), {"traceEvents": []})
        assert deeper.is_file()
