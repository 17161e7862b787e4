"""Checkpoint codec units and the checkpoint-resume differential grid.

Two layers:

* codec/file units — header validation, digest verification, torn-write
  detection, the ``System.checkpoint`` guards (a lambda on the agenda is
  refused, not written), and the fault-harness hooks on
  ``write_checkpoint_file``;
* the differential grid — every kernel-golden spec run *through* a
  mid-flight checkpoint round trip (serialize at a safepoint, rebuild a
  System from the bytes, resume) must produce the exact committed golden
  document, engine event counts included. This is the acceptance bar for
  the whole checkpoint format: a resumed run is bit-identical to an
  uninterrupted one.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys

import pytest

from repro.faults import FaultPlan, FaultSpec, TransientFaultError
from repro.faults import install_plan, reset as faults_reset
from repro.sim.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointCorruptError,
    CheckpointError,
    dump_checkpoint,
    load_checkpoint,
    read_checkpoint_header,
    write_checkpoint_file,
)
from repro.sim.runner import Runner
from repro.sim.system import System
from tests.kernelgrid import (
    GRID,
    HORIZON,
    build_grid_system,
    run_grid_spec_checkpointed,
)

_GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "kernel_golden.json"
)
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")

_MAGIC = b"RDBPCKPT\n"
_LEN = struct.Struct(">I")


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture
def clean_faults():
    faults_reset()
    yield
    faults_reset()


def _rewrite_header(blob: bytes, **overrides) -> bytes:
    """The same blob with selected header fields replaced."""
    offset = len(_MAGIC)
    (header_len,) = _LEN.unpack_from(blob, offset)
    start = offset + _LEN.size
    header = json.loads(blob[start : start + header_len].decode("utf-8"))
    header.update(overrides)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return (
        _MAGIC
        + _LEN.pack(len(header_bytes))
        + header_bytes
        + blob[start + header_len :]
    )


# ---------------------------------------------------------------------------
# Codec units.
# ---------------------------------------------------------------------------
class TestCodec:
    def test_roundtrip_with_meta(self):
        root = {"a": 1, "nested": [1, 2, {"b": "x"}]}
        blob = dump_checkpoint(root, meta={"run_key": "k", "cycle": 7})
        loaded, header = load_checkpoint(blob)
        assert loaded == root
        assert header["version"] == CHECKPOINT_VERSION
        assert header["meta"]["run_key"] == "k"
        assert header["meta"]["cycle"] == 7

    def test_header_readable_without_payload_digest(self):
        blob = dump_checkpoint({"x": 1}, meta={"run_key": "k"})
        # Damage the payload: the header pre-check must still succeed —
        # that is the point of reading it before paying for verification.
        damaged = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        header = read_checkpoint_header(damaged)
        assert header["meta"]["run_key"] == "k"
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(damaged)

    def test_bad_magic_is_corrupt(self):
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint_header(b"NOTACKPT" + b"\x00" * 64)

    def test_truncated_header_is_corrupt(self):
        blob = dump_checkpoint({"x": 1})
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint_header(blob[: len(_MAGIC) + 2])

    def test_truncated_payload_is_corrupt(self):
        blob = dump_checkpoint({"x": list(range(100))})
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(blob[:-10])

    def test_flipped_payload_byte_is_corrupt(self):
        blob = dump_checkpoint({"x": 1})
        mid = len(blob) - 3
        damaged = blob[:mid] + bytes([blob[mid] ^ 0x5A]) + blob[mid + 1 :]
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(damaged)

    def test_foreign_version_is_stale_not_corrupt(self):
        # A future format, version 1 (whose pickled controllers still
        # carried a kernel selection), 2 (traces pickled as tuple lists),
        # 3 (System-owned completion relays and the interpreter pin),
        # 4 (traces pickled complete, without a fill source) and 5 (caches
        # pickled as per-set dicts and a replacement policy).
        for version in (CHECKPOINT_VERSION + 1, 1, 2, 3, 4, 5):
            blob = _rewrite_header(dump_checkpoint({"x": 1}), version=version)
            with pytest.raises(CheckpointError) as excinfo:
                read_checkpoint_header(blob)
            assert not isinstance(excinfo.value, CheckpointCorruptError)

    def test_garbage_header_is_corrupt(self):
        blob = _MAGIC + _LEN.pack(4) + b"\xff\xfe\x00\x01"
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint_header(blob)


# ---------------------------------------------------------------------------
# File helpers + injected write faults.
# ---------------------------------------------------------------------------
class TestCheckpointFiles:
    def test_write_read_roundtrip_is_atomic(self, tmp_path):
        path = tmp_path / "run.ckpt"
        blob = dump_checkpoint({"x": 1}, meta={"run_key": "k"})
        write_checkpoint_file(path, blob)
        loaded, header = load_checkpoint(path.read_bytes())
        assert loaded == {"x": 1}
        assert read_checkpoint_header(path.read_bytes())["meta"] == (
            header["meta"]
        )
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_torn_write_leaves_detectably_corrupt_file(
        self, tmp_path, clean_faults
    ):
        install_plan(
            FaultPlan(
                seed=3,
                faults=(
                    FaultSpec(site="checkpoint.write", kind="torn_checkpoint"),
                ),
            )
        )
        path = tmp_path / "run.ckpt"
        blob = dump_checkpoint({"x": list(range(200))})
        with pytest.raises(TransientFaultError):
            write_checkpoint_file(path, blob, fault_key="run")
        assert path.is_file()
        assert path.stat().st_size < len(blob)
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path.read_bytes())

    def test_death_after_flush_leaves_valid_checkpoint(
        self, tmp_path, clean_faults
    ):
        install_plan(
            FaultPlan(
                seed=3,
                faults=(FaultSpec(site="checkpoint.write", kind="transient"),),
            )
        )
        path = tmp_path / "run.ckpt"
        blob = dump_checkpoint({"x": 1})
        with pytest.raises(TransientFaultError):
            write_checkpoint_file(path, blob, fault_key="run")
        loaded, _header = load_checkpoint(path.read_bytes())
        assert loaded == {"x": 1}

    def test_write_faults_converge_on_later_attempts(
        self, tmp_path, clean_faults
    ):
        install_plan(
            FaultPlan(
                seed=3,
                faults=(
                    FaultSpec(
                        site="checkpoint.write",
                        kind="torn_checkpoint",
                        times=1,
                    ),
                ),
            )
        )
        path = tmp_path / "run.ckpt"
        blob = dump_checkpoint({"x": 1})
        # Attempt 2 is past times=1: the write must succeed untouched.
        write_checkpoint_file(path, blob, fault_key="run", fault_attempt=2)
        loaded, _header = load_checkpoint(path.read_bytes())
        assert loaded == {"x": 1}


# ---------------------------------------------------------------------------
# System-level guards.
# ---------------------------------------------------------------------------
class TestSystemGuards:
    def test_checkpoint_after_finish_refused(self):
        system = build_grid_system(GRID[1], horizon=2_000)
        system.run()
        with pytest.raises(CheckpointError):
            system.checkpoint()

    def test_checkpoint_inside_event_loop_refused(self):
        system = build_grid_system(GRID[1], horizon=2_000)
        seen = []

        def probe(_cycle):
            try:
                system.checkpoint()
            except CheckpointError as error:
                seen.append(str(error))

        system.engine.schedule(1_000, probe)
        system.run()
        assert seen and "inside the event loop" in seen[0]

    def test_lambda_on_the_agenda_is_refused_not_corrupt(self):
        # Stock pickle stores callbacks by name; an anonymous one must stop
        # the checkpoint loudly instead of writing an unloadable blob.
        system = build_grid_system(GRID[1], horizon=2_000)
        system.engine.schedule(1_000, lambda cycle: None)
        with pytest.raises(CheckpointError) as excinfo:
            system.checkpoint()
        assert not isinstance(excinfo.value, CheckpointCorruptError)

    def test_restore_rejects_non_system_blob(self):
        blob = dump_checkpoint({"not": "a system"})
        with pytest.raises(CheckpointError):
            System.restore(blob)


# ---------------------------------------------------------------------------
# A safepoint left behind by an older checkpoint format.
# ---------------------------------------------------------------------------
class TestStaleSafepoint:
    """A ``.ckpt`` is looked up by store key alone, so one written before a
    pickled-layout change must read as *stale* and never be unpickled."""

    def test_runner_reruns_from_scratch_over_a_version_1_safepoint(
        self, small_config, tmp_path, clean_faults, monkeypatch
    ):
        self._rerun_over_stale(small_config, tmp_path, monkeypatch, version=1)

    def test_runner_reruns_from_scratch_over_a_version_2_safepoint(
        self, small_config, tmp_path, clean_faults, monkeypatch
    ):
        """Version 2 pickled a trace as a list of tuples, 3 as columns."""
        assert CHECKPOINT_VERSION == 6
        self._rerun_over_stale(small_config, tmp_path, monkeypatch, version=2)

    def test_runner_reruns_from_scratch_over_a_version_3_safepoint(
        self, small_config, tmp_path, clean_faults, monkeypatch
    ):
        """Version 3 carried System's completion relays; 4 pickles only
        bound methods and partials, with no interpreter pin."""
        self._rerun_over_stale(small_config, tmp_path, monkeypatch, version=3)

    def test_runner_reruns_from_scratch_over_a_version_4_safepoint(
        self, small_config, tmp_path, clean_faults, monkeypatch
    ):
        """Version 4 pickled every trace complete; 5 pickles a synthetic
        trace's filled prefix and the generator state that resumes it."""
        self._rerun_over_stale(small_config, tmp_path, monkeypatch, version=4)

    def test_runner_reruns_from_scratch_over_a_version_5_safepoint(
        self, small_config, tmp_path, clean_faults, monkeypatch
    ):
        """Version 5 pickled each cache as per-set dicts of line objects
        and an LRU policy; 6 pickles its flat tag/stamp/dirty arrays."""
        self._rerun_over_stale(small_config, tmp_path, monkeypatch, version=5)

    def _rerun_over_stale(self, small_config, tmp_path, monkeypatch, version):
        apps, approach = ["mcf", "lbm"], "dbp"
        scope = dict(config=small_config, horizon=30_000, target_insts=200_000)
        safepoints = dict(safepoint_every=10_000, safepoint_dir=tmp_path)

        # A run killed right after flushing its first safepoint...
        install_plan(
            FaultPlan(
                faults=(
                    FaultSpec(site="checkpoint.write", kind="transient"),
                ),
            )
        )
        with pytest.raises(TransientFaultError):
            Runner(**scope, **safepoints).run_apps(apps, approach)
        faults_reset()
        (ckpt,) = tmp_path.glob("*.ckpt")
        assert read_checkpoint_header(ckpt.read_bytes())["meta"]["cycle"] == 10_000
        # ...by code that still wrote an older format version.
        ckpt.write_bytes(_rewrite_header(ckpt.read_bytes(), version=version))

        def _never(_blob):
            raise AssertionError("a stale checkpoint must not be unpickled")

        monkeypatch.setattr("repro.sim.checkpoint.load_checkpoint", _never)
        with pytest.warns(
            RuntimeWarning,
            match=(
                "discarding unusable checkpoint .* "
                f"format version {version} != {CHECKPOINT_VERSION}"
            ),
        ):
            rerun = Runner(**scope, **safepoints).run_apps(apps, approach)
        assert not list(tmp_path.glob("*.ckpt"))

        clean = Runner(**scope).run_apps(apps, approach)
        assert rerun.system.engine_events == clean.system.engine_events
        assert rerun.metrics_snapshot == clean.metrics_snapshot
        assert rerun.shared_ipcs == clean.shared_ipcs


# ---------------------------------------------------------------------------
# The differential grid: interrupted + resumed == golden, bit for bit.
# ---------------------------------------------------------------------------
def _diff_paths(expected, actual, prefix=""):
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                out.append(f"{prefix}.{key} (missing on one side)")
            else:
                out.extend(
                    _diff_paths(expected[key], actual[key], f"{prefix}.{key}")
                )
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{prefix} (length {len(expected)} != {len(actual)})"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out.extend(_diff_paths(e, a, f"{prefix}[{i}]"))
        return out
    if expected != actual:
        return [f"{prefix}: {expected!r} != {actual!r}"]
    return []


@pytest.mark.parametrize("spec", GRID, ids=[spec[0] for spec in GRID])
def test_checkpoint_resume_matches_golden(spec, golden):
    expected = golden["runs"][spec[0]]
    actual = json.loads(json.dumps(run_grid_spec_checkpointed(spec)))
    if actual != expected:
        diffs = _diff_paths(expected, actual, prefix=spec[0])
        pytest.fail(
            f"checkpoint-resumed run diverged from golden on {spec[0]}:\n"
            + "\n".join(diffs[:20])
        )


def test_interrupt_point_does_not_change_results(golden):
    # Two different interruption cycles, one early and one late, must both
    # land on the same golden document — the checkpoint is position-free.
    name = "dbp-tcm/open"
    spec = next(s for s in GRID if s[0] == name)
    for interrupt_at in (5_000, 50_000):
        actual = json.loads(
            json.dumps(run_grid_spec_checkpointed(spec, interrupt_at=interrupt_at))
        )
        assert actual == golden["runs"][name], f"interrupt_at={interrupt_at}"


# ---------------------------------------------------------------------------
# Portability: a checkpoint written by one process resumes in another.
# ---------------------------------------------------------------------------
_WRITE_FIRST_SAFEPOINT = """
import sys
from pathlib import Path
from tests.kernelgrid import GRID, HORIZON, build_grid_system

spec = next(s for s in GRID if s[0] == sys.argv[1])

class Stop(Exception):
    pass

def snap(system, _cycle):
    Path(sys.argv[2]).write_bytes(system.checkpoint())
    raise Stop

try:
    build_grid_system(spec).run(safepoint_every=HORIZON // 3, on_safepoint=snap)
except Stop:
    pass
"""

_RESUME_AND_REPORT = """
import json, sys
from pathlib import Path
from tests.kernelgrid import grid_doc
from repro.sim.system import System

system = System.restore(Path(sys.argv[1]).read_bytes())
print(json.dumps(grid_doc(system, system.resume())))
"""


def _python(code, hash_seed, *argv):
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([_SRC, _ROOT]),
        PYTHONHASHSEED=str(hash_seed),
    )
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    ).stdout


@pytest.mark.parametrize(
    "name", ["tcm/open", "dbp-tcm/closed", "shared-frfcfs/closed+validate"]
)
def test_checkpoint_resumes_across_processes_and_hash_seeds(
    name, golden, tmp_path
):
    # Set iteration order and str hashes differ between the two processes;
    # the pickled state must not depend on either.
    blob = tmp_path / "safepoint.ckpt"
    _python(_WRITE_FIRST_SAFEPOINT, 1, name, str(blob))
    assert read_checkpoint_header(blob.read_bytes())["meta"]["cycle"] == HORIZON // 3
    resumed = json.loads(_python(_RESUME_AND_REPORT, 987, str(blob)))
    if resumed != golden["runs"][name]:
        diffs = _diff_paths(golden["runs"][name], resumed, prefix=name)
        pytest.fail(
            f"cross-process resume diverged from golden on {name}:\n"
            + "\n".join(diffs[:20])
        )
