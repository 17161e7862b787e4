"""The columnar trace: byte-stable identity, the per-layer memory claims,
the domain check at construction, and on-demand filling.

Digests and the ``.rtrc`` hash below were captured at the last commit that
stored a trace as a list of ``TraceRecord`` tuples; they prove the synthetic
generator, the digest definition and format v1 did not move with the layout.
"""

import hashlib
import pickle
import pickletools
import random
import tracemalloc

import pytest

from repro.cpu.trace import Trace, TraceRecord
from repro.errors import TraceError
from repro.sim.runner import Runner
from repro.sim.system import System
from repro.traces import import_trace, save_rtrc
from repro.workloads import APP_PROFILES, generate_trace, get_mix, get_profile

_PINNED_DIGESTS = {
    "mcf": "0fb5b330539314641e8ba16233286d08a79278ef131b09e4cea8bffb1901ccc5",
    "lbm": "289f1fe9af97ca320333d524d62dd42faee2df80681beca1abff8dfb11a42467",
    "h264ref": (
        "58893662c95f21c9a8793e7f264d002e503f753eda0c9ee9ea35bdf6312ffa65"
    ),
}
_PINNED_MCF_RTRC_SHA256 = (
    "c5b0a7d482aab25b082259ebe36c14e52c1e6b3804366ab59930c45ff7a64413"
)


@pytest.fixture(scope="module")
def mcf():
    """The default-size (40,000-record) synthetic ``mcf`` at seed 1."""
    return generate_trace(get_profile("mcf"), seed=1)


class TestIdentity:
    @pytest.mark.parametrize("app", sorted(_PINNED_DIGESTS))
    def test_synthetic_digest_is_pinned(self, app):
        trace = generate_trace(get_profile(app), seed=1)
        assert trace.digest == _PINNED_DIGESTS[app]

    def test_rtrc_file_bytes_are_pinned(self, mcf, tmp_path):
        path = tmp_path / "mcf.rtrc"
        save_rtrc(mcf, str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == _PINNED_MCF_RTRC_SHA256


class TestLayerClaims:
    def test_generation_peaks_under_40_bytes_per_record(self):
        tracemalloc.start()
        try:
            trace = generate_trace(get_profile("mcf"), seed=1)
            assert trace.total_insts  # completes the trace
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace) == 40_000
        assert peak / len(trace) <= 40  # ~160 B as a list of tuples

    def test_pickle_is_a_few_buffers_not_a_stream_of_records(self, mcf):
        blob = pickle.dumps(mcf)
        assert len(blob) <= 1 << 20
        # The columns pickle whole, not as one opcode group per record.
        assert sum(1 for _ in pickletools.genops(blob)) < 200
        clone = pickle.loads(blob)
        assert clone.records == mcf.records
        assert clone.digest == mcf.digest

    def test_records_view_roundtrips_through_the_row_constructor(self, mcf):
        rows = mcf.records
        assert rows == list(mcf)
        assert rows[0] == TraceRecord(mcf.gaps[0], mcf.vlines[0], False)
        assert isinstance(rows[0].is_write, bool)
        rebuilt = Trace("rebuilt", rows)
        assert rebuilt.records == rows
        assert rebuilt.digest == mcf.digest
        assert list(rebuilt.cumulative_insts) == list(mcf.cumulative_insts)

    def test_no_row_storage_remains(self, mcf):
        assert not any(
            isinstance(value, (list, tuple)) for value in vars(mcf).values()
        )


class TestRenamed:
    def test_shares_columns_and_caches(self, mcf):
        digest = mcf.digest
        footprint = mcf.footprint_lines()
        clone = mcf.renamed("other")
        assert (clone.name, mcf.name) == ("other", "mcf")
        assert clone.gaps is mcf.gaps
        assert clone.vlines is mcf.vlines
        assert clone.writes is mcf.writes
        assert clone.cumulative_insts is mcf.cumulative_insts
        assert (clone._digest, clone._footprint_lines) == (digest, footprint)

    def test_import_under_another_name_keeps_the_verified_digest(
        self, tmp_path
    ):
        trace = generate_trace(get_profile("lbm"), seed=3, length_override=64)
        path = str(tmp_path / "lbm.rtrc")
        save_rtrc(trace, path)
        imported = import_trace(path, name="alias")
        assert imported.name == "alias"
        # load_rtrc hashed the records to verify them; the rename kept that.
        assert imported._digest == trace.digest


_GOOD = TraceRecord(1, 2, False)


class TestDomain:
    @pytest.mark.parametrize(
        "bad, message",
        [
            (TraceRecord(-1, 0, False), "gap -1 .* 32-bit limit"),
            (TraceRecord(2**32, 0, False), "gap 4294967296 .* 32-bit limit"),
            (TraceRecord(1.5, 0, False), "gap 1.5 "),
            (TraceRecord(0, -5, False), "address -5 .* 64-bit limit"),
            (TraceRecord(0, 2**64, False), "address .* 64-bit limit"),
            (TraceRecord(0, "7", False), "address '7' "),
            (TraceRecord(0, 0, 2), "write flag 2 "),
            (TraceRecord(0, 0, 300), "write flag 300 "),
            (TraceRecord(0, 0, None), "write flag None "),
        ],
        ids=[
            "gap-negative",
            "gap-over-u32",
            "gap-float",
            "address-negative",
            "address-over-u64",
            "address-str",
            "flag-2",
            "flag-300",
            "flag-none",
        ],
    )
    def test_bad_record_is_rejected_by_index(self, bad, message):
        with pytest.raises(TraceError, match=f"'t' record 2: {message}"):
            Trace("t", [_GOOD, _GOOD, bad, _GOOD])

    def test_domain_edges_are_accepted(self):
        trace = Trace("edge", [TraceRecord(2**32 - 1, 2**64 - 1, True)])
        assert trace.records == [TraceRecord(2**32 - 1, 2**64 - 1, True)]
        assert trace.total_insts == 2**32

    def test_ragged_columns_are_rejected(self):
        with pytest.raises(TraceError, match="differ in length"):
            Trace.from_columns("ragged", [1, 2], [3, 4], [0])

    def test_importer_rejects_an_oversized_gap_at_import(self, tmp_path):
        path = tmp_path / "sparse.champsim"
        path.write_text("0 0x40 R\n5000000000 0x80 W\n")
        with pytest.raises(TraceError, match="record 1: gap 4999999999 "):
            import_trace(str(path), fmt="champsim")


def _columns(trace):
    return (
        trace.gaps, trace.vlines, bytes(trace.writes), trace.cumulative_insts
    )


class TestOnDemand:
    """A synthetic trace starts empty and fills as the Core reads it; every
    prefix is the eager trace's, however the fills were sized."""

    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_uneven_fill_steps_give_the_one_fill_trace(self, seed):
        # 400k instructions sizes the traces at 512..~12,000 records; the
        # fill logic does not depend on the length.
        steps = random.Random(seed)
        for app in sorted(APP_PROFILES):
            once = generate_trace(
                APP_PROFILES[app], seed=seed, target_insts=400_000
            )
            stepped = generate_trace(
                APP_PROFILES[app], seed=seed, target_insts=400_000
            )
            filled = 0
            while filled < len(stepped):
                wanted = filled + steps.randrange(1, 700)
                filled = stepped.extend_to(wanted)
                assert min(wanted, len(stepped)) <= filled <= len(stepped)
            assert _columns(stepped) == _columns(once), app
            assert stepped.digest == once.digest

    def test_half_filled_trace_survives_pickle(self):
        trace = generate_trace(get_profile("mcf"), seed=1)
        half = trace.extend_to(len(trace) // 2)
        assert half < len(trace)
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.extend_to(0) == half
        assert _columns(clone) == _columns(trace)
        assert clone.digest == _PINNED_DIGESTS["mcf"]

    def test_renamed_partial_trace_shares_one_fill_state(self):
        trace = generate_trace(get_profile("lbm"), seed=1)
        trace.extend_to(1_000)
        alias = trace.renamed("alias")
        filled = alias.extend_to(5_000)
        assert trace.extend_to(0) == filled < len(trace)
        assert alias.digest == trace.digest == _PINNED_DIGESTS["lbm"]
        assert alias.vlines is trace.vlines

    def test_two_cores_sharing_one_trace_run_like_two_copies(
        self, small_config
    ):
        def mcf():
            return generate_trace(
                get_profile("mcf"), seed=1, target_insts=200_000
            )

        shared = mcf()
        one = System(small_config, [shared, shared], horizon=30_000).run()
        two = System(small_config, [mcf(), mcf()], horizon=30_000).run()
        assert 0 < shared.extend_to(0) < len(shared)
        assert one == two

    def test_a_run_generates_only_what_it_replays(self):
        apps = get_mix("M4").apps
        runner = Runner(horizon=200_000)
        runner.run_apps(list(apps), "dbp-tcm")
        traces = {app: runner.trace_for(app) for app in apps}
        for app, trace in traces.items():
            assert trace.extend_to(0) < len(trace), f"{app} was completed"
        assert len(traces["mcf"]) == 40_000
        assert traces["mcf"].extend_to(0) <= 10_000
