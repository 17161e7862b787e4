"""Per-epoch instrumentation of one simulation run.

The recorder captures, at every profiling boundary the system crosses:

* each thread's measured profile (MPKI / RBH / BLP / bandwidth share),
* the partitioning policy's decisions when it fired this boundary —
  demand estimates, bank-color allocation, repartition and migration
  counters,
* the adaptive scheduler's quantum state when it fired (e.g. TCM's
  latency/bandwidth clusters, via :meth:`Scheduler.telemetry_state`),
* per-controller queue depths plus a log2 read-latency histogram of the
  epoch's served requests.

Cost model: telemetry is strictly opt-in. A :class:`System` built without a
recorder registers no extra controller listeners and executes exactly one
``is None`` check per epoch boundary — the hot command-issue path is
untouched. With a recorder attached, per-request work is a few counter
increments in :class:`ControllerProbe`; everything expensive (snapshotting
dicts) happens once per epoch.

The recorder keeps every epoch in a plain list: an epoch is a profiling
interval (≈ 25k cycles under DBP-TCM) and a record ≈ 1.4 KB, so even a
multi-million-cycle run holds a few hundred KB. :func:`write_epoch_log`
persists the list as one versioned JSON document (the *epoch log*) and
:func:`read_epoch_log` reads it back for ``repro-dbp explain --from-log``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..artefact import Corrupt, Stale, read_json, write_json
from ..errors import ConfigError

#: Log2 buckets of the per-controller read-latency histogram: bucket i
#: holds latencies of bit length i — [2^(i-1), 2^i) CPU cycles — and the
#: last bucket is open-ended.
LATENCY_BUCKETS = 14
#: Format version of the epoch log; bump when the record layout changes.
EPOCH_LOG_VERSION = 1


class ControllerProbe:
    """Listener on one channel controller, reset at each epoch boundary."""

    __slots__ = (
        "controller",
        "arrivals",
        "reads",
        "writes",
        "row_hits",
        "migration_casses",
        "latency_sum",
        "latency_hist",
    )

    def __init__(self, controller) -> None:
        self.controller = controller
        self._reset()

    def _reset(self) -> None:
        self.arrivals = 0
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.migration_casses = 0
        self.latency_sum = 0
        self.latency_hist = [0] * LATENCY_BUCKETS

    # -- controller listener interface ---------------------------------
    def on_arrival(self, request, now: int) -> None:
        self.arrivals += 1

    def on_cas(self, request, now: int, row_hit: bool, data_end=None) -> None:
        if request.is_migration:
            self.migration_casses += 1
            return
        if request.is_write:
            self.writes += 1
        else:
            self.reads += 1
            if data_end is not None:
                latency = max(0, data_end - request.arrival)
                self.latency_sum += latency
                bucket = min(latency.bit_length(), LATENCY_BUCKETS - 1)
                self.latency_hist[bucket] += 1
        if row_hit:
            self.row_hits += 1

    # -- epoch boundary ------------------------------------------------
    def snapshot_and_reset(self) -> Dict[str, object]:
        doc = {
            "channel": self.controller.channel.channel_id,
            "read_queue_depth": len(self.controller.read_queue),
            "write_queue_depth": len(self.controller.write_queue),
            "arrivals": self.arrivals,
            "reads": self.reads,
            "writes": self.writes,
            "row_hits": self.row_hits,
            "migration_casses": self.migration_casses,
            "mean_read_latency": (
                self.latency_sum / self.reads if self.reads else 0.0
            ),
            "latency_hist": list(self.latency_hist),
        }
        self._reset()
        return doc


class TelemetryRecorder:
    """Recorder of per-epoch system state, one record per boundary.

    Built by whoever wants visibility (Runner, ``repro-dbp explain``, a
    test), handed to :class:`~repro.sim.system.System`, read afterwards.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []
        self.probes: List[ControllerProbe] = []
        self._policy = None
        self._scheduler = None
        self._last_pages_migrated = 0

    @property
    def epochs(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Wiring (called once by the System builder).
    # ------------------------------------------------------------------
    def attach(self, controllers, policy, scheduler) -> None:
        """Register probes on every controller and remember the deciders."""
        self._policy = policy
        self._scheduler = scheduler
        for controller in controllers:
            probe = ControllerProbe(controller)
            controller.add_listener(probe)
            self.probes.append(probe)

    # ------------------------------------------------------------------
    # Epoch boundary (called by System._on_epoch when a recorder exists).
    # ------------------------------------------------------------------
    def on_epoch(
        self, now: int, snapshot, fired_quantum: bool, fired_policy: bool
    ) -> None:
        record: Dict[str, object] = {
            "cycle": now,
            "fired_quantum": fired_quantum,
            "fired_policy": fired_policy,
            "threads": {
                str(t): {
                    "mpki": p.mpki,
                    "rbh": p.rbh,
                    "blp": p.blp,
                    "bandwidth": p.bandwidth,
                    "requests": p.requests,
                }
                for t, p in sorted(snapshot.threads.items())
            },
            "controllers": [p.snapshot_and_reset() for p in self.probes],
        }
        if fired_policy:
            record["policy"] = self._policy_decisions()
        if fired_quantum or fired_policy:
            # On policy epochs too: batch schedulers like PAR-BS have no
            # quantum, so this is the only boundary their state surfaces.
            record["scheduler"] = self._scheduler_state()
        self.records.append(record)

    def _policy_decisions(self) -> Dict[str, object]:
        """Duck-typed capture of whatever the policy exposes.

        Every field is optional so static or third-party policies record
        gracefully; DBP (and DBP+MCP via delegation) exposes all of them.
        """
        policy = self._policy
        doc: Dict[str, object] = {"name": getattr(policy, "name", "?")}
        repartitions = getattr(policy, "stat_repartitions", None)
        if repartitions is not None:
            doc["repartitions"] = repartitions
        pages = getattr(policy, "stat_pages_migrated", None)
        if pages is not None:
            doc["pages_migrated"] = pages
            doc["pages_migrated_epoch"] = pages - self._last_pages_migrated
            self._last_pages_migrated = pages
        allocation = getattr(policy, "last_allocation", None)
        if allocation:
            doc["allocation"] = {
                str(t): list(colors) for t, colors in sorted(allocation.items())
            }
        demands = getattr(policy, "last_demands", None)
        if demands:
            doc["demands"] = {str(t): d for t, d in sorted(demands.items())}
        return doc

    def _scheduler_state(self) -> Dict[str, object]:
        scheduler = self._scheduler
        doc: Dict[str, object] = {"name": getattr(scheduler, "name", "?")}
        state = getattr(scheduler, "telemetry_state", None)
        if state is not None:
            doc.update(state())
        return doc

    def summary(self) -> Dict[str, object]:
        """Compact run-level digest (attached to store entry metadata)."""
        max_read_q = max_write_q = 0
        migration_casses = 0
        for record in self.records:
            for ctrl in record["controllers"]:
                max_read_q = max(max_read_q, ctrl["read_queue_depth"])
                max_write_q = max(max_write_q, ctrl["write_queue_depth"])
                migration_casses += ctrl["migration_casses"]
        doc: Dict[str, object] = {
            "epochs": self.epochs,
            "quanta": sum(r["fired_quantum"] for r in self.records),
            "policy_epochs": sum(r["fired_policy"] for r in self.records),
            "max_read_queue_depth": max_read_q,
            "max_write_queue_depth": max_write_q,
            "migration_casses": migration_casses,
        }
        repartitions = getattr(self._policy, "stat_repartitions", None)
        if repartitions is not None:
            doc["repartitions"] = repartitions
        pages = getattr(self._policy, "stat_pages_migrated", None)
        if pages is not None:
            doc["pages_migrated"] = pages
        return doc


def write_epoch_log(
    path, records: Sequence[Dict[str, object]], **header: object
) -> None:
    """Persist ``records`` as one epoch-log document; ``header`` names the
    run (mix, approach, horizon, seed)."""
    write_json(
        path, {"version": EPOCH_LOG_VERSION, **header, "records": list(records)}
    )


def read_epoch_log(path) -> Dict[str, object]:
    """The epoch-log document at ``path``; a missing, torn or foreign-
    version file is a :class:`ConfigError` naming it."""
    try:
        doc = read_json(path, EPOCH_LOG_VERSION, kind="epoch log")
    except (Corrupt, Stale) as error:
        raise ConfigError(str(error)) from None
    if not isinstance(doc.get("records"), list):
        raise ConfigError(f"corrupt epoch log {path}: no records list")
    return doc
