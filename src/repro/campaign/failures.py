"""Structured failure records for campaigns.

The supervisor has one failure rule: every failed attempt costs one unit of
a spec's retry budget, whether the run raised, overran its deadline
(:class:`RunTimeoutError`) or lost its worker process
(:class:`WorkerDiedError`). The simulator is deterministic and a retry
re-runs from scratch, so there is nothing to tell apart: after
``retries + 1`` failed attempts the spec settles ``failed``.

Either way it settles with a :class:`FailureRecord` — each attempt's error
type, message, traceback and wall-clock lost — persisted next to the
results it failed to produce (see ``ResultStore.put_failure``), so no run
can ever be lost *silently*. A spec that succeeds after failed attempts
keeps its record too, as ``recovered``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List

from ..errors import ReproError


class RunTimeoutError(ReproError):
    """A run exceeded the campaign's per-run timeout."""


class WorkerDiedError(ReproError):
    """The worker process holding a spec died or could not be started."""


@dataclass
class FailureAttempt:
    """One failed try of one spec, as the supervisor saw it."""

    #: Hand-offs of the spec so far, this one included.
    attempt: int
    error_type: str
    message: str
    traceback: str = ""
    #: Parent-observed seconds between hand-off and the failure.
    wall_clock: float = 0.0
    #: Unix timestamp of the failure (forensics only).
    at: float = 0.0

    def to_doc(self) -> Dict[str, object]:
        return dict(asdict(self), wall_clock=round(self.wall_clock, 3))


#: Bump on incompatible changes to the persisted failure-record layout.
RECORD_VERSION = 2


@dataclass
class FailureRecord:
    """The full failure history of one spec, persisted with the store."""

    key: str
    label: str
    #: "failed" (budget exhausted) or "recovered" (succeeded after at least
    #: one failed attempt — kept for forensics; the result itself lives in
    #: the store).
    resolution: str
    attempts: List[FailureAttempt] = field(default_factory=list)
    #: Total parent-observed seconds lost to the failed attempts.
    time_lost: float = 0.0

    @property
    def last_error(self) -> str:
        if not self.attempts:
            return ""
        last = self.attempts[-1]
        return f"{last.error_type}: {last.message}"

    def to_doc(self) -> Dict[str, object]:
        return {
            "record_version": RECORD_VERSION,
            **asdict(self),
            "time_lost": round(self.time_lost, 3),
            "attempts": [attempt.to_doc() for attempt in self.attempts],
        }
