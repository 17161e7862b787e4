"""Failure taxonomy and structured failure records for campaigns.

Every error a run can die of falls into one of four classes, and the
supervisor's reaction is a pure function of the class:

=================  ==========================================  ==============
class              typical causes                              reaction
=================  ==========================================  ==============
``transient``      injected/transient env error, OSError,      retry with
                   MemoryError                                 backoff;
                                                               charges budget
``deterministic``  ConfigError, SimulationError, any other     retry once to
                   exception raised by the run itself          confirm, then
                                                               quarantine
``timeout``        per-run deadline expired; the supervisor    retry from
                   killed the worker that overran it           scratch;
                   (RunTimeoutError)                           charges budget
``infrastructure`` the worker process holding the spec died    replace that
                   or could not be started (WorkerDiedError)   worker; requeue
                                                               without
                                                               charging the
                                                               spec's budget
=================  ==========================================  ==============

``timeout`` and ``infrastructure`` are only ever observed by the supervisor
(a missed deadline, a dead process sentinel), and only for the one spec the
affected worker held; sibling workers are never disturbed.

A spec that exhausts its budget or trips quarantine settles with a
:class:`FailureRecord` — error class, per-attempt tracebacks, wall-clock
lost — persisted next to the results it failed to produce (see
``ResultStore.put_failure``), so no run can ever be lost *silently*.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Dict, List

from ..errors import ReproError


class RunTimeoutError(ReproError):
    """A run exceeded the campaign's per-run timeout."""


class WorkerDiedError(ReproError):
    """The worker process holding a spec died or could not be started."""


class FailureClass(Enum):
    """What kind of failure an error represents (see module docstring)."""

    TRANSIENT = "transient"
    DETERMINISTIC = "deterministic"
    TIMEOUT = "timeout"
    INFRASTRUCTURE = "infrastructure"


def classify_failure(error: BaseException) -> FailureClass:
    """Map one caught exception onto the four-way taxonomy.

    The checks are ordered most-specific first: the injected
    ``TransientFaultError`` subclasses ``ReproError``, and ``TimeoutError``
    is an ``OSError`` subclass on CPython 3.10+, so neither may fall
    through to a broader bucket.
    """
    from ..faults.injectors import TransientFaultError

    if isinstance(error, RunTimeoutError):
        return FailureClass.TIMEOUT
    if isinstance(error, TransientFaultError):
        return FailureClass.TRANSIENT
    if isinstance(error, WorkerDiedError):
        return FailureClass.INFRASTRUCTURE
    if isinstance(error, (OSError, MemoryError)):
        return FailureClass.TRANSIENT
    return FailureClass.DETERMINISTIC


@dataclass
class FailureAttempt:
    """One failed try of one spec, as the supervisor saw it."""

    #: Budget-consuming attempt number at the time of the failure
    #: (infrastructure losses are refunded, so this can repeat).
    attempt: int
    #: Monotonic count of hand-offs to a worker, including ones whose
    #: worker died before reporting anything.
    submission: int
    error_class: str
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
RECORD_VERSION = 1


@dataclass
class FailureRecord:
    """The full failure history of one spec, persisted with the store."""

    key: str
    label: str
    #: "failed" (budget exhausted), "quarantined" (poison spec), or
    #: "recovered" (succeeded after at least one failed attempt — kept for
    #: forensics; the result itself lives in the store).
    resolution: str
    final_class: str
    reason: str
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
