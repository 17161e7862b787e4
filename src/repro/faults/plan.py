"""Deterministic, seed-driven fault plans.

A :class:`FaultPlan` is a list of :class:`FaultSpec` rules plus a seed.
Whether a rule fires at a given *site* (a named injection point such as
``worker.run``) for a given run (matched by label/key) on a given attempt
is a pure function of ``(plan.seed, site, key, attempt)`` — no shared
mutable state — so the same plan produces the same fault schedule in every
worker process, on every retry, on every machine. That is what lets the
chaos suite assert exact convergence: a ``times=1`` transient fault fires
on attempt 1 and provably never again.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from ..artefact import Corrupt, atomic_write, read_json
from ..errors import ReproError

#: Everything an injector knows how to do (see ``faults.injectors``).
FAULT_KINDS = (
    "crash",  # SIGKILL the current process (a real `kill -9`)
    "hang",  # block past any reasonable deadline (timeout path)
    "transient",  # raise TransientFaultError (retry should succeed)
    "deterministic",  # raise SimulationError every time (poison spec)
    "corrupt_blob",  # damage a just-written store entry on disk
)

#: Every injection point that calls :func:`~repro.faults.maybe_fire`; a
#: rule naming any other site would never fire.
FAULT_SITES = (
    "worker.run",  # a campaign cell, inside the per-attempt deadline
    "worker.alone",  # an alone-baseline task
    "store.put",  # just after a cell's result is written
)


class FaultPlanError(ReproError):
    """A fault plan is malformed."""


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule.

    ``match`` is an ``fnmatch`` pattern against the run's label (and its
    store key, so plans may address either). ``times`` fires the rule on
    attempts ``1..times``; ``rate`` additionally gates each (key, attempt)
    on a deterministic hash draw in [0, 1). ``seconds`` parameterizes the
    ``hang`` kind.
    """

    site: str
    kind: str
    match: str = "*"
    times: int = 1
    rate: float = 1.0
    seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r} "
                f"(expected one of {sorted(FAULT_KINDS)})"
            )
        if self.site not in FAULT_SITES:
            raise FaultPlanError(
                f"unknown fault site {self.site!r} "
                f"(expected one of {sorted(FAULT_SITES)})"
            )
        if self.times < 0:
            raise FaultPlanError("times must be >= 0")
        if not 0.0 <= self.rate <= 1.0:
            raise FaultPlanError("rate must be in [0, 1]")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of injection rules."""

    seed: int = 0
    faults: Sequence[FaultSpec] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    # ------------------------------------------------------------------
    def match(
        self, site: str, key: str = "", attempt: int = 1
    ) -> Optional[FaultSpec]:
        """First rule that fires for (site, key, attempt), or None."""
        for spec in self.faults:
            if spec.site != site:
                continue
            if not fnmatch.fnmatchcase(key, spec.match):
                continue
            if attempt > spec.times:
                continue
            if spec.rate < 1.0 and self._draw(spec, key, attempt) >= spec.rate:
                continue
            return spec
        return None

    def _draw(self, spec: FaultSpec, key: str, attempt: int) -> float:
        token = f"{self.seed}:{spec.site}:{spec.kind}:{key}:{attempt}"
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    # ------------------------------------------------------------------
    def to_doc(self) -> dict:
        return {
            "seed": self.seed,
            "faults": [asdict(spec) for spec in self.faults],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "FaultPlan":
        if not isinstance(doc, dict) or "faults" not in doc:
            raise FaultPlanError("fault plan document needs a 'faults' list")
        faults: List[FaultSpec] = []
        for entry in doc["faults"]:
            try:
                faults.append(FaultSpec(**entry))
            except TypeError as error:
                raise FaultPlanError(
                    f"bad fault spec {entry!r}: {error}"
                ) from error
        return cls(seed=int(doc.get("seed", 0)), faults=tuple(faults))

    def save(self, path) -> Path:
        with atomic_write(path, "w") as handle:
            handle.write(json.dumps(self.to_doc(), indent=1) + "\n")
        return Path(path)

    @classmethod
    def load(cls, path) -> "FaultPlan":
        try:
            return cls.from_doc(read_json(path, None, kind="fault plan"))
        except Corrupt as error:
            raise FaultPlanError(str(error)) from None
