"""Campaign planning: expand an experiment grid into picklable run specs.

A campaign is a grid of fully independent simulations —
(mix x approach x seed x horizon) — and a :class:`RunSpec` is one cell of
that grid, carrying everything a worker process needs to reproduce the run
from scratch. Approaches travel *by registry name* (policy instances hold
simulation state and are not picklable); workers resolve the name and build
a fresh policy, which is also what binds the store key to the resolved
policy/scheduler rather than the label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config import SystemConfig
from ..core.integration import get_approach
from ..errors import ExperimentError
from ..traces.registry import library_digests
from ..workloads import resolve_mix
from .store import alone_key, run_key, runner_fingerprint, scope_of

#: The F2/F3 headline grid's approaches — the campaign CLI default.
DEFAULT_APPROACHES: Tuple[str, ...] = ("shared-frfcfs", "ebp", "dbp")


@dataclass(frozen=True)
class RunSpec:
    """One simulation run, fully described and picklable."""

    apps: Tuple[str, ...]
    approach: str
    config: SystemConfig = field(default_factory=SystemConfig)
    seed: int = 1
    horizon: int = 400_000
    target_insts: int = 4_000_000
    ahead_limit: int = 8192
    validate: bool = False
    mix_name: Optional[str] = None
    #: Record per-epoch telemetry in the worker; its summary travels on the
    #: result (``result.telemetry`` in the store entry). Deliberately NOT
    #: part of :meth:`key` — telemetry never changes simulation results,
    #: so traced and untraced runs share one store entry.
    telemetry: bool = False
    #: ``(app, digest)`` pairs for every app in ``apps`` that resolves to a
    #: library trace. Part of :meth:`key` (library traces are addressed by
    #: content, not name); empty for all-synthetic specs, which keeps those
    #: keys byte-identical to pre-library campaigns.
    trace_digests: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.apps:
            raise ExperimentError("a RunSpec needs at least one app")
        if self.horizon <= 0:
            raise ExperimentError("horizon must be positive")

    @property
    def label(self) -> str:
        """Short human-readable identity for progress lines and errors."""
        mix = self.mix_name or "+".join(self.apps)
        return f"{mix}/{self.approach} s{self.seed} h{self.horizon}"

    def key(self) -> str:
        """The content-addressed store key of this run."""
        return run_key(
            self.config,
            self.apps,
            self.approach,
            trace_digests=dict(self.trace_digests),
            **scope_of(self),
        )

    def alone_keys(self) -> Dict[str, str]:
        """{alone-record key: app} for the baselines this run divides by."""
        digests = dict(self.trace_digests)
        return {
            alone_key(
                self.config,
                app,
                trace_digest=digests.get(app),
                **scope_of(self),
            ): app
            for app in self.apps
        }

    def describe(self) -> Dict[str, object]:
        """The ``spec`` metadata its store entry carries beside the result
        (what the result index reads its mix/approach/seed columns from)."""
        doc: Dict[str, object] = {
            "mix": self.mix_name or "+".join(self.apps),
            "apps": list(self.apps),
            "approach": self.approach,
            "seed": self.seed,
            "horizon": self.horizon,
            "target_insts": self.target_insts,
        }
        if self.trace_digests:
            doc["trace_digests"] = dict(self.trace_digests)
        return doc

    def runner_key(self) -> str:
        """Fingerprint of the Runner this spec needs (apps/approach aside)."""
        return runner_fingerprint(self.config, **scope_of(self))


@dataclass(frozen=True)
class CampaignSpec:
    """A named experiment grid; :meth:`plan` expands it to RunSpecs.

    The one planner: campaigns, the experiment catalog's grids
    (:func:`~repro.campaign.api.sweep_metrics`) and tuner trials all build
    their cells here.
    """

    name: str = "campaign"
    mixes: Tuple[str, ...] = ()
    approaches: Tuple[str, ...] = DEFAULT_APPROACHES
    seeds: Tuple[int, ...] = (1,)
    horizons: Tuple[int, ...] = (400_000,)
    config: SystemConfig = field(default_factory=SystemConfig)
    target_insts: int = 4_000_000
    ahead_limit: int = 8192
    validate: bool = False
    telemetry: bool = False

    def __post_init__(self) -> None:
        if not self.mixes:
            raise ExperimentError("a campaign needs at least one mix")
        if not self.approaches:
            raise ExperimentError("a campaign needs at least one approach")
        if not self.seeds or not self.horizons:
            raise ExperimentError("a campaign needs seeds and horizons")
        for name in self.mixes:
            resolve_mix(name)  # validate names before any work happens
        for name in self.approaches:
            get_approach(name)

    def plan(self) -> List[RunSpec]:
        """Every cell of the grid, in deterministic sweep order."""
        specs: List[RunSpec] = []
        for horizon in self.horizons:
            for seed in self.seeds:
                for mix_name in self.mixes:
                    mix = resolve_mix(mix_name)
                    digests = tuple(sorted(library_digests(mix.apps).items()))
                    for approach in self.approaches:
                        specs.append(
                            RunSpec(
                                apps=tuple(mix.apps),
                                approach=approach,
                                config=self.config,
                                seed=seed,
                                horizon=horizon,
                                target_insts=self.target_insts,
                                ahead_limit=self.ahead_limit,
                                validate=self.validate,
                                mix_name=mix.name,
                                telemetry=self.telemetry,
                                trace_digests=digests,
                            )
                        )
        return specs

