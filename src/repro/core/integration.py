"""Named approaches: partitioning policy x memory scheduler combinations.

The paper's central observation is that bank partitioning and memory
scheduling are orthogonal and compose. This module names every combination
the evaluation uses — most importantly ``dbp-tcm`` — so experiments and
examples can request them by string.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

from ..errors import ConfigError

if TYPE_CHECKING:
    from ..baselines.base import PartitionPolicy


@dataclass(frozen=True)
class Approach:
    """A (partitioning, scheduling) pair with display metadata."""

    name: str
    policy: str  # partition policy registry name
    scheduler: str  # scheduler registry name
    policy_params: Dict[str, object] = field(default_factory=dict)
    scheduler_params: Dict[str, object] = field(default_factory=dict)
    description: str = ""

    def make_policy(self) -> PartitionPolicy:
        """Instantiate this approach's partitioning policy."""
        # Imported here: naming an approach (planning, store keys, the
        # result index) must not load the policy and OS layers.
        from ..baselines.base import make_policy

        return make_policy(self.policy, **self.policy_params)


APPROACHES: Dict[str, Approach] = {
    approach.name: approach
    for approach in (
        Approach(
            "shared-fcfs",
            "shared",
            "fcfs",
            description="No partitioning, strict FCFS (weakest baseline)",
        ),
        Approach(
            "shared-frfcfs",
            "shared",
            "frfcfs",
            description="No partitioning, FR-FCFS (the unmanaged baseline)",
        ),
        Approach(
            "parbs",
            "shared",
            "parbs",
            description="No partitioning, PAR-BS batch scheduling",
        ),
        Approach(
            "atlas",
            "shared",
            "atlas",
            description="No partitioning, ATLAS least-attained-service",
        ),
        Approach(
            "tcm",
            "shared",
            "tcm",
            description="No partitioning, Thread Cluster Memory scheduling",
        ),
        Approach(
            "bliss",
            "shared",
            "bliss",
            description="No partitioning, BLISS blacklisting scheduler",
        ),
        Approach(
            "ebp",
            "ebp",
            "frfcfs",
            description="Equal static bank partitioning over FR-FCFS",
        ),
        Approach(
            "dbp",
            "dbp",
            "frfcfs",
            description="Dynamic Bank Partitioning over FR-FCFS (ours)",
        ),
        Approach(
            "mcp",
            "mcp",
            "frfcfs",
            description="Memory Channel Partitioning over FR-FCFS",
        ),
        Approach(
            "ebp-tcm",
            "ebp",
            "tcm",
            description="Equal bank partitioning combined with TCM (ablation)",
        ),
        Approach(
            "dbp-tcm",
            "dbp",
            "tcm",
            description="Dynamic Bank Partitioning combined with TCM (ours)",
        ),
        Approach(
            "dbp+mcp",
            "dbp+mcp",
            "frfcfs",
            description="Combined channel + bank partitioning (extension)",
        ),
    )
}


def get_approach(name: str) -> Approach:
    """Look up an approach by name.

    Besides the registered names, **parameterized** names of the form
    ``base@key=value,key2=value2`` resolve to a derived approach whose
    policy/scheduler params are overridden through the tunables registry
    (:mod:`repro.tuner.space`) — e.g. ``dbp@epoch_cycles=20000``. The
    derivation is a pure function of the string, so campaign workers,
    store keys, and the results index all agree on what a tuned point
    means without any side-channel registration.
    """
    base_name, sep, param_text = name.partition("@")
    try:
        base = APPROACHES[base_name]
    except KeyError:
        known = ", ".join(sorted(APPROACHES))
        raise ConfigError(
            f"unknown approach {base_name!r}; known: {known} "
            "(append @key=value,... to tune a registered approach)"
        ) from None
    if not sep:
        return base
    from ..tuner.space import derive_approach

    return derive_approach(base, param_text)
