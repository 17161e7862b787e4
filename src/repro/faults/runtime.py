"""Fault-plan activation and the injection-point API.

A process activates a plan either programmatically (:func:`install_plan` —
the campaign worker does this at every hand-off that carries a plan) or
through the environment (``REPRO_FAULT_PLAN=<path.json>`` — how the chaos
smoke script drives a whole CLI campaign). Injection points then call
:func:`maybe_fire` with their site name and run identity; with no plan
active that is one dict-is-None check, so production paths pay nothing.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from .plan import FaultPlan

_ENV_VAR = "REPRO_FAULT_PLAN"

#: The process-wide active plan. ``False`` means "not resolved yet" so an
#: absent env var is only stat'ed once per process.
_active: object = False


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Activate ``plan`` in this process (None deactivates)."""
    global _active
    _active = plan


def active_plan() -> Optional[FaultPlan]:
    """The active plan: installed one first, then ``REPRO_FAULT_PLAN``."""
    global _active
    if _active is False:
        path = os.environ.get(_ENV_VAR)
        _active = FaultPlan.load(Path(path)) if path else None
    return _active  # type: ignore[return-value]


def reset() -> None:
    """Forget any resolved plan (tests; also re-reads the env var)."""
    global _active
    _active = False


def maybe_fire(
    site: str,
    key: str = "",
    attempt: int = 1,
    path=None,
) -> Optional[str]:
    """Fire the matching rule for this injection point, if any.

    May raise (transient/deterministic kinds), never return (crash), block
    (hang), or damage ``path`` (corrupt_blob). Returns the fired kind for
    side-effect injectors, None when nothing matched.
    """
    plan = active_plan()
    if plan is None:
        return None
    spec = plan.match(site, key=key, attempt=attempt)
    if spec is None:
        return None
    from . import injectors

    return injectors.fire(spec, path=path)
