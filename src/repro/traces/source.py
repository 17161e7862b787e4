"""Where an app name's trace comes from: a library entry or a profile.

Two functions answer the two questions the experiment Runner asks about
an app name:

* :func:`resolve_trace` — the trace to replay (seed-dependent for a
  synthetic profile);
* :func:`library_digest` — the content digest of a library trace, which
  is **not** a pure function of (name, seed, target_insts). The Runner
  folds it into its in-memory and persistent keys, which is what keeps the
  content-addressed store correct for non-synthetic workloads. Synthetic
  apps return None: their identity is already fully captured by (profile,
  seed, target_insts).

Both resolve in one order: the in-process registry first (so a deliberate
``override=True`` shadowing wins), then synthetic profiles, then the
on-disk default library.
"""

from __future__ import annotations

from typing import Optional

from ..cpu.trace import Trace
from ..workloads.profiles import APP_PROFILES, get_profile
from ..workloads.synthetic import generate_trace
from .registry import RegisteredTrace, lookup_registered


def _library_entry(app: str) -> Optional[RegisteredTrace]:
    entry = lookup_registered(app, autoload=False)
    if entry is None and app not in APP_PROFILES:
        # Unknown both ways: give the on-disk default library one chance
        # before the synthetic path raises its unknown-app error.
        entry = lookup_registered(app)
    return entry


def resolve_trace(app: str, seed: int, target_insts: int) -> Trace:
    """The trace ``app`` names: its library trace, or one generated from
    its synthetic profile under (seed, target_insts)."""
    entry = _library_entry(app)
    if entry is not None:
        return entry.load()
    return generate_trace(
        get_profile(app), seed=seed, target_insts=target_insts
    )


def library_digest(app: str) -> Optional[str]:
    """The content digest of ``app``'s library trace; None for synthetic."""
    entry = _library_entry(app)
    return entry.digest if entry is not None else None
