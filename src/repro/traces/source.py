"""TraceSource — where the experiment Runner gets its workloads.

``Runner.trace_for`` used to *be* the synthetic generator; the trace
library turns "app name -> trace" into a pluggable resolution step. A
:class:`TraceSource` answers two questions about an app name:

* :meth:`trace_for` — the trace to replay (possibly seed-dependent);
* :meth:`digest_for` — a content digest when the trace is **not** a pure
  function of (name, seed, target_insts), i.e. a library trace. The
  Runner folds these digests into its in-memory and persistent store keys,
  which is what keeps the content-addressed store correct for
  non-synthetic workloads. Synthetic apps return None: their identity is
  already fully captured by (profile, seed, target_insts).

:class:`DefaultTraceSource` resolves the in-process registry first (so a
deliberate ``override=True`` shadowing wins), then synthetic profiles,
then the on-disk default library — the same order everywhere a name is
looked up.
"""

from __future__ import annotations

from typing import Optional

from ..cpu.trace import Trace
from ..errors import ConfigError
from ..workloads.profiles import APP_PROFILES, get_profile
from ..workloads.synthetic import generate_trace
from .registry import lookup_registered, registered_names


class TraceSource:
    """Resolves application names to replayable traces."""

    def trace_for(self, app: str, seed: int, target_insts: int) -> Trace:
        raise NotImplementedError

    def digest_for(self, app: str) -> Optional[str]:
        """Content digest for non-seed-keyed apps; None for synthetic."""
        raise NotImplementedError


class SyntheticTraceSource(TraceSource):
    """The classic path: generate from a registered app profile."""

    def trace_for(self, app: str, seed: int, target_insts: int) -> Trace:
        return generate_trace(
            get_profile(app), seed=seed, target_insts=target_insts
        )

    def digest_for(self, app: str) -> Optional[str]:
        return None


class LibraryTraceSource(TraceSource):
    """Registered library traces only (no synthetic fallback)."""

    def trace_for(self, app: str, seed: int, target_insts: int) -> Trace:
        entry = lookup_registered(app)
        if entry is None:
            raise ConfigError(
                f"unknown library trace {app!r}; registered: "
                f"{', '.join(registered_names()) or '(none)'}"
            )
        return entry.load()

    def digest_for(self, app: str) -> Optional[str]:
        entry = lookup_registered(app)
        if entry is None:
            raise ConfigError(f"unknown library trace {app!r}")
        return entry.digest


class DefaultTraceSource(TraceSource):
    """Registry-first, synthetic-second resolution (the Runner default)."""

    def __init__(self) -> None:
        self._synthetic = SyntheticTraceSource()
        self._library = LibraryTraceSource()

    def _is_library(self, app: str) -> bool:
        if lookup_registered(app, autoload=False) is not None:
            return True
        if app in APP_PROFILES:
            return False
        # Unknown both ways: give the on-disk default library one chance
        # before the synthetic path raises its unknown-app error.
        return lookup_registered(app) is not None

    def trace_for(self, app: str, seed: int, target_insts: int) -> Trace:
        if self._is_library(app):
            return self._library.trace_for(app, seed, target_insts)
        return self._synthetic.trace_for(app, seed, target_insts)

    def digest_for(self, app: str) -> Optional[str]:
        if self._is_library(app):
            return self._library.digest_for(app)
        return None
