"""Registration of library traces as first-class applications.

A registered trace is addressable everywhere a synthetic profile name is:
in :class:`~repro.workloads.mixes.Mix` definitions, in
``Runner.run_apps``, in the campaign grid. The registry is deliberately
import-light (core trace types and errors only) so the workloads package
and the experiment runner can consult it without import cycles.

Resolution order everywhere an app name is looked up:

1. this in-process registry (explicit registrations win, including
   deliberate ``override=True`` shadowing of a synthetic profile);
2. the synthetic :data:`~repro.workloads.profiles.APP_PROFILES`;
3. the on-disk default library (loaded lazily, once) — this is what lets
   campaign *worker processes* resolve library apps they were never
   explicitly told about: the manifest travels on disk, not in pickles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..cpu.trace import Trace
from ..errors import ConfigError


@dataclass
class RegisteredTrace:
    """One library trace registered as an application."""

    name: str
    #: :attr:`Trace.digest` — binds store keys to the exact record stream.
    digest: str
    #: Path of the backing ``.rtrc`` file; None for in-memory registration.
    path: Optional[str] = None
    records: int = 0
    total_insts: int = 0
    #: Measured (preferred) or intrinsic memory intensity classification.
    intensive: bool = False
    #: Characterization measurements (mpki/rbh/blp/...) when available.
    characterization: Dict[str, float] = field(default_factory=dict)
    source_format: str = "rtrc"
    imported_from: str = ""
    #: Loaded trace, cached after first resolve.
    trace: Optional[Trace] = None

    def load(self) -> Trace:
        """The backing trace, loading (and digest-verifying) on demand."""
        if self.trace is None:
            if self.path is None:
                raise ConfigError(
                    f"library app {self.name!r} has no backing file"
                )
            from .format import load_rtrc

            trace = load_rtrc(self.path)
            if trace.digest != self.digest:
                raise ConfigError(
                    f"library app {self.name!r}: file {self.path} holds "
                    f"digest {trace.digest[:16]}…, registry expects "
                    f"{self.digest[:16]}… (library mutated?)"
                )
            self.trace = trace
        return self.trace


#: name -> registration. Mutated only through the functions below.
LIBRARY_APPS: Dict[str, RegisteredTrace] = {}

_autoload_done = False


def register_trace(entry: RegisteredTrace, override: bool = False) -> None:
    """Make a library trace addressable by name.

    Collisions with synthetic profiles or existing registrations are
    errors unless ``override=True`` — shadowing a synthetic app changes
    what every experiment referencing that name simulates, so it must be
    asked for explicitly (round-trip fidelity tests do exactly that).
    """
    from ..workloads.profiles import APP_PROFILES

    if not override:
        if entry.name in APP_PROFILES:
            raise ConfigError(
                f"library trace name {entry.name!r} collides with a "
                f"synthetic app profile; pick another name or pass "
                f"override=True to shadow it deliberately"
            )
        existing = LIBRARY_APPS.get(entry.name)
        if existing is not None and existing.digest != entry.digest:
            raise ConfigError(
                f"library trace {entry.name!r} is already registered with "
                f"digest {existing.digest[:16]}…; unregister it first or "
                f"pass override=True"
            )
    LIBRARY_APPS[entry.name] = entry


def unregister_trace(name: str) -> None:
    """Remove one registration (missing names are fine)."""
    LIBRARY_APPS.pop(name, None)


def clear_registry() -> None:
    """Forget every registration and allow the default library to reload."""
    global _autoload_done
    LIBRARY_APPS.clear()
    _autoload_done = False


def lookup_registered(
    name: str, autoload: bool = True
) -> Optional[RegisteredTrace]:
    """The registration for ``name``, if any.

    On a miss, the default on-disk library is loaded once per process (when
    ``autoload``) — campaign workers and fresh CLI invocations resolve
    library apps through this path.
    """
    entry = LIBRARY_APPS.get(name)
    if entry is None and autoload:
        _autoload_default_library()
        entry = LIBRARY_APPS.get(name)
    return entry


def registered_names() -> List[str]:
    """Sorted names currently registered (no autoload side effect)."""
    return sorted(LIBRARY_APPS)


def library_digests(apps) -> Dict[str, str]:
    """{app: digest} for the library-resolved apps among ``apps``.

    Synthetic apps are omitted: their traces are pure functions of
    (profile, seed, target_insts), already in every run key. Registry
    shadowing wins over synthetic names, mirroring trace resolution.
    """
    digests: Dict[str, str] = {}
    for app in apps:
        entry = lookup_registered(app)
        if entry is not None:
            digests[app] = entry.digest
    return digests


def default_library_dir() -> Path:
    """Where the trace library lives by default.

    ``REPRO_TRACE_LIBRARY`` overrides; otherwise ``benchmarks/traces/
    library`` in a source checkout, falling back to
    ``~/.cache/repro-dbp/traces`` for installed copies — the same
    convention as the campaign result store.
    """
    env = os.environ.get("REPRO_TRACE_LIBRARY")
    if env:
        return Path(env)
    root = Path(__file__).resolve().parents[3]
    if (root / "benchmarks").is_dir():
        return root / "benchmarks" / "traces" / "library"
    return Path.home() / ".cache" / "repro-dbp" / "traces"


def _autoload_default_library() -> None:
    """Load the default on-disk library's manifest, once per process.

    Never raises: a missing or unreadable default library just means no
    extra names resolve. Explicit :class:`~repro.traces.library.
    TraceLibrary` use reports errors loudly; the implicit fallback must
    not break synthetic-only workflows.
    """
    global _autoload_done
    if _autoload_done:
        return
    _autoload_done = True
    from ..errors import ReproError

    root = default_library_dir()
    try:
        if not (root / "manifest.json").is_file():
            return
        from .library import TraceLibrary

        TraceLibrary(root).register_all(override=False, strict=False)
    except (OSError, ReproError):  # pragma: no cover - defensive
        pass
