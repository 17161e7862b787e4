"""What an app name means: a synthetic profile or a library trace.

An app name means the same thing in every process. :func:`resolve_app` is
the one resolution order, and everything that asks about an app name —
:func:`resolve_trace`, :func:`library_digest`,
:func:`~repro.workloads.profiles.validate_app`,
:func:`~repro.workloads.profiles.app_intensive` and
``CampaignSpec.plan`` — goes through it:

1. a synthetic profile name is reserved and wins; resolving one reads no
   file;
2. otherwise the name's entry in the manifest of the one configured
   library (``REPRO_TRACE_LIBRARY``, else :func:`default_library_dir`),
   read on every lookup, so a trace imported by another process is seen
   at once;
3. otherwise a ``ConfigError`` naming the synthetic apps and the library
   traces.

A library trace is **not** a pure function of (name, seed, target_insts):
the Runner folds :func:`library_digest` into its in-memory and persistent
keys, which keeps the content-addressed store correct for non-synthetic
workloads. The module imports only errors, artefacts and the profile
table; the generator and the ``.rtrc`` reader load when a trace is built.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional

from ..artefact import Corrupt, Stale, read_json
from ..errors import ConfigError, TraceError
from ..workloads.profiles import APP_PROFILES

if TYPE_CHECKING:  # pragma: no cover
    from ..cpu.trace import Trace

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"


def default_library_dir() -> Path:
    """The one trace library: ``REPRO_TRACE_LIBRARY``, else
    ``benchmarks/traces/library`` in a source checkout, falling back to
    ``~/.cache/repro-dbp/traces`` for installed copies — the same
    convention as the campaign result store."""
    env = os.environ.get("REPRO_TRACE_LIBRARY")
    if env:
        return Path(env)
    root = Path(__file__).resolve().parents[3]
    if (root / "benchmarks").is_dir():
        return root / "benchmarks" / "traces" / "library"
    return Path.home() / ".cache" / "repro-dbp" / "traces"


def read_manifest(root: Path) -> Dict[str, Dict[str, object]]:
    """name -> manifest entry of the library at ``root``; empty when there
    is no manifest yet. A stale or corrupt one is a ``ConfigError`` that
    says which."""
    path = root / MANIFEST_NAME
    try:
        doc = read_json(path, MANIFEST_VERSION, kind="library manifest")
    except (Stale, Corrupt) as error:
        if not path.exists():
            return {}
        raise ConfigError(str(error)) from None
    if not isinstance(doc.get("traces"), dict):
        raise ConfigError(
            f"corrupt library manifest {path}: no 'traces' object"
        )
    return dict(doc["traces"])


@dataclass(frozen=True)
class LibraryTrace:
    """One library manifest entry: what a non-synthetic app name means."""

    name: str
    #: :attr:`Trace.digest` — binds store keys to the exact record stream.
    digest: str
    #: Path of the backing ``.rtrc`` file.
    path: str
    records: int = 0
    total_insts: int = 0
    #: Measured (preferred) or intrinsic memory intensity classification.
    intensive: bool = False
    #: Characterization measurements (mpki/rbh/blp/...) when available.
    characterization: Dict[str, float] = field(default_factory=dict)
    source_format: str = "rtrc"
    imported_from: str = ""

    @classmethod
    def from_manifest(
        cls, root: Path, name: str, entry: Dict[str, object]
    ) -> "LibraryTrace":
        characterization = entry.get("characterization") or {}
        return cls(
            name=name,
            digest=str(entry["digest"]),
            path=str(root / str(entry["file"])),
            records=int(entry.get("records", 0)),
            total_insts=int(entry.get("total_insts", 0)),
            intensive=entry.get("class") == "intensive",
            characterization={
                key: float(value)
                for key, value in characterization.items()
                if isinstance(value, (int, float))
                and not isinstance(value, bool)
            },
            source_format=str(entry.get("source_format", "rtrc")),
            imported_from=str(entry.get("imported_from", "")),
        )

    def load(self) -> "Trace":
        """The backing trace, digest-checked against the manifest."""
        from .format import load_rtrc

        try:
            trace = load_rtrc(self.path)
        except OSError as error:
            raise TraceError(
                f"library trace {self.name!r}: cannot read {self.path}: "
                f"{error.strerror}"
            ) from None
        if trace.digest != self.digest:
            raise TraceError(
                f"{self.path}: digest does not match the manifest "
                f"({trace.digest[:16]}… vs {self.digest[:16]}…)"
            )
        return trace.renamed(self.name)


def resolve_app(name: str) -> Optional[LibraryTrace]:
    """None for a synthetic app; the library entry ``name`` names
    otherwise; a ``ConfigError`` naming every known app when neither."""
    if name in APP_PROFILES:
        return None
    root = default_library_dir()
    entries = read_manifest(root)
    entry = entries.get(name)
    if entry is not None:
        return LibraryTrace.from_manifest(root, name, entry)
    message = (
        f"unknown app {name!r}; synthetic apps: "
        + ", ".join(sorted(APP_PROFILES))
    )
    if entries:
        message += "; library traces: " + ", ".join(sorted(entries))
    raise ConfigError(message)


def resolve_trace(app: str, seed: int, target_insts: int) -> "Trace":
    """The trace ``app`` names: its library trace, or one generated from
    its synthetic profile under (seed, target_insts)."""
    entry = resolve_app(app)
    if entry is not None:
        return entry.load()
    from ..workloads.synthetic import generate_trace

    return generate_trace(
        APP_PROFILES[app], seed=seed, target_insts=target_insts
    )


def library_digest(app: str) -> Optional[str]:
    """The content digest of ``app``'s library trace; None for synthetic."""
    entry = resolve_app(app)
    return entry.digest if entry is not None else None
