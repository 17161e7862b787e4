"""The on-disk workload trace library: ``.rtrc`` files + ``manifest.json``.

A library is a directory of digest-verified ``.rtrc`` traces catalogued by
one ``manifest.json``::

    {
      "version": 1,
      "traces": {
        "<name>": {
          "file": "<name>.rtrc",
          "digest": "<sha256 of the record stream>",
          "records": ..., "total_insts": ...,
          "source_format": "champsim" | "dramsim" | "text" | "rtrc"
                           | "synthetic",
          "imported_from": "<original path or generator note>",
          "class": "intensive" | "light",
          "characterization": {"mpki": ..., "rbh": ..., "blp": ..., ...}
        }, ...
      }
    }

``import_file`` is the end-to-end path the CLI's ``traces import`` drives:
parse an external dump, optionally characterize it alone through the
Runner machinery, persist the ``.rtrc`` and update the manifest
atomically. Once the manifest names it, the trace is an app in every
process (:func:`~repro.traces.source.resolve_app`); synthetic profile
names are reserved and never enter a library. The manifest's digests are
what the campaign store folds into ``run_key`` for non-synthetic apps.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from ..artefact import write_json
from ..cpu.trace import Trace, save_trace
from ..errors import ConfigError, TraceError
from ..workloads.profiles import APP_PROFILES, INTENSIVE_MPKI_THRESHOLD
from .characterize import TraceCharacterization, characterize_trace
from .format import save_rtrc
from .importers import import_trace, resolve_format
from .source import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    LibraryTrace,
    default_library_dir,
    read_manifest,
)


class TraceLibrary:
    """One library directory and its manifest (the configured library by
    default — the only one whose traces resolve as apps)."""

    def __init__(self, root=None) -> None:
        self.root = Path(root) if root is not None else default_library_dir()

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def entries(self) -> Dict[str, Dict[str, object]]:
        """name -> manifest entry, read from disk."""
        return read_manifest(self.root)

    def names(self) -> List[str]:
        return sorted(self.entries())

    def entry(self, name: str) -> Dict[str, object]:
        entries = self.entries()
        if name not in entries:
            known = ", ".join(sorted(entries)) or "(library is empty)"
            raise ConfigError(
                f"unknown library trace {name!r} in {self.root}; "
                f"known: {known}"
            )
        return entries[name]

    def path_for(self, name: str) -> Path:
        return self.root / str(self.entry(name)["file"])

    def get(self, name: str) -> Trace:
        """Load (digest-verified) the named trace from the library."""
        return LibraryTrace.from_manifest(
            self.root, name, self.entry(name)
        ).load()

    # ------------------------------------------------------------------
    # Ingest.
    # ------------------------------------------------------------------
    def import_file(
        self,
        path: str,
        name: Optional[str] = None,
        fmt: str = "auto",
        characterize: bool = True,
        config=None,
        horizon: int = 200_000,
        override: bool = False,
    ) -> LibraryTrace:
        """Import an external trace file end-to-end.

        Parse (``fmt='auto'`` sniffs), optionally measure MPKI/RBH/BLP on
        the alone-run baseline, persist as ``<name>.rtrc`` and record it
        in the manifest.
        """
        fmt = resolve_format(path, fmt)
        trace = import_trace(path, fmt=fmt, name=name)
        return self.add(
            trace,
            characterize=characterize,
            config=config,
            horizon=horizon,
            source_format=fmt,
            imported_from=str(path),
            override=override,
        )

    def add(
        self,
        trace: Trace,
        characterize: bool = True,
        config=None,
        horizon: int = 200_000,
        source_format: str = "rtrc",
        imported_from: str = "",
        override: bool = False,
    ) -> LibraryTrace:
        """Add an in-memory trace to the library (the importers' backend).

        ``override`` replaces an existing entry of the same name; nothing
        replaces a synthetic profile name, which is checked before
        anything is written.
        """
        name = trace.name
        if not name or "/" in name or name != name.strip():
            raise ConfigError(f"invalid library trace name {name!r}")
        if name in APP_PROFILES:
            raise ConfigError(
                f"library trace name {name!r} collides with a synthetic "
                f"app profile; synthetic names are reserved, pick another"
            )
        entries = self.entries()
        if name in entries and not override:
            existing = str(entries[name]["digest"])
            if existing != trace.digest:
                raise ConfigError(
                    f"library trace {name!r} already exists with digest "
                    f"{existing[:16]}…; pass override=True to replace it"
                )
        measured: Optional[TraceCharacterization] = None
        if characterize:
            measured = characterize_trace(trace, config=config, horizon=horizon)
            intensive = measured.intensive
        else:
            # Fall back to the static convention on the intrinsic rate.
            intensive = trace.intrinsic_mpki >= INTENSIVE_MPKI_THRESHOLD
        self.root.mkdir(parents=True, exist_ok=True)
        filename = f"{name}.rtrc"
        provenance = {
            "imported_from": imported_from,
            "source_format": source_format,
        }
        save_rtrc(trace, str(self.root / filename), provenance=provenance)
        entries[name] = {
            "file": filename,
            "digest": trace.digest,
            "records": len(trace),
            "total_insts": trace.total_insts,
            "source_format": source_format,
            "imported_from": imported_from,
            "class": "intensive" if intensive else "light",
            "characterization": (
                measured.as_dict() if measured is not None else {}
            ),
        }
        write_json(
            self.manifest_path,
            {"version": MANIFEST_VERSION, "traces": entries},
        )
        return LibraryTrace.from_manifest(self.root, name, entries[name])

    # ------------------------------------------------------------------
    # Export.
    # ------------------------------------------------------------------
    def export(self, name: str, dest: str, fmt: str = "rtrc") -> str:
        """Write one library trace to ``dest`` as ``rtrc`` or ``text``."""
        trace = self.get(name)
        if fmt == "rtrc":
            provenance = {
                "imported_from": str(self.path_for(name)),
                "source_format": "rtrc",
            }
            save_rtrc(trace, dest, provenance=provenance)
        elif fmt == "text":
            save_trace(trace, dest)
        else:
            raise TraceError(
                f"unknown export format {fmt!r}; known: rtrc, text"
            )
        return dest
