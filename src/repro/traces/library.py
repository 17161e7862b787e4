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
Runner machinery, persist the ``.rtrc``, update the manifest atomically,
and register the trace as a first-class app. The manifest's digests are
what the campaign store folds into ``run_key`` for non-synthetic apps.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from ..artefact import Corrupt, Stale, read_json, write_json
from ..cpu.trace import Trace, save_trace
from ..errors import ConfigError, TraceError
from .characterize import TraceCharacterization, characterize_trace
from .format import read_rtrc, save_rtrc
from .importers import import_trace, resolve_format
from .registry import RegisteredTrace, default_library_dir, register_trace

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"


class TraceLibrary:
    """One library directory and its manifest (lazily loaded)."""

    def __init__(self, root=None) -> None:
        self.root = Path(root) if root is not None else default_library_dir()
        self._manifest: Optional[Dict[str, Dict[str, object]]] = None

    # ------------------------------------------------------------------
    # Manifest I/O.
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def entries(self) -> Dict[str, Dict[str, object]]:
        """name -> manifest entry (loaded once, cached)."""
        if self._manifest is None:
            self._manifest = self._load_manifest()
        return self._manifest

    def _load_manifest(self) -> Dict[str, Dict[str, object]]:
        """The catalogue; empty when there is no manifest yet. A stale or
        corrupt one is a ``ConfigError`` that says which."""
        path = self.manifest_path
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

    def _write_manifest(self) -> None:
        doc = {"version": MANIFEST_VERSION, "traces": self.entries()}
        write_json(self.manifest_path, doc)

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------
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
        entry = self.entry(name)
        trace, _header = read_rtrc(str(self.path_for(name)))
        if trace.digest != str(entry["digest"]):
            raise TraceError(
                f"{self.path_for(name)}: digest does not match the "
                f"manifest ({trace.digest[:16]}… vs "
                f"{str(entry['digest'])[:16]}…)"
            )
        return trace.renamed(name)

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
        register: bool = True,
    ) -> RegisteredTrace:
        """Import an external trace file end-to-end.

        Parse (``fmt='auto'`` sniffs), optionally measure MPKI/RBH/BLP on
        the alone-run baseline, persist as ``<name>.rtrc``, record in the
        manifest, and register the name as a first-class app.
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
            register=register,
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
        register: bool = True,
    ) -> RegisteredTrace:
        """Add an in-memory trace to the library (the importers' backend)."""
        name = trace.name
        if not name or "/" in name or name != name.strip():
            raise ConfigError(f"invalid library trace name {name!r}")
        if name in self.entries() and not override:
            existing = str(self.entries()[name]["digest"])
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
            from ..workloads.analysis import INTENSIVE_MPKI_THRESHOLD

            intensive = trace.intrinsic_mpki >= INTENSIVE_MPKI_THRESHOLD
        self.root.mkdir(parents=True, exist_ok=True)
        filename = f"{name}.rtrc"
        provenance = {
            "imported_from": imported_from,
            "source_format": source_format,
        }
        save_rtrc(trace, str(self.root / filename), provenance=provenance)
        entry_doc: Dict[str, object] = {
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
        self.entries()[name] = entry_doc
        self._write_manifest()
        registration = self._registration(name, entry_doc)
        registration.trace = trace
        if register:
            register_trace(registration, override=override)
        return registration

    # ------------------------------------------------------------------
    # Export and registration.
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

    def _registration(
        self, name: str, entry: Dict[str, object]
    ) -> RegisteredTrace:
        characterization = entry.get("characterization") or {}
        numeric = {
            key: float(value)
            for key, value in characterization.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        return RegisteredTrace(
            name=name,
            digest=str(entry["digest"]),
            path=str(self.root / str(entry["file"])),
            records=int(entry.get("records", 0)),
            total_insts=int(entry.get("total_insts", 0)),
            intensive=entry.get("class") == "intensive",
            characterization=numeric,
            source_format=str(entry.get("source_format", "rtrc")),
            imported_from=str(entry.get("imported_from", "")),
        )

    def register(self, name: str, override: bool = False) -> RegisteredTrace:
        """Register one catalogued trace as an app in this process."""
        registration = self._registration(name, self.entry(name))
        register_trace(registration, override=override)
        return registration

    def register_all(
        self, override: bool = False, strict: bool = True
    ) -> List[RegisteredTrace]:
        """Register every catalogued trace; non-strict skips collisions."""
        registered: List[RegisteredTrace] = []
        for name in self.names():
            try:
                registered.append(self.register(name, override=override))
            except ConfigError:
                if strict:
                    raise
        return registered
