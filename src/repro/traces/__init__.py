"""Workload trace library: bring real memory traces into the pipeline.

The simulator's original workloads are synthetic SPEC-like generators;
this package is the escape hatch. It provides:

* :mod:`~repro.traces.format` — the versioned ``.rtrc`` binary trace
  format (struct-packed, block-compressed, digest-verified);
* :mod:`~repro.traces.importers` — ChampSim-style and DRAMSim/
  Ramulator-style text-dump importers with ``file:line`` diagnostics;
* :mod:`~repro.traces.characterize` — measure MPKI/RBH/BLP by running a
  trace alone on the FR-FCFS baseline;
* :mod:`~repro.traces.library` — the on-disk catalog
  (``manifest.json`` + ``.rtrc`` files) behind
  ``repro-dbp traces import|list|info|export``;
* :mod:`~repro.traces.source` — what an app name means: a reserved
  synthetic profile name, else an entry of the configured library's
  manifest, resolvable in ``Mix`` definitions, ``Runner`` runs, and
  campaign grids, with content digests folded into the persistent store's
  run keys.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".format": ("FORMAT_VERSION", "load_rtrc", "read_rtrc", "save_rtrc"),
        ".importers": (
            "FORMATS",
            "detect_format",
            "import_champsim",
            "import_dramsim",
            "import_trace",
            "resolve_format",
        ),
        ".characterize": ("TraceCharacterization", "characterize_trace"),
        ".source": (
            "LibraryTrace",
            "default_library_dir",
            "library_digest",
            "resolve_app",
            "resolve_trace",
        ),
        ".library": ("TraceLibrary",),
    },
)
