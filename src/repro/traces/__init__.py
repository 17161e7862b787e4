"""Workload trace library: bring real memory traces into the pipeline.

The simulator's original workloads are synthetic SPEC-like generators;
this package is the escape hatch. It provides:

* :mod:`~repro.traces.format` — the versioned ``.rtrc`` binary trace
  format (struct-packed, block-compressed, digest-verified);
* :mod:`~repro.traces.importers` — ChampSim-style and DRAMSim/
  Ramulator-style text-dump importers with ``file:line`` diagnostics;
* :mod:`~repro.traces.transforms` — slice / warmup-skip / footprint
  remap / phase splice;
* :mod:`~repro.traces.characterize` — measure MPKI/RBH/BLP by running a
  trace alone on the FR-FCFS baseline;
* :mod:`~repro.traces.library` — the on-disk catalog
  (``manifest.json`` + ``.rtrc`` files) behind
  ``repro-dbp traces import|list|info|export``;
* :mod:`~repro.traces.registry` / :mod:`~repro.traces.source` — register
  imported traces as first-class apps, resolvable in ``Mix`` definitions,
  ``Runner`` runs, and campaign grids, with content digests folded into
  the persistent store's run keys.
"""

from .format import FORMAT_VERSION, load_rtrc, read_rtrc, save_rtrc
from .importers import (
    FORMATS,
    detect_format,
    import_champsim,
    import_dramsim,
    import_trace,
    resolve_format,
)
from .transforms import remap_footprint, skip_warmup, slice_records, splice_phases
from .characterize import TraceCharacterization, characterize_trace
from .registry import (
    LIBRARY_APPS,
    RegisteredTrace,
    clear_registry,
    library_digests,
    lookup_registered,
    register_trace,
    registered_names,
    unregister_trace,
)
from .source import (
    DefaultTraceSource,
    LibraryTraceSource,
    SyntheticTraceSource,
    TraceSource,
)
from .library import TraceLibrary, default_library_dir

__all__ = [
    "FORMAT_VERSION",
    "save_rtrc",
    "load_rtrc",
    "read_rtrc",
    "FORMATS",
    "detect_format",
    "resolve_format",
    "import_trace",
    "import_champsim",
    "import_dramsim",
    "slice_records",
    "skip_warmup",
    "remap_footprint",
    "splice_phases",
    "TraceCharacterization",
    "characterize_trace",
    "RegisteredTrace",
    "LIBRARY_APPS",
    "register_trace",
    "unregister_trace",
    "clear_registry",
    "lookup_registered",
    "registered_names",
    "library_digests",
    "TraceSource",
    "SyntheticTraceSource",
    "LibraryTraceSource",
    "DefaultTraceSource",
    "TraceLibrary",
    "default_library_dir",
]
