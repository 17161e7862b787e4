"""SPEC-CPU2006-like application profiles.

Each profile parameterizes the synthetic trace generator. The numbers are
calibrated to the published memory characterizations this paper family
reports (MPKI and row-buffer locality tables in the TCM and MCP papers):
the absolute values need not be exact — experiment T2 measures and reports
what the generator actually produces on our substrate — but the *relative
structure* (which apps are intensive, streaming, bank-parallel) is what
drives every policy under study.

Profile fields:

* ``mpki``        — target memory accesses per kilo-instruction (post-LLC;
  traces are generated mostly cache-cold so the intrinsic rate survives).
* ``row_locality``— fraction of accesses that continue the current
  sequential run (→ row-buffer hits).
* ``streams``     — concurrent sequential streams; more streams spread
  outstanding requests over more banks (→ bank-level parallelism).
* ``write_frac``  — fraction of accesses that are stores.
* ``footprint_mb``— virtual working set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ConfigError

#: The paper family's convention: an app with MPKI >= 1 is memory-intensive
#: and worth dedicated banks. The same threshold drives
#: :attr:`AppProfile.intensive`, DBP's demand estimator default, and the
#: trace library's characterization pass.
INTENSIVE_MPKI_THRESHOLD = 1.0


@dataclass(frozen=True)
class AppProfile:
    """Generator parameters for one synthetic application.

    ``burst`` is the mean number of memory accesses issued back-to-back
    (a parallel-miss cluster). Bursts spread across the app's streams, so
    ``burst`` is what chiefly determines measured bank-level parallelism:
    a pointer-chasing app with serial dependent misses has burst ~1 even if
    its footprint is scattered, while a stencil touching eight arrays per
    iteration has burst ~8. Defaults to ``streams``.
    """

    name: str
    mpki: float
    row_locality: float
    streams: int
    write_frac: float
    footprint_mb: int
    burst: int = 0  # 0 means "same as streams"

    def __post_init__(self) -> None:
        if self.burst == 0:
            object.__setattr__(self, "burst", self.streams)
        if self.burst < 1:
            raise ConfigError(f"{self.name}: burst must be >= 1")
        if self.mpki <= 0:
            raise ConfigError(f"{self.name}: mpki must be positive")
        if not 0.0 <= self.row_locality < 1.0:
            raise ConfigError(f"{self.name}: row_locality must be in [0, 1)")
        if self.streams < 1:
            raise ConfigError(f"{self.name}: streams must be >= 1")
        if not 0.0 <= self.write_frac <= 1.0:
            raise ConfigError(f"{self.name}: write_frac must be in [0, 1]")
        if self.footprint_mb < 1:
            raise ConfigError(f"{self.name}: footprint_mb must be >= 1")

    @property
    def intensive(self) -> bool:
        """Memory-intensive by the standard MPKI >= 1 convention."""
        return self.mpki >= INTENSIVE_MPKI_THRESHOLD


def _profile(
    name: str,
    mpki: float,
    row_locality: float,
    streams: int,
    write_frac: float,
    footprint_mb: int,
    burst: int = 0,
) -> Tuple[str, AppProfile]:
    return name, AppProfile(
        name, mpki, row_locality, streams, write_frac, footprint_mb, burst
    )


APP_PROFILES: Dict[str, AppProfile] = dict(
    [
        # -- heavily memory-intensive ---------------------------------
        # mcf: pointer chasing, poor locality, many banks touched.
        _profile("mcf", 16.0, 0.20, 12, 0.25, 48, burst=10),
        # libquantum: the canonical single-stream streamer.
        _profile("libquantum", 25.0, 0.97, 1, 0.25, 32, burst=3),
        # lbm: multi-stream stencil, high locality, write heavy.
        _profile("lbm", 30.0, 0.88, 8, 0.40, 64, burst=10),
        # milc: strided lattice sweeps.
        _profile("milc", 24.0, 0.70, 4, 0.30, 48, burst=6),
        # soplex: sparse solver, mixed locality.
        _profile("soplex", 26.0, 0.75, 4, 0.20, 32, burst=6),
        # leslie3d: multi-array stencil.
        _profile("leslie3d", 20.0, 0.80, 6, 0.30, 48, burst=8),
        # GemsFDTD: large FDTD arrays, moderate locality, parallel banks.
        _profile("GemsFDTD", 15.0, 0.55, 6, 0.30, 64, burst=8),
        # bwaves: streaming solver.
        _profile("bwaves", 18.0, 0.85, 6, 0.20, 48, burst=8),
        # omnetpp: event simulator, scattered heap.
        _profile("omnetpp", 10.0, 0.40, 6, 0.30, 32, burst=6),
        # sphinx3: acoustic scoring over big tables.
        _profile("sphinx3", 12.0, 0.65, 4, 0.10, 32, burst=5),
        # -- moderately intensive -------------------------------------
        _profile("astar", 9.0, 0.35, 4, 0.25, 24, burst=2),
        _profile("wrf", 8.0, 0.70, 4, 0.30, 32),
        _profile("zeusmp", 4.8, 0.60, 4, 0.30, 32),
        _profile("cactusADM", 4.5, 0.50, 4, 0.35, 32),
        _profile("xalancbmk", 2.1, 0.55, 3, 0.25, 16),
        _profile("bzip2", 1.2, 0.60, 2, 0.30, 8),
        # -- memory-non-intensive -------------------------------------
        _profile("hmmer", 0.8, 0.80, 2, 0.30, 4),
        _profile("h264ref", 0.5, 0.80, 2, 0.30, 4),
        _profile("gcc", 0.4, 0.60, 2, 0.25, 8),
        _profile("gobmk", 0.3, 0.50, 2, 0.20, 4),
        _profile("namd", 0.2, 0.70, 2, 0.15, 4),
        _profile("calculix", 0.1, 0.70, 2, 0.20, 4),
        _profile("povray", 0.05, 0.60, 1, 0.20, 2),
        _profile("gamess", 0.05, 0.70, 1, 0.20, 2),
    ]
)


def get_profile(name: str) -> AppProfile:
    """Look up a *synthetic* application profile by name.

    Library traces are apps too, but have no generator profile; resolve
    those through :func:`validate_app` / :func:`app_intensive` or the
    Runner's trace source.
    """
    try:
        return APP_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(APP_PROFILES))
        raise ConfigError(f"unknown app {name!r}; known: {known}") from None


def validate_app(name: str) -> None:
    """Check that ``name`` is a known app — synthetic or library trace."""
    if name not in APP_PROFILES:
        from ..traces.source import resolve_app

        resolve_app(name)


def app_intensive(name: str) -> bool:
    """Memory-intensive classification for any app: a synthetic profile's
    target MPKI, or a library trace's measured (or intrinsic) class."""
    if name in APP_PROFILES:
        return APP_PROFILES[name].intensive
    from ..traces.source import resolve_app

    return resolve_app(name).intensive


def profiles_by_intensity() -> Tuple[List[AppProfile], List[AppProfile]]:
    """(intensive, non-intensive) profiles, each sorted by MPKI descending."""
    intensive = sorted(
        (p for p in APP_PROFILES.values() if p.intensive),
        key=lambda p: -p.mpki,
    )
    light = sorted(
        (p for p in APP_PROFILES.values() if not p.intensive),
        key=lambda p: -p.mpki,
    )
    return intensive, light
