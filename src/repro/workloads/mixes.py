"""Multiprogrammed workload mixes (the paper's Table 3 equivalent).

Mixes follow the standard construction of this paper family: 4-core
combinations spanning intensity categories — all memory-intensive (H4),
three intensive plus one light (H3L1), balanced (H2L2), one intensive
(H1L3), and medium/mixed — plus 2-core and 8-core variants for the core-
count sensitivity study (experiment F7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ConfigError
from .profiles import app_intensive, validate_app


@dataclass(frozen=True)
class Mix:
    """One multiprogrammed workload.

    Apps may be synthetic profile names or library trace names — both
    validate eagerly and both count toward intensity.
    """

    name: str
    apps: Tuple[str, ...]
    category: str

    def __post_init__(self) -> None:
        for app in self.apps:
            validate_app(app)  # validate names eagerly

    @property
    def num_cores(self) -> int:
        return len(self.apps)

    def intensive_count(self) -> int:
        """Apps with MPKI >= 1 (memory-intensive by convention)."""
        return sum(1 for app in self.apps if app_intensive(app))


MIXES: Dict[str, Mix] = {
    mix.name: mix
    for mix in (
        # ---- 4-core mixes (the main evaluation set) ----------------
        Mix("M1", ("libquantum", "lbm", "mcf", "milc"), "H4"),
        Mix("M2", ("mcf", "soplex", "leslie3d", "GemsFDTD"), "H4"),
        Mix("M3", ("lbm", "bwaves", "libquantum", "sphinx3"), "H4"),
        Mix("M4", ("mcf", "lbm", "h264ref", "gcc"), "H2L2"),
        Mix("M5", ("libquantum", "milc", "namd", "povray"), "H2L2"),
        Mix("M6", ("soplex", "GemsFDTD", "bzip2", "calculix"), "H3L1"),
        Mix("M7", ("mcf", "h264ref", "gcc", "povray"), "H1L3"),
        Mix("M8", ("lbm", "namd", "gobmk", "gamess"), "H1L3"),
        Mix("M9", ("astar", "zeusmp", "cactusADM", "wrf"), "M4"),
        Mix("M10", ("omnetpp", "sphinx3", "xalancbmk", "bzip2"), "M4"),
        # ---- 2-core mixes (F7 sweep) --------------------------------
        Mix("D1", ("mcf", "libquantum"), "H2"),
        Mix("D2", ("lbm", "h264ref"), "H1L1"),
        Mix("D3", ("soplex", "milc"), "H2"),
        # ---- 8-core mixes (F7 sweep) --------------------------------
        Mix(
            "O1",
            (
                "libquantum",
                "lbm",
                "mcf",
                "milc",
                "soplex",
                "leslie3d",
                "GemsFDTD",
                "bwaves",
            ),
            "H8",
        ),
        Mix(
            "O2",
            (
                "mcf",
                "lbm",
                "libquantum",
                "sphinx3",
                "h264ref",
                "gcc",
                "namd",
                "povray",
            ),
            "H4L4",
        ),
        Mix(
            "O3",
            (
                "omnetpp",
                "astar",
                "zeusmp",
                "wrf",
                "bzip2",
                "gobmk",
                "calculix",
                "gamess",
            ),
            "M8",
        ),
    )
}

#: The mixes every main figure sweeps (4-core evaluation set).
MAIN_MIXES: List[str] = [f"M{i}" for i in range(1, 11)]


def get_mix(name: str) -> Mix:
    """Look up a mix by name."""
    try:
        return MIXES[name]
    except KeyError:
        known = ", ".join(sorted(MIXES))
        raise ConfigError(f"unknown mix {name!r}; known: {known}") from None


def adhoc_mix(spec: str) -> Mix:
    """Build an unnamed mix from ``app1+app2+...`` (library apps welcome).

    The CLI accepts this anywhere a mix name goes, which is how an
    imported library trace gets run against synthetic apps without
    editing the registered mix table.
    """
    apps = tuple(app for app in spec.split("+") if app)
    if len(apps) < 1:
        raise ConfigError(f"ad-hoc mix spec {spec!r} names no apps")
    return Mix(spec, apps, "adhoc")


def resolve_mix(name: str) -> Mix:
    """A registered mix by name, or an ``app1+app2`` ad-hoc mix."""
    if "+" in name:
        return adhoc_mix(name)
    return get_mix(name)


def mixes_for_cores(num_cores: int) -> List[Mix]:
    """All defined mixes with exactly ``num_cores`` applications."""
    return [m for m in MIXES.values() if m.num_cores == num_cores]
