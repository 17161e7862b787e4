"""Tunable-parameter spaces: what each approach lets a searcher move.

Every policy/scheduler class that carries paper constants declares them
through the ``tunables()`` protocol — a classmethod returning
:class:`Tunable` records (name, kind, bounds, paper default). This module
assembles those declarations into one :class:`ParameterSpace` per
registered approach and turns concrete parameter points back into
runnable :class:`~repro.core.integration.Approach` objects via
**parameterized approach names**::

    dbp@epoch_cycles=20000,demand_smoothing=0.25

``get_approach`` resolves such names in *any* process — campaign workers
included — as a pure function of the string, which is what lets tuned
points travel through the existing campaign machinery unchanged: the
content-addressed store key hashes the resolved policy/scheduler params,
so every distinct point gets its own entry and every repeated point is a
cache hit by construction.

Tunables target one of three layers:

* ``policy``    — constructor params of the partitioning policy (nested
  config dataclasses are reached with dotted names, e.g.
  ``demand.low_mpki_threshold``);
* ``scheduler`` — flat keyword params of the memory scheduler;
* ``osmm``      — fields of :class:`~repro.config.OSConfig` (the
  migration engine's knobs). These cannot ride in an approach name — the
  engine is built from the SystemConfig, not the approach — so the
  objective layer applies them to the RunSpec's config instead, and
  :func:`derive_approach` rejects them in names with a pointer there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError

__all__ = [
    "Tunable",
    "ParameterSpace",
    "approach_space",
    "derive_approach",
    "format_params",
    "parameterized_name",
    "parse_params",
    "split_point",
]

#: Valid ``Tunable.target`` values, in display order.
TARGETS = ("policy", "scheduler", "osmm")


@dataclass(frozen=True)
class Tunable:
    """One searchable parameter: its type, bounds, and paper default."""

    name: str
    kind: str  # "int" | "float" | "choice"
    default: object
    low: Optional[float] = None
    high: Optional[float] = None
    choices: Tuple[object, ...] = ()
    #: Sample on a log scale (spans-orders-of-magnitude knobs).
    log: bool = False
    target: str = "policy"
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("int", "float", "choice"):
            raise ConfigError(
                f"tunable {self.name!r}: kind must be int, float, or choice"
            )
        if self.target not in TARGETS:
            raise ConfigError(
                f"tunable {self.name!r}: target must be one of {TARGETS}"
            )
        if self.kind == "choice":
            if not self.choices:
                raise ConfigError(
                    f"tunable {self.name!r}: choice kind needs choices"
                )
            if self.default not in self.choices:
                raise ConfigError(
                    f"tunable {self.name!r}: default {self.default!r} not "
                    f"among choices {self.choices}"
                )
        else:
            if self.low is None or self.high is None:
                raise ConfigError(
                    f"tunable {self.name!r}: numeric kind needs low and high"
                )
            if not self.low <= self.default <= self.high:
                raise ConfigError(
                    f"tunable {self.name!r}: default {self.default!r} outside "
                    f"[{self.low}, {self.high}]"
                )
            if self.log and self.low <= 0:
                raise ConfigError(
                    f"tunable {self.name!r}: log scale needs low > 0"
                )

    # ------------------------------------------------------------------
    def coerce(self, value: object) -> object:
        """Parse/validate one value for this tunable; raises ConfigError."""
        if self.kind == "choice":
            for choice in self.choices:
                if value == choice or str(value) == str(choice):
                    return choice
            raise ConfigError(
                f"tunable {self.name!r}: {value!r} not among "
                f"choices {self.choices}"
            )
        try:
            if self.kind == "int":
                if isinstance(value, float) and not value.is_integer():
                    raise ValueError(value)
                number: object = int(value)  # type: ignore[call-overload]
            else:
                number = float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise ConfigError(
                f"tunable {self.name!r}: {value!r} is not a valid {self.kind}"
            ) from None
        if not self.low <= number <= self.high:  # type: ignore[operator]
            raise ConfigError(
                f"tunable {self.name!r}: {number!r} outside "
                f"[{self.low}, {self.high}]"
            )
        return number

    def bounds_text(self) -> str:
        if self.kind == "choice":
            return "{" + ", ".join(str(c) for c in self.choices) + "}"
        low = _value_text(self.low)
        high = _value_text(self.high)
        scale = ", log" if self.log else ""
        return f"[{low}, {high}{scale}]"


@dataclass(frozen=True)
class ParameterSpace:
    """The ordered tunables of one approach (policy + scheduler + osmm)."""

    approach: str
    tunables: Tuple[Tunable, ...] = ()

    def __post_init__(self) -> None:
        seen: Dict[str, str] = {}
        for tunable in self.tunables:
            if tunable.name in seen:
                raise ConfigError(
                    f"approach {self.approach!r}: tunable {tunable.name!r} "
                    f"declared by both {seen[tunable.name]} and "
                    f"{tunable.target}"
                )
            seen[tunable.name] = tunable.target

    def __len__(self) -> int:
        return len(self.tunables)

    def names(self) -> List[str]:
        return [t.name for t in self.tunables]

    def get(self, name: str) -> Tunable:
        for tunable in self.tunables:
            if tunable.name == name:
                return tunable
        known = ", ".join(self.names()) or "(none)"
        raise ConfigError(
            f"approach {self.approach!r} has no tunable {name!r}; "
            f"known: {known}"
        )

    def defaults(self) -> Dict[str, object]:
        return {t.name: t.default for t in self.tunables}

    def coerce_point(self, params: Dict[str, object]) -> Dict[str, object]:
        """Validate a parameter point against this space (bounds, types)."""
        return {name: self.get(name).coerce(value) for name, value in params.items()}


# ----------------------------------------------------------------------
# Canonical point <-> string forms (the "@k=v,..." approach-name suffix).

def _value_text(value: object) -> str:
    """Deterministic text form; floats use repr (shortest round-trip)."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_params(params: Dict[str, object]) -> str:
    """Canonical ``k=v,k2=v2`` text of a point (sorted by name)."""
    return ",".join(
        f"{name}={_value_text(params[name])}" for name in sorted(params)
    )


def parameterized_name(base: str, params: Dict[str, object]) -> str:
    """The approach name for ``base`` at ``params``.

    An empty point is *the base name itself* — the paper-default point
    shares its store entries with ordinary campaigns.
    """
    if not params:
        return base
    return f"{base}@{format_params(params)}"


def parse_params(text: str) -> Dict[str, str]:
    """Split a ``k=v,k2=v2`` suffix into raw string values."""
    params: Dict[str, str] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, value = item.partition("=")
        if not sep or not name or not value:
            raise ConfigError(
                f"bad approach parameter {item!r}; expected name=value"
            )
        if name in params:
            raise ConfigError(f"approach parameter {name!r} given twice")
        params[name] = value
    if not params:
        raise ConfigError("an '@' approach name needs at least one name=value")
    return params


# ----------------------------------------------------------------------
# Space assembly from the tunables() declarations.

def _policy_class(name: str) -> Optional[type]:
    from ..baselines.base import policy_registry

    return policy_registry().get(name)


def _scheduler_class(name: str) -> Optional[type]:
    from ..memctrl.schedulers import _REGISTRY

    return _REGISTRY.get(name)


def _declared(cls: Optional[type], target: str) -> List[Tunable]:
    if cls is None or not hasattr(cls, "tunables"):
        return []
    out: List[Tunable] = []
    for tunable in cls.tunables():
        if tunable.target != target:
            raise ConfigError(
                f"{cls.__name__}.tunables() declared {tunable.name!r} with "
                f"target {tunable.target!r}; expected {target!r}"
            )
        out.append(tunable)
    return out


def approach_space(approach) -> ParameterSpace:
    """The full parameter space of one approach.

    ``approach`` is an :class:`~repro.core.integration.Approach` (or a
    name resolvable to one). Policy and scheduler classes contribute via
    their ``tunables()`` declarations; partitioning approaches (policy
    other than ``shared``) additionally expose the migration engine's
    OS-level knobs.
    """
    if isinstance(approach, str):
        from ..core.integration import get_approach

        approach = get_approach(approach)
    tunables: List[Tunable] = []
    tunables.extend(_declared(_policy_class(approach.policy), "policy"))
    tunables.extend(_declared(_scheduler_class(approach.scheduler), "scheduler"))
    if approach.policy != "shared":
        from ..osmm.migration import MigrationEngine

        tunables.extend(_declared(MigrationEngine, "osmm"))
    return ParameterSpace(approach=approach.name, tunables=tuple(tunables))


def split_point(
    space: ParameterSpace, params: Dict[str, object]
) -> Dict[str, Dict[str, object]]:
    """A coerced point split by target layer: policy/scheduler/osmm."""
    out: Dict[str, Dict[str, object]] = {t: {} for t in TARGETS}
    for name, value in space.coerce_point(params).items():
        out[space.get(name).target][name] = value
    return out


# ----------------------------------------------------------------------
# Deriving a concrete Approach from a parameterized name.

def derive_approach(base, param_text: str):
    """Resolve ``base@param_text`` into a derived Approach.

    Pure function of (base approach, text): workers, store keys, and the
    results index all resolve the same string to the same object. The
    derived name is canonicalized (sorted params, repr floats) so two
    spellings of one point share a single store entry.
    """
    from ..core.integration import Approach

    space = approach_space(base)
    raw = parse_params(param_text)
    point = space.coerce_point(dict(raw))
    layers = split_point(space, point)
    if layers["osmm"]:
        names = ", ".join(sorted(layers["osmm"]))
        raise ConfigError(
            f"approach {base.name!r}: {names} are OS/migration tunables and "
            "cannot ride in an approach name (the migration engine is built "
            "from the SystemConfig) — the tuner applies them via the run "
            "config instead"
        )
    policy_params = dict(base.policy_params)
    if layers["policy"]:
        cls = _policy_class(base.policy)
        if cls is not None and hasattr(cls, "from_tunables"):
            policy_params.update(cls.from_tunables(layers["policy"]))
        else:
            policy_params.update(layers["policy"])
    scheduler_params = dict(base.scheduler_params)
    scheduler_params.update(layers["scheduler"])
    name = parameterized_name(base.name, point)
    suffix = format_params(point)
    return Approach(
        name=name,
        policy=base.policy,
        scheduler=base.scheduler,
        policy_params=policy_params,
        scheduler_params=scheduler_params,
        description=f"{base.description} [tuned: {suffix}]",
    )
