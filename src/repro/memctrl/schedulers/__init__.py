"""Request scheduler registry.

Schedulers are registered by name so configurations and experiment sweeps
can select them with a string. All five policies the paper's evaluation
context uses are provided.
"""

from functools import lru_cache
from typing import Dict, get_type_hints

from ...errors import ConfigError
from .base import Scheduler, ProfileSnapshot, ThreadProfile
from .fcfs import FCFSScheduler
from .frfcfs import FRFCFSScheduler
from .parbs import PARBSScheduler
from .atlas import ATLASScheduler
from .tcm import TCMScheduler
from .bliss import BLISSScheduler

_REGISTRY = {
    "fcfs": FCFSScheduler,
    "frfcfs": FRFCFSScheduler,
    "parbs": PARBSScheduler,
    "atlas": ATLASScheduler,
    "tcm": TCMScheduler,
    "bliss": BLISSScheduler,
}


def _scheduler_class(name: str) -> type:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(
            f"unknown scheduler {name!r}; known: {known}"
        ) from None


def make_scheduler(name: str, num_threads: int, **params: object) -> Scheduler:
    """Instantiate a scheduler by registry name."""
    return _scheduler_class(name)(num_threads=num_threads, **params)


#: Constructor annotation -> the value types it admits (bool is not an int).
_ADMITS = {int: (int,), float: (float, int)}


@lru_cache(maxsize=None)
def _admitted_types(cls: type) -> Dict[str, tuple]:
    hints = get_type_hints(cls.__init__)
    return {
        name: _ADMITS[hint] for name, hint in hints.items() if hint in _ADMITS
    }


def check_scheduler_params(name: str, params: Dict[str, object]) -> None:
    """Validate a scheduler name and its parameters without keeping anything.

    Raises :class:`ConfigError` for an unknown name or keyword, a value
    whose type its constructor annotation does not admit, or one the
    constructor's own domain checks reject — so a bad ``ControllerConfig``
    fails when it is built, not when a System is.
    """
    cls = _scheduler_class(name)
    admitted = _admitted_types(cls)
    for key, value in params.items():
        admits = admitted.get(key)
        if admits is not None and type(value) not in admits:
            raise ConfigError(
                f"scheduler {name!r}: {key} must be "
                f"{admits[0].__name__}, got {value!r}"
            )
    try:
        cls(num_threads=1, **params)
    except TypeError as error:
        raise ConfigError(f"scheduler {name!r}: {error}") from None


def scheduler_names() -> list:
    """All registered scheduler names."""
    return sorted(_REGISTRY)


__all__ = [
    "Scheduler",
    "ProfileSnapshot",
    "ThreadProfile",
    "make_scheduler",
    "check_scheduler_params",
    "scheduler_names",
    "FCFSScheduler",
    "FRFCFSScheduler",
    "PARBSScheduler",
    "ATLASScheduler",
    "TCMScheduler",
    "BLISSScheduler",
]
