"""The fault injectors: what each fault *kind* actually does.

Each injector is deliberately faithful to the real failure it models:
``crash`` is a genuine ``SIGKILL`` of the current process (what the OOM
killer or a ``kill -9`` delivers), ``hang`` simply blocks (the supervisor's
deadline kills the whole worker process, so nothing needs to interrupt it),
``corrupt_blob``/``truncate_file`` damage real bytes on disk.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path
from typing import Optional

from ..errors import ReproError, SimulationError
from .plan import FaultSpec


class TransientFaultError(ReproError):
    """An injected fault that models a one-off environmental failure."""


def fire(spec: FaultSpec, path: Optional[Path] = None) -> Optional[str]:
    """Execute one matched fault. May not return (crash, raise).

    Returns the kind for side-effect-only injectors (file damage) so
    callers can log what happened.
    """
    if spec.kind == "crash":
        crash_process()
    if spec.kind == "hang":
        hang(spec.seconds)
        return "hang"
    if spec.kind == "transient":
        raise TransientFaultError(
            f"injected transient fault at site {spec.site!r}"
        )
    if spec.kind == "deterministic":
        raise SimulationError(
            f"injected deterministic fault at site {spec.site!r}"
        )
    if spec.kind == "corrupt_blob":
        if path is not None:
            corrupt_file(path)
        return "corrupt_blob"
    return None


def crash_process() -> None:  # pragma: no cover - kills the test process
    """Die exactly like ``kill -9``: no cleanup, no exit handlers."""
    os.kill(os.getpid(), signal.SIGKILL)
    # SIGKILL cannot be handled; if we are somehow still alive (exotic
    # platform), make death unconditional.
    os._exit(137)


def hang(seconds: float) -> None:
    """Block for ``seconds`` — a run stuck past any reasonable deadline."""
    time.sleep(seconds)


def corrupt_file(path, offset_fraction: float = 0.5) -> None:
    """Flip bytes in the middle of ``path`` (keeps length; breaks content)."""
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        return
    start = int(len(data) * offset_fraction)
    for index in range(start, min(start + 16, len(data))):
        data[index] ^= 0xFF
    path.write_bytes(bytes(data))


def truncate_file(path, keep_fraction: float = 0.5) -> None:
    """Cut ``path`` short — a partially-copied trace or torn download."""
    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * keep_fraction)])
