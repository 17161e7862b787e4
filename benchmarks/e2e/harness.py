"""Measurement core of the end-to-end benchmark.

Everything here is about *how* a number is taken, nothing about *what* the
program does: an isolated scratch tree the program's children are pointed
at, wall/CPU/RSS readings, the closed-loop round driver, and the handful
of order statistics the reports use. The workloads live in
``workloads.py``, the traced pass in ``ledger.py``.

Noise discipline (each item answers a way the rejected first attempt at
this benchmark went wrong; see README.md):

* an op is one *round of identical, deterministic work*, never a single
  short call, and a run reports the median over rounds — nothing above it;
* ``gc.collect()`` runs between rounds, outside the timed region; GC stays
  on inside them, as it is for a user;
* children run with ``PYTHONHASHSEED=0``, output captured, ``--quiet``;
* ``src/`` is byte-compiled and one warm-up round is discarded in set-up.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

# The harness calls the program's public functions in-process as well as
# through subprocesses; tier-1 runs the same way (PYTHONPATH=src).
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Environment variables that would redirect or reconfigure the program
#: under test; a run starts from a clean slate and sets its own.
_SCRUBBED = (
    "REPRO_KERNEL",
    "REPRO_STORE",
    "REPRO_TRACE_LIBRARY",
    "PYTHONPYCACHEPREFIX",
    "PYTHONDONTWRITEBYTECODE",
)


class HarnessError(RuntimeError):
    """The benchmark cannot run at all (as opposed to a failed round)."""


def require_program() -> None:
    """Refuse to run where there is nothing to measure."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise HarnessError(
            f"no program to measure: {SRC / 'repro'} is missing"
        )


class Env:
    """One run's scratch tree, and the environment that points into it.

    Every store, trace library, span file and checkpoint of a run lives
    under one ``mkdtemp`` directory inside the untracked ``out/`` folder
    (the driver's checkout is the only place the benchmark may write).
    ``REPRO_STORE`` and ``REPRO_TRACE_LIBRARY`` are exported to children
    *and* set in this process, so neither a forgotten ``--store`` nor an
    in-process call can reach ``benchmarks/results/store`` or a user's
    trace library. Use as a context manager; exit removes the tree and
    restores this process's environment.
    """

    def __init__(self) -> None:
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
        self.library = self.tmp / "library"
        self.library.mkdir()
        self._dirs = 0
        overrides = {
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": "0",
            "REPRO_STORE": str(self.tmp / "default-store"),
            "REPRO_TRACE_LIBRARY": str(self.library),
        }
        self.environ = {
            k: v for k, v in os.environ.items() if k not in _SCRUBBED
        }
        self.environ.update(overrides)
        self._saved = {k: os.environ.get(k) for k in overrides}
        os.environ.update(overrides)

    def __enter__(self) -> "Env":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        for key, value in self._saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value

    def fresh_dir(self, stem: str) -> Path:
        """A path under the scratch tree that does not exist yet."""
        self._dirs += 1
        return self.tmp / f"{stem}-{self._dirs}"

    def python(self, *args: str) -> subprocess.CompletedProcess:
        """Run a fresh interpreter to completion with output captured."""
        return subprocess.run(
            [sys.executable, *args],
            env=self.environ,
            cwd=self.tmp,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def repro(self, *args: object) -> subprocess.CompletedProcess:
        """``repro-dbp ARGS`` in a fresh interpreter (the user's command)."""
        return self.python("-m", "repro", *(str(a) for a in args))

    def byte_compile(self) -> None:
        """Force-compile ``src/`` so no round pays (or skips) compilation.

        ``-f`` rewrites the cache even when it is fresh: set-up then costs
        the same on the first run in a checkout as on every later one.
        """
        proc = self.python("-m", "compileall", "-q", "-f", str(SRC / "repro"))
        if proc.returncode != 0:
            raise HarnessError(f"byte-compilation failed:\n{proc.stderr}")


# ---------------------------------------------------------------------------
# Readings.
# ---------------------------------------------------------------------------
def cpu_seconds() -> float:
    """User+system CPU of this process and every child already waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mib() -> float:
    """Largest resident set of any single process of the run so far."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def calibrate(iterations: int = 2_000_000) -> float:
    """CPU seconds of a fixed pure-Python loop: how fast is the host *now*.

    Taken at the start and end of a run; a run whose two readings differ
    was disturbed, whatever its own numbers say.
    """
    started = time.process_time()
    acc = 0
    for i in range(iterations):
        acc += i & 7
    return time.process_time() - started


def iqr_share(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, by the same quartiles the driver computes."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


# ---------------------------------------------------------------------------
# The closed loop.
# ---------------------------------------------------------------------------
@dataclass
class Rounds:
    """What a sequence of timed rounds produced."""

    walls: List[float] = field(default_factory=list)
    cpus: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.walls)

    @property
    def wall_p50(self) -> float:
        return statistics.median(self.walls)

    @property
    def cpu_p50(self) -> float:
        return statistics.median(self.cpus)


def timed_rounds(
    op: Callable[[], object],
    check: Callable[[object], Optional[str]],
    seconds: float,
    min_rounds: int,
    max_rounds: Optional[int] = None,
) -> Rounds:
    """Run ``op`` back to back for ``seconds``, at least ``min_rounds`` times.

    One client, strictly sequential: the next round starts only after the
    previous one returned and was checked. ``check`` runs outside the timed
    region and returns a complaint or None; a failed round still counts as
    attempted, and its time still enters the medians (a fast wrong answer
    must not make the run look better than a slow right one would).
    """
    rounds = Rounds()
    deadline = time.perf_counter() + seconds
    while rounds.attempted < min_rounds or time.perf_counter() < deadline:
        if max_rounds is not None and rounds.attempted >= max_rounds:
            break
        gc.collect()
        cpu_before = cpu_seconds()
        started = time.perf_counter()
        output = op()
        wall = time.perf_counter() - started
        cpu = cpu_seconds() - cpu_before
        rounds.walls.append(wall)
        rounds.cpus.append(cpu)
        complaint = check(output)
        if complaint is not None:
            rounds.failures.append(
                f"round {rounds.attempted}: {complaint}"
            )
    return rounds
