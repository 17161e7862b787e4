"""Importers for external plain-text memory-trace formats.

Two families of real-trace dumps are understood, both reconstructed into
canonical :class:`~repro.cpu.trace.TraceRecord` streams:

* **ChampSim-style** — ``<instr-count> <address> <R|W>`` per line. The
  instruction counter is cumulative, so compute gaps are the deltas:
  ``gap_i = instr_i - instr_{i-1} - 1`` (the record itself is the one
  memory instruction). Counters must be non-decreasing.
* **DRAMSim/Ramulator-style** — ``<address> <cycle> <op>`` per line, where
  ``op`` is ``R``/``W``/``READ``/``WRITE`` or a DRAMSim2 transaction type
  (``P_MEM_RD``, ``P_MEM_WR``, ``P_FETCH``). These dumps carry cycles, not
  instruction counts; gaps are reconstructed under the standard 1-IPC
  front-end assumption: ``gap_i = cycle_i - cycle_{i-1} - 1``. Cycles must
  be non-decreasing.

Addresses are byte addresses — hex with a ``0x`` prefix or decimal — and
map to virtual cache lines as ``address >> 6`` (64-byte lines). Malformed
input always raises :class:`TraceError` naming ``file:line``, never a raw
traceback, matching the repo's ``ConfigError`` diagnostics style.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..cpu.trace import Trace, TraceRecord
from ..errors import TraceError

#: 64-byte cache lines: byte address -> virtual line number.
LINE_SHIFT = 6

_READ_OPS = frozenset({"R", "READ", "RD", "P_MEM_RD", "P_FETCH"})
_WRITE_OPS = frozenset({"W", "WRITE", "WR", "P_MEM_WR"})

#: fmt name -> importer; ``auto`` sniffs via :func:`detect_format`.
FORMATS = ("auto", "champsim", "dramsim", "rtrc", "text")


def _parse_int(field: str, where: str, what: str) -> int:
    """An int from decimal or 0x-prefixed hex, with file:line diagnostics."""
    try:
        value = int(field, 0)
    except ValueError:
        raise TraceError(
            f"{where}: non-integer {what} {field!r}"
        ) from None
    if value < 0:
        raise TraceError(f"{where}: negative {what} {field!r}")
    return value


def _parse_op(field: str, where: str) -> bool:
    """True for a write, False for a read; errors on anything else."""
    op = field.upper()
    if op in _WRITE_OPS:
        return True
    if op in _READ_OPS:
        return False
    raise TraceError(
        f"{where}: unknown operation {field!r} "
        f"(expected one of R/W/READ/WRITE/P_MEM_RD/P_MEM_WR/P_FETCH)"
    )


def _data_lines(path: str):
    """Yield (line_no, stripped_line) skipping blanks and # comments."""
    with open(path, "r", encoding="ascii", errors="replace") as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield line_no, stripped


def import_champsim(path: str, name: Optional[str] = None) -> Trace:
    """Import a ChampSim-style ``instr-count address R/W`` text trace."""
    records: List[TraceRecord] = []
    prev_instr: Optional[int] = None
    for line_no, line in _data_lines(path):
        where = f"{path}:{line_no}"
        fields = line.split()
        if len(fields) != 3:
            raise TraceError(
                f"{where}: expected 3 fields "
                f"(instr-count address R/W), got {len(fields)}: {line!r}"
            )
        instr = _parse_int(fields[0], where, "instruction count")
        address = _parse_int(fields[1], where, "address")
        is_write = _parse_op(fields[2], where)
        if prev_instr is None:
            gap = instr
        else:
            if instr < prev_instr:
                raise TraceError(
                    f"{where}: instruction count went backwards "
                    f"({prev_instr} -> {instr})"
                )
            gap = max(0, instr - prev_instr - 1)
        prev_instr = instr
        records.append(TraceRecord(gap, address >> LINE_SHIFT, is_write))
    if not records:
        raise TraceError(f"{path}: no trace records found")
    return Trace(name or _default_name(path), records)


def import_dramsim(path: str, name: Optional[str] = None) -> Trace:
    """Import a DRAMSim/Ramulator-style ``address cycle op`` text trace."""
    records: List[TraceRecord] = []
    prev_cycle: Optional[int] = None
    for line_no, line in _data_lines(path):
        where = f"{path}:{line_no}"
        fields = line.split()
        if len(fields) != 3:
            raise TraceError(
                f"{where}: expected 3 fields (address cycle op), "
                f"got {len(fields)}: {line!r}"
            )
        address = _parse_int(fields[0], where, "address")
        cycle = _parse_int(fields[1], where, "cycle")
        is_write = _parse_op(fields[2], where)
        if prev_cycle is None:
            gap = 0
        else:
            if cycle < prev_cycle:
                raise TraceError(
                    f"{where}: cycle count went backwards "
                    f"({prev_cycle} -> {cycle})"
                )
            # 1-IPC reconstruction: idle cycles between two accesses stand
            # in for the compute instructions the dump does not carry.
            gap = max(0, cycle - prev_cycle - 1)
        prev_cycle = cycle
        records.append(TraceRecord(gap, address >> LINE_SHIFT, is_write))
    if not records:
        raise TraceError(f"{path}: no trace records found")
    return Trace(name or _default_name(path), records)


def _default_name(path: str) -> str:
    base = path.replace("\\", "/").rsplit("/", 1)[-1]
    return base.rsplit(".", 1)[0] if "." in base else base


def detect_format(path: str) -> str:
    """Sniff a trace file's format from its first bytes / data line.

    Returns ``rtrc``, ``text`` (the native ``#trace`` format), ``champsim``
    or ``dramsim``. Auto-detection of the two external text formats keys on
    the ``0x`` hex-address column; ambiguous all-decimal dumps must name
    their format explicitly.
    """
    with open(path, "rb") as handle:
        head = handle.read(6)
    if head[:4] == b"RTRC":
        return "rtrc"
    for line_no, line in _data_lines(path):
        fields = line.split()
        where = f"{path}:{line_no}"
        if len(fields) != 3:
            raise TraceError(
                f"{where}: cannot detect trace format from {line!r} "
                f"(expected 3 fields)"
            )
        if fields[0].lower().startswith("0x"):
            return "dramsim"
        if fields[1].lower().startswith("0x"):
            return "champsim"
        if fields[2] in ("R", "W") and fields[1].isdigit():
            # Native text records are `gap vline R|W` — but so is an
            # all-decimal ChampSim dump. The native format always opens
            # with its `#trace` header, which _data_lines skipped; a bare
            # decimal file is therefore ambiguous by construction.
            raise TraceError(
                f"{where}: ambiguous all-decimal trace line {line!r}; "
                f"pass the format explicitly (champsim, dramsim or text)"
            )
        raise TraceError(
            f"{where}: cannot detect trace format from {line!r}"
        )
    # Only comments/blank lines — the native loader would also fail, but
    # with a clearer message downstream.
    raise TraceError(f"{path}: no data lines to detect a format from")


def resolve_format(path: str, fmt: str = "auto") -> str:
    """Validate ``fmt``, sniffing the file when it is ``auto``."""
    if fmt not in FORMATS:
        raise TraceError(
            f"unknown trace format {fmt!r}; known: {', '.join(FORMATS)}"
        )
    if fmt != "auto":
        return fmt
    # The native text format is only detectable by its `#trace` header.
    try:
        with open(path, "r", encoding="ascii", errors="replace") as f:
            first = f.readline()
    except OSError as error:
        raise TraceError(f"{path}: cannot read trace ({error})") from None
    if first.startswith("#trace"):
        return "text"
    return detect_format(path)


def import_trace(
    path: str, fmt: str = "auto", name: Optional[str] = None
) -> Trace:
    """Import a trace in any supported format (``auto`` sniffs).

    The returned trace is canonical — replayable, transformable, savable
    to ``.rtrc`` — regardless of the source dialect.
    """
    from ..cpu.trace import load_trace
    from .format import load_rtrc

    fmt = resolve_format(path, fmt)
    importers: Dict[str, Callable[[str], Trace]] = {
        "champsim": lambda p: import_champsim(p, name=name),
        "dramsim": lambda p: import_dramsim(p, name=name),
        "rtrc": load_rtrc,
        "text": load_trace,
    }
    trace = importers[fmt](path)
    return trace if name is None else trace.renamed(name)
