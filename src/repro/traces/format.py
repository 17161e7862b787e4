""".rtrc — the versioned binary on-disk trace format.

This is the canonical interchange format of the workload trace library,
replacing the ad-hoc ``save_trace`` text format for anything that needs to
be fast, self-describing, or tamper-evident. Layout::

    magic    4 bytes  b"RTRC"
    version  u16      FORMAT_VERSION (little-endian, like every field)
    hlen     u32      header length in bytes
    header   hlen     UTF-8 JSON: name, records, total_insts, digest,
                      provenance (free-form dict: source path, importer,
                      transform chain, ...)
    blocks   *        until `records` records have been read:
        count  u32    records in this block (<= BLOCK_RECORDS)
        clen   u32    compressed payload length
        data   clen   zlib-compressed, struct-packed records

Records pack as ``<IQB``: gap (u32 instructions), vline (u64 virtual cache
line), flags (bit 0 = write). The header's ``digest`` is
:attr:`repro.cpu.trace.Trace.digest` — recomputed and verified on load, so
a truncated or bit-flipped file can never silently produce a different
workload. Every malformed-input path raises :class:`TraceError` naming the
file and the offending block, mirroring the text loaders' ``file:line``
diagnostics.
"""

from __future__ import annotations

import json
import struct
import zlib
from array import array
from typing import BinaryIO, Dict, Optional, Tuple

from ..artefact import Corrupt, atomic_write, decode_json
from ..cpu.trace import Trace
from ..errors import TraceError

MAGIC = b"RTRC"
FORMAT_VERSION = 1

#: Records per compressed block. Small enough that a truncated tail loses
#: little, large enough that zlib sees real redundancy.
BLOCK_RECORDS = 8192

_PREAMBLE = struct.Struct("<4sHI")  # magic, version, header length
_BLOCK = struct.Struct("<II")  # record count, compressed length
_RECORD = struct.Struct("<IQB")  # gap, vline, flags

#: Refuse absurd header/block claims instead of allocating gigabytes.
_MAX_HEADER_BYTES = 16 * 1024 * 1024
_MAX_BLOCK_BYTES = 256 * 1024 * 1024


def save_rtrc(
    trace: Trace, path: str, provenance: Optional[Dict[str, object]] = None
) -> str:
    """Atomically write ``trace`` to ``path`` as .rtrc; returns its digest."""
    header = {
        "name": trace.name,
        "records": len(trace),
        "total_insts": trace.total_insts,
        "digest": trace.digest,
        "provenance": dict(provenance or {}),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path) as handle:
        handle.write(
            _PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(header_bytes))
        )
        handle.write(header_bytes)
        # The columns are already inside the record's domain (Trace checks).
        for start in range(0, len(trace), BLOCK_RECORDS):
            rows = slice(start, start + BLOCK_RECORDS)
            block = trace.gaps[rows], trace.vlines[rows], trace.writes[rows]
            payload = zlib.compress(b"".join(map(_RECORD.pack, *block)), 6)
            handle.write(_BLOCK.pack(len(block[0]), len(payload)))
            handle.write(payload)
    return trace.digest


def _read_exact(handle: BinaryIO, n: int, path: str, what: str) -> bytes:
    data = handle.read(n)
    if len(data) != n:
        raise TraceError(
            f"{path}: truncated {what} (wanted {n} bytes, got {len(data)})"
        )
    return data


def _parse_header(handle: BinaryIO, path: str) -> Dict[str, object]:
    magic, version, hlen = _PREAMBLE.unpack(
        _read_exact(handle, _PREAMBLE.size, path, "preamble")
    )
    if magic != MAGIC:
        raise TraceError(f"{path}: not an .rtrc trace (bad magic {magic!r})")
    if version != FORMAT_VERSION:
        raise TraceError(
            f"{path}: unsupported .rtrc version {version} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    if hlen > _MAX_HEADER_BYTES:
        raise TraceError(f"{path}: corrupt header length {hlen}")
    header_bytes = _read_exact(handle, hlen, path, "header")
    try:
        header = decode_json(header_bytes, None, kind="header JSON")
    except Corrupt as error:
        raise TraceError(f"{path}: {error}") from None
    for field, kind in (("name", str), ("records", int), ("digest", str)):
        if not isinstance(header.get(field), kind):
            raise TraceError(
                f"{path}: header missing or mistyped field {field!r}"
            )
    if header["records"] < 1:
        raise TraceError(f"{path}: header claims an empty trace")
    return header


def load_rtrc(path: str, verify_digest: bool = True) -> Trace:
    """Read an .rtrc trace; digest-verified unless told otherwise."""
    trace, _header = read_rtrc(path, verify_digest=verify_digest)
    return trace


def read_rtrc(
    path: str, verify_digest: bool = True
) -> Tuple[Trace, Dict[str, object]]:
    """Read an .rtrc trace and its full header (provenance included)."""
    with open(path, "rb") as handle:
        header = _parse_header(handle, path)
        expected = int(header["records"])
        gaps, vlines, writes = array("I"), array("Q"), bytearray()
        block_index = 0
        while len(gaps) < expected:
            where = f"{path}: block {block_index}"
            raw = handle.read(_BLOCK.size)
            if len(raw) != _BLOCK.size:
                raise TraceError(
                    f"{where}: truncated block header "
                    f"({len(gaps)} of {expected} records read)"
                )
            count, clen = _BLOCK.unpack(raw)
            if not 0 < count <= BLOCK_RECORDS:
                raise TraceError(f"{where}: corrupt record count {count}")
            if clen > _MAX_BLOCK_BYTES:
                raise TraceError(f"{where}: corrupt payload length {clen}")
            payload = _read_exact(handle, clen, path, f"block {block_index}")
            try:
                packed = zlib.decompress(payload)
            except zlib.error as error:
                raise TraceError(
                    f"{where}: corrupt compressed payload ({error})"
                ) from None
            if len(packed) != count * _RECORD.size:
                raise TraceError(
                    f"{where}: payload holds {len(packed)} bytes, "
                    f"expected {count * _RECORD.size}"
                )
            block_gaps, block_vlines, flags = zip(*_RECORD.iter_unpack(packed))
            if max(flags) > 1:
                raise TraceError(
                    f"{where}: corrupt record flags {max(flags):#x}"
                )
            gaps.extend(block_gaps)
            vlines.extend(block_vlines)
            writes.extend(flags)
            block_index += 1
        if len(gaps) != expected:
            raise TraceError(
                f"{path}: block {block_index - 1} overran the header's "
                f"record count ({len(gaps)} > {expected})"
            )
        if handle.read(1):
            raise TraceError(f"{path}: trailing data after the last block")
    trace = Trace.from_columns(str(header["name"]), gaps, vlines, writes)
    if verify_digest and trace.digest != header["digest"]:
        raise TraceError(
            f"{path}: content digest mismatch — header says "
            f"{header['digest'][:16]}…, records hash to "
            f"{trace.digest[:16]}… (file corrupt or tampered)"
        )
    return trace, header
