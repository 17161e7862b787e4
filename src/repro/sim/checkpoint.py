"""Versioned checkpoint codec for mid-run simulator state.

A checkpoint is the complete object graph of a paused :class:`System` —
engine agenda, controller queues and memo caches, cores, caches, policy and
scheduler state, RNG streams — serialized between two engine steps, when no
event is executing. The format is::

    MAGIC | u32 header length | header JSON | payload (pickle bytes)

The header carries the checkpoint format version, the SHA-256 of the
payload, and caller metadata (the run key, the cycle). The digest is
verified before a single payload byte is unpickled, so a torn or
bit-flipped file surfaces as :class:`CheckpointCorruptError` — never as a
silently wrong simulation.

The payload is stock pickle. That works because every callback on the
engine agenda or in a request is a bound method or a ``functools.partial``
of one, which pickle stores by name; a lambda or closure there fails
:func:`dump_checkpoint` with :class:`CheckpointError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..errors import ReproError

#: Bump whenever the serialized layout (header, or the attributes of a
#: pickled simulator class) changes incompatibly — a safepoint file left
#: by a killed run of the older code is found by store key alone and must
#: read as stale, not fail to unpickle. Distinct from
#: the store's ``STORE_VERSION``: checkpoints are short-lived scratch
#: state, not results.
CHECKPOINT_VERSION = 4

_MAGIC = b"RDBPCKPT\n"
_HEADER_LEN = struct.Struct(">I")


class CheckpointError(ReproError):
    """A checkpoint could not be produced or is unusable (e.g. stale)."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file is damaged: torn write, truncation, bad digest."""


# ---------------------------------------------------------------------------
# Blob encode/decode.
# ---------------------------------------------------------------------------
def dump_checkpoint(root: Any, meta: Optional[Dict[str, Any]] = None) -> bytes:
    """Serialize ``root`` into a self-verifying checkpoint blob."""
    try:
        payload = pickle.dumps(root, protocol=5)
    except (pickle.PicklingError, TypeError, AttributeError, ValueError) as e:
        raise CheckpointError(f"state is not checkpointable: {e}") from e
    header = {
        "version": CHECKPOINT_VERSION,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_len": len(payload),
        "meta": dict(meta or {}),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return (
        _MAGIC + _HEADER_LEN.pack(len(header_bytes)) + header_bytes + payload
    )


def read_checkpoint_header(blob: bytes) -> Dict[str, Any]:
    """Parse and validate the header without touching the payload digest.

    Cheap pre-check for "is this checkpoint even for my run, in this
    format" before paying for unpickling. Raises
    :class:`CheckpointCorruptError` for structural damage and
    :class:`CheckpointError` for a readable-but-unusable checkpoint
    (foreign format version).
    """
    if not blob.startswith(_MAGIC):
        raise CheckpointCorruptError("not a checkpoint (bad magic)")
    offset = len(_MAGIC)
    if len(blob) < offset + _HEADER_LEN.size:
        raise CheckpointCorruptError("checkpoint truncated inside header")
    (header_len,) = _HEADER_LEN.unpack_from(blob, offset)
    offset += _HEADER_LEN.size
    header_bytes = blob[offset : offset + header_len]
    if len(header_bytes) < header_len:
        raise CheckpointCorruptError("checkpoint truncated inside header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise CheckpointCorruptError(
            f"checkpoint header is not valid JSON: {error}"
        ) from error
    if not isinstance(header, dict):
        raise CheckpointCorruptError("checkpoint header is not an object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {header.get('version')!r} != "
            f"{CHECKPOINT_VERSION}"
        )
    header["_payload_offset"] = offset + header_len
    return header


def load_checkpoint(blob: bytes) -> Tuple[Any, Dict[str, Any]]:
    """Verify and deserialize a checkpoint blob; returns (root, header)."""
    header = read_checkpoint_header(blob)
    payload = blob[header["_payload_offset"] :]
    if len(payload) != header.get("payload_len"):
        raise CheckpointCorruptError(
            f"checkpoint payload is {len(payload)} bytes, header promises "
            f"{header.get('payload_len')}"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise CheckpointCorruptError(
            "checkpoint payload digest mismatch (torn or corrupted write)"
        )
    try:
        root = pickle.loads(payload)
    except CheckpointError:
        raise
    except Exception as error:
        raise CheckpointCorruptError(
            f"checkpoint payload does not unpickle: {error}"
        ) from error
    return root, header


# ---------------------------------------------------------------------------
# File helpers (safepoints on disk).
# ---------------------------------------------------------------------------
def write_checkpoint_file(
    path, blob: bytes, fault_key: str = "", fault_attempt: int = 1
) -> Path:
    """Atomically persist a checkpoint blob (tmp file + rename).

    The deterministic fault harness can intercept this write (site
    ``checkpoint.write``, addressed by the run's ``fault_key`` on the
    caller's ``fault_attempt``):

    * kind ``torn_checkpoint`` leaves a half-written file at the *final*
      path — exactly what a crash between ``write`` and ``fsync`` on a
      non-atomic writer produces — and raises, so resume paths must
      survive it via the digest check;
    * kind ``transient`` completes the write and *then* raises — a worker
      dying right after the flush — so retries must resume from the
      checkpoint just written.
    """
    from ..faults import check_fault  # local import: faults is optional

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    spec = check_fault("checkpoint.write", key=fault_key, attempt=fault_attempt)
    if spec is not None and spec.kind == "torn_checkpoint":
        from ..faults import TransientFaultError

        path.write_bytes(blob[: max(len(_MAGIC) + 2, len(blob) // 2)])
        raise TransientFaultError(
            f"injected torn checkpoint write at {path}"
        )
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_bytes(blob)
    os.replace(tmp, path)
    if spec is not None and spec.kind == "transient":
        from ..faults import TransientFaultError

        raise TransientFaultError(
            f"injected worker death right after checkpoint flush to {path}"
        )
    return path


def read_checkpoint_file(path) -> Tuple[Any, Dict[str, Any]]:
    """Load a checkpoint file; OSError maps to :class:`CheckpointError`."""
    try:
        blob = Path(path).read_bytes()
    except OSError as error:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {error}"
        ) from error
    return load_checkpoint(blob)


def read_checkpoint_file_header(path) -> Dict[str, Any]:
    """Header of a checkpoint file without deserializing the payload."""
    try:
        blob = Path(path).read_bytes()
    except OSError as error:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {error}"
        ) from error
    return read_checkpoint_header(blob)
