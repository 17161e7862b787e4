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
silently wrong simulation. It and :class:`CheckpointError` are the
:mod:`repro.artefact` pair (``Corrupt``/``Stale``) every persisted file
reads back as.

The payload is stock pickle. That works because every callback on the
engine agenda or in a request is a bound method or a ``functools.partial``
of one, which pickle stores by name; a lambda or closure there fails
:func:`dump_checkpoint` with :class:`CheckpointError`.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import struct
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..artefact import Corrupt, Stale, atomic_write, decode_json

#: Bump whenever the serialized layout (header, or the attributes of a
#: pickled simulator class) changes incompatibly — a safepoint file left
#: by a killed run of the older code is found by store key alone and must
#: read as stale, not fail to unpickle. Distinct from
#: the store's ``STORE_VERSION``: checkpoints are short-lived scratch
#: state, not results.
CHECKPOINT_VERSION = 6

_MAGIC = b"RDBPCKPT\n"
_HEADER_LEN = struct.Struct(">I")


class CheckpointError(Stale):
    """A checkpoint could not be produced, or reads but is unusable here
    (another format version, another run)."""


class CheckpointCorruptError(Corrupt):
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
        header = decode_json(
            header_bytes, CHECKPOINT_VERSION, kind="checkpoint header"
        )
    except Corrupt as error:
        raise CheckpointCorruptError(str(error)) from None
    except Stale as error:
        raise CheckpointError(
            f"checkpoint format version {error.doc.get('version')!r} != "
            f"{CHECKPOINT_VERSION}"
        ) from None
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
    except Exception as error:
        raise CheckpointCorruptError(
            f"checkpoint payload does not unpickle: {error}"
        ) from error
    return root, header


# ---------------------------------------------------------------------------
# Safepoint files.
# ---------------------------------------------------------------------------
def write_checkpoint_file(
    path, blob: bytes, fault_key: str = "", fault_attempt: int = 1
) -> Path:
    """Atomically persist a checkpoint blob (see :mod:`repro.artefact`).

    The deterministic fault harness can intercept this write (site
    ``checkpoint.write``, addressed by the run's ``fault_key`` on the
    caller's ``fault_attempt``):

    * kind ``torn_checkpoint`` leaves a half-length file at the final
      path — exactly what a crash between ``write`` and ``fsync`` on a
      non-atomic writer produces — and raises, so resume paths must
      survive it via the digest check;
    * kind ``transient`` completes the write and *then* raises — a worker
      dying right after the flush — so retries must resume from the
      checkpoint just written.
    """
    # Local import: faults is optional.
    from ..faults import TransientFaultError, check_fault, truncate_file

    path = Path(path)
    spec = check_fault("checkpoint.write", key=fault_key, attempt=fault_attempt)
    with atomic_write(path) as handle:
        handle.write(blob)
    if spec is not None and spec.kind == "torn_checkpoint":
        truncate_file(path)
        raise TransientFaultError(f"injected torn checkpoint write at {path}")
    if spec is not None and spec.kind == "transient":
        raise TransientFaultError(
            f"injected worker death right after checkpoint flush to {path}"
        )
    return path
