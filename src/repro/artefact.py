"""How every persisted file reaches disk and is judged when read back.

Writes are atomic: ``<name>.tmp.<pid>`` beside the final path, then
``os.replace``, so a reader sees the old file or the new one. A file read
back is the document, :class:`Corrupt` (missing, torn, bit-flipped, not
UTF-8, not a JSON object) or :class:`Stale` (readable, another format
version). Each artefact keeps its own version constant, bytes and policy
on the two outcomes; DESIGN.md "On-disk artefacts" has the table.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Dict, Iterator, Optional

from .errors import ReproError

TMP_INFIX = ".tmp."


class Stale(ReproError):
    """A readable artefact written under another format version."""

    def __init__(self, message: str, doc: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.doc = doc  #: the decoded document, for readers that keep it


class Corrupt(ReproError, ValueError):
    """An artefact that is missing, torn, undecodable or malformed."""


def tmp_glob(pattern: str) -> str:
    """The temp files that killed writers of ``pattern`` files leave."""
    return f"{pattern}{TMP_INFIX}*"


@contextmanager
def atomic_write(path, mode: str = "wb") -> Iterator[IO]:
    """A temp file beside ``path`` (parents made), renamed into place on
    success and removed on any exception."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}{TMP_INFIX}{os.getpid()}")
    try:
        with open(tmp, mode) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, doc: Dict[str, Any]) -> Path:
    """Atomically write ``doc`` as sorted, one-space-indented JSON."""
    text =json.dumps(doc, sort_keys=True, indent=1) + "\n"
    with atomic_write(path) as handle:
        handle.write(text.encode("utf-8"))
    return Path(path)


def decode_json(
    data: bytes, version: Optional[object], field: str = "version",
    kind: str = "file",
) -> Dict[str, Any]:
    """``data`` as a JSON object whose ``field`` is ``version`` (``None``:
    any). ``kind`` labels the messages of the two exceptions."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError as error:  # JSONDecodeError and UnicodeDecodeError
        raise Corrupt(f"corrupt {kind}: not valid JSON ({error})") from None
    if not isinstance(doc, dict):
        raise Corrupt(f"corrupt {kind}: not a JSON object")
    if version is not None and doc.get(field) != version:
        found = doc.get(field)
        raise Stale(f"stale {kind}: {field} {found!r} != {version!r}", doc)
    return doc


def read_json(
    path, version: Optional[object], field: str = "version",
    kind: str = "file",
) -> Dict[str, Any]:
    """:func:`decode_json` of the file at ``path``; unreadable is corrupt."""
    try:
        data = Path(path).read_bytes()
    except OSError as error:
        raise Corrupt(f"corrupt {kind} {path}: {error.strerror}") from None
    return decode_json(data, version, field, f"{kind} {path}")
