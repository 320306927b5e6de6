"""What the package reads and writes: every input file as UTF-8 text, its
one JSON text, and atomic file replacement."""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

from .errors import DataError, SurgactError


def read_text(path: Path, what: str, error: type[SurgactError] = DataError) -> str:
    """The text of the file `path`, decoded as UTF-8 whatever the locale.

    A missing file, one that cannot be read, or one that is not UTF-8 raises
    `error` naming `what` and the file."""
    if not path.is_file():
        raise error(f"{what} not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not UTF-8 text: {path}: byte {exc.start}") from None
    except OSError as exc:
        raise error(f"cannot read {what}: {path}: {exc.strerror or exc}") from None


def read_json(path: Path, what: str, error: type[SurgactError] = DataError):
    """The JSON value in the file `path`, read as `read_text` reads it."""
    try:
        return json.loads(read_text(path, what, error))
    except json.JSONDecodeError as exc:
        raise error(f"{what} is not valid JSON: {path}: {exc}") from None


def json_text(obj) -> str:
    """`obj` as JSON, indented, with sorted keys and a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def check_writable(path: Path) -> None:
    """Refuse, before any work whose result it would lose, a `path` that
    `write_atomic` cannot write: a directory, or one in a missing directory.
    Either is a SurgactError("cannot write <path>: <reason>")."""
    if path.is_dir():
        raise SurgactError(f"cannot write {path}: Is a directory")
    if not path.parent.is_dir():
        raise SurgactError(f"cannot write {path}: no directory {path.parent}")


def write_atomic(path: Path, data: bytes) -> None:
    """Replace `path` by `data` in one rename: readers see the old file or
    the new one, and a failed write leaves the old file and no temp file.
    The data reaches the disk before the rename, so a power loss cannot
    leave the new name on an empty file.

    An OSError becomes SurgactError("cannot write <path>: <reason>"), which
    names `path`, not the temp file."""
    # opened by name, not by mkstemp, so the file gets the usual permissions
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise SurgactError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        # gone after the rename, or never made where the directory is missing
        with contextlib.suppress(OSError):
            tmp.unlink()
