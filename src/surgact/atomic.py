"""Atomic file replacement, shared by reports, CLI outputs and checkpoints."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

from .errors import IoFailure


def write_atomic(path: Path, data: bytes) -> None:
    """Replace `path` by `data` in one rename: readers see the old file or
    the new one, and a failed write leaves the old file and no temp file.
    The data reaches the disk before the rename, so a power loss cannot
    leave the new name on an empty file.

    An OSError becomes IoFailure("cannot write <path>: <reason>"), which
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
        raise IoFailure(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        # gone after the rename, or never made where the directory is missing
        with contextlib.suppress(OSError):
            tmp.unlink()
