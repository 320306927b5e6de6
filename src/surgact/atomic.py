"""Atomic file replacement, shared by reports, CLI outputs and checkpoints."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: Path, data: bytes) -> None:
    """Replace `path` by `data` in one rename: readers see the old file or
    the new one, and a failed write leaves the old file and no temp file.
    The data reaches the disk before the rename, so a power loss cannot
    leave the new name on an empty file."""
    # opened by name, not by mkstemp, so the file gets the usual permissions
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
