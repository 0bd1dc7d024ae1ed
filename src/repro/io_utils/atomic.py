"""Crash-safe file replacement: write temp → fsync → replace → fsync dir.

Every durable artifact in the repository (models, allocations,
experiment checkpoints, journal snapshots, reports) must reach disk through
this module.  A plain ``Path.write_text`` truncates the destination
before writing, so a crash mid-write leaves a torn file that a reader
cannot distinguish from tampering; the sequence here guarantees that a
reader sees either the complete old contents or the complete new
contents, never a mixture:

1. write the payload to a same-directory temp file (same filesystem,
   so the final rename is atomic);
2. flush and ``os.fsync`` the temp file — the *data* is durable;
3. ``os.replace`` over the destination — the swap is atomic on POSIX
   and Windows;
4. ``os.fsync`` the parent directory — the *rename* is durable (on
   POSIX the directory entry lives in the directory's own blocks; a
   crash before this step can resurrect the old file name).

Step 4 is best-effort: directories cannot be opened for fsync on some
platforms (e.g. Windows), and the data itself is already safe after
step 2, so ``OSError`` there is swallowed.

The lint rule RPR014 (:mod:`repro.quality.rules`) enforces use of this
module: direct ``open(..., "w")`` / ``json.dump`` / ``Path.write_text``
calls outside the sanctioned writers are flagged.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_dir",
]


def fsync_dir(path: str | Path) -> None:
    """Best-effort fsync of a directory (durability of renames).

    Silently does nothing where directories cannot be opened for
    fsync; the caller's data is already durable at that point.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-specific
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Atomically and durably replace ``path`` with ``data``.

    The temp file is fsync'd before the replace and the parent directory
    after it, so the new contents survive a crash or power loss.
    """
    target = Path(path)
    tmp = target.parent / (target.name + ".tmp")
    fd = os.open(
        os.fspath(tmp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fsync_dir(target.parent)


def atomic_write_text(
    path: str | Path, text: str, *, encoding: str = "utf-8"
) -> None:
    """Atomically replace ``path`` with ``text`` (see
    :func:`atomic_write_bytes`)."""
    atomic_write_bytes(path, text.encode(encoding))
