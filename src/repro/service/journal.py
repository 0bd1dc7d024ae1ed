"""Write-ahead event journal for the durable mission controller.

The controller state machine is deterministic (PR 3's resume contract),
so durability reduces to never losing an *input*: before an event is
applied it is appended to an append-only log and fsync'd — the **commit
point**.  After the apply, an *outcome* record with the committed
post-state is appended.  Recovery replays the log tail on top of the
last snapshot; a torn tail (crash mid-append) is detected by framing
and truncated, never trusted.

Journal layout (one directory per controller)::

    meta.json       {"schema", "fingerprint"}   — config guard
    snapshot.json   {"schema", "fingerprint", "seq", "state"}
    wal.log         MAGIC || frame*             — the write-ahead log

Each frame is ``<length:u32le> <crc32:u32le> <payload>`` where payload
is one UTF-8 JSON record carrying a monotonically increasing ``"seq"``.
The framing makes every torn-write mode detectable at scan time:

* a partial *header* (< 8 bytes left) — torn;
* a length pointing past end-of-file — torn;
* a CRC mismatch (partial or bit-flipped payload) — torn/corrupt;
* a *duplicated* frame (a retried append whose first attempt landed) —
  valid, deduped by ``seq``.

Scanning stops at the first bad frame: everything before it is
committed, everything at and after it is discarded (an append-only log
cannot have valid data after a torn frame written by a single writer).
The writer *repairs* a failed append by truncating back to the last
committed offset before retrying, so a transient storage fault
(:mod:`repro.service.diskchaos`) costs time, never results; a fault
that persists past the retry budget raises :class:`JournalError`.

Snapshot+compaction: the full controller state is written to
``snapshot.json`` atomically and durably *first*
(:mod:`repro.io_utils.atomic`), then the WAL is atomically reset to
empty.  A crash between the two steps leaves WAL records at or below
the snapshot's ``seq``, which recovery skips (the same dedupe that
absorbs duplicated tail frames).
"""

from __future__ import annotations

import errno
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Callable, Mapping

from ..core.exceptions import ModelError
from ..io_utils.atomic import atomic_write_bytes, atomic_write_text, fsync_dir
from .diskchaos import DiskChaosPolicy, DiskFault

__all__ = [
    "JOURNAL_MAGIC",
    "JournalError",
    "JournalHooks",
    "JournalScan",
    "JournalStore",
    "encode_frame",
    "scan_journal",
]

#: file magic: identifies (and versions) the WAL format
JOURNAL_MAGIC = b"RPROWAL1"

_FRAME_HEADER = struct.Struct("<II")

#: sanity bound on a single record; a "length" above this is treated as
#: tail corruption rather than an attempt to allocate gigabytes
_MAX_RECORD_BYTES = 16 * 1024 * 1024

_META_SCHEMA = "repro/journal-meta-v1"
_SNAPSHOT_SCHEMA = "repro/journal-snapshot-v1"


class JournalError(ModelError):
    """A journal invariant failed (corrupt store, exhausted retries)."""


def encode_frame(record: Mapping[str, Any]) -> bytes:
    """Frame one JSON record: ``<len:u32le> <crc32:u32le> <payload>``."""
    payload = json.dumps(record, sort_keys=True).encode("utf-8")
    if len(payload) > _MAX_RECORD_BYTES:
        raise JournalError(
            f"journal record of {len(payload)} bytes exceeds the "
            f"{_MAX_RECORD_BYTES}-byte frame bound"
        )
    header = _FRAME_HEADER.pack(len(payload), zlib.crc32(payload))
    return header + payload


@dataclass
class JournalScan:
    """Result of scanning a WAL file (tail-validated)."""

    #: committed records in order, duplicates removed
    records: list[dict[str, Any]] = field(default_factory=list)
    #: prefix of the file (including magic) that is valid
    valid_bytes: int = len(JOURNAL_MAGIC)
    #: bytes past the last valid frame (torn/corrupt tail)
    truncated_bytes: int = 0
    #: 1 when a torn/corrupt tail was found (frames past the first bad
    #: one are unrecoverable, so they are not counted individually)
    truncated_frames: int = 0
    #: valid frames skipped because their seq was not newer
    duplicates_skipped: int = 0
    #: false when the file does not even start with the magic
    header_ok: bool = True


def scan_journal(path: str | Path) -> JournalScan:
    """Scan a WAL file, stopping at the first bad frame.

    Never raises on corruption: a journal is untrusted input by
    definition (the process died while writing it).  The scan reports
    what is committed and how many bytes must be truncated.
    """
    raw = Path(path).read_bytes()
    scan = JournalScan()
    if len(raw) < len(JOURNAL_MAGIC) or not raw.startswith(JOURNAL_MAGIC):
        scan.header_ok = False
        scan.valid_bytes = 0
        scan.truncated_bytes = len(raw)
        scan.truncated_frames = 1 if raw else 0
        return scan
    offset = len(JOURNAL_MAGIC)
    # Dedupe key: (seq, rank) where an "event" record (rank 0) precedes
    # the "outcome" record (rank 1) of the same seq.  A duplicated
    # frame (retry ghost) repeats a key and is skipped; fresh frames
    # are strictly increasing.
    last_key = (-1, 1)
    while offset < len(raw):
        if offset + _FRAME_HEADER.size > len(raw):
            break  # torn header
        length, crc = _FRAME_HEADER.unpack_from(raw, offset)
        start = offset + _FRAME_HEADER.size
        if length > _MAX_RECORD_BYTES or start + length > len(raw):
            break  # torn payload / absurd length
        payload = raw[start : start + length]
        if zlib.crc32(payload) != crc:
            break  # partial or bit-flipped payload
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break  # CRC collision on garbage; treat as torn
        if not isinstance(record, dict) or "seq" not in record:
            break
        seq = record["seq"]
        if not isinstance(seq, int):
            break
        offset = start + length
        key = (seq, 0 if record.get("type") == "event" else 1)
        if key <= last_key:
            scan.duplicates_skipped += 1
            continue
        last_key = key
        scan.records.append(record)
    scan.valid_bytes = offset
    scan.truncated_bytes = len(raw) - offset
    scan.truncated_frames = 1 if scan.truncated_bytes else 0
    return scan


@dataclass(frozen=True)
class JournalHooks:
    """Crash-point hooks for the kill-at-any-point recovery soak.

    Each hook receives the record about to be (or just) appended.
    ``mid_append`` fires after roughly half the frame's bytes have been
    flushed — a SIGKILL there leaves a provably torn tail.
    """

    before_append: Callable[[Mapping[str, Any]], None] | None = None
    mid_append: Callable[[Mapping[str, Any]], None] | None = None
    after_append: Callable[[Mapping[str, Any]], None] | None = None


class JournalStore:
    """One controller's durable state: meta + snapshot + WAL.

    Opening the store validates the configuration ``fingerprint``
    against ``meta.json`` (mixing journals across configurations would
    poison recovery, exactly like checkpoint reuse), loads the last
    snapshot if any, scans the WAL tail, and physically repairs any
    torn tail by truncating it.  The scan results stay available on
    :attr:`snapshot_seq` / :attr:`snapshot_state` / :attr:`scan` for
    the recovery pass.

    Parameters
    ----------
    path:
        Journal directory (created if missing).
    fingerprint:
        Hash of everything defining the controller configuration.
    chaos:
        Optional :class:`~repro.service.diskchaos.DiskChaosPolicy`
        injecting seeded storage faults into appends.
    hooks:
        Optional :class:`JournalHooks` crash points (tests only).
    fsync:
        Fsync each append (the commit point).  Disable only for tests
        that do not crash.
    max_append_attempts:
        Retry budget per append before :class:`JournalError`.
    extra:
        Small JSON-compatible mapping persisted in ``meta.json`` when
        the store is *created* (e.g. the controller's derived base
        seed).  On reopen the persisted values win and are exposed on
        :attr:`meta_extra`.
    """

    def __init__(
        self,
        path: str | Path,
        fingerprint: str,
        *,
        chaos: DiskChaosPolicy | None = None,
        hooks: JournalHooks | None = None,
        fsync: bool = True,
        max_append_attempts: int = 4,
        extra: Mapping[str, Any] | None = None,
    ) -> None:
        if max_append_attempts < 1:
            raise JournalError("max_append_attempts must be >= 1")
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._chaos = chaos
        self._hooks = hooks
        self._fsync = fsync
        self._max_attempts = max_append_attempts
        self.stats: dict[str, int] = {
            "appends": 0,
            "append_retries": 0,
            "injected_torn": 0,
            "injected_fsync": 0,
            "injected_enospc": 0,
            "injected_duplicate": 0,
            "repaired_tail_bytes": 0,
            "snapshots": 0,
        }

        self.path.mkdir(parents=True, exist_ok=True)
        self.meta_extra: dict[str, Any] = {}
        self._check_meta(extra)
        self.snapshot_seq, self.snapshot_state = self._read_snapshot()
        self.scan = self._open_wal()
        #: chaos decisions are keyed by this monotone append counter
        self._index = len(self.scan.records)

    # -- store layout ----------------------------------------------------------

    @property
    def meta_path(self) -> Path:
        return self.path / "meta.json"

    @property
    def snapshot_path(self) -> Path:
        return self.path / "snapshot.json"

    @property
    def wal_path(self) -> Path:
        return self.path / "wal.log"

    @property
    def tail_records(self) -> list[dict[str, Any]]:
        """Committed WAL records found when the store was opened."""
        return list(self.scan.records)

    # -- open / validate -------------------------------------------------------

    def _check_meta(self, extra: Mapping[str, Any] | None) -> None:
        if self.meta_path.exists():
            try:
                meta = json.loads(self.meta_path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise JournalError(
                    f"cannot read journal meta {self.meta_path}: {exc}"
                ) from exc
            if meta.get("schema") != _META_SCHEMA:
                raise JournalError(
                    f"{self.meta_path} is not a {_META_SCHEMA} document "
                    f"(schema={meta.get('schema')!r})"
                )
            if meta.get("fingerprint") != self.fingerprint:
                raise JournalError(
                    f"journal {self.path} was written by a different "
                    "controller configuration; delete it (or point the "
                    "journal elsewhere) to start over"
                )
            persisted = meta.get("extra", {})
            if not isinstance(persisted, dict):
                raise JournalError(
                    f"malformed journal meta {self.meta_path}"
                )
            self.meta_extra = persisted
            return
        self.meta_extra = dict(extra or {})
        atomic_write_text(
            self.meta_path,
            json.dumps(
                {
                    "schema": _META_SCHEMA,
                    "fingerprint": self.fingerprint,
                    "extra": self.meta_extra,
                }
            ),
        )

    def _read_snapshot(self) -> tuple[int, dict[str, Any] | None]:
        if not self.snapshot_path.exists():
            return 0, None
        try:
            data = json.loads(self.snapshot_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            # snapshots are written atomically; a corrupt one is not a
            # crash artifact but store damage — refuse loudly
            raise JournalError(
                f"corrupt journal snapshot {self.snapshot_path}: {exc}"
            ) from exc
        if data.get("schema") != _SNAPSHOT_SCHEMA:
            raise JournalError(
                f"{self.snapshot_path} is not a {_SNAPSHOT_SCHEMA} "
                f"document (schema={data.get('schema')!r})"
            )
        if data.get("fingerprint") != self.fingerprint:
            raise JournalError(
                f"snapshot {self.snapshot_path} was written by a "
                "different controller configuration"
            )
        seq = data.get("seq")
        state = data.get("state")
        if not isinstance(seq, int) or not isinstance(state, dict):
            raise JournalError(
                f"malformed journal snapshot {self.snapshot_path}"
            )
        return seq, state

    def _open_wal(self) -> JournalScan:
        if not self.wal_path.exists():
            atomic_write_bytes(self.wal_path, JOURNAL_MAGIC)
            scan = JournalScan()
        else:
            scan = scan_journal(self.wal_path)
            if not scan.header_ok:
                raise JournalError(
                    f"{self.wal_path} does not start with the journal "
                    "magic; refusing to treat it as a WAL"
                )
        self._fh: IO[bytes] = open(self.wal_path, "r+b")
        self._fh.seek(0, os.SEEK_END)
        if scan.truncated_bytes:
            # torn tail: physically truncate — never trust bytes past
            # the last committed frame
            self.stats["repaired_tail_bytes"] += scan.truncated_bytes
            self._fh.truncate(scan.valid_bytes)
            self._fh.seek(scan.valid_bytes)
            if self._fsync:
                os.fsync(self._fh.fileno())
        self._size = scan.valid_bytes
        return scan

    # -- appends ---------------------------------------------------------------

    def append(self, record: Mapping[str, Any]) -> None:
        """Append one record and make it durable (the commit point).

        Retries transient storage faults after repairing the tail; a
        record for which this method returns is committed — it will be
        seen by every future recovery.
        """
        frame = encode_frame(record)
        index = self._index
        last_error: OSError | None = None
        for attempt in range(self._max_attempts):
            fault = (
                self._chaos.decide(index, attempt)
                if self._chaos is not None
                else DiskFault(kind=None)
            )
            try:
                self._write_frame(frame, record, fault)
            except OSError as exc:
                last_error = exc
                self.stats["append_retries"] += 1
                self._repair_tail()
                continue
            self._index += 1
            self.stats["appends"] += 1
            return
        raise JournalError(
            f"journal append failed after {self._max_attempts} "
            f"attempts: {last_error}"
        )

    def _write_frame(
        self,
        frame: bytes,
        record: Mapping[str, Any],
        fault: DiskFault,
    ) -> None:
        hooks = self._hooks
        if hooks is not None and hooks.before_append is not None:
            hooks.before_append(record)
        if fault.kind == "enospc":
            self.stats["injected_enospc"] += 1
            raise OSError(errno.ENOSPC, "injected ENOSPC")
        half = max(1, len(frame) // 2)
        self._fh.write(frame[:half])
        if hooks is not None and hooks.mid_append is not None:
            self._fh.flush()
            hooks.mid_append(record)
        if fault.kind == "torn":
            # the prefix reached the OS; the rest never will
            self._fh.flush()
            self.stats["injected_torn"] += 1
            raise OSError("injected torn append")
        self._fh.write(frame[half:])
        self._fh.flush()
        if fault.kind == "fsync":
            self.stats["injected_fsync"] += 1
            raise OSError("injected fsync failure")
        if self._fsync:
            os.fsync(self._fh.fileno())
        self._size += len(frame)
        if fault.kind == "duplicate":
            # a retried write whose first attempt actually landed:
            # both copies are durable; readers dedupe by seq
            self._fh.write(frame)
            self._fh.flush()
            if self._fsync:
                os.fsync(self._fh.fileno())
            self._size += len(frame)
            self.stats["injected_duplicate"] += 1
        if hooks is not None and hooks.after_append is not None:
            hooks.after_append(record)

    def _repair_tail(self) -> None:
        """Truncate back to the last committed offset after a failed
        append, so a retry never leaves a valid-looking frame stranded
        behind garbage."""
        self._fh.flush()
        self._fh.truncate(self._size)
        self._fh.seek(self._size)

    # -- snapshot + compaction -------------------------------------------------

    def write_snapshot(self, seq: int, state: Mapping[str, Any]) -> None:
        """Persist a full-state snapshot, then compact the WAL.

        The snapshot is durable *before* the WAL reset; a crash in the
        window between the two leaves stale WAL records at or below
        ``seq``, which recovery skips by sequence number.
        """
        self._write_snapshot_document(seq, state)
        self._reset_wal()

    def _write_snapshot_document(
        self, seq: int, state: Mapping[str, Any]
    ) -> None:
        atomic_write_text(
            self.snapshot_path,
            json.dumps(
                {
                    "schema": _SNAPSHOT_SCHEMA,
                    "fingerprint": self.fingerprint,
                    "seq": seq,
                    "state": dict(state),
                },
                sort_keys=True,
            ),
        )
        self.snapshot_seq = seq
        self.snapshot_state = dict(state)
        self.stats["snapshots"] += 1

    def _reset_wal(self) -> None:
        self._fh.close()
        atomic_write_bytes(self.wal_path, JOURNAL_MAGIC)
        self._fh = open(self.wal_path, "r+b")
        self._fh.seek(0, os.SEEK_END)
        self._size = len(JOURNAL_MAGIC)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Flush and close the WAL handle (idempotent)."""
        if not self._fh.closed:
            self._fh.flush()
            if self._fsync:
                os.fsync(self._fh.fileno())
                fsync_dir(self.path)
            self._fh.close()

    def __enter__(self) -> "JournalStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
