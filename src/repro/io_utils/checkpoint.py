"""Fingerprint-guarded JSON record logs for long-running computations.

A ``paper``-scale experiment (or a long service soak) takes hours in
pure Python; a killed process should not forfeit the finished work.
:class:`JsonCheckpoint` is a generic JSON record log.  Every flush is an
atomic *durable* replace through
:func:`repro.io_utils.atomic.atomic_write_text` (temp file → fsync →
``os.replace`` → fsync dir), so neither a ``kill -9`` mid-write nor a
power loss right after a flush can corrupt or lose the document.  The
checkpoint stores a SHA-256 fingerprint of the producing configuration
(:func:`fingerprint_payload`); resuming against a checkpoint written by
a *different* configuration raises
:class:`~repro.core.exceptions.ModelError` — silently mixing records
from two protocols would poison the results.

The experiment runner (:class:`repro.experiments.runner.ExperimentCheckpoint`)
and the soak runner (:mod:`repro.service.soak`) build their typed
specializations on this layer; the durable mission controller reuses
:func:`fingerprint_payload` for its journal metadata.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from ..core.exceptions import ModelError
from .atomic import atomic_write_text

__all__ = ["JsonCheckpoint", "fingerprint_payload"]


def fingerprint_payload(payload: Any) -> str:
    """SHA-256 of a JSON-serializable payload (key-order independent)."""
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class JsonCheckpoint:
    """Generic fingerprint-guarded JSON record log with atomic flushes.

    Records are plain JSON-compatible dicts; specializations convert to
    and from their typed record classes at the edges.  Use :meth:`load`
    to resume (it validates schema and fingerprint), construct directly
    to start fresh, and :meth:`add` to append-and-flush.  A full rewrite
    per record is cheap next to the work each record represents.
    """

    def __init__(
        self,
        path: str | Path,
        fingerprint: str,
        schema: str,
        records: list[dict[str, Any]] | None = None,
        what: str = "checkpoint",
    ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.schema = schema
        self.what = what
        self.records: list[dict[str, Any]] = list(records or [])

    @classmethod
    def load(
        cls,
        path: str | Path,
        fingerprint: str,
        schema: str,
        what: str = "checkpoint",
    ) -> "JsonCheckpoint":
        """Load an existing checkpoint, or start a fresh (empty) one.

        Raises :class:`ModelError` when the file exists but was written
        by a different configuration or is not a ``schema`` document.
        """
        path = Path(path)
        if not path.exists():
            return cls(path, fingerprint, schema, what=what)
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ModelError(
                f"cannot read {what} {path}: {exc}"
            ) from exc
        if data.get("schema") != schema:
            raise ModelError(
                f"{path} is not a {schema} document "
                f"(schema={data.get('schema')!r})"
            )
        if data.get("fingerprint") != fingerprint:
            raise ModelError(
                f"checkpoint {path} was written by a different {what} "
                "configuration; delete it (or point --checkpoint "
                "elsewhere) to start over"
            )
        records = list(data.get("records", []))
        return cls(path, fingerprint, schema, records, what=what)

    def add(self, record: dict[str, Any]) -> None:
        """Record one completed unit of work and flush atomically."""
        self.records.append(record)
        self.flush()

    def flush(self) -> None:
        payload = {
            "schema": self.schema,
            "fingerprint": self.fingerprint,
            "records": self.records,
        }
        atomic_write_text(self.path, json.dumps(payload))
