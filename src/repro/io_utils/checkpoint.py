"""Configuration fingerprints for resumable computations.

A resumable computation stores a SHA-256 fingerprint of the
configuration that produced it (:func:`fingerprint_payload`); resuming
against state written by a *different* configuration must fail —
silently mixing records from two protocols would poison the results.
The experiment checkpoint
(:class:`repro.experiments.runner.ExperimentCheckpoint`), the soak and
recovery-soak configurations and the durable mission controller's
journal metadata all use it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = ["fingerprint_payload"]


def fingerprint_payload(payload: Any) -> str:
    """SHA-256 of a JSON-serializable payload (key-order independent)."""
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
