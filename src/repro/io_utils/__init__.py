"""JSON persistence for models and allocations.

:mod:`repro.io_utils.atomic` is the sanctioned durable-write layer
(write temp → fsync → ``os.replace`` → fsync dir); every persistent
artifact in the repository goes through it (enforced by lint rule
RPR014).  :mod:`repro.io_utils.checkpoint` fingerprints the
configurations that resumable state is bound to.
"""

from .atomic import atomic_write_bytes, atomic_write_text, fsync_dir
from .checkpoint import fingerprint_payload
from .serialize import (
    allocation_from_dict,
    allocation_to_dict,
    load_allocation,
    load_model,
    model_from_dict,
    model_to_dict,
    save_allocation,
    save_model,
)

__all__ = [
    "allocation_from_dict",
    "allocation_to_dict",
    "atomic_write_bytes",
    "atomic_write_text",
    "fingerprint_payload",
    "fsync_dir",
    "load_allocation",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "save_allocation",
    "save_model",
]

