"""JSON persistence for models and allocations.

:mod:`repro.io_utils.atomic` is the sanctioned durable-write layer
(write temp → fsync → ``os.replace`` → fsync dir); every persistent
artifact in the repository goes through it (enforced by lint rule
RPR014).  :mod:`repro.io_utils.checkpoint` fingerprints the
configurations that resumable state is bound to.

The DAG serializers load on first access: they need :mod:`repro.dag`,
which imports networkx and scipy.
"""

from typing import Any as _Any

from .. import _lazy
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

_LAZY = {
    "dag_system_from_dict": ".dag_serialize",
    "dag_system_to_dict": ".dag_serialize",
    "load_dag_system": ".dag_serialize",
    "save_dag_system": ".dag_serialize",
}

__all__ = [
    "allocation_from_dict",
    "allocation_to_dict",
    "atomic_write_bytes",
    "atomic_write_text",
    "fingerprint_payload",
    "fsync_dir",
    "dag_system_from_dict",
    "dag_system_to_dict",
    "load_dag_system",
    "save_dag_system",
    "load_allocation",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "save_allocation",
    "save_model",
]


def __getattr__(name: str) -> _Any:
    return _lazy.load(__name__, _LAZY, name)


def __dir__() -> list[str]:
    return _lazy.names(globals(), _LAZY)
