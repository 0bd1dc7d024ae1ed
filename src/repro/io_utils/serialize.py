"""JSON serialization of models, allocations, and heuristic results.

Workloads are sampled, so persisting instances matters for exact
cross-tool comparisons (e.g. handing a generated instance to an external
solver, or archiving the exact workloads behind a figure).  The format
is plain JSON with explicit schema-version tagging; floats round-trip
exactly via Python's repr-based JSON encoding.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from ..core.allocation import Allocation
from ..core.exceptions import ModelError
from ..core.model import AppString, Machine, Network, SystemModel
from .atomic import atomic_write_text

__all__ = [
    "model_to_dict",
    "model_from_dict",
    "allocation_to_dict",
    "allocation_from_dict",
    "save_model",
    "load_model",
    "save_allocation",
    "load_allocation",
]

_SCHEMA = "repro/v1"


def _bandwidth_to_json(bw: np.ndarray) -> list[list[float | None]]:
    """Encode the bandwidth matrix; ``inf`` becomes ``None`` (JSON-safe)."""
    return [
        [None if np.isinf(v) else float(v) for v in row] for row in bw
    ]


def _bandwidth_from_json(data: list[list[float | None]]) -> np.ndarray:
    return np.array(
        [[np.inf if v is None else float(v) for v in row] for row in data]
    )


def model_to_dict(model: SystemModel) -> dict[str, Any]:
    """Encode a :class:`SystemModel` as plain JSON-compatible data."""
    return {
        "schema": _SCHEMA,
        "kind": "system-model",
        "network": {"bandwidth": _bandwidth_to_json(model.network.bandwidth)},
        "machines": [
            {"index": m.index, "name": m.name} for m in model.machines
        ],
        "strings": [
            {
                "string_id": s.string_id,
                "name": s.name,
                "worth": s.worth,
                "period": s.period,
                "max_latency": s.max_latency,
                "comp_times": s.comp_times.tolist(),
                "cpu_utils": s.cpu_utils.tolist(),
                "output_sizes": s.output_sizes.tolist(),
            }
            for s in model.strings
        ],
    }


def model_from_dict(data: dict[str, Any]) -> SystemModel:
    """Decode :func:`model_to_dict` output."""
    if data.get("schema") != _SCHEMA or data.get("kind") != "system-model":
        raise ModelError(
            f"not a {_SCHEMA} system-model document "
            f"(schema={data.get('schema')!r}, kind={data.get('kind')!r})"
        )
    network = Network(_bandwidth_from_json(data["network"]["bandwidth"]))
    machines = [
        Machine(index=m["index"], name=m.get("name", ""))
        for m in data["machines"]
    ]
    strings = [
        AppString(
            string_id=s["string_id"],
            worth=s["worth"],
            period=s["period"],
            max_latency=s["max_latency"],
            comp_times=np.array(s["comp_times"], dtype=float),
            cpu_utils=np.array(s["cpu_utils"], dtype=float),
            output_sizes=np.array(s["output_sizes"], dtype=float),
            name=s.get("name", ""),
        )
        for s in data["strings"]
    ]
    return SystemModel(network, strings, machines)


def allocation_to_dict(allocation: Allocation) -> dict[str, Any]:
    """Encode an :class:`Allocation` (assignments only, not the model)."""
    return {
        "schema": _SCHEMA,
        "kind": "allocation",
        "assignments": {
            str(k): [int(j) for j in allocation.machines_for(k)]
            for k in allocation
        },
    }


def allocation_from_dict(
    data: dict[str, Any], model: SystemModel
) -> Allocation:
    """Decode :func:`allocation_to_dict` output against ``model``.

    This is the boundary for outside input (``load_allocation``,
    ``repro evaluate``): a string id that is not a decimal integer, or a
    machine index that is not a JSON integer (``1.9``, ``"2"``,
    ``true``), raises :class:`ModelError` instead of being coerced.
    Range and length checks stay with :class:`Allocation`.
    """
    if data.get("schema") != _SCHEMA or data.get("kind") != "allocation":
        raise ModelError(
            f"not a {_SCHEMA} allocation document "
            f"(schema={data.get('schema')!r}, kind={data.get('kind')!r})"
        )
    assignments = data.get("assignments")
    if not isinstance(assignments, dict):
        raise ModelError("allocation document has no assignments object")
    decoded: dict[int, list[int]] = {}
    for key, machines in assignments.items():
        # JSON object keys are strings; accept only plain decimal ids.
        if not (isinstance(key, str) and key.isascii() and key.isdigit()):
            raise ModelError(f"string id {key!r} is not a decimal integer")
        if not isinstance(machines, list) or not all(
            type(j) is int for j in machines
        ):
            raise ModelError(
                f"string {key}: machine indices {machines!r} are not "
                f"all integers"
            )
        decoded[int(key)] = machines
    return Allocation(model, decoded)


def save_model(model: SystemModel, path: str | Path) -> None:
    """Write a model to a JSON file."""
    atomic_write_text(path, json.dumps(model_to_dict(model)))


def load_model(path: str | Path) -> SystemModel:
    """Read a model from a JSON file."""
    return model_from_dict(json.loads(Path(path).read_text()))


def save_allocation(allocation: Allocation, path: str | Path) -> None:
    """Write an allocation to a JSON file."""
    atomic_write_text(path, json.dumps(allocation_to_dict(allocation)))


def load_allocation(path: str | Path, model: SystemModel) -> Allocation:
    """Read an allocation (bound to ``model``) from a JSON file."""
    return allocation_from_dict(json.loads(Path(path).read_text()), model)
