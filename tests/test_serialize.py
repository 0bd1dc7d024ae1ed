"""Unit tests for JSON serialization (repro.io_utils.serialize)."""

import json

import numpy as np
import pytest

from repro.core import Allocation, ModelError
from repro.io_utils import (
    allocation_from_dict,
    allocation_to_dict,
    load_allocation,
    load_model,
    model_from_dict,
    model_to_dict,
    save_allocation,
    save_model,
)
from repro.workload import SCENARIO_1, generate_model


@pytest.fixture
def model():
    return generate_model(
        SCENARIO_1.scaled(n_strings=5, n_machines=3), seed=77
    )


class TestModelRoundTrip:
    def test_dict_round_trip_exact(self, model):
        restored = model_from_dict(model_to_dict(model))
        assert restored.network == model.network
        for a, b in zip(restored.strings, model.strings):
            assert a == b
        assert [m.name for m in restored.machines] == [
            m.name for m in model.machines
        ]

    def test_json_round_trip_exact(self, model):
        """Through an actual JSON string — float repr must round-trip."""
        text = json.dumps(model_to_dict(model))
        restored = model_from_dict(json.loads(text))
        np.testing.assert_array_equal(
            restored.network.bandwidth, model.network.bandwidth
        )
        np.testing.assert_array_equal(
            restored.strings[0].comp_times, model.strings[0].comp_times
        )

    def test_infinite_bandwidth_encoded_as_null(self, model):
        data = model_to_dict(model)
        assert data["network"]["bandwidth"][0][0] is None

    def test_file_round_trip(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        assert restored.network == model.network
        assert restored.strings == model.strings

    def test_wrong_kind_rejected(self, model):
        data = model_to_dict(model)
        data["kind"] = "allocation"
        with pytest.raises(ModelError):
            model_from_dict(data)

    def test_wrong_schema_rejected(self, model):
        data = model_to_dict(model)
        data["schema"] = "other/v9"
        with pytest.raises(ModelError):
            model_from_dict(data)


class TestAllocationRoundTrip:
    def test_dict_round_trip(self, model):
        alloc = Allocation(model, {0: [0, 1, 2][: model.strings[0].n_apps]})
        restored = allocation_from_dict(allocation_to_dict(alloc), model)
        assert restored == alloc

    def test_file_round_trip(self, model, tmp_path):
        assignments = {
            s.string_id: [s.string_id % 3] * s.n_apps
            for s in model.strings[:3]
        }
        alloc = Allocation(model, assignments)
        path = tmp_path / "alloc.json"
        save_allocation(alloc, path)
        assert load_allocation(path, model) == alloc

    def test_empty_allocation(self, model, tmp_path):
        alloc = Allocation.empty(model)
        path = tmp_path / "empty.json"
        save_allocation(alloc, path)
        assert load_allocation(path, model) == alloc

    def test_kind_mismatch_rejected(self, model):
        alloc = Allocation.empty(model)
        data = allocation_to_dict(alloc)
        data["kind"] = "system-model"
        with pytest.raises(ModelError):
            allocation_from_dict(data, model)

    def test_string_keys_decoded_to_ints(self, model):
        alloc = Allocation(model, {2: [0] * model.strings[2].n_apps})
        data = json.loads(json.dumps(allocation_to_dict(alloc)))
        restored = allocation_from_dict(data, model)
        assert 2 in restored

    @pytest.mark.parametrize(
        "key, machine",
        [
            ("0", 1.9),     # float index: was truncated to 1
            ("0", "2"),     # numeric string: was coerced to 2
            ("0", True),    # bool: was coerced to 1
            ("0", None),
            ("0.5", 0),     # non-integer string id: was a bare ValueError
            ("-1", 0),
            ("x", 0),
        ],
    )
    def test_bad_indices_rejected(self, model, key, machine):
        data = allocation_to_dict(Allocation.empty(model))
        n = model.strings[0].n_apps
        data["assignments"] = {key: [0] * (n - 1) + [machine]}
        with pytest.raises(ModelError):
            allocation_from_dict(data, model)

    def test_non_list_assignment_rejected(self, model):
        data = allocation_to_dict(Allocation.empty(model))
        for bad in (0, "0", {"0": 0}):
            data["assignments"] = {"0": bad}
            with pytest.raises(ModelError):
                allocation_from_dict(data, model)
        data["assignments"] = [[0]]
        with pytest.raises(ModelError):
            allocation_from_dict(data, model)

    def test_load_allocation_rejects_float_index(self, model, tmp_path):
        alloc = Allocation(model, {0: [0] * model.strings[0].n_apps})
        path = tmp_path / "alloc.json"
        save_allocation(alloc, path)
        data = json.loads(path.read_text())
        data["assignments"]["0"][0] = 0.0
        path.write_text(json.dumps(data))
        with pytest.raises(ModelError):
            load_allocation(path, model)
