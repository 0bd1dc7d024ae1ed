"""Default-backend dispatch of :class:`~repro.core.AllocationState`.

Every state runs the record kernel; the process-wide backend setting
only chooses between ``"record"`` and ``"sanitize"``, and an
``AllocationState`` is a :class:`~repro.core.RecordAllocationState`
under either value.
"""

import pytest

from repro.core import STATE_BACKENDS, AllocationState, RecordAllocationState
from repro.core.state import (
    get_default_state_backend,
    set_default_state_backend,
)


class TestBackendDispatch:
    def test_default_backend_valid(self, small_model):
        assert get_default_state_backend() in STATE_BACKENDS
        assert type(AllocationState(small_model)) is RecordAllocationState

    def test_unknown_backend_rejected(self):
        previous = get_default_state_backend()
        for retired in ("simd", "soa", "jit", "auto"):
            with pytest.raises(ValueError):
                set_default_state_backend(retired)
        assert get_default_state_backend() == previous

    def test_set_default_round_trip(self, small_model):
        previous = get_default_state_backend()
        try:
            for name in STATE_BACKENDS:
                set_default_state_backend(name)
                assert get_default_state_backend() == name
                assert (
                    type(AllocationState(small_model))
                    is RecordAllocationState
                )
        finally:
            set_default_state_backend(previous)
        assert get_default_state_backend() == previous
