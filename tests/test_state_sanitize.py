"""The ``sanitize`` check: every batched lane against the scalar kernel.

Under ``REPRO_STATE_BACKEND=sanitize`` the PSG initial-population
evaluator re-projects each ordering through the scalar
``allocate_sequence`` and raises :class:`StateDivergenceError` on the
first field that differs.  These tests check that it is selected, that
it is silent when the kernels agree, and that a divergence *planted*
into one batched lane is caught.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import repro.core.state as state_mod
import repro.core.state_batch as state_batch
import repro.core.state_sanitize as state_sanitize
from repro.core import (
    STATE_BACKENDS,
    AllocationState,
    BatchEvaluator,
    Fitness,
    RecordAllocationState,
    SanitizeBatchEvaluator,
    StateDivergenceError,
)
from repro.core.state import (
    get_default_state_backend,
    set_default_state_backend,
)
from repro.heuristics.psg import _make_batch_evaluator
from repro.workload import SCENARIO_1, generate_model


def _model(n_strings=16, n_machines=4, seed=7):
    params = SCENARIO_1.scaled(n_strings=n_strings, n_machines=n_machines)
    return generate_model(params, seed=seed)


def _orderings(model, seed=17, n=12):
    rng = np.random.default_rng(seed)
    return [
        [int(x) for x in rng.permutation(model.n_strings)] for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


def test_sanitize_is_a_registered_backend():
    assert STATE_BACKENDS == ("record", "sanitize")


def test_set_default_state_backend_routes_to_sanitizer():
    model = _model()
    previous = get_default_state_backend()
    try:
        set_default_state_backend("sanitize")
        evaluator = _make_batch_evaluator(model, None)
        assert isinstance(evaluator, SanitizeBatchEvaluator)
        assert type(AllocationState(model)) is RecordAllocationState
        set_default_state_backend("record")
        assert type(_make_batch_evaluator(model, None)) is BatchEvaluator
    finally:
        set_default_state_backend(previous)
    with pytest.raises(ValueError):
        set_default_state_backend("soa")


def test_env_var_selects_sanitizer_in_fresh_process():
    code = (
        "from repro.core import RecordAllocationState, AllocationState\n"
        "from repro.core import SanitizeBatchEvaluator\n"
        "from repro.heuristics.psg import _make_batch_evaluator\n"
        "from repro.workload import SCENARIO_1, generate_model\n"
        "params = SCENARIO_1.scaled(n_strings=4, n_machines=2)\n"
        "model = generate_model(params, seed=1)\n"
        "ev = _make_batch_evaluator(model, None)\n"
        "assert isinstance(ev, SanitizeBatchEvaluator), type(ev)\n"
        "assert type(AllocationState(model)) is RecordAllocationState\n"
        "print('ok')\n"
    )
    env = dict(os.environ, REPRO_STATE_BACKEND="sanitize")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


@pytest.mark.parametrize("retired", ["soa", "jit", "auto"])
def test_retired_backend_values_warn_and_use_record(retired, monkeypatch):
    """The deleted kernels' names are unknown outside input now: they
    warn and fall back to the record kernel, like any other typo."""
    monkeypatch.setenv("REPRO_STATE_BACKEND", retired)
    with pytest.warns(RuntimeWarning, match=retired):
        assert state_mod._env_default_backend() == "record"
    assert type(AllocationState(_model())) is RecordAllocationState


# ---------------------------------------------------------------------------
# agreement is silent
# ---------------------------------------------------------------------------


def test_sanitize_evaluator_matches_plain_evaluator():
    model = _model()
    orderings = _orderings(model) + [[]]
    plain = BatchEvaluator(model)(orderings)
    checked = SanitizeBatchEvaluator(model)(orderings)
    assert checked == plain
    # the orderings exercise both completions and early failures
    outcomes = state_batch.project_batch(model, orderings)
    assert any(o.complete for o in outcomes)
    assert not all(o.complete for o in outcomes)


# ---------------------------------------------------------------------------
# planted divergence must be caught
# ---------------------------------------------------------------------------


def test_injected_worth_divergence_raises(monkeypatch):
    lane_fitness = state_batch.BatchSoaState.lane_fitness

    def planted(self, b):
        fit = lane_fitness(self, b)
        if b == 0:
            return Fitness(worth=fit.worth + 1.0, slackness=fit.slackness)
        return fit

    monkeypatch.setattr(state_batch.BatchSoaState, "lane_fitness", planted)
    model = _model()
    with pytest.raises(StateDivergenceError, match="fitness"):
        SanitizeBatchEvaluator(model)(_orderings(model))


def test_injected_worth_divergence_fails_snapshot(monkeypatch):
    """Worth drift in the scalar side's final state (what a snapshot of
    it would copy) is caught as well as drift in a batched lane."""
    import repro.heuristics.ordering as ordering

    allocate_sequence = ordering.allocate_sequence

    def planted(*args, **kwargs):
        outcome = allocate_sequence(*args, **kwargs)
        outcome.state._worth += 1.0
        return outcome

    monkeypatch.setattr(ordering, "allocate_sequence", planted)
    model = _model()
    with pytest.raises(StateDivergenceError, match="worth"):
        SanitizeBatchEvaluator(model)(_orderings(model))


def test_injected_membership_divergence_raises(monkeypatch):
    project_batch = state_sanitize.project_batch

    def planted(*args, **kwargs):
        outcomes = project_batch(*args, **kwargs)
        # silently drop the last mapped string from one lane only
        outcomes[0].mapped_ids = outcomes[0].mapped_ids[:-1]
        return outcomes

    monkeypatch.setattr(state_sanitize, "project_batch", planted)
    model = _model()
    with pytest.raises(StateDivergenceError, match="mapped ids"):
        SanitizeBatchEvaluator(model)(_orderings(model))


def test_injected_rejection_divergence_raises(monkeypatch):
    decode = state_batch._decode_rejection

    def planted(*args, **kwargs):
        rejection = decode(*args, **kwargs)
        # one ulp of drift in the reported value
        return dataclasses.replace(
            rejection, value=float(np.nextafter(rejection.value, np.inf))
        )

    monkeypatch.setattr(state_batch, "_decode_rejection", planted)
    model = _model()
    with pytest.raises(StateDivergenceError, match="rejection"):
        SanitizeBatchEvaluator(model)(_orderings(model))


def test_divergence_error_is_an_assertion_error():
    # so pytest, `python -O`-aware harnesses, and plain assert-based
    # gates all treat a divergence as a test failure
    assert issubclass(StateDivergenceError, AssertionError)
