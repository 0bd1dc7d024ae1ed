"""The atomic-write helper: all-or-nothing replacement, tmp hygiene."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.exceptions import ModelError
from repro.io_utils.atomic import (
    atomic_write_bytes,
    atomic_write_text,
    fsync_dir,
)
from repro.experiments.runner import ExperimentCheckpoint, RunRecord


def test_atomic_write_creates_and_replaces(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_text(target, "first")
    assert target.read_text() == "first"
    atomic_write_text(target, "second")
    assert target.read_text() == "second"
    # no temp droppings left behind
    assert os.listdir(tmp_path) == ["out.json"]


def test_atomic_write_bytes_roundtrip(tmp_path):
    target = tmp_path / "blob.bin"
    payload = bytes(range(256))
    atomic_write_bytes(target, payload)
    assert target.read_bytes() == payload


def test_failed_write_leaves_old_contents_and_no_tmp(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    atomic_write_text(target, "committed")

    real_replace = os.replace

    def boom(src, dst):
        raise OSError("simulated crash at the replace boundary")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        atomic_write_text(target, "torn")
    monkeypatch.setattr(os, "replace", real_replace)
    # the old contents survive and the temp file was cleaned up
    assert target.read_text() == "committed"
    assert os.listdir(tmp_path) == ["out.json"]


def test_atomic_write_fsyncs(tmp_path, monkeypatch):
    calls = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        calls.append(fd)
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    atomic_write_text(tmp_path / "real.json", "{}")
    assert len(calls) == 2  # the temp file, then its directory


def test_fsync_dir_swallows_unsupported(tmp_path):
    fsync_dir(tmp_path)  # must not raise
    fsync_dir(tmp_path / "does-not-exist")  # best-effort on missing too


def test_checkpoint_flush_is_atomic(tmp_path, monkeypatch):
    """ExperimentCheckpoint rides the shared helper: a crashed flush
    cannot destroy the previously-committed records."""
    path = tmp_path / "ckpt.json"
    store = ExperimentCheckpoint(path, "fp")
    store.add(RunRecord(run_index=0, seed=0, results={}))
    committed = path.read_text()
    assert [r["run_index"] for r in json.loads(committed)["records"]] == [0]

    def boom(src, dst):
        raise OSError("simulated crash")

    monkeypatch.setattr(os, "replace", boom)
    store.records.append(RunRecord(run_index=1, seed=1, results={}))
    with pytest.raises(OSError):
        store.flush()
    assert path.read_text() == committed


def test_modelerror_on_directory_target(tmp_path):
    with pytest.raises((ModelError, OSError)):
        atomic_write_text(tmp_path, "text")
