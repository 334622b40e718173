"""Tests for the atomic, versioned, checksummed checkpoint store.

The durability contract under test: a reader never observes a partially
written checkpoint under its final name, a damaged newest generation
falls back to the previous valid one, and stale checkpoints from a
different config/seed never leak into a resume.
"""

import os
import pickle

import numpy as np
import pytest

from repro.testing.faults import flip_byte, truncate_file
from repro.training.checkpoint import (
    MAGIC,
    CheckpointError,
    CheckpointStore,
    read_checkpoint,
    write_checkpoint,
)


@pytest.fixture
def store(tmp_path):
    return CheckpointStore(tmp_path)


def payload(seed=0):
    rng = np.random.default_rng(seed)
    return {"matrix": rng.normal(size=(7, 3)), "curve": [0.1, 0.5], "step": seed}


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "one.ckpt"
        original = payload(3)
        write_checkpoint(path, original)
        restored = read_checkpoint(path)
        np.testing.assert_array_equal(restored["matrix"], original["matrix"])
        assert restored["matrix"].dtype == original["matrix"].dtype
        assert restored["curve"] == original["curve"]

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "one.ckpt"
        write_checkpoint(path, payload())
        truncate_file(path, keep_fraction=0.5)
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "one.ckpt"
        write_checkpoint(path, payload())
        truncate_file(path, keep_fraction=0.0)
        path.write_bytes(MAGIC[:4])
        with pytest.raises(CheckpointError, match="no complete header"):
            read_checkpoint(path)

    def test_rejects_bit_rot(self, tmp_path):
        path = tmp_path / "one.ckpt"
        write_checkpoint(path, payload())
        flip_byte(path, offset=-1)
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "one.ckpt"
        path.write_bytes(b"not a checkpoint at all, but long enough to have a header")
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(path)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(tmp_path / "never-written.ckpt")

    def test_no_temp_residue_after_save(self, tmp_path):
        write_checkpoint(tmp_path / "one.ckpt", payload())
        assert [p.name for p in tmp_path.iterdir()] == ["one.ckpt"]

    def test_failed_replace_leaves_previous_file_intact(self, tmp_path, monkeypatch):
        # Crash between temp-write and rename: the old generation must
        # survive untouched and no temp file may linger.
        path = tmp_path / "one.ckpt"
        write_checkpoint(path, {"step": 1})

        def exploding_replace(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            write_checkpoint(path, {"step": 2})
        monkeypatch.undo()
        assert read_checkpoint(path) == {"step": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["one.ckpt"]


class TestStoreGenerations:
    def test_load_empty_store(self, store):
        assert store.load("never") is None

    def test_save_load_round_trip(self, store):
        data = payload(5)
        store.save("run", data)
        restored = store.load("run")
        np.testing.assert_array_equal(restored["matrix"], data["matrix"])

    def test_generations_rotate(self, store, tmp_path):
        for step in range(4):
            store.save("run", {"step": step})
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["run-000003.ckpt", "run-000004.ckpt"]
        assert store.load("run") == {"step": 3}

    def test_truncated_newest_falls_back_to_previous(self, store):
        # Acceptance criterion: a half-written checkpoint is rejected
        # and the loader falls back to the previous valid generation.
        store.save("run", {"step": 1})
        newest = store.save("run", {"step": 2})
        truncate_file(newest, keep_fraction=0.5)
        with pytest.warns(UserWarning, match="skipping invalid generation"):
            assert store.load("run") == {"step": 1}

    def test_all_generations_corrupt_gives_none(self, store):
        for step in range(2):
            store.save("run", {"step": step})
        for path in store.generations("run"):
            truncate_file(path, keep_fraction=0.3)
        with pytest.warns(UserWarning, match="skipping invalid generation"):
            assert store.load("run") is None

    def test_names_are_isolated(self, store):
        store.save("alpha", {"who": "a"})
        store.save("beta", {"who": "b"})
        assert store.load("alpha") == {"who": "a"}
        assert store.load("beta") == {"who": "b"}

    def test_name_sanitization(self, store):
        path = store.save("grid search/p=40 γ=1", {"ok": True})
        assert "/" not in path.name.replace(".ckpt", "")
        assert store.load("grid search/p=40 γ=1") == {"ok": True}

    def test_clear_removes_all_generations(self, store, tmp_path):
        for step in range(3):
            store.save("run", {"step": step})
        store.clear("run")
        assert store.load("run") is None
        assert list(tmp_path.iterdir()) == []


class TestFingerprint:
    def test_matching_fingerprint_loads(self, store):
        fp = {"seed": 0, "config": {"p": 40.0}}
        store.save("run", {"step": 1}, fingerprint=fp)
        assert store.load("run", fingerprint={"seed": 0, "config": {"p": 40.0}}) == {"step": 1}

    def test_mismatched_fingerprint_is_ignored(self, store):
        store.save("run", {"step": 1}, fingerprint={"seed": 0})
        with pytest.warns(UserWarning, match="different config/seed fingerprint"):
            assert store.load("run", fingerprint={"seed": 1}) is None

    def test_fingerprint_survives_pickle_round_trip(self, store):
        # Fingerprints built from tuples/dicts must compare equal after
        # the pickle round trip, or every resume would silently restart.
        fp = {"seeds": (0, 1, 2), "graph": ("cora", 135, 288, 64, 7)}
        store.save("run", {"step": 1}, fingerprint=fp)
        assert store.load("run", fingerprint=pickle.loads(pickle.dumps(fp))) == {"step": 1}
