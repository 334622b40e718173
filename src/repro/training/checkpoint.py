"""Atomic, versioned, checksum-validated training checkpoints.

A multi-seed RDD harness that dies 80% through a grid search loses hours
of CPU time; this module makes every long-running loop resumable from
its last completed unit of work.  The storage contract:

* **atomic** — a checkpoint is written to a temporary file in the target
  directory, flushed and fsynced, then :func:`os.replace`'d into place.
  A crash mid-write leaves either the previous generation or a stray
  ``.tmp`` file, never a half-written checkpoint under the final name.
* **checksummed** — every file carries a header with a magic tag,
  format version, payload length, and SHA-256 digest.  The loader
  verifies all four and rejects truncated or bit-rotted files.
* **versioned** — :class:`CheckpointStore` keeps the last two
  generations per name (``name-000001.ckpt``, ``name-000002.ckpt`` …).
  If the newest generation fails validation the loader falls back to
  the previous valid one, so a crash *during* a checkpoint write can
  never lose more than one unit of progress.
* **fingerprinted** — payloads embed a caller-supplied fingerprint
  (config + seed + dataset identity); a resume with different settings
  ignores the stale checkpoint instead of silently mixing runs.

Payloads are pickled Python objects (result records, probability
matrices, RNG positions).  Like all pickle-based formats the files are
only safe to load from trusted local checkpoint directories.

This is durability for *harness progress*; per-model weight snapshots
are serving artifacts (:mod:`repro.serving.artifacts`), which are
written in this same format.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import struct
import warnings
from pathlib import Path
from typing import Optional, Union

from repro.errors import ReproError
from repro.testing.faults import fault_point

PathLike = Union[str, Path]

# Header: magic (8) | format version (>I, 4) | payload length (>Q, 8)
# | SHA-256 digest of the payload (32).
MAGIC = b"RDDCKPT\x01"
FORMAT_VERSION = 1
_HEADER = struct.Struct(">8sIQ32s")

_GENERATION = re.compile(r"^(?P<name>.+)-(?P<gen>\d{6})\.ckpt$")

# Generations retained per name: two, so the loader always has a
# fallback when the newest file is damaged.
KEEP = 2


class CheckpointError(ReproError):
    """A checkpoint file is missing, corrupt, or from a different format."""


def write_checkpoint(path: PathLike, payload: object) -> None:
    """Atomically write ``payload`` (pickled + checksummed) to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, len(blob), hashlib.sha256(blob).digest())
    temp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(temp, "wb") as handle:
            handle.write(header)
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    _fsync_directory(path.parent)


def read_checkpoint(path: PathLike) -> object:
    """Load and validate a checkpoint written by :func:`write_checkpoint`.

    Raises :class:`CheckpointError` for any file that is not a complete,
    checksum-valid checkpoint of the current format.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from error
    if len(raw) < _HEADER.size:
        raise CheckpointError(f"checkpoint {path} is truncated (no complete header)")
    magic, version, length, digest = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise CheckpointError(f"checkpoint {path} has wrong magic (not a checkpoint?)")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version}, expected {FORMAT_VERSION}"
        )
    blob = raw[_HEADER.size :]
    if len(blob) != length:
        raise CheckpointError(
            f"checkpoint {path} is truncated ({len(blob)} of {length} payload bytes)"
        )
    if hashlib.sha256(blob).digest() != digest:
        raise CheckpointError(f"checkpoint {path} failed its checksum (corrupted)")
    try:
        return pickle.loads(blob)
    except Exception as error:
        raise CheckpointError(f"checkpoint {path} failed to unpickle: {error}") from error


def _fsync_directory(directory: Path) -> None:
    """Flush the directory entry so the rename survives power loss."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds: rename is still atomic
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class CheckpointStore:
    """Named, generation-rotated checkpoints under one directory.

    ``directory`` is where checkpoint files live (created on first
    save); each name keeps its last :data:`KEEP` generations.
    """

    def __init__(self, directory: PathLike):
        self.directory = Path(directory)

    # ------------------------------------------------------------------
    @staticmethod
    def _safe(name: str) -> str:
        safe = re.sub(r"[^A-Za-z0-9._-]+", "_", name)
        if not safe:
            raise CheckpointError(f"checkpoint name {name!r} is empty after sanitizing")
        return safe

    def generations(self, name: str):
        """Existing generation paths for ``name``, oldest first."""
        safe = self._safe(name)
        if not self.directory.is_dir():
            return []
        found = []
        for path in self.directory.iterdir():
            match = _GENERATION.match(path.name)
            if match and match.group("name") == safe:
                found.append((int(match.group("gen")), path))
        return [path for _, path in sorted(found)]

    # ------------------------------------------------------------------
    def save(self, name: str, data: object, fingerprint: object = None) -> Path:
        """Write the next generation for ``name``; prune old generations."""
        fault_point("checkpoint:save", key=name, store=self)
        existing = self.generations(name)
        next_gen = 1
        if existing:
            next_gen = int(_GENERATION.match(existing[-1].name).group("gen")) + 1
        path = self.directory / f"{self._safe(name)}-{next_gen:06d}.ckpt"
        write_checkpoint(path, {"fingerprint": fingerprint, "data": data})
        for stale in self.generations(name)[:-KEEP]:
            stale.unlink(missing_ok=True)
        return path

    def load(self, name: str, fingerprint: object = None) -> Optional[object]:
        """Newest valid payload for ``name``, or ``None``.

        Corrupt generations are skipped (with a warning) in favor of the
        previous valid one.  When ``fingerprint`` is given, a payload
        recorded under a different fingerprint is treated as absent, so
        stale checkpoints from other configs never leak into a resume.
        """
        for path in reversed(self.generations(name)):
            try:
                payload = read_checkpoint(path)
            except CheckpointError as error:
                warnings.warn(
                    f"checkpoint store: skipping invalid generation ({error}); "
                    "falling back to the previous one",
                    stacklevel=2,
                )
                continue
            if fingerprint is not None and payload.get("fingerprint") != fingerprint:
                warnings.warn(
                    f"checkpoint store: {path.name} was recorded under a different "
                    "config/seed fingerprint; ignoring it",
                    stacklevel=2,
                )
                return None
            return payload.get("data")
        return None

    def clear(self, name: str) -> None:
        """Delete every generation for ``name`` (run completed cleanly)."""
        for path in self.generations(name):
            path.unlink(missing_ok=True)
