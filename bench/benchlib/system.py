"""Process memory and run provenance."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path


def peak_rss_mb(pid="self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def reset_peak_rss() -> None:
    """Reset this process's VmHWM to its current RSS (Linux 4.0+); a
    no-op where ``/proc/self/clear_refs`` is not writable."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def _git(root: Path, *args: str):
    try:
        completed = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def provenance(root: Path) -> dict:
    """Commit, dirty flag, CPU count and library versions of this run.

    Outside a git checkout the commit and dirty flag are recorded as
    null.
    """
    import numpy
    import scipy

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
