"""Shared file-system primitives for the on-disk stores.

Every store in the repo (result cache, artifact store, timing and
cost-model files, telemetry, multi-host claims) writes through a
per-pid temp file and an atomic rename.  A writer killed mid-write
leaves its temp behind; these helpers decide whether such a file is an
orphan that is safe to sweep, and whether a claim's owner is still
alive.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["pid_alive", "stale_temp"]


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    except OSError:  # pragma: no cover - out-of-range pid etc.
        return False
    return True


def stale_temp(path: Path, pid_text: str) -> bool:
    """Whether a writer temp file is an orphan of a dead process.

    ``pid_text`` is the pid component of the temp filename; an
    unparseable component means a foreign/damaged name -- treat as stale
    rather than accumulate it forever.  Files of live pids are left
    alone: their writer may still ``os.replace`` them.
    """
    del path  # identity lives in the name; content is irrelevant
    try:
        pid = int(pid_text)
    except ValueError:
        return True
    return not pid_alive(pid)
