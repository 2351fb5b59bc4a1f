"""Shared filesystem primitives for the durable-state layers.

The corpus store and the serve queue are both directories of small
files mutated by many processes at once, and they grew the same four
primitives independently: a cooperative ``O_CREAT|O_EXCL`` lock file
with stale-lock breaking, a tmp-then-``os.replace`` JSON publish, and
guarded ``utime``/``stat`` touches whose failure means "the file raced
away, not an error".  Two copies drift -- the PR 4 store races were
exactly a guarded-``utime`` fix that existed on one side and not the
other -- so the heartbeat (queue) and GC (store) paths now share this
one module.

Like its two callers (``repro/corpus/store.py`` and
``repro/serve/queue.py``, sanctioned by the REPRO002 lint rule's
exemption list), this module reads the wall clock: lock staleness is an
*inter-process* age judged against file mtimes, which per-process
monotonic clocks cannot express.  Nothing here sits on a simulation
path.
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path
from typing import Any, Dict, Optional, Type, Union

from .errors import ReproError

__all__ = [
    "FileLock",
    "atomic_write_json",
    "touch",
    "mtime",
    "mtime_age",
]


def touch(path: Union[str, Path]) -> bool:
    """Bump ``path``'s mtime; False when it raced away.

    The single sanctioned way to heartbeat a lease marker or refresh an
    object's LRU recency: a vanished file is an expected outcome (the
    reaper reclaimed the lease, GC evicted the object), never an error.
    """
    try:
        os.utime(path)
        return True
    except OSError:
        return False


def mtime(path: Union[str, Path]) -> Optional[float]:
    """``path``'s mtime in epoch seconds, or None when it raced away."""
    try:
        return Path(path).stat().st_mtime
    except OSError:
        return None


def mtime_age(path: Union[str, Path], now: float) -> Optional[float]:
    """Seconds since ``path`` was last touched, judged against ``now``
    (the caller's wall-clock read), or None when the file raced away."""
    stamp = mtime(path)
    if stamp is None:
        return None
    return now - stamp


def atomic_write_json(
    path: Path, document: Dict[str, Any], indent: int = 1
) -> None:
    """Publish ``document`` at ``path`` via tmp-write + ``os.replace``.

    Readers never observe a torn file: they see the old document or the
    new one, nothing in between.  A crash before the replace leaves only
    a dotted ``.tmp`` sibling for the owning layer's sweep to collect.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with tmp.open("w", encoding="utf-8") as stream:
        json.dump(document, stream, indent=indent, sort_keys=True)
        stream.write("\n")
    os.replace(tmp, path)


#: This host's name: lock files record their holder as ``pid@host``.
_HOST = socket.gethostname()


class FileLock:
    """Cooperative ``O_CREAT|O_EXCL`` lock file with stale breaking.

    The create-exclusive open *is* the acquisition; the file holds the
    owner as ``pid@host``.  A holder that dies leaves the file behind,
    so a contender breaks the lock and retries: at once when the file
    names a process on this host that no longer exists, else (a live
    holder, another host, a file holding a bare pid) once it is older
    than ``stale_after`` (judged by mtime against the shared wall
    clock).  A holder that exited but is not yet reaped by its parent
    still counts as live.  ``error`` names the exception type raised on
    timeout, so each layer surfaces its own error family
    (``CorpusLockError``, ``QueueError``).
    """

    def __init__(
        self,
        path: Union[str, Path],
        timeout: float = 30.0,
        stale_after: float = 120.0,
        error: Type[ReproError] = ReproError,
        poll: float = 0.01,
    ) -> None:
        self.path = Path(path)
        self.timeout = timeout
        self.stale_after = stale_after
        self.error = error
        self.poll = poll

    def __enter__(self) -> "FileLock":
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, f"{os.getpid()}@{_HOST}".encode("utf-8"))
                os.close(fd)
                return self
            except FileExistsError:
                age = mtime_age(self.path, time.time())
                if age is None:
                    continue  # lock vanished between exists and stat
                if age > self.stale_after or self._holder_exited():
                    # Holder died; break the lock and retry.
                    try:
                        self.path.unlink()
                    except OSError:
                        pass
                    continue
                if time.monotonic() > deadline:
                    raise self.error(
                        f"could not acquire {self.path} within {self.timeout}s"
                    )
                time.sleep(self.poll)

    def _owner(self) -> str:
        """The lock file's ``pid@host``; empty when it raced away."""
        try:
            return self.path.read_text(encoding="utf-8")
        except (OSError, ValueError):
            return ""

    def _holder_exited(self) -> bool:
        """Whether the lock file names a process on this host that no
        longer exists."""
        owner = self._owner()
        pid, _, host = owner.partition("@")
        if host != _HOST or not pid.isdecimal():
            return False
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            # Break the file judged, not a lock a live process took
            # since it was read.
            return self._owner() == owner
        except (OSError, OverflowError):
            pass  # not ours to signal, or no pid at all: judge by age
        return False

    def __exit__(self, *exc: object) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass
