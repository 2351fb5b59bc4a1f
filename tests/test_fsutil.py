"""``fsutil.FileLock``: when a contender may break another holder's lock.

A lock file names its holder as ``pid@host``.  A contender breaks it at
once when that process, on this host, has exited; a live holder, a
holder on another host and a file holding a bare pid keep the lock
until it is older than ``stale_after``.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import time

import pytest

from repro.errors import ReproError
from repro.fsutil import FileLock


def _hold(path: str, ready) -> None:
    with FileLock(path):
        ready.set()
        time.sleep(60.0)


def _start_holder(path):
    """A forked process holding the lock at ``path``."""
    ctx = multiprocessing.get_context("fork")
    ready = ctx.Event()
    holder = ctx.Process(target=_hold, args=(str(path), ready))
    holder.start()
    assert ready.wait(10.0), "holder never took the lock"
    return holder


def _exited_pid() -> int:
    """The pid of a child that has exited and been reaped."""
    child = multiprocessing.get_context("fork").Process(target=int)
    child.start()
    child.join(10.0)
    assert not child.is_alive()
    return child.pid


def _cannot_acquire(path) -> bool:
    try:
        with FileLock(path, timeout=0.3, stale_after=600.0):
            return False
    except ReproError:
        return True


def test_lock_of_a_killed_holder_is_broken_at_once(tmp_path):
    path = tmp_path / "job.lock"
    holder = _start_holder(path)
    holder.kill()  # SIGKILL inside the lock: no __exit__ runs
    holder.join(10.0)
    assert not holder.is_alive()
    assert path.read_text() == f"{holder.pid}@{socket.gethostname()}"
    started = time.monotonic()
    with FileLock(path, timeout=1.0, stale_after=600.0):
        assert path.read_text() == f"{os.getpid()}@{socket.gethostname()}"
    assert time.monotonic() - started < 1.0
    assert not path.exists()


def test_live_holder_keeps_its_lock_until_stale(tmp_path):
    path = tmp_path / "job.lock"
    holder = _start_holder(path)
    try:
        assert _cannot_acquire(path)
        assert path.read_text() == f"{holder.pid}@{socket.gethostname()}"
    finally:
        holder.kill()
        holder.join(10.0)


@pytest.mark.parametrize("owner", ["{pid}", "{pid}@another-host", "", "x@y"])
def test_unprovable_death_waits_for_the_age_rule(tmp_path, owner):
    """A bare pid (the older form), another host's pid, an empty file
    (a holder between its create and its write) and junk are never
    judged dead; only age breaks them."""
    path = tmp_path / "job.lock"
    path.write_text(owner.format(pid=_exited_pid()))
    assert _cannot_acquire(path)
    old = time.time() - 601.0
    os.utime(path, (old, old))
    with FileLock(path, timeout=1.0, stale_after=600.0):
        pass


def test_a_lock_taken_during_the_check_is_not_broken(tmp_path, monkeypatch):
    """The holder exits and a live process takes the lock between the
    contender's read of the file and its liveness check: the contender
    must leave the new lock alone."""
    path = tmp_path / "job.lock"
    host = socket.gethostname()
    dead = _exited_pid()
    path.write_text(f"{dead}@{host}")
    live_owner = f"{os.getpid()}@{host}"
    real_kill = os.kill

    def kill(pid, sig):
        if pid == dead:
            path.write_text(live_owner)
            raise ProcessLookupError
        return real_kill(pid, sig)

    monkeypatch.setattr(os, "kill", kill)
    assert _cannot_acquire(path)
    assert path.read_text() == live_owner
