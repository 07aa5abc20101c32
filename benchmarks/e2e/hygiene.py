"""Leak checks: what a workload may not leave behind, and the sweep that
makes sure the run itself leaves no process behind."""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import time
from multiprocessing import resource_tracker
from pathlib import Path

_SHM = Path("/dev/shm")


def shm_segments() -> set[str]:
    return set(os.listdir(_SHM)) if _SHM.is_dir() else set()


def child_pids(tracker_too: bool = False) -> set[int]:
    """Direct children of this process that are still there (finished
    ones are reaped first, so only survivors are listed)."""
    multiprocessing.active_children()
    me = os.getpid()
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
            cmdline = Path("/proc", entry, "cmdline").read_bytes()
        except OSError:  # the process ended while we were looking
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and brackets.
        fields = stat[stat.rfind(")") + 2 :].split()
        # The standard library's shared-memory resource tracker is started
        # on first use and lives as long as this process by design.
        if int(fields[1]) != me:
            continue
        if tracker_too or b"multiprocessing.resource_tracker" not in cmdline:
            found.add(int(entry))
    return found


def stop_children(polite: bool = True) -> None:
    """Stop every process this one started and wait until each has ended
    (at most two seconds per signal).  The standard library's
    resource tracker outlives its parent by design, so it is shut down
    through its own door first; what is left is a leak and is killed.
    Not ``polite`` (from a signal handler, where no lock may be taken):
    everything is killed outright."""
    if polite:
        try:
            resource_tracker._resource_tracker._stop()
        except (AttributeError, OSError, ChildProcessError):
            pass
    for sig in (signal.SIGTERM if polite else signal.SIGKILL, signal.SIGKILL, signal.SIGKILL):
        # A stopped parent hands us its children: look again each round.
        pids = child_pids(tracker_too=True)
        if not pids:
            break
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 2.0
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                try:
                    ended, _ = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:  # already waited for
                    ended = pid
                if ended:
                    pids.discard(pid)
            if pids:
                time.sleep(0.01)


class Janitor:
    """Makes sure a run leaves nothing behind however it ends.  Created
    first thing; ``sweep`` in the ``finally`` of the run; ``terminated``
    as the SIGTERM handler, because unwinding out of a half-finished
    multiproc call can wait for ever on its workers."""

    def __init__(self) -> None:
        # Linux PR_SET_CHILD_SUBREAPER: a grandchild whose parent has gone
        # becomes our child, so ``stop_children`` finds it.  Elsewhere only
        # direct children are stopped.
        try:
            ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
        except (OSError, AttributeError):
            pass
        self._pid = os.getpid()
        self._uid = os.getuid()
        self._shm = shm_segments()

    def sweep(self, polite: bool = True) -> None:
        stop_children(polite)
        for name in shm_segments() - self._shm:
            try:
                if (_SHM / name).stat().st_uid == self._uid:
                    (_SHM / name).unlink()
            except OSError:
                pass

    def terminated(self, *_signal) -> None:
        if os.getpid() == self._pid:  # forked workers inherit the handler
            self.sweep(polite=False)
        os._exit(143)


class LeakCheck:
    """Snapshot at the start of a workload; ``leaks()`` after its last
    sample names every surviving child and every new ``/dev/shm`` entry."""

    def __init__(self) -> None:
        self._children = child_pids()
        self._shm = shm_segments()

    def leaks(self) -> list[str]:
        return [
            *(f"child process {pid} survived" for pid in sorted(child_pids() - self._children)),
            *(f"/dev/shm/{name} left behind" for name in sorted(shm_segments() - self._shm)),
        ]
