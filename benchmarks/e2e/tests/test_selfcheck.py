"""The benchmark's own safety nets: the reference, the failure tally and
the leak check each catch what they are there to catch."""

import os
import subprocess
import sys
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro import make_test_loop, random_irregular_loop

from benchmarks.e2e.estimator import Estimator
from benchmarks.e2e.hygiene import LeakCheck
from benchmarks.e2e.reference import Tally, reference_run
from benchmarks.e2e.workloads import SMOKE_SIZES, WORKLOADS

_RUN = Path(__file__).resolve().parents[1] / "run.py"
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


def test_reference_is_bitwise_the_oracle_but_shares_no_code():
    loops = [
        make_test_loop(n=300, m=5, l=8),
        make_test_loop(n=300, m=5, l=7),
        random_irregular_loop(n=200, max_terms=4, seed=3),
        random_irregular_loop(n=200, max_terms=4, seed=4, external_init=True),
    ]
    for loop in loops:
        assert np.array_equal(reference_run(loop), loop.run_sequential())


def _estimator():
    built = WORKLOADS["krylov_churn"].generate(5, SMOKE_SIZES["krylov_churn"])
    built.fill_expected()
    return built, Estimator(built, Tally())


def test_corrupted_output_and_raising_call_are_both_counted():
    built, est = _estimator()
    good = [y.copy() for y in built.expected]
    est.sample("good", lambda: (good, None))
    assert (est.tally.attempted, est.tally.failed) == (1, 0)

    corrupted = [y.copy() for y in built.expected]
    corrupted[-1][0] = np.nextafter(corrupted[-1][0], np.inf)  # one ulp off
    est.sample("corrupted", lambda: (corrupted, None))
    assert (est.tally.attempted, est.tally.failed) == (2, 1)

    def raising():
        raise TimeoutError("busy-wait exceeded")

    est.sample("raising", raising)
    assert (est.tally.attempted, est.tally.failed) == (3, 2)
    assert est.tally.fail_share == 2 / 3
    assert "corrupted" not in est.cells and "raising" not in est.cells
    assert any("TimeoutError" in note for note in est.tally.notes)


def test_leak_check_names_a_leaked_segment_and_a_surviving_child():
    check = LeakCheck()
    assert check.leaks() == []
    segment = shared_memory.SharedMemory(create=True, size=64)
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        leaks = check.leaks()
        assert any(segment.name.lstrip("/") in leak for leak in leaks)
        assert any(str(child.pid) in leak for leak in leaks)
    finally:
        child.kill()
        child.wait()
        segment.close()
        segment.unlink()
    assert check.leaks() == []


# Runs as a stand-in for the driver: adopts whatever the command orphans,
# optionally sends it SIGTERM mid-run, and lists what is left once the
# command has exited (zombies too).
_WATCHER = """
import ctypes, os, signal, subprocess, sys, time
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
term_after = float(sys.argv[1])
proc = subprocess.Popen(sys.argv[2:], stdout=subprocess.DEVNULL)
if term_after:
    time.sleep(term_after)
    proc.send_signal(signal.SIGTERM)
code = proc.wait()
left = []
for entry in os.listdir("/proc"):
    if entry.isdigit():
        try:
            stat = open(f"/proc/{entry}/stat").read()
        except OSError:
            continue
        if int(stat[stat.rfind(")") + 2:].split()[1]) == os.getpid():
            left.append(int(entry))
print(code, left)
"""

_LEAKY = """
import subprocess, sys
from multiprocessing import resource_tracker
from benchmarks.e2e.hygiene import Janitor, child_pids
janitor = Janitor()
sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
subprocess.Popen(sleeper)  # a child nobody waits for
subprocess.Popen(  # a grandchild whose parent exits at once
    [sys.executable, "-c", f"import subprocess; subprocess.Popen({sleeper!r})"]
).wait()
resource_tracker.ensure_running()
assert len(child_pids(tracker_too=True)) == 3
janitor.sweep()
assert child_pids(tracker_too=True) == set()
"""


def _watched(term_after, *command):
    proc = subprocess.run(
        [sys.executable, "-c", _WATCHER, str(term_after), *command],
        capture_output=True, text=True, timeout=120, env=_ENV,
    )
    code, left = proc.stdout.strip().split(" ", 1)
    return int(code), left, proc.stderr


def test_sweep_ends_child_orphan_and_resource_tracker():
    code, left, err = _watched(0, sys.executable, "-c", _LEAKY)
    assert (code, left) == (0, "[]"), err


@pytest.mark.parametrize("term_after", [0, 4])
def test_no_process_outlives_a_run_finished_or_terminated(term_after):
    code, left, err = _watched(
        term_after, sys.executable, str(_RUN), "--workload", "krylov_churn",
        "--seed", "5", "--seconds", "1" if not term_after else "60", "--trace", "1",
    )
    assert (code, left) == (143 if term_after else 0, "[]"), err
