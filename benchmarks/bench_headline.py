"""Host machine-speed score for perfbench's context line.

``perfbench/run.py::host_context`` puts this directory on ``sys.path`` and
imports :func:`calibration_score` from this module by name on every run, so
the file name and the function name are load-bearing.  The score explains
noise between runs; it corrects nothing.
"""

from __future__ import annotations

import time


def calibration_score(duration: float = 0.25) -> float:
    """Machine-speed score: pure-Python loop iterations per second.

    The best rate of a fixed 100,000-iteration loop over ``duration``
    seconds.  perfbench reports it as ``host.calibration_score`` beside the
    load average, so a slow run can be told apart from a slow host; both
    the simulator and this loop are plain CPython bytecode.
    """
    total = 0
    best = 0.0
    deadline = time.perf_counter() + duration
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i & 7
        dt = time.perf_counter() - t0
        total += acc  # defeat optimizers; acc is deterministic
        if dt > 0:
            best = max(best, 100_000 / dt)
    assert total >= 0
    return best
