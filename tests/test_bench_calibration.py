"""perfbench's host context imports ``calibration_score`` from ``benchmarks/``.

``perfbench/run.py::host_context`` puts ``benchmarks/`` on ``sys.path`` and
runs ``from bench_headline import calibration_score`` on every run, so a
cleanup that renames or deletes that module breaks every perfbench run.
This test imports it the same way.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def test_perfbench_can_import_calibration_score(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.delitem(sys.modules, "bench_headline", raising=False)
    from bench_headline import calibration_score

    score = calibration_score(duration=0.01)
    assert isinstance(score, float)
    assert score > 0
