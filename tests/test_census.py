"""Smoke test of ``tools/census.py``: a tiny point, traced end to end."""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_census_of_a_tiny_point():
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "census.py"),
         "--workload", "indirect", "--kernel", "spmv", "--kind", "base",
         "--seed", "1", "--scale", "tiny", "--top", "5"],
        check=True, capture_output=True, text=True, timeout=300,
    ).stdout.splitlines()
    census = json.loads(out[-1])
    assert census["kernel"] == "spmv" and census["kind"] == "base"
    assert census["cycles"] > 0
    assert census["calls_per_cycle"] > 0
    assert census["bytecodes_per_cycle"] > census["calls_per_cycle"]
    # BASE gathers are steady read streams: the macro-step engages.
    assert 0 < census["stepped_cycles"] < census["cycles"]
    assert census["stepped_share"] == round(
        census["stepped_cycles"] / census["cycles"], 4)
    assert len(census["top"]) == 5
    assert sum(row["share"] for row in census["top"]) <= 1.0
    # The human-readable lines come first, one per listed function.
    assert out[0].startswith("indirect spmv/base seed=1 scale=tiny:")
