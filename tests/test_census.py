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


def test_census_of_a_tiny_grid():
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "census.py"),
         "--workload", "strided", "--grid", "--seed", "1", "--scale", "tiny"],
        check=True, capture_output=True, text=True, timeout=300,
    ).stdout.splitlines()
    census = json.loads(out[-1])
    points = census["points"]
    # Every kernel x system of the grid, in grid order, one line each.
    assert [(p["kernel"], p["kind"]) for p in points] == [
        (kernel, kind) for kernel in ("ismt", "gemv", "trmv")
        for kind in ("base", "pack", "ideal")]
    assert [line.split(":")[0] for line in out[:-1]] == [
        f"strided {p['kernel']}/{p['kind']} seed=1 scale=tiny" for p in points
    ] + ["strided total seed=1 scale=tiny"]
    # The total weighs each point by its simulated cycles.
    total = census["total"]
    for key in ("cycles", "calls", "bytecodes", "stepped_cycles"):
        assert total[key] == sum(p[key] for p in points)
    assert total["bytecodes_per_cycle"] == round(
        total["bytecodes"] / total["cycles"], 1)
    assert total["stepped_share"] == round(
        total["stepped_cycles"] / total["cycles"], 4)
    # ismt/base's loads and stores step; IDEAL is never wired.
    share = {(p["kernel"], p["kind"]): p["stepped_share"] for p in points}
    assert share[("ismt", "base")] > 0.5
    assert share[("ismt", "ideal")] == 0


def test_grid_takes_no_kernel():
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "census.py"),
         "--workload", "strided", "--grid", "--kernel", "ismt"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 2
    assert "drop --kernel and --kind" in run.stderr
