"""The CI bench gate (``benchmarks/check_bench_regression.py``).

The gate compares a fresh ``BENCH_headline.json`` against the checked-in
``benchmarks/baseline.json``: engine divergence, cycle identity per grid
point (both directions) and calibrated throughput.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression", BENCH_DIR / "check_bench_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()


def _point(workload, system, cycles, engines=1, **extra):
    point = {"workload": workload, "system": system, "memory": "sram",
             "engines": engines, "cycles": cycles, "identical_to_naive": True}
    point.update(extra)
    return point


def _payload(grid=None, cycles_per_sec=1000.0, calibration=100.0, **extra):
    payload = {
        "calibration_score": calibration,
        "grid": grid if grid is not None else [
            _point("gemv", "pack", 121), _point("spmv", "base", 994),
        ],
        "totals": {"cycles_per_sec": cycles_per_sec},
    }
    payload.update(extra)
    return payload


def _check(tmp_path, current, argv=()):
    """Gate ``current`` against the default two-point payload."""
    current_path = tmp_path / "current.json"
    current_path.write_text(json.dumps(current))
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(_payload()))
    return gate.main([str(current_path), str(baseline_path), *argv])


class TestBenchGate:
    def test_checked_in_baseline_passes_against_itself(self, capsys):
        baseline = str(BENCH_DIR / "baseline.json")
        assert gate.main([baseline, baseline]) == 0
        out = capsys.readouterr().out
        assert "48 grid points matched" in out
        assert "bench gate passed" in out

    def test_only_engine_divergence_fields_are_gated(self, tmp_path):
        """Fields other than ``identical_to_naive`` never fail a point."""
        grid = [
            _point("gemv", "pack", 121, identical_to_scalar=False,
                   speedup_vs_naive=0.1),
            _point("spmv", "base", 994),
        ]
        assert _check(tmp_path, _payload(grid)) == 0

    def test_engine_divergence_fails(self, tmp_path, capsys):
        grid = [_point("gemv", "pack", 121, identical_to_naive=False),
                _point("spmv", "base", 994)]
        assert _check(tmp_path, _payload(grid)) == 1
        assert "gemv/pack/sram" in capsys.readouterr().err

    def test_cycle_change_fails(self, tmp_path, capsys):
        grid = [_point("gemv", "pack", 122), _point("spmv", "base", 994)]
        assert _check(tmp_path, _payload(grid)) == 1
        assert "gemv/pack/sram/1: 121 -> 122" in capsys.readouterr().err

    def test_missing_baseline_point_fails(self, tmp_path, capsys):
        grid = [_point("gemv", "pack", 121)]
        assert _check(tmp_path, _payload(grid)) == 1
        assert "missing from the current run" in capsys.readouterr().err

    def test_new_point_is_not_gated(self, tmp_path, capsys):
        grid = [_point("gemv", "pack", 121), _point("spmv", "base", 994),
                _point("gemv", "pack", 90, engines=2)]
        assert _check(tmp_path, _payload(grid)) == 0
        assert "2 grid points matched" in capsys.readouterr().out

    def test_throughput_regression_fails(self, tmp_path, capsys):
        assert _check(tmp_path, _payload(cycles_per_sec=700.0)) == 1
        assert "regressed 30.0%" in capsys.readouterr().err

    def test_throughput_is_scaled_by_calibration(self, tmp_path):
        """Half the throughput on a machine half as fast is no regression."""
        current = _payload(cycles_per_sec=500.0, calibration=50.0)
        assert _check(tmp_path, current) == 0

    def test_threshold_pct_option(self, tmp_path):
        current = _payload(cycles_per_sec=700.0)
        assert _check(tmp_path, current, argv=["--threshold-pct", "40"]) == 0
        assert _check(tmp_path, current, argv=["--threshold-pct", "20"]) == 1
