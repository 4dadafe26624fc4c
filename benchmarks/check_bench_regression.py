"""CI bench gate: fail when simulation throughput regresses.

Compares a freshly emitted ``BENCH_headline.json`` against the checked-in
``benchmarks/baseline.json``.  Raw cycles/sec is machine-dependent, so both
files carry a *calibration score* (a fixed pure-Python loop, see
``bench_headline.calibration_score``); the expected throughput on the
current machine is the baseline throughput scaled by the ratio of
calibration scores.  The aggregate throughput (``cycles_per_sec``) must stay
within ``--threshold-pct`` (default 20) of that calibrated expectation.  The
gate also fails when any grid point diverged from the tick-every-cycle
engine — and when any grid point's *cycle count* differs from the
baseline's (simulated behaviour is deterministic; a cycle change must be
deliberate and come with a regenerated baseline).

Usage::

    python benchmarks/check_bench_regression.py BENCH_headline.json benchmarks/baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="freshly emitted BENCH_headline.json")
    parser.add_argument("baseline", help="checked-in baseline.json")
    parser.add_argument(
        "--threshold-pct",
        type=float,
        default=20.0,
        help="maximum allowed regression in percent (default 20)",
    )
    args = parser.parse_args(argv)

    current = load(args.current)
    baseline = load(args.baseline)

    failures = []

    # Correctness gate: the event-driven engine must match the seed
    # behaviour bit for bit.
    diverged = [
        f"{p['workload']}/{p['system']}/{p['memory']}"
        for p in current.get("grid", [])
        if p.get("identical_to_naive") is False
    ]
    if diverged:
        failures.append(f"results diverged from the seed-behaviour engine: {diverged}")
    # Cycle-identity gate: simulated cycle counts are deterministic, so any
    # change on a grid point present in the baseline means the simulated
    # behaviour changed — which must be deliberate (regenerate the baseline)
    # rather than an accidental side effect of a perf or topology change.
    # The gate is bidirectional: a baseline point missing from the current
    # grid means coverage was (probably accidentally) lost, and fails too.
    def point_key(p):
        return (p["workload"], p["system"], p["memory"], p.get("engines", 1))

    baseline_cycles = {point_key(p): p["cycles"]
                      for p in baseline.get("grid", [])}
    changed = []
    matched = 0
    for p in current.get("grid", []):
        expect = baseline_cycles.pop(point_key(p), None)
        if expect is None:
            continue  # a new grid point; it enters the gate on regeneration
        matched += 1
        if p["cycles"] != expect:
            changed.append(f"{'/'.join(map(str, point_key(p)))}: "
                           f"{expect} -> {p['cycles']}")
    print(f"cycle identity: {matched} grid points matched against baseline")
    if changed:
        failures.append(f"simulated cycle counts changed vs baseline: {changed}")
    if baseline_cycles:  # keys never popped: points that vanished
        missing = sorted("/".join(map(str, key)) for key in baseline_cycles)
        failures.append(
            f"baseline grid points missing from the current run: {missing}"
        )

    cur_cal = current["calibration_score"]
    base_cal = baseline["calibration_score"]
    machine_ratio = cur_cal / base_cal
    print(f"machine speed ratio: {machine_ratio:.3f}x "
          f"(calibration {cur_cal:.0f} vs baseline {base_cal:.0f})")
    base_cps = baseline["totals"]["cycles_per_sec"]
    cur_cps = current["totals"]["cycles_per_sec"]
    expected_cps = base_cps * machine_ratio
    change_pct = 100.0 * (cur_cps - expected_cps) / expected_cps
    print(f"throughput: baseline {base_cps:12.0f} cycles/sec, "
          f"current {cur_cps:12.0f}, expected here {expected_cps:12.0f} "
          f"({change_pct:+.1f}%, gate: -{args.threshold_pct:.0f}%)")
    if cur_cps < expected_cps * (1.0 - args.threshold_pct / 100.0):
        failures.append(
            f"cycles/sec regressed {-change_pct:.1f}% vs calibrated "
            f"baseline (allowed: {args.threshold_pct:.0f}%)"
        )

    if failures:
        for failure in failures:
            print(f"BENCH GATE FAILURE: {failure}", file=sys.stderr)
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
