"""CI bench gate: fail when simulation throughput regresses.

Compares a freshly emitted ``BENCH_headline.json`` against the checked-in
``benchmarks/baseline.json``.  Raw cycles/sec is machine-dependent, so both
files carry a *calibration score* (a fixed pure-Python loop, see
``bench_headline.calibration_score``); the expected throughput on the
current machine is the baseline throughput scaled by the ratio of
calibration scores.  Both data policies are gated: the FULL-mode
(``cycles_per_sec``) and ELIDE-mode (``elide_cycles_per_sec``) aggregate
throughputs must each stay within ``--threshold-pct`` (default 20, override
with ``$REPRO_BENCH_GATE_PCT``) of their calibrated expectations.  The gate
also fails when any grid point diverged from the tick-every-cycle engine,
between the two data policies, or between the ``num_engines=1`` topology and
the single-program path — and when any grid point's *cycle count* differs
from the baseline's (simulated behaviour is deterministic; a cycle change
must be deliberate and come with a regenerated baseline).

Usage::

    python benchmarks/check_bench_regression.py BENCH_headline.json benchmarks/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def gate_throughput(label, current, baseline, key, machine_ratio, threshold_pct,
                    failures):
    """Gate one policy's aggregate cycles/sec against the scaled baseline."""
    cur_cps = current["totals"].get(key)
    base_cps = baseline["totals"].get(key)
    if base_cps is None:
        print(f"{label:<6s}: no baseline entry ({key}); skipping")
        return
    if cur_cps is None:
        failures.append(f"{label}: current run has no {key} total")
        return
    expected_cps = base_cps * machine_ratio
    change_pct = 100.0 * (cur_cps - expected_cps) / expected_cps
    print(f"{label:<6s}: baseline {base_cps:12.0f} cycles/sec, "
          f"current {cur_cps:12.0f}, expected here {expected_cps:12.0f} "
          f"({change_pct:+.1f}%, gate: -{threshold_pct:.0f}%)")
    if cur_cps < expected_cps * (1.0 - threshold_pct / 100.0):
        failures.append(
            f"{label} cycles/sec regressed {-change_pct:.1f}% vs calibrated "
            f"baseline (allowed: {threshold_pct:.0f}%)"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="freshly emitted BENCH_headline.json")
    parser.add_argument("baseline", help="checked-in baseline.json")
    parser.add_argument(
        "--threshold-pct",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_GATE_PCT", "20")),
        help="maximum allowed regression in percent (default 20)",
    )
    args = parser.parse_args(argv)

    current = load(args.current)
    baseline = load(args.baseline)

    failures = []

    # Correctness gates: the event-driven engine must match the seed
    # behaviour, and the ELIDE policy must match FULL bit for bit.
    diverged = [
        f"{p['workload']}/{p['system']}/{p['memory']}"
        for p in current.get("grid", [])
        if p.get("identical_to_naive") is False
    ]
    if diverged:
        failures.append(f"results diverged from the seed-behaviour engine: {diverged}")
    policy_diverged = [
        f"{p['workload']}/{p['system']}/{p['memory']}"
        for p in current.get("grid", [])
        if p.get("identical_to_full") is False
    ]
    if policy_diverged:
        failures.append(
            f"ELIDE results diverged from FULL results: {policy_diverged}"
        )
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
    gate_throughput("FULL", current, baseline, "cycles_per_sec",
                    machine_ratio, args.threshold_pct, failures)
    gate_throughput("ELIDE", current, baseline, "elide_cycles_per_sec",
                    machine_ratio, args.threshold_pct, failures)

    # Supervision gate: the bench run's fault-free supervised sweep must
    # record zero retries/timeouts/rebuilds (supervision never perturbs the
    # happy path).  Older payloads predate the counters; skip them.
    supervision = current.get("supervision")
    if supervision is not None:
        active = {key: value for key, value in supervision.items() if value}
        if active:
            failures.append(
                f"fault-free sweep recorded supervision activity: {active}"
            )
        else:
            print("supervision: fault-free sweep, all counters zero")

    elide_speedup = current["totals"].get("elide_speedup")
    if elide_speedup is not None:
        print(f"ELIDE speedup over FULL: {elide_speedup:.2f}x")

    if failures:
        for failure in failures:
            print(f"BENCH GATE FAILURE: {failure}", file=sys.stderr)
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
