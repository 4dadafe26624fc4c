"""The engine headline benchmark.

Run the full workload × system grid (the paper's six kernels plus the
streaming ``csrspmv``) on both an SRAM-class memory (``memory_latency=1``,
the paper's evaluation systems) and a DRAM-class memory
(``memory_latency=100``) on the event-driven engine, and once more on the
seed-behaviour tick-every-cycle engine (``event_driven=False``).  On top of
the single-engine grid, ``MULTI_ENGINE_GRID`` adds contention points (rows
sharded across 2 engines behind the cycle-level AXI mux, BASE and PACK,
SRAM class), A/B'd across the engine axis the same way.  Every grid point
asserts that cycle counts, statistics and engine measurements are
byte-identical across the two engines, and the run emits a
machine-readable ``BENCH_headline.json`` with cycles/sec and wall time per
grid point, plus — with ``--history BENCH_history.jsonl``, which CI
passes — one JSONL line appended to the cross-PR perf trajectory.  CI
uploads both as artifacts and gates on cycles/sec regressions *and
per-point cycle identity in both directions* against
``benchmarks/baseline.json`` (see ``check_bench_regression.py``).

The paper's qualitative claims (PACK beats BASE everywhere, the dataflow
crossovers, the Fig. 4c energy envelope, ...) are tier-1 tests in
``tests/test_paper_claims.py``; the 48 grid points' cycles are pinned in
``tests/test_headline_pins.py``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_headline.py --output BENCH_headline.json

Measured on the seed commit (tick-every-cycle engine, before PR 2) the same
grid took 3.6x longer wall-clock than the event-driven engine emits here;
the in-tree ``--compare-naive`` A/B understates that because the
compatibility mode shares this tree's cheaper component models.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.analysis.headline import (
    MEMORY_LATENCY,
    point_system_config,
    workload_spec_kwargs,
)

#: The two memory classes of the headline grid (name, memory_latency) —
#: shared with the `repro profile` subcommand via repro.analysis.headline.
LATENCY_GRID = tuple(MEMORY_LATENCY.items())


def calibration_score(duration: float = 0.25) -> float:
    """Machine-speed score: pure-Python loop iterations per second.

    The regression gate normalizes cycles/sec by this score so a checked-in
    baseline from one machine transfers to CI runners of different speeds
    (both the simulator and this loop are plain CPython bytecode).
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


#: Extra (non-paper-figure) workloads that ride in the headline grid.
#: ``csrspmv`` streams the whole nonzero set through the indirect-read path
#: in maximum-length chunks, exercising the batch kernels with long
#: irregular index streams (the row-wise kernels only issue short ones).
EXTRA_GRID_WORKLOADS = ("csrspmv",)


#: Multi-engine grid points: (workload, engines) x systems, SRAM class.
#: One packed-strided kernel that is bus-bound under PACK plus two indirect
#: kernels with contention headroom (see repro.analysis.contention).
MULTI_ENGINE_GRID = (("gemv", 2), ("spmv", 2), ("csrspmv", 2))

#: Systems the multi-engine points cover (IDEAL's exclusive memory is
#: contention-free by definition).
MULTI_ENGINE_KINDS = ("base", "pack")


def _grid_points(scale: str):
    """Every grid point: the single-engine grid, then the contention points."""
    from repro.system.config import SystemKind
    from repro.workloads.registry import WORKLOAD_ORDER

    for workload in WORKLOAD_ORDER + EXTRA_GRID_WORKLOADS:
        spec_kwargs = workload_spec_kwargs(workload, scale)
        for kind in (SystemKind.BASE, SystemKind.PACK, SystemKind.IDEAL):
            for mem_name, latency in LATENCY_GRID:
                yield workload, spec_kwargs, kind, mem_name, latency, 1
    for workload, engines in MULTI_ENGINE_GRID:
        spec_kwargs = workload_spec_kwargs(workload, scale)
        for system in MULTI_ENGINE_KINDS:
            yield (workload, spec_kwargs, SystemKind(system), "sram",
                   MEMORY_LATENCY["sram"], engines)


def _run_point(workload, spec_kwargs, kind, latency, event_driven, verify,
               engines=1):
    """One grid point: build, simulate, return (cycles, stats, result, wall).

    ``engines > 1`` runs the point on the multi-engine topology (the
    workload's rows sharded behind the cycle-level mux); ``result`` is then
    the list of per-engine measurements.
    """
    from dataclasses import replace

    from repro.axi.transaction import reset_txn_ids
    from repro.orchestrate.spec import WorkloadSpec
    from repro.system.soc import build_system

    reset_txn_ids()
    instance = WorkloadSpec.create(workload, **spec_kwargs).build()
    config = point_system_config(kind, latency)
    if engines != 1:
        config = replace(config, num_engines=engines)
    soc = build_system(config)
    instance.initialize(soc.storage)
    if engines == 1:
        program = instance.build_program(config.lowering,
                                         config.vector_config())
        start = time.perf_counter()
        cycles, result = soc.run_program(program, event_driven=event_driven)
    else:
        programs = instance.build_sharded_programs(
            config.lowering, config.vector_config(), engines
        )
        start = time.perf_counter()
        cycles, result = soc.run_programs(programs,
                                          event_driven=event_driven)
    wall = time.perf_counter() - start
    verified = instance.verify(soc.storage) if verify else None
    return cycles, dict(soc.stats.as_dict()), result, wall, verified


def run_engine_benchmark(
    scale: str = "small",
    compare_naive: bool = True,
    verify: bool = False,
) -> dict:
    """Run the headline grid; return the BENCH_headline.json payload.

    Every grid point runs on the event-driven engine.  With
    ``compare_naive`` it is also run on the tick-every-cycle compatibility
    engine, and cycle counts, statistics and engine measurements are
    asserted byte-identical: the event-driven scheduler may never change
    simulated behaviour, only wall time.
    """
    grid = []
    total_wall = 0.0
    total_naive_wall = 0.0
    total_cycles = 0
    for workload, spec_kwargs, kind, mem_name, latency, engines in _grid_points(
        scale
    ):
        cycles, stats, result, wall, verified = _run_point(
            workload, spec_kwargs, kind, latency, True, verify, engines=engines
        )
        point = {
            "workload": workload,
            "system": kind.value,
            "memory": mem_name,
            "memory_latency": latency,
            "engines": engines,
            "cycles": cycles,
            "wall_s": round(wall, 6),
            "cycles_per_sec": round(cycles / wall, 1) if wall > 0 else None,
        }
        if verify:
            point["verified"] = bool(verified)
        total_wall += wall
        total_cycles += cycles
        if compare_naive:
            n_cycles, n_stats, n_result, n_wall, _ = _run_point(
                workload, spec_kwargs, kind, latency, False, False,
                engines=engines,
            )
            identical = n_cycles == cycles and n_stats == stats and n_result == result
            point["naive_wall_s"] = round(n_wall, 6)
            point["speedup_vs_naive"] = round(n_wall / wall, 3) if wall > 0 else None
            point["identical_to_naive"] = identical
            total_naive_wall += n_wall
            if not identical:
                label = f"{workload}/{kind.value}/{mem_name}"
                if engines != 1:
                    label += f"/engines={engines}"
                raise AssertionError(
                    f"event-driven run diverged from tick-every-cycle run for "
                    f"{label}: cycles {cycles} vs {n_cycles}"
                )
        grid.append(point)
    payload = {
        "meta": {
            "benchmark": "headline",
            "scale": scale,
            "latency_grid": dict(LATENCY_GRID),
            "python": sys.version.split()[0],
        },
        "calibration_score": round(calibration_score(), 1),
        "grid": grid,
        "totals": {
            "grid_points": len(grid),
            "cycles": total_cycles,
            "event_wall_s": round(total_wall, 6),
            "cycles_per_sec": round(total_cycles / total_wall, 1),
        },
    }
    if compare_naive:
        payload["totals"]["naive_wall_s"] = round(total_naive_wall, 6)
        payload["totals"]["speedup_vs_naive"] = round(
            total_naive_wall / total_wall, 3
        )
    return payload


def append_history(payload: dict, history_path: str) -> dict:
    """Append one JSONL trajectory entry for this run to ``history_path``.

    The trajectory file makes the perf trend across PRs queryable (one line
    per bench run: commit, date, calibration score, totals)
    instead of a single overwritten snapshot.
    """
    import datetime
    import subprocess

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    entry = {
        "date": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "commit": commit,
        "scale": payload["meta"]["scale"],
        "python": payload["meta"]["python"],
        "calibration_score": payload["calibration_score"],
        "totals": payload["totals"],
    }
    with open(history_path, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the headline engine benchmark and emit BENCH_headline.json"
    )
    parser.add_argument("--output", default="BENCH_headline.json",
                        help="where to write the JSON payload")
    parser.add_argument("--scale", default="small",
                        help="problem scale (tiny/small/medium/paper)")
    parser.add_argument("--no-compare-naive", action="store_true",
                        help="skip the tick-every-cycle A/B runs")
    parser.add_argument("--verify", action="store_true",
                        help="also verify workload results against references")
    parser.add_argument("--history", metavar="PATH", default=None,
                        help="append this run's totals as one JSONL line to "
                             "PATH (the cross-PR trajectory; CI passes "
                             "BENCH_history.jsonl — ad-hoc local runs should "
                             "leave it off so laptop noise stays out of the "
                             "committed trend)")
    args = parser.parse_args(argv)
    payload = run_engine_benchmark(
        scale=args.scale, compare_naive=not args.no_compare_naive,
        verify=args.verify,
    )
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    totals = payload["totals"]
    print(f"wrote {args.output}: {totals['grid_points']} grid points, "
          f"{totals['cycles']} cycles in {totals['event_wall_s']:.3f}s "
          f"({totals['cycles_per_sec']:.0f} cycles/sec)")
    if "speedup_vs_naive" in totals:
        print(f"speedup vs tick-every-cycle mode: {totals['speedup_vs_naive']:.2f}x "
              "(byte-identical results)")
    if args.history:
        entry = append_history(payload, args.history)
        print(f"appended {entry['commit']} @ {entry['date']} to {args.history}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
