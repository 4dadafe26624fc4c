#!/usr/bin/env python3
"""Per-cycle interpreter census of one perfbench point, or of a whole grid.

Runs one (workload, kernel, system, seed) point of a perfbench grid, built
exactly as ``perfbench/run.py`` builds it, and counts the Python work of
``Soc.run_program`` with ``sys.settrace``: Python calls (frame ``call``
events) and executed bytecodes (``opcode`` events), both per simulated
cycle, and the functions that execute the most bytecodes.  It also reports
the share of simulated cycles the engine advanced by macro-steps
(``Engine.stepped_cycles`` of the run's engine, ``Soc.last_sim``).

Usage (from the repository root)::

    python3 tools/census.py --workload indirect --kernel spmv --kind base --seed 1
    python3 tools/census.py --workload strided --grid --seed 1

``--grid`` censuses every kernel x system point of the workload's grid in
one process (each point's first input set, as for a single point) and
prints one line per point, then the cycle-weighted total: all points'
bytecodes, calls and stepped cycles over all their simulated cycles.

Tracing every opcode slows the simulation down roughly a hundredfold, so a
medium-scale point takes minutes; ``--scale tiny`` takes seconds.  The last
line of standard output is the census as one JSON object; for a grid it
holds ``points`` (each point's census without its function list) and
``total``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import replace
from typing import Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from run import GRIDS, SCALE, input_seeds  # noqa: E402  (perfbench/run.py)

from repro.analysis.headline import (  # noqa: E402
    point_system_config,
    workload_spec_kwargs,
)
from repro.orchestrate.spec import WorkloadSpec  # noqa: E402
from repro.system.config import SystemKind  # noqa: E402
from repro.system.soc import build_system  # noqa: E402


class _Counts:
    """Call and opcode events, with opcodes broken down by function."""

    def __init__(self) -> None:
        self.calls = 0
        self.opcodes = 0
        self.by_function: Counter = Counter()

    def trace(self, frame, event, arg):
        if event == "call":
            self.calls += 1
            frame.f_trace_opcodes = True
            return self._local
        return None

    def _local(self, frame, event, arg):
        if event == "opcode":
            self.opcodes += 1
            code = frame.f_code
            self.by_function[(getattr(code, "co_qualname", code.co_name),
                              os.path.basename(code.co_filename))] += 1
        return self._local


def census(workload: str, kernel: str, kind: str, seed: Optional[int],
           scale: str = SCALE, top: int = 12) -> Dict:
    """Build and run one point under the tracer; return its census."""
    grid = GRIDS[workload]
    if kernel not in grid.kernels or kind not in grid.kinds:
        raise SystemExit(f"{kernel}/{kind} is not a point of the {workload} "
                         f"grid ({grid.kernels} x {grid.kinds})")
    input_seed = input_seeds(grid, seed)[0]
    kwargs = workload_spec_kwargs(kernel, scale)
    if input_seed is not None:
        kwargs["seed"] = input_seed
    instance = WorkloadSpec.create(kernel, **kwargs).build()
    config = replace(
        point_system_config(SystemKind(kind), grid.memory_latency, "full"),
        num_engines=grid.engines, num_channels=grid.channels,
        arbitration="rr",
    )
    soc = build_system(config)
    instance.initialize(soc.storage)
    if grid.engines == 1:
        program = instance.build_program(config.lowering, config.vector_config())
    else:
        program = instance.build_sharded_programs(
            config.lowering, config.vector_config(), grid.engines)
    counts = _Counts()
    sys.settrace(counts.trace)
    try:
        cycles, _result = soc.run_program(program, event_driven=True)
    finally:
        sys.settrace(None)
    if not instance.verify(soc.storage):
        raise SystemExit(f"{workload}/{kernel}/{kind}: verify failed")
    # A tree without macro-stepping has no ``Soc.last_sim``: nothing stepped.
    stepped = getattr(getattr(soc, "last_sim", None), "stepped_cycles", 0)
    functions = [
        {"function": name, "file": filename,
         "bytecodes_per_cycle": round(count / cycles, 1),
         "share": round(count / counts.opcodes, 4)}
        for (name, filename), count in counts.by_function.most_common(top)
    ]
    return {
        "workload": workload,
        "kernel": kernel,
        "kind": kind,
        "seed": seed,
        "input_seed": input_seed,
        "scale": scale,
        "python": sys.version.split()[0],
        **_per_cycle(cycles, counts.calls, counts.opcodes, stepped),
        "top": functions,
    }


def _per_cycle(cycles: int, calls: int, bytecodes: int, stepped: int) -> Dict:
    """Counts of a traced run, raw and per simulated cycle."""
    return {
        "cycles": cycles,
        "calls": calls,
        "bytecodes": bytecodes,
        "calls_per_cycle": round(calls / cycles, 2),
        "bytecodes_per_cycle": round(bytecodes / cycles, 1),
        "stepped_cycles": stepped,
        "stepped_share": round(stepped / cycles, 4),
    }


def grid_census(workload: str, seed: Optional[int],
                scale: str = SCALE) -> Dict:
    """Census every point of a grid; ``total`` weighs points by cycles."""
    grid = GRIDS[workload]
    points = []
    for kernel in grid.kernels:
        for kind in grid.kinds:
            point = census(workload, kernel, kind, seed, scale, top=0)
            del point["top"]
            points.append(point)
            print(_summary(point), flush=True)
    total = _per_cycle(*(sum(point[key] for point in points) for key in
                         ("cycles", "calls", "bytecodes", "stepped_cycles")))
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "python": sys.version.split()[0],
        "points": points,
        "total": total,
    }


def _summary(result: Dict) -> str:
    where = (f"{result['kernel']}/{result['kind']}" if "kernel" in result
             else "total")
    return (f"{result['workload']} {where} seed={result['seed']} "
            f"scale={result['scale']}: {result['cycles']:,} simulated cycles, "
            f"{result['calls_per_cycle']} calls and "
            f"{result['bytecodes_per_cycle']:,} bytecodes per cycle, "
            f"{result['stepped_share']:.1%} of cycles macro-stepped")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GRIDS))
    parser.add_argument("--grid", action="store_true",
                        help="census every point of the workload's grid "
                             "(no --kernel or --kind)")
    parser.add_argument("--kernel")
    parser.add_argument("--kind", choices=["base", "pack", "ideal"])
    parser.add_argument("--seed", type=int, default=None,
                        help="perfbench --seed of the point (default: the "
                             "workload's own seed)")
    parser.add_argument("--scale", default=SCALE,
                        help=f"problem scale (default: perfbench's {SCALE!r})")
    parser.add_argument("--top", type=int, default=12,
                        help="functions to list (default 12)")
    args = parser.parse_args(argv)
    if args.grid:
        if args.kernel or args.kind:
            parser.error("--grid censuses every point: drop --kernel and --kind")
        result = grid_census(args.workload, args.seed, args.scale)
        print(_summary({**result, **result["total"]}))
    else:
        if not args.kernel or not args.kind:
            parser.error("--kernel and --kind are required without --grid")
        result = census(args.workload, args.kernel, args.kind, args.seed,
                        args.scale, args.top)
        print(_summary(result))
        for row in result["top"]:
            print(f"  {row['share']:6.1%} {row['bytecodes_per_cycle']:8.1f}  "
                  f"{row['function']} ({row['file']})")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
