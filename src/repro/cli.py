"""Command-line interface: list and run the paper's experiments.

Examples::

    axi-pack-repro list
    axi-pack-repro run fig3a --scale small --jobs 4
    axi-pack-repro run fig5c --csv fig5c.csv
    axi-pack-repro run contention --engines 4 --csv contention.csv
    axi-pack-repro workloads --size 48 --jobs 8
    axi-pack-repro workloads --workloads csrspmv spmv --engines 2
    axi-pack-repro sweep fig3a fig5a --scale medium --jobs 8
    axi-pack-repro sweep all --no-cache
    axi-pack-repro pareto --jobs 4 --csv results/pareto.csv
    axi-pack-repro pareto --engines 1 2 --channels 1 2 4
    axi-pack-repro profile spmv --system pack --scale small --top 25
    axi-pack-repro cache --clear

``--engines N`` (run/sweep/workloads) simulates a multi-requestor SoC: N
vector engines share one adapter + banked memory behind a cycle-level AXI
multiplexer, and every workload's rows are sharded across the engines (the
``contention`` experiment sweeps this topology systematically).
``--channels M`` adds M memory channels (each its own adapter + banked
memory stack) behind an N×M stripe-interleaved crossbar; the ``pareto``
subcommand sweeps both axes and joins the measured performance with the
hardware area/energy models (see ``docs/hardware.md``).

Simulation runs are orchestrated (see :mod:`repro.orchestrate`): ``--jobs N``
fans independent simulations out over ``N`` worker processes, and the result
cache under ``~/.cache/axi-pack-repro/`` (override with ``--cache-dir`` or
``$AXI_PACK_CACHE_DIR``) lets repeat invocations skip re-simulation.  The
``sweep`` subcommand caches by default; ``run`` and ``workloads`` keep their
classic uncached behavior unless ``--cache`` is given.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Iterator, List, Optional

from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.analysis.fig3 import SCALES
from repro.analysis.report import write_csv
from repro.errors import SpecFailedError
from repro.orchestrate import (
    ParallelRunner,
    ResultCache,
    default_cache_dir,
    run_sweep,
)
from repro.system.config import SystemConfig
from repro.system.runner import compare_systems_many
from repro.version import __version__
from repro.workloads.registry import WORKLOAD_ORDER


def _add_orchestration_options(parser: argparse.ArgumentParser,
                               cache_default: bool,
                               topology: bool = True) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for simulation runs "
                             "(0 = one per CPU; default: 1, serial)")
    if topology:
        parser.add_argument("--engines", type=int, default=1, metavar="N",
                            help="vector engines per SoC: N > 1 shards each "
                                 "workload's rows across N engines sharing one "
                                 "memory system behind a cycle-level AXI mux "
                                 "(default: 1, the paper's topology)")
        parser.add_argument("--channels", type=int, default=1, metavar="M",
                            help="memory channels per SoC: M > 1 instantiates "
                                 "M adapter + banked-memory stacks behind an "
                                 "N×M stripe-interleaved crossbar (default: "
                                 "1, the paper's topology)")
    parser.add_argument("--arbitration", choices=["rr", "qos"], default="rr",
                        help="arbitration at each shared link: 'rr' "
                             "round-robin or 'qos' static priority, engine 0 "
                             "highest (default: rr)")
    parser.add_argument("--cache", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="reuse cached simulation results and store new ones "
                             f"(default: {'on' if cache_default else 'off'})")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="result cache location, implies --cache unless "
                             f"--no-cache is given (default: {default_cache_dir()})")
    parser.add_argument("--progress", action="store_true",
                        help="print one line per finished simulation run")
    parser.add_argument("--spec-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock timeout per simulation run on the "
                             "worker pool (jobs > 1): an overrunning run is "
                             "killed and the command exits with status 4; "
                             "finished runs stay cached (default: no "
                             "timeout)")
    parser.add_argument("--journal", metavar="FILE",
                        help="write a JSON report with one record per "
                             "simulation run (status, source, duration, "
                             "error) after the command, also when it fails")
    parser.set_defaults(cache_default=cache_default)


def _add_bus_fault_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--inject-bus-fault", metavar="JSON", default=None,
        help="inject deterministic bus faults from a JSON plan, e.g. "
             "'{\"faults\": [{\"kind\": \"slverr\", \"addr_lo\": 4096, "
             "\"addr_hi\": 8192}]}'; kinds: slverr, decerr, stall, lost "
             "(see repro.axi.faults).  Faulted runs abort with a structured "
             "fault report instead of verifying")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axi-pack-repro",
        description="AXI-Pack (DATE 2023) reproduction: run the paper's experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list the reproducible figures")

    run_parser = subparsers.add_parser("run", help="run one figure's experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_parser.add_argument("--scale", choices=sorted(SCALES), default="small",
                            help="problem size for simulation-based experiments")
    run_parser.add_argument("--csv", help="also write the table to a CSV file")
    _add_bus_fault_option(run_parser)
    _add_orchestration_options(run_parser, cache_default=False)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run several experiments through one shared cache and pool"
    )
    sweep_parser.add_argument("experiments", nargs="+", metavar="EXPERIMENT",
                              help=f"figure ids to run ({', '.join(sorted(EXPERIMENTS))}) "
                                   "or 'all'")
    sweep_parser.add_argument("--scale", choices=sorted(SCALES), default="small",
                              help="problem size for simulation-based experiments")
    sweep_parser.add_argument("--csv-dir", metavar="DIR",
                              help="also write each table to DIR/<experiment>.csv")
    sweep_parser.add_argument("--json", action="store_true",
                              help="print a machine-readable JSON summary "
                                   "(tables and cache statistics; the failed "
                                   "runs' records if the sweep fails) "
                                   "instead of text")
    _add_orchestration_options(sweep_parser, cache_default=True)

    wl_parser = subparsers.add_parser(
        "workloads", help="run every workload on BASE/PACK/IDEAL and summarize"
    )
    wl_parser.add_argument("--size", type=int, default=48,
                           help="matrix dimension / sparse row count")
    wl_parser.add_argument("--no-verify", action="store_true",
                           help="skip checking results against references")
    wl_parser.add_argument("--workloads", nargs="+", metavar="NAME",
                           default=None,
                           help="workloads to run; accepts any registry name "
                                "(default: the full registry — paper-figure "
                                "workloads first, then the extras the figure "
                                "grids exclude)")
    _add_bus_fault_option(wl_parser)
    _add_orchestration_options(wl_parser, cache_default=False)

    pareto_parser = subparsers.add_parser(
        "pareto",
        help="perf/area/energy Pareto sweep over engines × channels × system",
    )
    pareto_parser.add_argument("--scale", choices=sorted(SCALES), default="small",
                               help="problem size for the swept workloads")
    pareto_parser.add_argument("--csv", help="also write the table to a CSV file")
    pareto_parser.add_argument("--engines", type=int, nargs="+", default=None,
                               metavar="N",
                               help="engine counts to sweep (default: 1 2 4)")
    pareto_parser.add_argument("--channels", type=int, nargs="+", default=None,
                               metavar="M",
                               help="memory-channel counts to sweep "
                                    "(default: 1 2 4)")
    pareto_parser.add_argument("--workloads", nargs="+", metavar="NAME",
                               default=None,
                               help="workloads to sweep (default: gemv spmv "
                                    "csrspmv)")
    _add_orchestration_options(pareto_parser, cache_default=True,
                               topology=False)

    profile_parser = subparsers.add_parser(
        "profile",
        help="cProfile one simulation grid point and print the hot functions",
    )
    from repro.workloads.registry import WORKLOADS

    profile_parser.add_argument("workload", choices=sorted(WORKLOADS),
                                help="workload to simulate")
    profile_parser.add_argument("--system", choices=["base", "pack", "ideal"],
                                default="pack", help="evaluation system")
    profile_parser.add_argument("--scale", choices=sorted(SCALES), default="small",
                                help="problem scale (sets the workload size)")
    profile_parser.add_argument("--memory", choices=["sram", "dram"],
                                default="sram",
                                help="memory class (latency 1 or 100 cycles)")
    profile_parser.add_argument("--top", type=int, default=25, metavar="N",
                                help="number of functions to report")
    profile_parser.add_argument("--sort", choices=["cumulative", "tottime"],
                                default="cumulative", help="pstats sort key")
    profile_parser.add_argument("--json", action="store_true",
                                help="machine-readable JSON instead of the "
                                     "pstats table")

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the result cache"
    )
    cache_parser.add_argument("--cache-dir", metavar="DIR",
                              help=f"cache location (default: {default_cache_dir()})")
    cache_parser.add_argument("--json", action="store_true",
                              help="print a machine-readable JSON summary")
    group = cache_parser.add_mutually_exclusive_group()
    group.add_argument("--clear", action="store_true",
                       help="delete every cache entry")
    group.add_argument("--prune", action="store_true",
                       help="delete entries from other package versions")

    fuzz_parser = subparsers.add_parser(
        "fuzz",
        help="differential-fuzz random vector programs against the "
             "functional oracle across the whole configuration cube",
    )
    fuzz_parser.add_argument("--cases", type=int, default=100, metavar="N",
                             help="number of random cases (default: 100)")
    fuzz_parser.add_argument("--seed", type=int, default=0,
                             help="derivation seed for the case generator "
                                  "(default: 0)")
    fuzz_parser.add_argument("--shrink", action="store_true", default=True,
                             help="shrink a divergence to a minimal program "
                                  "(default)")
    fuzz_parser.add_argument("--no-shrink", dest="shrink",
                             action="store_false",
                             help="report the first divergence unshrunk")
    fuzz_parser.add_argument("--corpus-dir", metavar="DIR",
                             help="write shrunk divergences here as corpus "
                                  "JSON files")
    fuzz_parser.add_argument("--replay", metavar="FILE",
                             help="re-run one committed corpus case instead "
                                  "of generating new ones")
    fuzz_parser.add_argument("--max-cycles", type=int, default=5_000_000,
                             help="per-point simulation budget")
    fuzz_parser.add_argument("--quiet", action="store_true",
                             help="suppress progress output")

    lint_parser = subparsers.add_parser(
        "lint",
        help="statically check the repo's hand-kept invariants (reprolint)",
    )
    lint_parser.add_argument("--json", action="store_true",
                             help="emit a machine-readable JSON report")
    lint_parser.add_argument("--rules", metavar="GROUPS",
                             help="comma-separated rule groups to run "
                                  "(default: all)")
    lint_parser.add_argument("--list-rules", action="store_true",
                             help="print the rule catalog and exit")
    return parser


def _system_config(args: argparse.Namespace) -> SystemConfig:
    """The system configuration implied by the CLI flags."""
    kwargs = {}
    if getattr(args, "engines", 1) != 1:
        kwargs["num_engines"] = args.engines
    if getattr(args, "channels", 1) != 1:
        kwargs["num_channels"] = args.channels
    if getattr(args, "arbitration", "rr") != "rr":
        kwargs["arbitration"] = args.arbitration
    plan = getattr(args, "inject_bus_fault", None)
    if plan:
        from repro.axi.faults import BusFaultPlan

        kwargs["bus_faults"] = BusFaultPlan.from_json(plan)
    return SystemConfig(**kwargs)


def _render_fault_report(result, indent: str = "    ") -> None:
    """Print one run's structured bus-fault report, one line per fault."""
    if not getattr(result, "fault_report", None):
        return
    kind = result.kind.value if hasattr(result.kind, "value") else result.kind
    for fault in result.fault_report["faults"]:
        print(f"{indent}{kind}: bus fault: {fault['kind']} op "
              f"{fault['op_index']} @ {fault['addr']:#x} -> {fault['resp']} "
              f"(engine {fault['engine']}, cycle {fault['cycle']}); "
              f"run aborted")


@contextlib.contextmanager
def _make_runner(args: argparse.Namespace) -> Iterator[ParallelRunner]:
    """The command's runner; ``--journal`` is written however the command ends."""
    if args.cache is not None:  # explicit --cache / --no-cache wins
        enabled = args.cache
        if not enabled and args.cache_dir is not None:
            print("warning: --cache-dir is ignored with --no-cache",
                  file=sys.stderr)
    else:
        enabled = args.cache_default or args.cache_dir is not None
    cache = ResultCache(args.cache_dir) if enabled else None
    progress = None
    if args.progress:
        progress = lambda event: print(event.render(), file=sys.stderr)
    with ParallelRunner(jobs=args.jobs, cache=cache, progress=progress,
                        timeout_s=args.spec_timeout) as runner:
        try:
            yield runner
        finally:
            _write_journal(runner, args.journal)


def _write_journal(runner: ParallelRunner, path: Optional[str]) -> None:
    """Dump the runner's per-run journal (best effort, never fatal)."""
    if not path:
        return
    import json

    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(runner.journal(), handle, indent=2, sort_keys=True)
    except OSError as exc:
        print(f"warning: could not write journal {path}: {exc}",
              file=sys.stderr)


def _report_cache(runner: ParallelRunner) -> None:
    if runner.cache is not None:
        where = getattr(runner.cache, "cache_dir", "in-memory, nothing written to disk")
        print(f"cache: {runner.cache.stats.summary()} ({where})")


def _cmd_list() -> int:
    print("Reproducible experiments (paper figure -> driver):")
    for name in sorted(EXPERIMENTS):
        doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]
        print(f"  {name:<6s} {doc}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _system_config(args)
    if config.bus_faults is not None:
        print(f"note: bus-fault injection active "
              f"({len(config.bus_faults.faults)} spec(s), watchdog "
              f"{config.bus_faults.watchdog_cycles} cycles) — runs hit by a "
              f"fault abort gracefully and report verified=False")
    with _make_runner(args) as runner:
        table = run_experiment(args.experiment, scale=args.scale, runner=runner,
                               config=config)
        print(table.render())
        if args.csv:
            write_csv(table, args.csv)
            print(f"wrote {args.csv}")
        _report_cache(runner)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.orchestrate.cache import MemoryCache

    with _make_runner(args) as runner:
        if runner.cache is None:
            # Intra-sweep dedup even under --no-cache: identical runs across
            # the sweep's experiments execute once, nothing touches disk.
            runner.cache = MemoryCache()
        try:
            tables = run_sweep(args.experiments, scale=args.scale, runner=runner,
                               config=_system_config(args))
        except SpecFailedError as exc:
            if args.json:
                print(json.dumps({"failures": exc.failures}, indent=2,
                                 sort_keys=True))
            raise
        if args.csv_dir:
            os.makedirs(args.csv_dir, exist_ok=True)
        for name, table in tables.items():
            if not args.json:
                print(table.render())
                print()
            if args.csv_dir:
                path = os.path.join(args.csv_dir, f"{name}.csv")
                write_csv(table, path)
                if not args.json:
                    print(f"wrote {path}")
        if args.json:
            stats = runner.cache.stats
            summary = {
                "scale": args.scale,
                "jobs": args.jobs,
                "experiments": {
                    name: {
                        "caption": table.caption,
                        "rows": len(table.rows),
                        "table": table.to_dicts(),
                    }
                    for name, table in tables.items()
                },
                "cache": {
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "stores": stats.stores,
                    "corrupt": stats.corrupt,
                    "dir": getattr(runner.cache, "cache_dir", None),
                },
            }
            print(json.dumps(summary, indent=2, sort_keys=True, default=str))
        else:
            print(f"swept {len(tables)} experiment{'s' if len(tables) != 1 else ''} "
                  f"at scale={args.scale} with jobs={args.jobs}")
            _report_cache(runner)
    return 0


def _registry_workload_order() -> List[str]:
    """Every registered workload: figure-grid names first, then the extras."""
    from repro.workloads.registry import all_workload_names

    return list(all_workload_names())


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.orchestrate.spec import WorkloadSpec
    from repro.workloads.registry import WORKLOADS

    names = args.workloads or _registry_workload_order()
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; "
              f"available: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    config = _system_config(args)
    fault_note = ""
    if config.bus_faults is not None:
        fault_note = (
            f" [bus-fault injection: {len(config.bus_faults.faults)} spec(s), "
            f"watchdog {config.bus_faults.watchdog_cycles} cycles]"
        )
    engine_note = f", {config.num_engines} engines" if config.num_engines > 1 else ""
    if config.num_channels > 1:
        engine_note += f", {config.num_channels} channels"
    print(f"Running {len(names)} workloads at size {args.size} "
          f"on BASE / PACK / IDEAL ({config.bus_bits}-bit bus, "
          f"{config.memory_config().num_banks} banks{engine_note})"
          f"{fault_note}")
    extras = [name for name in names if name not in WORKLOAD_ORDER]
    if extras:
        print("  note: excluded from the paper-figure grids (fig3*/fig4c run "
              f"WORKLOAD_ORDER only): {', '.join(extras)}")
    specs = [WorkloadSpec.create(name, size=args.size) for name in names]
    with _make_runner(args) as runner:
        comparisons = compare_systems_many(
            specs, config, verify=not args.no_verify,
            runner=runner,
        )
        for name in names:
            comparison = comparisons[name]
            print(f"  {name:<8s} speedup={comparison.pack_speedup:5.2f}x "
                  f"(ideal {comparison.ideal_speedup:5.2f}x)  "
                  f"R util base/pack/ideal = "
                  f"{comparison.base.r_utilization:5.1%} / "
                  f"{comparison.pack.r_utilization:5.1%} / "
                  f"{comparison.ideal.r_utilization:5.1%}")
            for result in (comparison.base, comparison.pack, comparison.ideal):
                _render_fault_report(result)
        _report_cache(runner)
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    from repro.analysis.pareto import figure_pareto
    from repro.workloads.registry import WORKLOADS

    if args.workloads:
        unknown = [name for name in args.workloads if name not in WORKLOADS]
        if unknown:
            print(f"error: unknown workload(s) {unknown}; "
                  f"available: {sorted(WORKLOADS)}", file=sys.stderr)
            return 2
    kwargs = {}
    if args.arbitration != "rr":
        kwargs["arbitration"] = args.arbitration
    config = SystemConfig(**kwargs)
    with _make_runner(args) as runner:
        pareto_kwargs = {}
        if args.workloads:
            pareto_kwargs["workloads"] = tuple(args.workloads)
        table = figure_pareto(
            scale=args.scale, config=config, engines=args.engines,
            channels=args.channels, runner=runner, **pareto_kwargs,
        )
        print(table.render())
        if args.csv:
            write_csv(table, args.csv)
            print(f"wrote {args.csv}")
        _report_cache(runner)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """cProfile a single grid point: the one-command "where does time go"."""
    import cProfile
    import io
    import json
    import pstats
    import time

    from repro.analysis.headline import (
        MEMORY_LATENCY,
        point_system_config,
        workload_spec_kwargs,
    )
    from repro.axi.transaction import reset_txn_ids
    from repro.orchestrate.spec import WorkloadSpec
    from repro.system.config import SystemKind
    from repro.system.soc import build_system

    spec_kwargs = workload_spec_kwargs(args.workload, args.scale)
    latency = MEMORY_LATENCY[args.memory]
    reset_txn_ids()
    instance = WorkloadSpec.create(args.workload, **spec_kwargs).build()
    config = point_system_config(SystemKind(args.system), latency)
    soc = build_system(config)
    instance.initialize(soc.storage)
    program = instance.build_program(config.lowering, config.vector_config())
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    cycles, _result = soc.run_program(program)
    profiler.disable()
    wall = time.perf_counter() - start

    stats = pstats.Stats(profiler)
    if args.json:
        sort_index = {"cumulative": 3, "tottime": 2}[args.sort]
        rows = []
        for (filename, line, func), (cc, nc, tottime, cumtime, _callers) in (
            stats.stats.items()  # type: ignore[attr-defined]
        ):
            rows.append({
                "function": func,
                "file": filename,
                "line": line,
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime_s": round(tottime, 6),
                "cumtime_s": round(cumtime, 6),
            })
        key = "cumtime_s" if sort_index == 3 else "tottime_s"
        rows.sort(key=lambda row: row[key], reverse=True)
        print(json.dumps({
            "workload": args.workload,
            "system": args.system,
            "scale": args.scale,
            "memory": args.memory,
            "cycles": cycles,
            "wall_s": round(wall, 6),
            "cycles_per_sec": round(cycles / wall, 1) if wall > 0 else None,
            "top": rows[: args.top],
        }, indent=2))
        return 0
    print(f"profiled {args.workload}/{args.system}/{args.memory} at "
          f"scale={args.scale}: "
          f"{cycles} cycles in {wall:.3f}s "
          f"({cycles / wall:,.0f} cycles/sec)")
    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).sort_stats(args.sort).print_stats(
        args.top
    )
    print(buffer.getvalue())
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    cache = ResultCache(args.cache_dir)
    if args.json:
        summary = {"cache_dir": str(cache.cache_dir)}
        if args.clear:
            summary["removed"] = cache.clear()
        elif args.prune:
            summary["pruned"] = cache.prune()
        summary["entries"] = len(cache)
        summary["corrupt"] = cache.corrupt_entries()
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    if args.clear:
        print(f"removed {cache.clear()} entries from {cache.cache_dir}")
    elif args.prune:
        print(f"pruned {cache.prune()} stale entries from {cache.cache_dir}")
    else:
        print(f"cache dir: {cache.cache_dir}")
        print(f"entries:   {len(cache)}")
        corrupt = cache.corrupt_entries()
        if corrupt:
            print(f"corrupt:   {corrupt} quarantined .corrupt "
                  f"file{'s' if corrupt != 1 else ''} (prune or clear to "
                  f"delete)")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz.runner import fuzz_main, replay_case

    if args.replay:
        return replay_case(args.replay, max_cycles=args.max_cycles,
                           quiet=args.quiet)
    return fuzz_main(cases=args.cases, seed=args.seed, shrink=args.shrink,
                     corpus_dir=args.corpus_dir, max_cycles=args.max_cycles,
                     quiet=args.quiet)


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run reprolint against the checkout this package was imported from.

    ``tools.reprolint`` lives next to ``src/`` in the repository, not inside
    the package, so locate the repo root first: prefer the manifest found by
    walking up from the working directory, fall back to the checkout that
    holds this module.  Outside a checkout there is nothing to lint.
    """
    import pathlib

    import repro

    root = None
    for candidate in (pathlib.Path.cwd(), *pathlib.Path.cwd().resolve().parents):
        if (candidate / "tools" / "reprolint" / "manifest.json").exists():
            root = candidate
            break
    if root is None:
        source_root = pathlib.Path(repro.__file__).resolve().parents[2]
        if (source_root / "tools" / "reprolint" / "manifest.json").exists():
            root = source_root
    if root is None:
        print("error: repro lint needs a repository checkout "
              "(tools/reprolint/manifest.json not found)", file=sys.stderr)
        return 2
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    from tools.reprolint.cli import main as lint_main

    forwarded: List[str] = ["--root", str(root)]
    if args.json:
        forwarded.append("--json")
    if args.rules:
        forwarded.extend(["--rules", args.rules])
    if args.list_rules:
        forwarded.append("--list-rules")
    return lint_main(forwarded)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    from repro.errors import ConfigurationError, DeadlockError

    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "workloads":
            return _cmd_workloads(args)
        if args.command == "pareto":
            return _cmd_pareto(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        if args.command == "lint":
            return _cmd_lint(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DeadlockError as exc:
        # The diagnosis names the stuck components/queues and blames the
        # fullest undrained queue — render it instead of a bare traceback.
        print("error: simulation deadlocked", file=sys.stderr)
        if exc.diagnosis is not None:
            print(exc.diagnosis.render(), file=sys.stderr)
        else:
            print(str(exc), file=sys.stderr)
        return 3
    except SpecFailedError as exc:
        for failure in exc.failures:
            print(f"error: {failure['label']}: {failure['status']}: "
                  f"{failure['error']}", file=sys.stderr)
        return 4
    parser.print_help()
    return 1


if __name__ == "__main__":
    sys.exit(main())
