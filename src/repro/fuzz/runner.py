"""Differential fuzz harness: one case, every point of the config cube.

``run_fuzz_case`` executes a :class:`~repro.fuzz.case.FuzzCase` on every
cube point — event-driven/naive engine, on the single-engine topology and
(when the case has at least two segments) a two-engine sharded topology over
one shared channel plus the two-engine x two-channel crossbar — and checks:

* every point reproduces the functional oracle's final memory image and
  per-engine register files byte for byte;
* every point within a topology reports bit-identical cycles, stats and
  per-engine results.

Cycle counts are *not* compared across topologies — adding an interconnect
changes timing by design; each ``(engines, channels)`` topology is its own
identity class.

Cases may carry a **bus-fault axis** (``FuzzCase.bus_fault``): the runner
lowers it to a :class:`~repro.axi.faults.BusFaultPlan` keyed on one store
op's output byte-address region (topology-stable) and then demands that
every point of a topology agrees bit-identically on the structured fault
report *and* the final memory image, and that the aborted image is
sane: every non-faulted store region is all-oracle (the op completed) or
all-initial (the op was never dispatched), a lost store's own region is
all-initial, and nothing outside the case's store regions moved.  ``stall`` faults are absorbed by back-pressure, so
those runs must complete fault-free and pass the ordinary oracle checks.

``fuzz_main`` drives the harness from seeded hypothesis strategies with
shrinking, which is what ``repro fuzz`` invokes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.axi.faults import BusFaultPlan, BusFaultSpec
from repro.axi.transaction import reset_txn_ids
from repro.fuzz.case import (
    CasePlan,
    FuzzCase,
    build_case_programs,
    case_to_dict,
    initialize_image,
    plan_case,
    save_corpus_case,
)
from repro.fuzz.oracle import interpret_program
from repro.mem.storage import MemoryStorage
from repro.system.config import SystemConfig, SystemKind
from repro.system.soc import build_system

#: Memory image size for fuzz SoCs (2 MiB keeps snapshots cheap to compare).
FUZZ_MEMORY_BYTES = 1 << 21

#: Engine modes (``event_driven``) every topology runs.
CUBE: Tuple[bool, ...] = (True, False)

#: (engines, channels) topologies the cube covers.  (2, 2) exercises the
#: M×N demux/mux crossbar with stripe-interleaved channel routing; like the
#: shared-channel topologies it must match the functional oracle exactly.
CUBE_TOPOLOGIES: Tuple[Tuple[int, int], ...] = ((1, 1), (2, 1), (2, 2))


class FuzzDivergence(AssertionError):
    """A cube point disagreed with the oracle or with another point."""

    def __init__(self, case: FuzzCase, point: str, detail: str) -> None:
        self.case = case
        self.point = point
        self.detail = detail
        super().__init__(
            f"{case.describe()} diverged at point [{point}]: {detail}\n"
            f"case dict: {case_to_dict(case)}"
        )


@dataclass
class FuzzCaseReport:
    """What a clean run of one case covered."""

    case: FuzzCase
    points: List[str] = field(default_factory=list)
    #: cycles per (engines, channels) topology (each its own identity class)
    cycles_by_topology: Dict[Tuple[int, int], int] = field(default_factory=dict)


def _store_regions(plan: CasePlan) -> List[Tuple[int, int]]:
    """All store-op output regions as ``(base, nbytes)`` in program order.

    The order is the same (segment, position) walk ``plan_case`` allocates
    in, so a fault ordinal names the same region on every topology.
    """
    regions: List[Tuple[int, int]] = []
    for segment in plan.segments:
        for op in segment:
            if op.kind in ("vse", "scatter", "fence_readback"):
                regions.append((op.base, op.count * 4))
            elif op.kind == "vsse":
                regions.append((op.base, ((op.count - 1) * op.stride + 1) * 4))
    return regions


def _fault_plan(plan: CasePlan) -> Tuple[Optional[BusFaultPlan],
                                         Optional[Tuple[int, int]]]:
    """Lower ``case.bus_fault`` to a plan keyed on one store's byte region.

    Returns ``(None, None)`` when the case carries no fault axis or has no
    store ops to target (a fault with nothing to hit degenerates to a
    fault-free run).
    """
    case = plan.case
    if case.bus_fault is None:
        return None, None
    regions = _store_regions(plan)
    if not regions:
        return None, None
    kind, ordinal = case.bus_fault
    base, nbytes = regions[int(ordinal) % len(regions)]
    spec = BusFaultSpec(kind=kind, addr_lo=base, addr_hi=base + nbytes)
    return BusFaultPlan(faults=(spec,)), (base, nbytes)


def _check_aborted_memory(case: FuzzCase, point: str,
                          regions: List[Tuple[int, int]],
                          faulted: Tuple[int, int],
                          initial: np.ndarray, expected: np.ndarray,
                          actual: np.ndarray) -> None:
    """Sanity-check a memory image after a graceful abort.

    Which ops beyond the faulting one still ran is timing-dependent across
    topologies, but every individual outcome is all-or-nothing: an op
    dispatched before the abort drains to completion (its region matches
    the oracle), an op never dispatched leaves its region untouched (the
    initial image).  A lost store writes nothing, so its region stays
    initial too.  The faulted op's own region is otherwise the one place
    partial effects are legal, so it is exempt.
    """
    checked = np.zeros(actual.shape[0], dtype=bool)
    for base, nbytes in regions:
        window = slice(base, base + nbytes)
        checked[window] = True
        if (base, nbytes) == faulted:
            if case.bus_fault[0] == "lost" and not np.array_equal(
                    actual[window], initial[window]):
                raise FuzzDivergence(
                    case, point,
                    f"lost store wrote to its region "
                    f"[{hex(base)}, {hex(base + nbytes)})")
            continue
        got = actual[window]
        if not (np.array_equal(got, expected[window])
                or np.array_equal(got, initial[window])):
            raise FuzzDivergence(
                case, point,
                f"aborted run corrupted store region "
                f"[{hex(base)}, {hex(base + nbytes)}): matches neither the "
                f"oracle (op completed) nor the initial image (op dropped)")
    rest = ~checked
    if not np.array_equal(actual[rest], initial[rest]):
        raise FuzzDivergence(
            case, point,
            "aborted run modified memory outside the case's store regions")


def _first_diff(expected: np.ndarray, actual: np.ndarray) -> str:
    mismatch = np.nonzero(expected != actual)[0]
    addr = int(mismatch[0])
    return (f"{len(mismatch)} byte(s) differ; first at {hex(addr)}: "
            f"expected {expected[addr]:#04x}, got {actual[addr]:#04x}")


def _compare_regfile(point: str, case: FuzzCase, engine_name: str,
                     expected: Dict[str, np.ndarray],
                     actual: Dict[str, np.ndarray]) -> None:
    if set(expected) != set(actual):
        raise FuzzDivergence(
            case, point,
            f"{engine_name}: register sets differ — oracle {sorted(expected)}, "
            f"engine {sorted(actual)}")
    for name in sorted(expected):
        want, got = expected[name], actual[name]
        if want.dtype != got.dtype or want.shape != got.shape \
                or not np.array_equal(want, got):
            raise FuzzDivergence(
                case, point,
                f"{engine_name}: register {name!r} differs — oracle "
                f"{want.dtype}{want.shape} {want[:4]!r}..., engine "
                f"{got.dtype}{got.shape} {got[:4]!r}...")


def run_fuzz_case(case: FuzzCase, max_cycles: int = 5_000_000) -> FuzzCaseReport:
    """Run one case across the cube; raise :class:`FuzzDivergence` on mismatch."""
    plan = plan_case(case)
    report = FuzzCaseReport(case=case)
    fault_plan, faulted_region = _fault_plan(plan)
    # ``stall`` perturbs timing but completes cleanly; the error kinds abort.
    fault_aborts = fault_plan is not None and case.bus_fault[0] != "stall"

    # Oracle pass: one interpretation gives the expected final memory image
    # (identical for every topology — output regions are disjoint and inputs
    # read-only) and the expected per-engine register files per topology.
    oracle_storage = MemoryStorage(FUZZ_MEMORY_BYTES)
    initialize_image(oracle_storage, plan)
    initial_mem = oracle_storage.snapshot() if fault_aborts else None
    multi_engine_ok = len(plan.segments) >= 2
    topologies = [
        topo for topo in CUBE_TOPOLOGIES if multi_engine_ok or topo[0] == 1
    ]
    # Register files depend only on the engine split, never on the channel
    # count (channels partition timing, not data), so the oracle is keyed by
    # engine count alone.
    oracle_regs: Dict[int, List[Dict[str, np.ndarray]]] = {}
    for num_engines in sorted({topo[0] for topo in topologies}):
        programs = build_case_programs(plan, num_engines)
        if num_engines == 1:
            oracle_regs[1] = [interpret_program(programs[0], oracle_storage)]
        else:
            # Same ops as the single-engine pass — reinterpret against a
            # scratch image purely for the per-engine register split.
            scratch = MemoryStorage(FUZZ_MEMORY_BYTES)
            initialize_image(scratch, plan)
            oracle_regs[num_engines] = [
                interpret_program(p, scratch) for p in programs
            ]
    expected_mem = oracle_storage.snapshot()

    for num_engines, num_channels in topologies:
        programs = build_case_programs(plan, num_engines)
        topo_tag = (f"{num_engines}eng" if num_channels == 1
                    else f"{num_engines}eng{num_channels}ch")
        baseline: Optional[Tuple[str, tuple]] = None
        abort_mem: Optional[Tuple[str, np.ndarray]] = None
        for event in CUBE:
            point = f"{topo_tag}/{'event' if event else 'naive'}"
            reset_txn_ids()
            config = SystemConfig(
                memory_bytes=FUZZ_MEMORY_BYTES,
            ).with_kind(SystemKind(case.kind))
            if num_engines > 1:
                config = config.with_engines(num_engines)
            if num_channels > 1:
                config = config.with_channels(num_channels)
            if fault_plan is not None:
                config = config.with_bus_faults(fault_plan)
            soc = build_system(config)
            initialize_image(soc.storage, plan)
            cycles, results = soc.run_programs(
                programs, max_cycles=max_cycles, event_driven=event)
            fault_report = soc.last_fault_report
            if fault_aborts and fault_report is None:
                raise FuzzDivergence(
                    case, point,
                    f"injected {case.bus_fault[0]} fault produced no "
                    f"fault report — the abort was swallowed")
            if not fault_aborts and fault_report is not None:
                raise FuzzDivergence(
                    case, point,
                    f"unexpected fault report on a run that should "
                    f"complete: {fault_report}")
            # The fault report (serialized canonically) joins the
            # within-topology identity key: every cube point must abort on
            # the same op at the same cycle with the same response.
            key = (cycles, dict(soc.stats_snapshot()), tuple(results),
                   json.dumps(fault_report, sort_keys=True))
            if baseline is None:
                baseline = (point, key)
                report.cycles_by_topology[(num_engines, num_channels)] = cycles
            elif key != baseline[1]:
                base_point, base_key = baseline
                parts = []
                if key[0] != base_key[0]:
                    parts.append(f"cycles {base_key[0]} vs {key[0]}")
                if key[1] != base_key[1]:
                    diffs = {k for k in set(key[1]) | set(base_key[1])
                             if key[1].get(k) != base_key[1].get(k)}
                    parts.append(f"stats differ on {sorted(diffs)[:6]}")
                if key[2] != base_key[2]:
                    parts.append("per-engine results differ")
                if key[3] != base_key[3]:
                    parts.append(f"fault reports differ: "
                                 f"{base_key[3]} vs {key[3]}")
                raise FuzzDivergence(
                    case, point,
                    f"not bit-identical to [{base_point}]: {'; '.join(parts)}")
            actual_mem = soc.storage.snapshot()
            if fault_aborts:
                # Aborted runs cannot match the oracle wholesale; demand
                # instead that every point of this topology lands on the
                # same image and that the image decomposes into
                # completed-vs-dropped ops cleanly.
                if abort_mem is None:
                    abort_mem = (point, actual_mem)
                    _check_aborted_memory(
                        case, point, _store_regions(plan), faulted_region,
                        initial_mem, expected_mem, actual_mem)
                elif not np.array_equal(abort_mem[1], actual_mem):
                    raise FuzzDivergence(
                        case, point,
                        f"aborted memory image differs from "
                        f"[{abort_mem[0]}]: "
                        + _first_diff(abort_mem[1], actual_mem))
            else:
                if not np.array_equal(expected_mem, actual_mem):
                    raise FuzzDivergence(
                        case, point,
                        "memory image differs from oracle: "
                        + _first_diff(expected_mem, actual_mem))
                for engine, expected in zip(soc.last_engines,
                                            oracle_regs[num_engines]):
                    _compare_regfile(point, case, engine.name, expected,
                                     engine.regfile._vector)
            report.points.append(point)
    return report


# -------------------------------------------------------------- CLI driver
def fuzz_main(cases: int = 100, seed: int = 0, shrink: bool = True,
              corpus_dir: Optional[str] = None,
              max_cycles: int = 5_000_000, quiet: bool = False) -> int:
    """Run ``cases`` seeded random cases; shrink and report any divergence.

    Returns a process exit code: 0 clean, 1 divergence found, 2 harness
    could not run (hypothesis unavailable).
    """
    try:
        from hypothesis import HealthCheck, Phase, given
        from hypothesis import seed as hypothesis_seed
        from hypothesis import settings
    except ImportError:  # pragma: no cover - image always ships hypothesis
        print("repro fuzz needs the 'hypothesis' package; it is not installed")
        return 2
    from repro.fuzz.strategies import fuzz_cases

    executions = 0
    phases = [Phase.generate] + ([Phase.shrink] if shrink else [])

    @hypothesis_seed(seed)
    @settings(max_examples=cases, database=None, deadline=None,
              phases=phases, suppress_health_check=list(HealthCheck),
              print_blob=False)
    @given(case=fuzz_cases())
    def drive(case: FuzzCase) -> None:
        nonlocal executions
        executions += 1
        if not quiet and executions % 25 == 0:
            print(f"  ... {executions} case executions")
        run_fuzz_case(case, max_cycles=max_cycles)

    try:
        drive()
    except FuzzDivergence as failure:
        print(f"DIVERGENCE (shrunk={shrink}): {failure}")
        if corpus_dir is not None:
            path = save_corpus_case(
                failure.case, corpus_dir,
                note=f"divergence at [{failure.point}]: {failure.detail}")
            print(f"shrunk case written to {path}")
            print(f"replay with: repro fuzz --replay {path}")
        return 1
    if not quiet:
        print(f"fuzz: {cases} cases ({executions} executions incl. retries) "
              f"clean — every cube point matched the oracle")
    return 0


def replay_case(path: str, max_cycles: int = 5_000_000,
                quiet: bool = False) -> int:
    """Re-run one committed corpus case; exit code mirrors :func:`fuzz_main`."""
    from repro.fuzz.case import load_corpus_case

    case = load_corpus_case(path)
    try:
        report = run_fuzz_case(case, max_cycles=max_cycles)
    except FuzzDivergence as failure:
        print(f"DIVERGENCE: {failure}")
        return 1
    if not quiet:
        print(f"{case.describe()}: clean across {len(report.points)} points "
              f"({', '.join(report.points)})")
    return 0
