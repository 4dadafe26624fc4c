"""Perf/area/energy Pareto sweep over the M×N crossbar topology space.

The paper evaluates performance (Fig. 3/5), area (Fig. 4a/b, 5c) and power
(Fig. 4c) separately, always on the single-engine, single-channel system.
This experiment closes the loop the paper never draws: it sweeps the full
(engines × memory channels × BASE/PACK/IDEAL) topology cube, measures each
point's cycles and per-channel traffic in the simulator, and joins them with
the calibrated hardware models —
:class:`~repro.hw.crossbar_area.BankCrossbarAreaModel` and
:class:`~repro.hw.area.AdapterAreaModel` for area,
:meth:`~repro.hw.energy.EnergyModel.topology_power_mw` for power — so every
row carries perf (cycles, speedup), area (kGE), power (mW) and
energy-efficiency together: a perf/area/energy Pareto surface.

Conventions (documented in ``docs/hardware.md``):

* **speedup** and **energy_eff** are relative to the BASE 1×1 run of the
  same workload, so rows are comparable across systems and topologies.
* **area_kge** counts what the topology instantiates: one Ara per engine,
  and per channel a bank crossbar (BASE/PACK) plus an AXI-Pack adapter
  (PACK only).  IDEAL's magic memory deliberately has no area model — its
  rows are the unreachable upper-left frontier of the Pareto plot.
* **power_mw** feeds the measured per-channel beat rates (the ``chan{j}.``
  stats) into the topology power model, so channel imbalance shows up as
  less traffic power than M perfectly-loaded channels would burn.
* **chan_imbalance** is max/mean beats across channels (1.0 = perfectly
  balanced); single-channel rows are 1.0 by construction.

The committed ``results/pareto.csv`` is the ``--scale small`` sweep;
regenerate it with ``repro pareto --csv results/pareto.csv``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro.analysis.headline import workload_spec_kwargs
from repro.analysis.report import ExperimentTable
from repro.hw.area import AdapterAreaModel
from repro.hw.crossbar_area import BankCrossbarAreaModel
from repro.hw.energy import EnergyModel
from repro.hw.technology import GF22FDX
from repro.system.config import SystemConfig, SystemKind
from repro.system.results import SystemRunResult

#: Workloads of the committed sweep: one packed-strided kernel that is
#: bus-bound under PACK (gemv) and two indirect kernels with headroom.
PARETO_WORKLOADS: Tuple[str, ...] = ("gemv", "spmv", "csrspmv")

#: Engine counts swept (1 is the baseline the speedups are relative to).
PARETO_ENGINES: Tuple[int, ...] = (1, 2, 4)

#: Memory-channel counts swept.
PARETO_CHANNELS: Tuple[int, ...] = (1, 2, 4)

#: All three systems; IDEAL rows bound the frontier (no area/adapter cost).
PARETO_KINDS: Tuple[SystemKind, ...] = (
    SystemKind.BASE, SystemKind.PACK, SystemKind.IDEAL,
)


def topology_area_kge(config: SystemConfig, kind: SystemKind,
                      num_engines: int, num_channels: int) -> float:
    """Instantiated area of one topology point, in kGE.

    Engines cost one Ara each (the technology yardstick the paper uses for
    its "adapter is 6.2 % of Ara" headline).  Each memory channel costs one
    word-port × bank crossbar (BASE and PACK) and, under PACK, one AXI-Pack
    adapter sized for the configured bus width.  IDEAL models a perfect
    memory with no synthesizable implementation, so only its engines count.
    """
    area = num_engines * GF22FDX.ara_area_kge
    if kind is SystemKind.IDEAL:
        return area
    memory = config.memory_config()
    crossbar = BankCrossbarAreaModel(
        num_ports=memory.num_ports, word_bits=memory.word_bytes * 8
    )
    per_channel = crossbar.total_kge(memory.num_banks)
    if kind is SystemKind.PACK:
        per_channel += AdapterAreaModel().total_area_kge(config.bus_bits)
    return area + num_channels * per_channel


def channel_beat_rates(result: SystemRunResult,
                       num_channels: int) -> Optional[List[float]]:
    """Measured per-channel (R+W) beats per cycle, from the chan{j}. stats.

    Returns ``None`` for single-channel results (the bare counters already
    describe the one channel) or when the per-channel counters are absent
    (e.g. a result deserialized from a pre-crossbar cache entry).
    """
    if num_channels <= 1:
        return None
    cycles = max(1, result.cycles)
    rates: List[float] = []
    for index in range(num_channels):
        prefix = f"chan{index}."
        beats = 0.0
        for counter in ("adapter.r_beats", "adapter.w_beats",
                        "ideal.r_beats", "ideal.w_beats"):
            beats += float(result.stats.get(prefix + counter, 0.0))
        rates.append(beats / cycles)
    if not any(rates):
        return None
    return rates


def figure_pareto(
    scale: str = "small",
    config: Optional[SystemConfig] = None,
    workloads: Sequence[str] = PARETO_WORKLOADS,
    engines: Optional[Sequence[int]] = None,
    channels: Optional[Sequence[int]] = None,
    kinds: Sequence[SystemKind] = PARETO_KINDS,
    verify: bool = True,
    runner=None,
) -> ExperimentTable:
    """Perf/area/energy for every (workload × system × engines × channels).

    ``engines`` and ``channels`` default to the standard 1/2/4 sweeps,
    extended by the configuration's own ``num_engines`` / ``num_channels``
    so ``repro pareto --engines 8`` (CLI: ``--engines 8 --channels ...``)
    sweeps up to the requested counts.
    """
    from repro.orchestrate.parallel import ParallelRunner
    from repro.orchestrate.spec import RunSpec, WorkloadSpec

    config = config or SystemConfig()
    if engines is None:
        engines = tuple(sorted({*PARETO_ENGINES, config.num_engines}))
    engines = tuple(engines)
    if channels is None:
        channels = tuple(sorted({*PARETO_CHANNELS, config.num_channels}))
    channels = tuple(channels)
    if 1 not in engines or 1 not in channels:
        # The 1×1 BASE run anchors speedup and energy efficiency.
        engines = tuple(sorted({1, *engines}))
        channels = tuple(sorted({1, *channels}))
    kinds = tuple(kinds)
    if SystemKind.BASE not in kinds:
        kinds = (SystemKind.BASE,) + kinds

    specs = []
    points = []
    for name in workloads:
        workload = WorkloadSpec.create(name, **workload_spec_kwargs(name, scale))
        for kind in kinds:
            for engine_count in engines:
                for channel_count in channels:
                    point_config = replace(
                        config.with_kind(kind),
                        num_engines=engine_count,
                        num_channels=channel_count,
                    )
                    specs.append(RunSpec(workload=workload, config=point_config,
                                         kind=kind, verify=verify))
                    points.append((name, kind, engine_count, channel_count))
    runner = runner or ParallelRunner()
    results = dict(zip(points, runner.run(specs)))

    energy = EnergyModel()
    table = ExperimentTable(
        experiment="pareto",
        caption="Perf/area/energy Pareto over engines × channels × system",
        headers=[
            "workload", "system", "engines", "channels", "cycles", "speedup",
            "R_util", "chan_imbalance", "area_kge", "power_mw", "energy_eff",
            "verified",
        ],
    )
    for name in workloads:
        anchor = results[(name, SystemKind.BASE, 1, 1)]
        anchor_energy = energy.system_power_mw(anchor) * anchor.cycles
        for kind in kinds:
            for engine_count in engines:
                for channel_count in channels:
                    result = results[(name, kind, engine_count, channel_count)]
                    rates = channel_beat_rates(result, channel_count)
                    power = energy.topology_power_mw(
                        result, num_engines=engine_count,
                        num_channels=channel_count,
                        channel_beats_per_cycle=rates,
                    )
                    point_energy = power * result.cycles
                    if rates:
                        mean = sum(rates) / len(rates)
                        imbalance = max(rates) / mean if mean else 1.0
                    else:
                        imbalance = 1.0
                    table.add_row(
                        name,
                        kind.value,
                        engine_count,
                        channel_count,
                        result.cycles,
                        anchor.cycles / result.cycles if result.cycles else 0.0,
                        result.r_utilization,
                        imbalance,
                        topology_area_kge(config, kind, engine_count,
                                          channel_count),
                        power,
                        anchor_energy / point_energy if point_energy else 0.0,
                        result.verified,
                    )
    table.add_note(
        f"scale={scale}, bus={config.bus_bits}b, "
        f"banks={config.memory_config().num_banks}, "
        f"stripe={config.channel_stripe_bytes}B, "
        f"arbitration={config.arbitration}; speedup and energy_eff are "
        "relative to the BASE 1x1 run of the same workload; area counts "
        "engines x Ara + channels x (bank crossbar [+ adapter under PACK]); "
        "power joins measured per-channel beat rates with the fig4c model"
    )
    table.add_note(
        "IDEAL rows carry engine area only (its perfect memory has no "
        "synthesizable model) — they bound the frontier, not a design point"
    )
    return table
