"""Figure 5 experiments: controller parameter sensitivity.

These reproduce the §III-E study: the controller and banked memory driven by
an ideal requestor issuing back-to-back read bursts, sweeping element/index
sizes and bank counts.  The paper uses 256-beat bursts and decoupling queues
of depth 32 so that nothing but the effect under study limits throughput.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.report import ExperimentTable
from repro.axi.pack import INDEX_DTYPES, PackUserField
from repro.axi.transaction import BusRequest
from repro.controller.testbench import ControllerTestbench
from repro.hw.crossbar_area import BankCrossbarAreaModel
from repro.mem.banked import BankedMemoryConfig
from repro.perf.model import ideal_indirect_utilization

#: The element/index size pairs of Fig. 5a, in bits, ordered by ratio.
FIG5A_SIZE_PAIRS = (
    (32, 32), (32, 16), (64, 32), (32, 8), (64, 16), (128, 32),
    (64, 8), (128, 16), (256, 32), (128, 8), (256, 16), (256, 8),
)

#: Bank counts swept in Fig. 5a/5b (plus an ideal conflict-free memory).
FIG5_BANK_COUNTS = (8, 11, 16, 17, 31, 32)


def _testbench(num_banks: int, conflict_free: bool, queue_depth: int,
               bus_bytes: int) -> ControllerTestbench:
    config = BankedMemoryConfig(
        num_ports=bus_bytes // 4,  # 32-bit words
        num_banks=num_banks,
        queue_depth=queue_depth,
        conflict_free=conflict_free,
    )
    return ControllerTestbench(config, memory_bytes=1 << 23)


def measure_indirect_utilization(
    elem_bits: int, index_bits: int, num_banks: int,
    num_beats: int = 64, queue_depth: int = 32, conflict_free: bool = False,
    num_bursts: int = 4, seed: int = 0, bus_bytes: int = 32,
) -> float:
    """R utilization of back-to-back packed indirect reads with random indices."""
    elem_bytes = elem_bits // 8
    index_bytes = index_bits // 8
    tb = _testbench(num_banks, conflict_free, queue_depth, bus_bytes)
    rng = np.random.default_rng(seed)
    elems_per_beat = bus_bytes // elem_bytes
    elems_per_burst = num_beats * elems_per_beat
    data_region = 1 << 22
    num_targets = data_region // elem_bytes
    requests = []
    index_cursor = data_region
    dtype = INDEX_DTYPES[index_bytes]
    max_index = min(num_targets, np.iinfo(dtype).max)
    for _ in range(num_bursts):
        indices = rng.integers(0, max_index, size=elems_per_burst).astype(dtype)
        tb.storage.write_array(index_cursor, indices)
        requests.append(
            BusRequest(
                addr=0,
                is_write=False,
                num_elements=elems_per_burst,
                elem_bytes=elem_bytes,
                bus_bytes=bus_bytes,
                pack=PackUserField.indirect(index_bytes, index_cursor),
            )
        )
        index_cursor += len(indices) * index_bytes
    result = tb.run(requests)
    return result.r_utilization


def measure_strided_utilization(
    elem_bits: int, stride_elems: int, num_banks: int,
    num_beats: int = 64, queue_depth: int = 32, conflict_free: bool = False,
    num_bursts: int = 2, bus_bytes: int = 32,
) -> float:
    """R utilization of back-to-back packed strided reads for one stride."""
    elem_bytes = elem_bits // 8
    tb = _testbench(num_banks, conflict_free, queue_depth, bus_bytes)
    elems_per_beat = bus_bytes // elem_bytes
    elems_per_burst = num_beats * elems_per_beat
    requests = []
    for burst in range(num_bursts):
        requests.append(
            BusRequest(
                addr=(burst * 64) * elem_bytes,
                is_write=False,
                num_elements=elems_per_burst,
                elem_bytes=elem_bytes,
                bus_bytes=bus_bytes,
                pack=PackUserField.strided(stride_elems),
            )
        )
    result = tb.run(requests)
    return result.r_utilization


def figure_5a(
    size_pairs: Sequence[Tuple[int, int]] = FIG5A_SIZE_PAIRS,
    bank_counts: Sequence[int] = FIG5_BANK_COUNTS,
    include_ideal: bool = True,
    num_beats: int = 64,
    queue_depth: int = 32,
    runner=None,
) -> ExperimentTable:
    """Fig. 5a: indirect-read utilization vs element/index sizes and banks."""
    from repro.orchestrate.parallel import ParallelRunner
    from repro.orchestrate.spec import UtilizationSpec

    runner = runner or ParallelRunner()
    table = ExperimentTable(
        experiment="fig5a",
        caption="Indirect read R utilization vs element/index size and bank count",
        headers=["elem_bits", "index_bits", "banks", "r_utilization", "ideal_bound"],
    )
    rows = []
    specs = []
    for elem_bits, index_bits in size_pairs:
        for banks in bank_counts:
            rows.append((elem_bits, index_bits, banks))
            specs.append(UtilizationSpec.indirect(
                elem_bits=elem_bits, index_bits=index_bits, num_banks=banks,
                num_beats=num_beats, queue_depth=queue_depth,
            ))
        if include_ideal:
            rows.append((elem_bits, index_bits, "ideal"))
            specs.append(UtilizationSpec.indirect(
                elem_bits=elem_bits, index_bits=index_bits,
                num_banks=max(bank_counts),
                num_beats=num_beats, queue_depth=queue_depth, conflict_free=True,
            ))
    for (elem_bits, index_bits, banks), utilization in zip(rows, runner.run(specs)):
        bound = ideal_indirect_utilization(elem_bits // 8, index_bits // 8)
        table.add_row(elem_bits, index_bits, banks, utilization, bound)
    table.add_note("utilization is bounded by r/(r+1) for an element/index size "
                   "ratio r because index lines share the word ports")
    return table


def figure_5b(
    elem_sizes_bits: Sequence[int] = (32, 64, 128, 256),
    bank_counts: Sequence[int] = FIG5_BANK_COUNTS,
    strides: Optional[Iterable[int]] = None,
    num_beats: int = 16,
    queue_depth: int = 32,
    runner=None,
) -> ExperimentTable:
    """Fig. 5b: strided-read utilization vs element size and bank count.

    The paper averages over element strides 0 to 63; restricting ``strides``
    to an even-only subset would bias power-of-two bank counts pessimistically,
    so the default sweeps every stride in that range.
    """
    from repro.orchestrate.parallel import ParallelRunner
    from repro.orchestrate.spec import UtilizationSpec

    runner = runner or ParallelRunner()
    stride_list = list(strides) if strides is not None else list(range(0, 64))
    table = ExperimentTable(
        experiment="fig5b",
        caption="Strided read R utilization vs element size and bank count "
                f"(averaged over {len(stride_list)} strides)",
        headers=["elem_bits", "banks", "r_utilization"],
    )
    cells = [(elem_bits, banks)
             for elem_bits in elem_sizes_bits for banks in bank_counts]
    specs = [
        UtilizationSpec.strided(
            elem_bits=elem_bits, stride_elems=stride, num_banks=banks,
            num_beats=num_beats, queue_depth=queue_depth,
        )
        for elem_bits, banks in cells
        for stride in stride_list
    ]
    values = runner.run(specs)
    for index, (elem_bits, banks) in enumerate(cells):
        per_cell = values[index * len(stride_list):(index + 1) * len(stride_list)]
        table.add_row(elem_bits, banks, float(np.mean(per_cell)))
    table.add_note("prime bank counts avoid the systematic conflicts power-of-two "
                   "counts suffer on even strides")
    return table


def figure_5c(bank_counts: Sequence[int] = FIG5_BANK_COUNTS) -> ExperimentTable:
    """Fig. 5c: bank crossbar area versus bank count."""
    model = BankCrossbarAreaModel()
    table = ExperimentTable(
        experiment="fig5c",
        caption="Bank crossbar area versus bank count",
        headers=["banks", "crossbar_kge", "modulo_kge", "divider_kge", "total_kge"],
    )
    for banks, breakdown in model.sweep(bank_counts).items():
        table.add_row(banks, breakdown.crossbar_kge, breakdown.modulo_kge,
                      breakdown.divider_kge, breakdown.total_kge)
    table.add_note("prime bank counts pay for modulo and divide units; the "
                   "overhead shrinks relative to the crossbar as banks increase")
    return table
