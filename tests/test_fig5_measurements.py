"""Fig. 5 controller measurements, pinned at short bursts.

Every element/index size pair of Fig. 5a and every element size of Fig. 5b
is driven through the controller testbench with 8-beat bursts.  The exact
utilizations were recorded from the retired scalar per-object datapath; the
lane kernels reproduce them bit for bit.  The figure drivers are checked to
assemble their tables from those same measurements.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.fig5 import (
    FIG5A_SIZE_PAIRS,
    figure_5a,
    figure_5b,
    measure_indirect_utilization,
    measure_strided_utilization,
)
from repro.perf.model import ideal_indirect_utilization

#: Indirect read R utilization per (elem_bits, index_bits), 17 banks,
#: two 8-beat bursts of random indices.
INDIRECT_REFERENCE = {
    (32, 32): 4 / 11, (32, 16): 16 / 37, (64, 32): 16 / 35,
    (32, 8): 16 / 33, (64, 16): 16 / 33, (128, 32): 1 / 2,
    (64, 8): 8 / 15, (128, 16): 8 / 15, (256, 32): 2 / 3,
    (128, 8): 4 / 7, (256, 16): 2 / 3, (256, 8): 2 / 3,
}

#: Element strides of the strided pins below.
STRIDES = (0, 1, 2, 3, 5, 8)

#: Strided read R utilization per (elem_bits, banks), one entry per stride.
STRIDED_REFERENCE = {
    (32, 16): (16 / 133, 16 / 21, 16 / 21, 16 / 21, 16 / 21, 16 / 69),
    (64, 16): (16 / 69, 16 / 21, 16 / 21, 16 / 21, 16 / 21, 16 / 69),
    (128, 16): (16 / 37, 16 / 21, 16 / 21, 16 / 21, 16 / 21, 16 / 37),
    (256, 16): (16 / 21,) * 6,
    (32, 17): (8 / 63, 16 / 21, 16 / 21, 16 / 21, 16 / 21, 16 / 21),
    (64, 17): (8 / 33, 16 / 21, 16 / 21, 16 / 23, 16 / 21, 8 / 11),
    (128, 17): (16 / 37, 16 / 21, 16 / 21, 16 / 21, 8 / 11, 8 / 11),
    (256, 17): (16 / 21,) * 6,
}


@pytest.mark.parametrize("elem_bits,index_bits", FIG5A_SIZE_PAIRS)
def test_indirect_utilization_pinned(elem_bits, index_bits):
    measured = measure_indirect_utilization(
        elem_bits, index_bits, 17, num_beats=8, num_bursts=2
    )
    assert measured == INDIRECT_REFERENCE[(elem_bits, index_bits)]
    # Index lines share the word ports: r/(r+1) is a hard ceiling.
    assert measured <= ideal_indirect_utilization(elem_bits // 8, index_bits // 8)


@pytest.mark.parametrize("elem_bits,banks", sorted(STRIDED_REFERENCE))
def test_strided_utilization_pinned(elem_bits, banks):
    measured = tuple(
        measure_strided_utilization(elem_bits, stride, banks, num_beats=8)
        for stride in STRIDES
    )
    assert measured == STRIDED_REFERENCE[(elem_bits, banks)]


def test_figure_5a_rows_match_their_measurements():
    table = figure_5a(size_pairs=[(32, 16), (256, 8)], bank_counts=[16, 17],
                      num_beats=8)
    assert [row[:3] for row in table.rows] == [
        [32, 16, 16], [32, 16, 17], [32, 16, "ideal"],
        [256, 8, 16], [256, 8, 17], [256, 8, "ideal"],
    ]
    for elem_bits, index_bits, banks, utilization, bound in table.rows:
        assert bound == ideal_indirect_utilization(elem_bits // 8, index_bits // 8)
        assert utilization <= bound
        if banks == "ideal":
            # The ideal row is a conflict-free memory at the largest count.
            expected = measure_indirect_utilization(
                elem_bits, index_bits, 17, num_beats=8, conflict_free=True)
        else:
            expected = measure_indirect_utilization(
                elem_bits, index_bits, banks, num_beats=8)
        assert utilization == expected


def test_figure_5b_rows_average_their_strides():
    table = figure_5b(elem_sizes_bits=(32, 64), bank_counts=[16, 17],
                      strides=STRIDES, num_beats=8)
    assert f"averaged over {len(STRIDES)} strides" in table.caption
    assert [row[:2] for row in table.rows] == [[32, 16], [32, 17],
                                               [64, 16], [64, 17]]
    for elem_bits, banks, utilization in table.rows:
        assert utilization == float(np.mean(STRIDED_REFERENCE[(elem_bits, banks)]))
    by_cell = {(row[0], row[1]): row[2] for row in table.rows}
    # A prime bank count avoids the power-of-two conflicts on even strides.
    assert by_cell[(32, 17)] > by_cell[(32, 16)]
    assert by_cell[(64, 17)] > by_cell[(64, 16)]
