"""The paper's qualitative claims, checked on the figure drivers.

Each test states one shape the paper reports: PACK beats BASE on every
workload, strided kernels gain more than indirect ones, the dataflow
crossovers of Fig. 3b/3c, the speedup scaling of Fig. 3d/3e, the power and
energy envelope of Fig. 4c and the bank-count trends of Fig. 5a/5b.  The
exact numbers are pinned elsewhere (``test_headline_pins.py``,
``test_fig5_measurements.py``, ``test_hw_models.py``); these tests say which
way they must point.

Scales are the smallest at which each claim holds: Fig. 3a at ``small``
(its claims fail at ``tiny``), with Fig. 4c sharing that one grid, and the
Fig. 3b/3c crossovers at ``medium`` (BASE only loses column-wise once the
per-row streams are long enough for narrow strided accesses to dominate).
"""

from __future__ import annotations

import pytest

from repro.analysis.fig3 import (
    collect_figure_3a_comparisons,
    figure_3b,
    figure_3c,
    figure_3d,
    figure_3e,
)
from repro.analysis.fig4 import figure_4a, figure_4c
from repro.analysis.fig5 import figure_5a, figure_5b

STRIDED = ("ismt", "gemv", "trmv")
INDIRECT = ("spmv", "prank", "sssp")


@pytest.fixture(scope="module")
def comparisons():
    """One small-scale Fig. 3a grid, shared by the Fig. 3a and 4c checks."""
    return collect_figure_3a_comparisons(scale="small", verify=True)


@pytest.fixture(scope="module")
def fig4c(comparisons):
    table = figure_4c(comparisons=comparisons)
    return {row[0]: row for row in table.rows}


class TestFigure3a:
    def test_pack_beats_base_on_every_workload(self, comparisons):
        # Paper: 1.4x .. 5.4x, with correct results on every system.
        assert set(comparisons) == set(STRIDED + INDIRECT)
        for name, comparison in comparisons.items():
            for result in (comparison.base, comparison.pack, comparison.ideal):
                assert result.verified, (name, result.kind)
            assert comparison.pack_speedup > 1.0, name

    def test_pack_raises_r_utilization_on_every_workload(self, comparisons):
        for name, comparison in comparisons.items():
            assert comparison.pack.r_utilization > comparison.base.r_utilization, name

    def test_strided_kernels_gain_more_than_indirect_ones(self, comparisons):
        # Paper: 87% R utilization and 5.4x for strided, 39% and 2.4x for
        # indirect; at equal stream length gemv outgains spmv.
        assert comparisons["gemv"].pack_speedup > comparisons["spmv"].pack_speedup
        best_speedup = {
            group: max(comparisons[n].pack_speedup for n in names)
            for group, names in (("strided", STRIDED), ("indirect", INDIRECT))
        }
        best_util = {
            group: max(comparisons[n].pack.r_utilization for n in names)
            for group, names in (("strided", STRIDED), ("indirect", INDIRECT))
        }
        assert best_speedup["strided"] > best_speedup["indirect"]
        assert best_util["strided"] > best_util["indirect"]


class TestFigure4c:
    def test_powers_stay_in_the_paper_envelope(self, fig4c):
        # Paper: 100-300 mW per benchmark; PACK draws at most +31%.
        for name, row in fig4c.items():
            base_power, pack_power, power_increase = row[1], row[2], row[3]
            assert 80 < base_power < 330, name
            assert 80 < pack_power < 360, name
            assert power_increase < 0.45, name

    def test_every_workload_gains_energy_efficiency(self, fig4c):
        # Paper: 1.4x .. 5.3x.
        assert set(fig4c) == set(STRIDED + INDIRECT)
        for name, row in fig4c.items():
            assert row[5] > 1.0, name

    def test_strided_efficiency_gain_exceeds_indirect(self, fig4c):
        assert fig4c["gemv"][5] > fig4c["sssp"][5]


def _dataflow(table):
    cycles = {(row[0], row[1]): row[2] for row in table.rows}
    utils = {(row[0], row[1]): row[3] for row in table.rows}
    assert all(row[-1] for row in table.rows)
    return cycles, utils


class TestDataflowCrossovers:
    def test_fig3b_gemv_column_flow_wins_only_when_packed(self):
        cycles, _ = _dataflow(figure_3b(scale="medium", verify=True))
        # Row-wise flows use only contiguous accesses: BASE and PACK are
        # (nearly) identical, as in the paper's identical bars.
        base_row, pack_row = cycles[("row", "base")], cycles[("row", "pack")]
        assert abs(base_row - pack_row) / base_row < 0.1
        assert cycles[("col", "base")] > cycles[("row", "base")]
        assert cycles[("col", "pack")] < cycles[("row", "pack")]

    def test_fig3c_trmv_column_flow_wins_only_when_packed(self):
        cycles, utils = _dataflow(figure_3c(scale="medium", verify=True))
        assert cycles[("col", "base")] > cycles[("row", "base")]
        assert cycles[("col", "pack")] < cycles[("row", "pack")]
        # Paper: 72% column-wise PACK vs 23% row-wise BASE.
        assert utils[("col", "pack")] > 2 * utils[("row", "base")]


class TestSpeedupScaling:
    def test_fig3d_ismt_speedup_grows_with_dimension_and_bus_width(self):
        table = figure_3d(dimensions=[8, 16, 32, 64], bus_bits=(64, 128, 256))
        speedups = {(row[0], row[1]): row[4] for row in table.rows}
        small, large = 8, 64
        for bus in (64, 128, 256):
            assert speedups[(bus, large)] > speedups[(bus, small)], bus
        # Paper: 1.9x / 3.2x / 5.4x on 64 / 128 / 256-bit buses.
        assert (speedups[(256, large)] > speedups[(128, large)]
                > speedups[(64, large)])
        # AXI-Pack never slows a workload down, however short its streams.
        assert all(value > 0.95 for value in speedups.values())

    def test_fig3e_spmv_speedup_grows_with_row_length(self):
        table = figure_3e(nnz_per_row=[2, 8, 24, 48], bus_bits=(64, 128, 256),
                          num_rows=48)
        speedups = {(row[0], row[1]): row[4] for row in table.rows}
        short, long_ = 2, 48
        # Paper: converging to 1.4x / 1.8x / 2.4x.  The 64-bit curve is
        # nearly flat in the paper too, so only the wider buses must grow.
        for bus in (128, 256):
            assert speedups[(bus, long_)] > speedups[(bus, short)], bus
        assert speedups[(64, long_)] > 1.0
        assert speedups[(256, long_)] >= speedups[(64, long_)]
        # Request bundling keeps PACK ahead even at 2 nonzeros per row.
        assert all(value > 0.9 for value in speedups.values())


class TestFigure4a:
    def test_adapter_area_grows_with_bus_width_at_every_clock(self):
        table = figure_4a()
        # Each width also gets a row at its own minimum period; the
        # requested clock constraints are shared by all three widths.
        for clock in (1000, 1250, 1500, 2000, 2500, 3000):
            by_width = sorted((row[0], row[2]) for row in table.rows
                              if row[1] == clock)
            areas = [area for _, area in by_width]
            assert len(areas) == 3 and areas == sorted(areas), clock


class TestFigure5Sensitivity:
    SIZE_PAIRS = ((32, 32), (32, 16), (32, 8), (64, 32), (128, 32), (256, 32))

    def test_fig5a_indirect_utilization_trends(self):
        table = figure_5a(size_pairs=self.SIZE_PAIRS, bank_counts=(8, 17, 32),
                          num_beats=32)
        util = {(row[0], row[1], row[2]): row[3] for row in table.rows}
        bound = {(row[0], row[1]): row[4] for row in table.rows}
        for elem, idx in self.SIZE_PAIRS:
            if elem == 32:
                # Single-word elements are independent random bank
                # accesses: more banks help.
                assert util[(elem, idx, 8)] <= util[(elem, idx, 17)] + 0.02
                assert util[(elem, idx, 17)] <= util[(elem, idx, 32)] + 0.02
            else:
                # Multi-word elements are bank-aligned runs; more banks
                # must never hurt much.
                assert util[(elem, idx, 32)] >= util[(elem, idx, 8)] - 0.08
            # A conflict-free memory approaches the r/(r+1) bound.
            assert util[(elem, idx, "ideal")] <= bound[(elem, idx)] + 0.02
            assert util[(elem, idx, "ideal")] > 0.6 * bound[(elem, idx)]
        # Larger element/index ratios utilize the bus better.
        assert util[(32, 8, 17)] > util[(32, 16, 17)] > util[(32, 32, 17)]
        assert util[(256, 32, 17)] > util[(64, 32, 17)] > util[(32, 32, 17)]

    def test_fig5b_prime_bank_counts_beat_power_of_two(self):
        table = figure_5b(elem_sizes_bits=(32, 64, 128),
                          bank_counts=(8, 16, 17, 31),
                          strides=range(0, 64, 2), num_beats=8)
        util = {(row[0], row[1]): row[2] for row in table.rows}
        for elem in (32, 64, 128):
            assert util[(elem, 17)] > util[(elem, 16)], elem
            assert util[(elem, 31)] > util[(elem, 16)], elem
            # More banks never hurt.
            assert util[(elem, 16)] >= util[(elem, 8)] - 0.02, elem
        # Larger elements span fewer aligned words per line: fewer conflicts.
        assert util[(128, 8)] >= util[(32, 8)]
