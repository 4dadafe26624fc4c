"""Integration tests: every workload verifies on every system."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.mem.storage import MemoryStorage
from repro.system.config import SystemConfig, SystemKind
from repro.system.runner import run_workload
from repro.system.soc import build_system
from repro.vector.config import LoweringMode
from repro.vector.isa import Mnemonic
from repro.workloads import (
    GemvWorkload,
    IsmtWorkload,
    PageRankWorkload,
    SpmvWorkload,
    SsspWorkload,
    TrmvWorkload,
    make_workload,
)
from repro.workloads.base import MemoryLayout
from repro.workloads.sparse import CsrMatrix
from repro.workloads.registry import WORKLOAD_ORDER, WORKLOADS

SMALL = SystemConfig(memory_bytes=1 << 21)
ALL_KINDS = (SystemKind.BASE, SystemKind.PACK, SystemKind.IDEAL)


class TestMemoryLayout:
    def test_alignment_and_lookup(self):
        layout = MemoryLayout(base=0x100, alignment=64)
        a = layout.place("a", 100)
        b = layout.place("b", 10)
        assert a % 64 == 0
        assert b % 64 == 0 and b >= a + 100
        assert layout.addr("a") == a
        assert layout.total_bytes >= b + 10

    def test_unknown_region_rejected(self):
        with pytest.raises(WorkloadError):
            MemoryLayout().addr("missing")


class TestRegistry:
    def test_all_six_workloads_registered(self):
        # The paper's six figure benchmarks, plus registered extras.
        assert set(WORKLOAD_ORDER) <= set(WORKLOADS)
        assert len(WORKLOAD_ORDER) == 6
        assert "csrspmv" in WORKLOADS

    def test_make_workload(self):
        workload = make_workload("spmv", size=16)
        assert workload.name == "spmv"
        assert workload.category == "indirect"

    def test_unknown_name_rejected(self):
        with pytest.raises(WorkloadError):
            make_workload("nonsense")


@pytest.mark.parametrize("name", WORKLOAD_ORDER + ("csrspmv",))
@pytest.mark.parametrize("kind", ALL_KINDS)
class TestEndToEndCorrectness:
    def test_workload_verifies(self, name, kind):
        workload = make_workload(name, size=16)
        result = run_workload(workload, SMALL, kind=kind)
        assert result.verified is True, f"{name} produced wrong results on {kind}"
        assert result.cycles > 0


class TestIsmt:
    def test_reference_is_transpose(self):
        workload = IsmtWorkload(n=8)
        assert np.array_equal(workload.reference(), workload.matrix.T)

    def test_verify_detects_corruption(self):
        workload = IsmtWorkload(n=8)
        storage = MemoryStorage(1 << 16)
        workload.initialize(storage)
        assert workload.verify(storage) is False  # nothing ran yet

    def test_program_uses_strided_accesses(self):
        workload = IsmtWorkload(n=8)
        program = workload.build_program(LoweringMode.PACK, SMALL.vector_config())
        mnemonics = {op.mnemonic for op in program.ops}
        assert Mnemonic.VLSE32 in mnemonics
        assert Mnemonic.VSSE32 in mnemonics


class TestGemv:
    def test_auto_dataflow_selection(self):
        workload = GemvWorkload(n=16)
        assert workload.chosen_dataflow(LoweringMode.BASE) == "row"
        assert workload.chosen_dataflow(LoweringMode.PACK) == "col"
        assert workload.chosen_dataflow(LoweringMode.IDEAL) == "col"

    def test_forced_dataflow(self):
        workload = GemvWorkload(n=16, dataflow="row")
        assert workload.chosen_dataflow(LoweringMode.PACK) == "row"

    def test_invalid_dataflow_rejected(self):
        with pytest.raises(WorkloadError):
            GemvWorkload(n=8, dataflow="diagonal")

    def test_colwise_program_has_strided_loads(self):
        program = GemvWorkload(n=16, dataflow="col").build_program(
            LoweringMode.PACK, SMALL.vector_config()
        )
        assert any(op.mnemonic is Mnemonic.VLSE32 for op in program.ops)

    def test_rowwise_program_has_reductions(self):
        program = GemvWorkload(n=16, dataflow="row").build_program(
            LoweringMode.BASE, SMALL.vector_config()
        )
        assert any(op.mnemonic is Mnemonic.VFREDSUM for op in program.ops)

    def test_forced_colwise_verifies_on_base(self):
        result = run_workload(GemvWorkload(n=16, dataflow="col"), SMALL,
                              kind=SystemKind.BASE)
        assert result.verified is True

    def test_rowwise_verifies_on_pack(self):
        result = run_workload(GemvWorkload(n=16, dataflow="row"), SMALL,
                              kind=SystemKind.PACK)
        assert result.verified is True


class TestTrmv:
    def test_reference_uses_upper_triangle(self):
        workload = TrmvWorkload(n=12)
        assert np.allclose(workload.reference(),
                           np.triu(workload.matrix) @ workload.x, rtol=1e-5)

    def test_colwise_verifies_on_pack(self):
        result = run_workload(TrmvWorkload(n=16, dataflow="col"), SMALL,
                              kind=SystemKind.PACK)
        assert result.verified is True


class TestIndirectWorkloads:
    def test_spmv_uses_vlimxei_only_on_pack(self):
        workload = SpmvWorkload(num_rows=16, avg_nnz_per_row=8)
        pack_program = workload.build_program(LoweringMode.PACK, SMALL.vector_config())
        base_program = workload.build_program(LoweringMode.BASE, SMALL.vector_config())
        pack_mnemonics = {op.mnemonic for op in pack_program.ops}
        base_mnemonics = {op.mnemonic for op in base_program.ops}
        assert Mnemonic.VLIMXEI32 in pack_mnemonics
        assert Mnemonic.VLIMXEI32 not in base_mnemonics
        assert Mnemonic.VLUXEI32 in base_mnemonics

    def test_spmv_reference(self):
        workload = SpmvWorkload(num_rows=16, avg_nnz_per_row=4)
        assert np.allclose(workload.reference(), workload.matrix.multiply(workload.x))

    def test_pagerank_ranks_stay_positive(self):
        workload = PageRankWorkload(num_rows=16)
        assert np.all(workload.reference() > 0)

    def test_sssp_source_distance_zero(self):
        workload = SsspWorkload(num_rows=16, source=3)
        assert workload.dist[3] == 0.0
        reference = workload.reference()
        assert reference[3] == 0.0 or reference[3] <= workload.dist[3]

    def test_custom_matrix_accepted(self):
        from repro.workloads.sparse import random_csr

        matrix = random_csr(20, 20, avg_nnz_per_row=5, seed=3)
        workload = SpmvWorkload(matrix=matrix)
        assert workload.matrix.num_rows == 20
        result = run_workload(workload, SMALL, kind=SystemKind.PACK)
        assert result.verified is True


class TestCrossSystemConsistency:
    """The same workload must produce identical results on every system."""

    @pytest.mark.parametrize("name", ["gemv", "spmv"])
    def test_outputs_identical_across_systems(self, name):
        outputs = {}
        for kind in ALL_KINDS:
            workload = make_workload(name, size=16)
            config = SMALL.with_kind(kind)
            from repro.system.soc import build_system

            soc = build_system(config)
            workload.initialize(soc.storage)
            program = workload.build_program(config.lowering, config.vector_config())
            soc.run_program(program)
            addr = workload.addr_y if hasattr(workload, "addr_y") else workload.addr_out
            outputs[kind] = soc.storage.read_array(addr, 16, np.float32)
        base, pack, ideal = outputs[SystemKind.BASE], outputs[SystemKind.PACK], outputs[SystemKind.IDEAL]
        assert np.allclose(base, pack, rtol=1e-5, atol=1e-6)
        assert np.allclose(base, ideal, rtol=1e-5, atol=1e-6)


#: 4x4 CSR matrix whose rows 1 and 3 hold no nonzeros.
EMPTY_ROWS = CsrMatrix(4, 4, row_ptr=[0, 2, 2, 4, 4], col_idx=[0, 3, 1, 2],
                       values=[1.5, -2.0, 0.5, 3.0])


class TestEmptyCsrRows:
    """A row without nonzeros still stores its neutral result (0 for the
    sum reduction, the current distance for sssp's min)."""

    @pytest.mark.parametrize(("workload_cls", "output", "cycles"), [
        (SpmvWorkload, "addr_y", {"base": 118, "pack": 100, "ideal": 109}),
        (SsspWorkload, "addr_dist_out",
         {"base": 138, "pack": 120, "ideal": 129}),
    ], ids=["spmv", "sssp"])
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.value)
    def test_empty_rows_store_and_verify(self, workload_cls, output, cycles,
                                         kind):
        workload = workload_cls(matrix=EMPTY_ROWS)
        config = SMALL.with_kind(kind)
        soc = build_system(config)
        workload.initialize(soc.storage)
        # A NaN sentinel: an empty row that stored nothing fails verify.
        soc.storage.write_array(getattr(workload, output),
                                np.full(4, np.nan, dtype=np.float32))
        program = workload.build_program(config.lowering,
                                         config.vector_config())
        ran, _ = soc.run_program(program)
        assert workload.verify(soc.storage)
        assert ran == cycles[kind.value]
