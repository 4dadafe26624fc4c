"""Unit tests for the ISA definitions and the program builder."""

import pytest

from repro.errors import WorkloadError
from repro.vector.builder import AraProgramBuilder, Program
from repro.vector.config import LoweringMode, VectorEngineConfig
from repro.vector.isa import (
    AXI_PACK_ONLY,
    Instruction,
    MEMORY_MNEMONICS,
    Mnemonic,
    check_supported,
)
from repro.vector.ops import ScalarWork, VectorCompute, VectorLoad, VectorStore


def make_builder(mode=LoweringMode.PACK):
    return AraProgramBuilder("test", mode, VectorEngineConfig())


class TestIsa:
    def test_new_instructions_are_axi_pack_only(self):
        assert Mnemonic.VLIMXEI32 in AXI_PACK_ONLY
        assert Mnemonic.VSIMXEI32 in AXI_PACK_ONLY
        assert Mnemonic.VLUXEI32 not in AXI_PACK_ONLY

    def test_check_supported(self):
        check_supported(Mnemonic.VLIMXEI32, LoweringMode.PACK)
        with pytest.raises(WorkloadError):
            check_supported(Mnemonic.VLIMXEI32, LoweringMode.BASE)
        with pytest.raises(WorkloadError):
            check_supported(Mnemonic.VSIMXEI32, LoweringMode.IDEAL)

    def test_memory_classification(self):
        assert Mnemonic.VLE32 in MEMORY_MNEMONICS
        assert Mnemonic.VFMACC not in MEMORY_MNEMONICS

    def test_instruction_render(self):
        instr = Instruction(Mnemonic.VLSE32, vl=64, operands={"vd": "v1"}, comment="x")
        text = instr.render()
        assert "vlse32.v" in text and "vl=64" in text and "x" in text
        assert instr.is_memory and not instr.is_reduction

    def test_reduction_classification(self):
        assert Instruction(Mnemonic.VFREDSUM, vl=8).is_reduction


class TestBuilderBasics:
    def test_empty_program_rejected(self):
        with pytest.raises(WorkloadError):
            make_builder().build()

    def test_strip_mine(self):
        builder = make_builder()
        chunks = builder.strip_mine(builder.max_vl * 2 + 5)
        assert chunks == [builder.max_vl, builder.max_vl, 5]
        assert sum(chunks) == builder.max_vl * 2 + 5

    def test_strip_mine_rejects_zero(self):
        with pytest.raises(WorkloadError):
            make_builder().strip_mine(0)

    def test_program_records_instructions_and_ops(self):
        builder = make_builder()
        builder.vle32("v1", 0, 8)
        builder.vfadd("v2", "v1", "v1", 8)
        builder.vse32("v2", 64, 8)
        program = builder.build()
        assert program.num_instructions == 3
        assert isinstance(program.ops[0], VectorLoad)
        assert isinstance(program.ops[1], VectorCompute)
        assert isinstance(program.ops[2], VectorStore)
        assert len(program.memory_ops()) == 2

    def test_listing_truncation(self):
        builder = make_builder()
        for _ in range(5):
            builder.scalar(1)
        listing = builder.build().listing(limit=2)
        assert "more instructions" in listing


class TestDependencies:
    def test_raw_dependency(self):
        builder = make_builder()
        load = builder.vle32("v1", 0, 8)
        add = builder.vfadd("v2", "v1", "v1", 8)
        assert load in builder.program.ops[add].deps

    def test_store_depends_on_producer(self):
        builder = make_builder()
        load = builder.vle32("v1", 0, 8)
        store = builder.vse32("v1", 64, 8)
        assert load in builder.program.ops[store].deps

    def test_war_dependency_recorded(self):
        builder = make_builder()
        builder.vle32("v1", 0, 8)
        add = builder.vfadd("v2", "v1", "v1", 8)
        reload_ = builder.vle32("v1", 64, 8)
        assert add in builder.program.ops[reload_].deps

    def test_waw_dependency_recorded(self):
        builder = make_builder()
        first = builder.vle32("v1", 0, 8)
        second = builder.vle32("v1", 64, 8)
        assert first in builder.program.ops[second].deps

    def test_ordered_store_acts_as_fence(self):
        builder = make_builder()
        store = builder.vse32("v1", 0, 8, ordered=True)
        # v1 was never written; build a producer first to avoid that error.
        builder2 = make_builder()
        builder2.vle32("v1", 0, 8)
        store = builder2.vse32("v1", 64, 8, ordered=True)
        follow = builder2.vle32("v2", 128, 8)
        assert store in builder2.program.ops[follow].deps

    def test_fence_orders_after_all_memory(self):
        builder = make_builder()
        builder.vle32("v1", 0, 8)
        last = builder.vle32("v2", 64, 8)
        builder.fence()
        follow = builder.vle32("v3", 128, 8)
        assert last in builder.program.ops[follow].deps

    def test_index_register_dependency_for_vluxei(self):
        builder = make_builder(LoweringMode.BASE)
        idx = builder.vle32("v9", 0x100, 8, kind="index", dtype="uint32")
        gather = builder.vluxei32("v2", 0, "v9", 8, index_base=0x100)
        assert idx in builder.program.ops[gather].deps
        assert builder.program.ops[gather].index_values_reg == "v9"


class TestIsaGating:
    def test_vlimxei_requires_pack(self):
        with pytest.raises(WorkloadError):
            make_builder(LoweringMode.BASE).vlimxei32("v1", 0, 0x100, 8)
        with pytest.raises(WorkloadError):
            make_builder(LoweringMode.IDEAL).vsimxei32("v1", 0, 0x100, 8)

    def test_vlimxei_allowed_on_pack(self):
        builder = make_builder(LoweringMode.PACK)
        op_id = builder.vlimxei32("v1", 0, 0x100, 8)
        op = builder.program.ops[op_id]
        assert op.uses_in_memory_indices
        assert op.stream.index_base == 0x100

    def test_regular_instructions_on_all_modes(self):
        for mode in LoweringMode:
            builder = make_builder(mode)
            builder.vle32("v1", 0, 8)
            builder.vlse32("v2", 0, 8, stride_elems=4)
            assert builder.build().num_instructions == 2


class TestComputeHelpers:
    def test_vfmacc_reads_accumulator(self):
        builder = make_builder()
        builder.vle32("v1", 0, 8)
        builder.vmv_vx("v4", 0.0, 8)
        macc = builder.vfmacc("v4", "v1", "v1", 8)
        op = builder.program.ops[macc]
        assert "v4" in op.srcs

    def test_reduction_flag(self):
        builder = make_builder()
        builder.vle32("v1", 0, 8)
        red = builder.vfredsum("v2", "v1", 8)
        assert builder.program.ops[red].is_reduction

    def test_scalar_records_cycles(self):
        builder = make_builder()
        op_id = builder.scalar(7, label="loop")
        op = builder.program.ops[op_id]
        assert isinstance(op, ScalarWork) and op.cycles == 7


def _empty(builder):
    return Program("empty", builder.mode)


def _drop_instruction(builder):
    builder.vle32("v1", 0, 8)
    builder.program.instructions.pop()
    return builder.program


def _misnumbered_op(builder):
    builder.vle32("v1", 0, 8)
    builder.vse32("v1", 0x100, 8)
    builder.program.ops[1].op_id = 5
    return builder.program


def _streamless_load(builder):
    builder.vle32("v1", 0, 8)
    builder.program.ops[0].stream = None
    return builder.program


def _overlong_load(builder):
    builder.vle32("v1", 0, builder.max_vl + 1)
    return builder.program


def _flagged_in_memory_indices(builder):
    builder.vle32("v1", 0, 8)
    builder.program.ops[0].uses_in_memory_indices = True
    return builder.program


def _gather_without_index_register(builder):
    builder.vle32("v9", 0x800, 8, kind="index", dtype="uint32")
    builder.vluxei32("v1", 0, "v9", 8, index_base=0x800)
    builder.program.ops[1].index_values_reg = None
    return builder.program


def _overlong_compute(builder):
    count = builder.max_vl + 1
    builder.vmv_vx("v1", 1.0, count)
    return builder.program


#: (corruption, lowering mode, expected message) per Program.validate check.
INVALID_PROGRAMS = [
    (_empty, LoweringMode.PACK, "contains no instructions"),
    (_drop_instruction, LoweringMode.PACK, "1 ops but 0 instructions"),
    (_misnumbered_op, LoweringMode.PACK, "op_id 5 != position 1"),
    (_streamless_load, LoweringMode.PACK, "memory op has no stream"),
    (_overlong_load, LoweringMode.PACK, r"\(vle32\.v\): vl \d+ exceeds max_vl"),
    (_flagged_in_memory_indices, LoweringMode.BASE,
     "in-memory indices need the AXI-Pack extension"),
    (_gather_without_index_register, LoweringMode.BASE,
     "register-indexed op names no index register"),
    (_overlong_compute, LoweringMode.PACK,
     r"\(vmv\.v\.x\): vl \d+ exceeds max_vl"),
]


class TestProgramValidate:
    @pytest.mark.parametrize(
        ("corrupt", "mode", "message"), INVALID_PROGRAMS,
        ids=[case[0].__name__.lstrip("_") for case in INVALID_PROGRAMS])
    def test_rejects(self, corrupt, mode, message):
        program = corrupt(make_builder(mode))
        with pytest.raises(WorkloadError, match=message):
            program.validate()


def test_lowering_mode_capabilities():
    """Only PACK has the in-memory-indexed instructions; PACK and IDEAL
    both pack irregular accesses into full beats."""
    assert [mode.has_axi_pack for mode in LoweringMode] == [False, True, False]
    assert [mode.packs_irregular for mode in LoweringMode] == [False, True,
                                                               True]
