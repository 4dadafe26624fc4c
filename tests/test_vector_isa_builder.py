"""Unit tests for the ISA definitions and the program builder."""

import pytest

from repro.errors import WorkloadError
from repro.vector.builder import AraProgramBuilder, Program
from repro.vector.config import LoweringMode
from repro.vector.isa import AXI_PACK_ONLY, Mnemonic, check_supported
from repro.vector.ops import ScalarWork, VectorCompute, VectorLoad, VectorStore


def make_builder(mode=LoweringMode.PACK):
    return AraProgramBuilder("test", mode)


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

    def test_program_records_one_op_per_instruction(self):
        builder = make_builder()
        builder.vle32("v1", 0, 8)
        builder.vfadd("v2", "v1", "v1", 8)
        builder.vse32("v2", 64, 8)
        program = builder.build()
        assert program.num_instructions == 3
        assert isinstance(program.ops[0], VectorLoad)
        assert isinstance(program.ops[1], VectorCompute)
        assert isinstance(program.ops[2], VectorStore)
        assert [op.mnemonic for op in program.ops] == [
            Mnemonic.VLE32, Mnemonic.VFADD, Mnemonic.VSE32]
        assert [op.is_memory for op in program.ops] == [True, False, True]

    def test_listing_names_every_op_and_truncates(self):
        builder = make_builder()
        builder.scalar(3, label="setup")
        builder.vle32("v1", 0x1000, 8, label="row 0")
        builder.vlse32("v2", 0x2000, 8, stride_elems=4)
        builder.vlimxei32("v3", 0x3000, 0x4000, 8)
        builder.vfmacc("v4", "v1", "v2", 8)
        builder.vsse32("v4", 0x5000, 8, stride_elems=2)
        program = builder.build()
        lines = program.listing().splitlines()
        assert lines == [
            "scalar cycles=3  # setup  [vl=0]",
            "vle32.v vd=v1, base=0x1000  # row 0  [vl=8]",
            "vlse32.v vd=v2, base=0x2000, stride=4  [vl=8]",
            "vlimxei32.v vd=v3, base=0x3000, idx_base=0x4000  [vl=8]",
            "vfmacc.vv vd=v4, srcs=v1,v2,v4  [vl=8]",
            "vsse32.v vs=v4, base=0x5000, stride=2  [vl=8]",
        ]
        assert [line.split()[0] for line in lines] == [
            op.mnemonic.value for op in program.ops]
        truncated = program.listing(limit=2).splitlines()
        assert truncated == lines[:2] + ["... (4 more instructions)"]
        assert program.listing(limit=6) == program.listing()

    def test_listing_names_the_index_register_of_a_register_gather(self):
        builder = make_builder(LoweringMode.BASE)
        builder.vle32("v9", 0x100, 8, kind="index", dtype="uint32")
        builder.vluxei32("v2", 0x800, "v9", 8, index_base=0x100)
        builder.vsuxei32("v2", 0x900, "v9", 8, index_base=0x100)
        lines = builder.build().listing().splitlines()
        assert lines[1] == "vluxei32.v vd=v2, base=0x800, vs2=v9  [vl=8]"
        assert lines[2] == "vsuxei32.v vs=v2, base=0x900, vs2=v9  [vl=8]"


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


def _pack_only_mnemonic(builder):
    builder.vle32("v1", 0, 8)
    builder.program.ops[0].mnemonic = Mnemonic.VLIMXEI32
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


def _load_tagged_vfadd(builder):
    builder.vle32("v1", 0, 8)
    builder.program.ops[0].mnemonic = Mnemonic.VFADD
    return builder.program


def _contiguous_store_tagged_vlse32(builder):
    builder.vle32("v1", 0, 8)
    builder.vse32("v1", 0x100, 8)
    builder.program.ops[1].mnemonic = Mnemonic.VLSE32
    return builder.program


def _scatter_tagged_register_indexed(builder):
    builder.vmv_vx("v1", 1.0, 8)
    builder.vsimxei32("v1", 0, 0x100, 8)
    builder.program.ops[1].mnemonic = Mnemonic.VSUXEI32
    return builder.program


def _compute_tagged_vle32(builder):
    builder.vmv_vx("v1", 1.0, 8)
    builder.program.ops[0].mnemonic = Mnemonic.VLE32
    return builder.program


def _scalar_tagged_vfadd(builder):
    builder.scalar(3)
    builder.program.ops[0].mnemonic = Mnemonic.VFADD
    return builder.program


def _overlong_compute(builder):
    count = builder.max_vl + 1
    builder.vmv_vx("v1", 1.0, count)
    return builder.program


#: (corruption, lowering mode, expected message) per Program.validate check.
INVALID_PROGRAMS = [
    (_empty, LoweringMode.PACK, "contains no instructions"),
    (_pack_only_mnemonic, LoweringMode.BASE,
     r"vlimxei32\.v requires the AXI-Pack vector extension"),
    (_misnumbered_op, LoweringMode.PACK, "op_id 5 != position 1"),
    (_streamless_load, LoweringMode.PACK, "memory op has no stream"),
    (_overlong_load, LoweringMode.PACK, r"\(vle32\.v\): vl \d+ exceeds max_vl"),
    (_flagged_in_memory_indices, LoweringMode.BASE,
     "in-memory indices need the AXI-Pack extension"),
    (_gather_without_index_register, LoweringMode.BASE,
     "register-indexed op names no index register"),
    (_overlong_compute, LoweringMode.PACK,
     r"\(vmv\.v\.x\): vl \d+ exceeds max_vl"),
    (_load_tagged_vfadd, LoweringMode.BASE,
     r"op 0 \(vfadd\.vv\): contiguous loads carry vle32\.v"),
    (_contiguous_store_tagged_vlse32, LoweringMode.PACK,
     r"op 1 \(vlse32\.v\): contiguous stores carry vse32\.v"),
    (_scatter_tagged_register_indexed, LoweringMode.PACK,
     r"op 1 \(vsuxei32\.v\): in-memory-indexed stores carry vsimxei32\.v"),
    (_compute_tagged_vle32, LoweringMode.IDEAL,
     r"op 0 \(vle32\.v\): arithmetic ops cannot carry vle32\.v"),
    (_scalar_tagged_vfadd, LoweringMode.BASE,
     r"op 0 \(vfadd\.vv\): scalar work carries scalar"),
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
