"""Unit tests for the fuzz package: case normalization, program lowering,
the functional oracle, program validation, and a bounded hypothesis sweep."""

import dataclasses

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.fuzz import (
    FuzzCase,
    FuzzDivergence,
    OpSpec,
    build_case_programs,
    case_from_dict,
    case_to_dict,
    initialize_image,
    interpret_program,
    plan_case,
    run_fuzz_case,
)
from repro.fuzz.case import (
    INPUT_BASE,
    INPUT_ELEMS,
    MAX_COUNT,
    OUTPUT_BASE,
)
from repro.fuzz.runner import FUZZ_MEMORY_BYTES
from repro.mem.storage import MemoryStorage
from repro.vector.builder import AraProgramBuilder
from repro.vector.config import LoweringMode, VectorEngineConfig
from repro.workloads.registry import (
    EXTRA_WORKLOADS,
    WORKLOAD_ORDER,
    WORKLOADS,
    all_workload_names,
    make_workload,
)


class TestPlanNormalization:
    def test_counts_and_offsets_are_clamped_into_the_input_region(self):
        case = FuzzCase(segments=((
            OpSpec("vle", count=10_000, offset=INPUT_ELEMS + 5),),))
        [op] = plan_case(case).segments[0]
        assert op.base == INPUT_BASE + 5 * 4
        assert 1 <= op.count <= min(MAX_COUNT, INPUT_ELEMS - 5)
        end = op.base + op.count * 4
        assert end <= INPUT_BASE + INPUT_ELEMS * 4

    def test_strided_span_never_leaves_the_input_region(self):
        case = FuzzCase(segments=((
            OpSpec("vlse", count=MAX_COUNT, offset=2000, stride=30),),))
        [op] = plan_case(case).segments[0]
        last = op.base + (op.count - 1) * op.stride * 4
        assert last < INPUT_BASE + INPUT_ELEMS * 4

    def test_gather_indices_wrap_into_the_input_region(self):
        case = FuzzCase(segments=((
            OpSpec("gather", indices=(0, INPUT_ELEMS, 3 * INPUT_ELEMS + 7)),),))
        [op] = plan_case(case).segments[0]
        assert list(op.indices) == [0, 0, 7]

    def test_scatter_indices_become_a_permutation(self):
        case = FuzzCase(segments=((
            OpSpec("scatter", indices=(3, 3, 3, 0)),),))
        [op] = plan_case(case).segments[0]
        assert sorted(op.indices) == [0, 1, 2, 3]
        assert op.indices[0] == 3  # first claim wins, duplicates advance

    def test_store_regions_are_disjoint_and_sharding_independent(self):
        case = FuzzCase(segments=(
            (OpSpec("vse", count=64), OpSpec("vsse", count=16, stride=4)),
            (OpSpec("scatter", indices=(1, 0, 2)),),
        ))
        plan = plan_case(case)
        regions = []
        for segment in plan.segments:
            for op in segment:
                if op.kind == "vse":
                    regions.append((op.base, op.base + op.count * 4))
                elif op.kind == "vsse":
                    nbytes = ((op.count - 1) * op.stride + 1) * 4
                    regions.append((op.base, op.base + nbytes))
                elif op.kind == "scatter":
                    regions.append((op.base, op.base + op.count * 4))
        regions.sort()
        assert regions[0][0] >= OUTPUT_BASE
        for (_, hi), (lo, _) in zip(regions, regions[1:]):
            assert hi <= lo

    def test_case_json_roundtrip(self):
        case = FuzzCase(kind="base", seed=99, segments=(
            (OpSpec("gather", dest=2, indices=(1, 2, 3)),
             OpSpec("scalar", cycles=3)),
            (OpSpec("fence_readback", dest=1, src=0, count=20),),
        ))
        assert case_from_dict(case_to_dict(case)) == case


class TestProgramLowering:
    def test_lowering_is_deterministic(self):
        case = FuzzCase(kind="pack", seed=1, segments=(
            (OpSpec("vle", count=33), OpSpec("vse", count=33)),))
        first, second = build_case_programs(case), build_case_programs(case)
        assert first[0].listing() == second[0].listing()

    def test_segment_emission_is_identical_across_sharding(self):
        """The same segment must lower to the same instructions whether it
        shares a program with another segment or owns one."""
        case = FuzzCase(kind="base", seed=2, segments=(
            (OpSpec("vle", dest=0, count=16), OpSpec("vse", src=0, count=16)),
            (OpSpec("add", dest=1, src=0, src2=0, count=8),
             OpSpec("vse", src=1, count=8)),
        ))
        [joint] = build_case_programs(case, num_engines=1)
        split = build_case_programs(case, num_engines=2)
        joined = "\n".join(p.listing() for p in split)
        assert joint.listing() == joined

    def test_single_segment_two_engines_gets_an_idle_shard(self):
        case = FuzzCase(segments=((OpSpec("vle"),),))
        programs = build_case_programs(case, num_engines=2)
        assert len(programs) == 2
        assert programs[1].num_instructions == 1  # the idle scalar op

    def test_gather_lowers_per_mode(self):
        case = FuzzCase(segments=((OpSpec("gather", indices=(1, 2)),),))
        pack = build_case_programs(dataclasses.replace(case, kind="pack"))[0]
        base = build_case_programs(dataclasses.replace(case, kind="base"))[0]
        assert "vlimxei32" in pack.listing()
        assert "vluxei32" in base.listing() and "vle32" in base.listing()

    def test_all_generated_programs_validate(self):
        case = FuzzCase(kind="ideal", seed=3, segments=(
            (OpSpec("vlse", count=40, stride=2),
             OpSpec("macc", dest=1, src=0, src2=0, count=12),
             OpSpec("redsum", dest=2, src=1, count=12),
             OpSpec("vse", src=2, count=1),
             OpSpec("fence_readback", dest=3, src=0, count=9)),))
        for program in build_case_programs(case):
            program.validate()  # must not raise


class TestOracle:
    def _run(self, case):
        plan = plan_case(case)
        storage = MemoryStorage(FUZZ_MEMORY_BYTES)
        initialize_image(storage, plan)
        [program] = build_case_programs(plan)
        regs = interpret_program(program, storage)
        return plan, storage, regs

    def test_contiguous_store_lands_where_planned(self):
        case = FuzzCase(kind="pack", seed=7, segments=(
            (OpSpec("vle", dest=0, count=8, offset=3),
             OpSpec("vse", src=0, count=8)),))
        plan, storage, regs = self._run(case)
        source = storage.read_array(INPUT_BASE + 12, 8, np.float32)
        stored = storage.read_array(plan.segments[0][1].base, 8, np.float32)
        assert np.array_equal(source, stored)
        assert np.array_equal(regs["s0r0"], source)

    def test_scatter_applies_the_permutation(self):
        case = FuzzCase(kind="pack", seed=8, segments=(
            (OpSpec("vle", dest=0, count=4),
             OpSpec("scatter", src=0, indices=(3, 1, 0, 2))),))
        plan, storage, regs = self._run(case)
        values = storage.read_array(INPUT_BASE, 4, np.float32)
        out = storage.read_array(plan.segments[0][1].base, 4, np.float32)
        assert np.array_equal(out[[3, 1, 0, 2]], values)

    def test_reduction_matches_numpy(self):
        case = FuzzCase(kind="ideal", seed=9, segments=(
            (OpSpec("vle", dest=0, count=100),
             OpSpec("redsum", dest=1, src=0, count=100)),))
        _, storage, regs = self._run(case)
        values = storage.read_array(INPUT_BASE, 100, np.float32)
        assert regs["s0r1"].shape == (1,)
        assert regs["s0r1"][0] == np.float32(np.sum(values, dtype=np.float32))

    def test_oracle_rejects_store_of_unwritten_register(self):
        builder = AraProgramBuilder("bad", LoweringMode.PACK,
                                    VectorEngineConfig())
        builder.vse32("never-written", OUTPUT_BASE, 4)
        with pytest.raises(WorkloadError):
            interpret_program(builder.program,
                              MemoryStorage(FUZZ_MEMORY_BYTES))


class TestProgramValidate:
    @pytest.mark.parametrize("name", all_workload_names())
    @pytest.mark.parametrize("mode", list(LoweringMode))
    def test_every_registry_workload_builds_valid_programs(self, name, mode):
        workload = make_workload(name, size=16, **(
            {} if name in ("ismt", "gemv", "trmv") else {"avg_nnz_per_row": 4.0}
        ))
        program = workload.build_program(mode, VectorEngineConfig())
        program.validate()  # must not raise

    def test_read_before_write_is_rejected(self):
        builder = AraProgramBuilder("bad", LoweringMode.PACK,
                                    VectorEngineConfig())
        builder.vle32("v0", INPUT_BASE, 8)
        builder.vfadd("v1", "v0", "v9", 8)  # v9 never written
        with pytest.raises(WorkloadError, match="v9"):
            builder.program.validate()

    def test_oversized_vl_is_rejected(self):
        builder = AraProgramBuilder("bad", LoweringMode.PACK,
                                    VectorEngineConfig())
        builder.vle32("v0", INPUT_BASE, 8)
        program = builder.program
        program.instructions[0] = dataclasses.replace(
            program.instructions[0], vl=1 << 20)
        # stream/vl mismatch (and vl overflow) — it must raise
        with pytest.raises(WorkloadError):
            program.validate()

    def test_corrupted_dependency_is_rejected(self):
        builder = AraProgramBuilder("bad", LoweringMode.PACK,
                                    VectorEngineConfig())
        builder.vle32("v0", INPUT_BASE, 8)
        builder.vse32("v0", OUTPUT_BASE, 8)
        builder.program.ops[1].deps[:] = [5]  # forward reference
        with pytest.raises(WorkloadError, match="dependency"):
            builder.program.validate()


class TestRegistryConsistency:
    def test_order_plus_extras_covers_the_registry_exactly(self):
        assert set(WORKLOADS) == set(WORKLOAD_ORDER) | set(EXTRA_WORKLOADS)
        assert not set(WORKLOAD_ORDER) & set(EXTRA_WORKLOADS)
        assert all_workload_names() == WORKLOAD_ORDER + EXTRA_WORKLOADS

    def test_paper_figure_grid_is_unchanged(self):
        # The figure sweeps key off this tuple; growing it would silently
        # change every figure (that is why csrspmv lives in EXTRA_WORKLOADS).
        assert WORKLOAD_ORDER == ("ismt", "gemv", "trmv", "spmv", "prank",
                                  "sssp")


class TestDifferentialRunner:
    def test_clean_case_reports_all_points(self):
        case = FuzzCase(kind="base", seed=5, segments=(
            (OpSpec("vle", dest=0, count=12), OpSpec("vse", src=0, count=12)),
            (OpSpec("gather", dest=0, indices=(9, 0, 9)),
             OpSpec("vse", src=0, count=3)),
        ))
        report = run_fuzz_case(case)
        assert len(report.points) == 6
        assert set(report.cycles_by_topology) == {(1, 1), (2, 1), (2, 2)}

    @pytest.mark.parametrize("corrupt", ["memory", "registers"])
    def test_naive_point_checks_the_oracle(self, monkeypatch, corrupt):
        """A naive run that drifts from the oracle alone is caught there."""
        from repro.system.soc import Soc

        run_programs = Soc.run_programs

        def drifting(soc, programs, **kwargs):
            outcome = run_programs(soc, programs, **kwargs)
            if not kwargs["event_driven"]:
                if corrupt == "memory":
                    byte = soc.storage.read_array(OUTPUT_BASE, 1, np.uint8)
                    soc.storage.write_array(OUTPUT_BASE, byte ^ 0xFF)
                else:
                    regs = soc.last_engines[0].regfile._vector
                    name = sorted(regs)[0]
                    regs[name] = regs[name][:-1]
            return outcome

        monkeypatch.setattr(Soc, "run_programs", drifting)
        case = FuzzCase(kind="pack", seed=2, segments=(
            (OpSpec("vle", dest=0, count=12), OpSpec("vse", src=0, count=12)),
        ))
        with pytest.raises(FuzzDivergence) as failure:
            run_fuzz_case(case)
        assert "1eng/naive" in str(failure.value)
        expected = "memory image" if corrupt == "memory" else "register"
        assert expected in str(failure.value)

    def test_divergence_carries_the_case_for_shrinking(self):
        # Sabotaging one point's cycle budget would be racy; instead check
        # the exception shape directly.
        case = FuzzCase(segments=((OpSpec("vle"),),))
        failure = FuzzDivergence(case, "1eng/event", "boom")
        assert failure.case is case
        assert "boom" in str(failure) and "1eng/event" in str(failure)


def test_bounded_hypothesis_sweep():
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, Phase, given, settings

    from repro.fuzz.strategies import fuzz_cases

    @settings(max_examples=10, database=None, deadline=None,
              phases=[Phase.generate],
              suppress_health_check=list(HealthCheck))
    @given(case=fuzz_cases())
    def sweep(case):
        run_fuzz_case(case)

    sweep()


def test_corpus_file_round_trips_and_is_named_by_content(tmp_path):
    from repro.fuzz.case import case_digest, load_corpus_case, save_corpus_case

    case = FuzzCase(kind="base", seed=3, segments=((OpSpec("vle"),),),
                    bus_fault=("lost", 0))
    path = save_corpus_case(case, tmp_path, note="why this case matters")
    assert path.name == f"case-{case_digest(case)}.json"
    assert load_corpus_case(path) == case
    assert case_digest(dataclasses.replace(case, seed=4)) != case_digest(case)
