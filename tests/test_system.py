"""Tests for system configuration, SoC assembly and the workload runner."""

import pytest

from repro.errors import ConfigurationError
from repro.system.config import SystemConfig, SystemKind
from repro.system.results import SystemRunResult, WorkloadComparison
from repro.system.runner import compare_systems, run_workload, run_workload_all_systems
from repro.system.soc import build_system
from repro.vector.builder import AraProgramBuilder
from repro.vector.config import LoweringMode
from repro.workloads import make_workload


class TestSystemConfig:
    def test_defaults_match_paper(self):
        config = SystemConfig()
        assert config.bus_bits == 256
        assert config.lanes == 8
        assert config.num_banks == 17
        assert config.queue_depth == 4

    def test_lanes_follow_bus_width(self):
        assert SystemConfig(bus_bytes=8).lanes == 2
        assert SystemConfig(bus_bytes=16).lanes == 4

    def test_kind_to_lowering(self):
        assert SystemKind.BASE.lowering is LoweringMode.BASE
        assert SystemKind.PACK.lowering is LoweringMode.PACK
        assert SystemKind.IDEAL.lowering is LoweringMode.IDEAL

    def test_with_kind_copies(self):
        config = SystemConfig()
        other = config.with_kind(SystemKind.BASE)
        assert other.kind is SystemKind.BASE
        assert config.kind is SystemKind.PACK

    def test_derived_configs_consistent(self):
        config = SystemConfig(bus_bytes=16, num_banks=11)
        assert config.memory_config().num_ports == 4
        assert config.memory_config().bus_bytes == 16
        assert config.memory_config().num_banks == 11
        assert config.vector_config().lanes == 4

    def test_invalid_bus_width_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(bus_bytes=24)


class TestSoc:
    def test_pack_soc_has_adapter(self):
        soc = build_system(SystemConfig(kind=SystemKind.PACK, memory_bytes=1 << 18))
        assert soc.memory is not None
        assert soc.kind is SystemKind.PACK

    def test_ideal_soc_has_no_banked_memory(self):
        soc = build_system(SystemConfig(kind=SystemKind.IDEAL, memory_bytes=1 << 18))
        assert soc.memory is None

    def test_program_mode_mismatch_rejected(self):
        soc = build_system(SystemConfig(kind=SystemKind.PACK, memory_bytes=1 << 18))
        builder = AraProgramBuilder("x", LoweringMode.BASE)
        builder.scalar(1)
        with pytest.raises(ConfigurationError):
            soc.run_program(builder.build())


class TestRunner:
    def test_run_workload_verifies(self, small_system_config):
        result = run_workload(make_workload("gemv", size=16), small_system_config,
                              kind=SystemKind.PACK)
        assert result.verified is True
        assert result.cycles > 0
        assert 0 < result.r_utilization <= 1.0
        assert result.workload == "gemv"

    def test_run_workload_skip_verification(self, small_system_config):
        result = run_workload(make_workload("gemv", size=16), small_system_config,
                              kind=SystemKind.BASE, verify=False)
        assert result.verified is None

    def test_run_all_systems(self, small_system_config):
        results = run_workload_all_systems(lambda: make_workload("ismt", size=16),
                                           small_system_config)
        assert set(results) == {SystemKind.BASE, SystemKind.PACK, SystemKind.IDEAL}
        assert all(r.verified for r in results.values())

    def test_compare_systems_metrics(self, small_system_config):
        comparison = compare_systems(lambda: make_workload("gemv", size=16),
                                     small_system_config)
        assert isinstance(comparison, WorkloadComparison)
        assert comparison.pack_speedup > 1.0
        assert comparison.pack_speedup == pytest.approx(
            comparison.base.cycles / comparison.pack.cycles
        )
        flat = comparison.as_dict()
        assert flat["workload"] == "gemv"
        assert flat["pack_speedup"] == pytest.approx(comparison.pack_speedup)

    def test_summary_renders(self, small_system_config):
        result = run_workload(make_workload("gemv", size=16), small_system_config,
                              kind=SystemKind.PACK)
        text = result.summary()
        assert "gemv" in text and "pack" in text and "ok" in text

    def test_speedup_over(self):
        kwargs = dict(workload="x", stats={}, verified=True)
        fast = SystemRunResult(kind=SystemKind.PACK, cycles=100,
                               engine=_dummy_engine(), **kwargs)
        slow = SystemRunResult(kind=SystemKind.BASE, cycles=400,
                               engine=_dummy_engine(), **kwargs)
        assert fast.speedup_over(slow) == pytest.approx(4.0)


def _dummy_engine():
    from repro.vector.engine import EngineResult

    return EngineResult(cycles=100, instructions=1, r_beats=10, r_useful_bytes=320,
                        r_data_bytes=320, r_index_bytes=0, w_beats=0,
                        w_useful_bytes=0, bus_bytes=32)
