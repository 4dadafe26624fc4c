"""Tests for the calibrated area / timing / crossbar / energy models."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.area import COMPONENT_AREA_256B_KGE, AdapterAreaModel
from repro.hw.crossbar_area import BankCrossbarAreaModel
from repro.hw.energy import EnergyModel, PowerParams
from repro.hw.technology import GF22FDX
from repro.hw.timing import TimingModel
from repro.system.config import SystemKind
from repro.system.results import SystemRunResult
from repro.vector.engine import EngineResult


class TestTimingModel:
    def test_published_minimum_periods(self):
        timing = TimingModel()
        assert timing.min_period_ps(64) == pytest.approx(787.0)
        assert timing.min_period_ps(128) == pytest.approx(800.0)
        assert timing.min_period_ps(256) == pytest.approx(839.0)

    def test_interpolation_for_other_widths(self):
        timing = TimingModel()
        assert 770 < timing.min_period_ps(32) < 800
        assert timing.min_period_ps(512) > timing.min_period_ps(256) - 60

    def test_max_frequency(self):
        timing = TimingModel()
        assert timing.max_frequency_ghz(256) == pytest.approx(1000 / 839, rel=1e-3)

    def test_meets_target(self):
        timing = TimingModel()
        assert timing.meets_target(256, 1000)
        assert not timing.meets_target(256, 800)


class TestAdapterArea:
    def test_calibrated_totals(self):
        model = AdapterAreaModel()
        assert model.total_area_kge(64) == pytest.approx(69, abs=3)
        assert model.total_area_kge(128) == pytest.approx(130, abs=4)
        assert model.total_area_kge(256) == pytest.approx(257, abs=6)

    def test_breakdown_matches_paper_at_256(self):
        breakdown = AdapterAreaModel().breakdown(256)
        for name, published in COMPONENT_AREA_256B_KGE.items():
            assert breakdown.components[name] == pytest.approx(published, rel=0.02)
        assert breakdown.total_kge == pytest.approx(258, abs=3)

    def test_read_write_converters_similar(self):
        breakdown = AdapterAreaModel().breakdown(256)
        assert breakdown.components["indirect_read_converter"] == pytest.approx(
            breakdown.components["indirect_write_converter"], rel=0.05
        )

    def test_indirect_converters_near_double_strided(self):
        breakdown = AdapterAreaModel().breakdown(256)
        ratio = (breakdown.components["indirect_read_converter"]
                 / breakdown.components["strided_read_converter"])
        assert 1.7 < ratio < 2.3

    def test_fraction_of_ara(self):
        fraction = AdapterAreaModel().fraction_of_ara(256, 1000.0, GF22FDX.ara_area_kge)
        assert fraction == pytest.approx(0.062, abs=0.01)

    def test_tight_clock_costs_area(self):
        model = AdapterAreaModel()
        assert model.total_area_kge(256, 850) > model.total_area_kge(256, 1000)
        assert model.total_area_kge(256, 3000) <= model.total_area_kge(256, 1000)

    def test_below_minimum_clock_rejected(self):
        with pytest.raises(ConfigurationError):
            AdapterAreaModel().total_area_kge(256, 700)

    def test_unknown_component_rejected(self):
        with pytest.raises(ConfigurationError):
            AdapterAreaModel().component_area_kge("fpu", 256)

    def test_breakdown_rows_sorted(self):
        rows = AdapterAreaModel().breakdown(256).as_rows()
        areas = [row[1] for row in rows]
        assert areas == sorted(areas, reverse=True)


class TestCrossbarArea:
    def test_power_of_two_has_no_address_units(self):
        model = BankCrossbarAreaModel()
        for banks in (8, 16, 32):
            breakdown = model.breakdown(banks)
            assert breakdown.modulo_kge == 0 and breakdown.divider_kge == 0

    def test_prime_pays_for_address_units(self):
        model = BankCrossbarAreaModel()
        for banks in (11, 17, 31):
            breakdown = model.breakdown(banks)
            assert breakdown.modulo_kge > 0 and breakdown.divider_kge > 0

    def test_crossbar_grows_with_banks(self):
        model = BankCrossbarAreaModel()
        assert model.breakdown(32).crossbar_kge > model.breakdown(8).crossbar_kge

    def test_prime_overhead_shrinks_relatively(self):
        model = BankCrossbarAreaModel()
        assert (model.breakdown(31).prime_overhead_fraction
                < model.breakdown(11).prime_overhead_fraction)

    def test_total_in_paper_range(self):
        model = BankCrossbarAreaModel()
        for banks in (8, 11, 16, 17, 31, 32):
            assert 2 < model.total_kge(banks) < 50

    def test_17_banks_modest_premium_over_16(self):
        model = BankCrossbarAreaModel()
        premium = model.total_kge(17) / model.total_kge(16)
        assert 1.0 < premium < 2.2

    def test_invalid_banks_rejected(self):
        with pytest.raises(ConfigurationError):
            BankCrossbarAreaModel().breakdown(0)

    def test_as_dict(self):
        data = BankCrossbarAreaModel().breakdown(17).as_dict()
        assert data["banks"] == 17
        assert data["total"] == pytest.approx(
            data["crossbar"] + data["modulo"] + data["divider"]
        )


def _result(kind, cycles, r_beats, useful, w_beats=0, w_useful=0):
    engine = EngineResult(cycles=cycles, instructions=10, r_beats=r_beats,
                          r_useful_bytes=useful, r_data_bytes=useful,
                          r_index_bytes=0, w_beats=w_beats, w_useful_bytes=w_useful,
                          bus_bytes=32)
    return SystemRunResult(workload="test", kind=kind, cycles=cycles, engine=engine)


class TestEnergyModel:
    def test_power_in_plausible_range(self):
        model = EnergyModel()
        busy = _result(SystemKind.PACK, 1000, 900, 900 * 32)
        idle = _result(SystemKind.BASE, 1000, 100, 100 * 4)
        assert 150 < model.system_power_mw(busy) < 350
        assert 100 < model.system_power_mw(idle) < 250
        assert model.system_power_mw(busy) > model.system_power_mw(idle)

    def test_pack_adapter_adds_power(self):
        model = EnergyModel()
        pack = _result(SystemKind.PACK, 1000, 500, 500 * 32)
        base = _result(SystemKind.BASE, 1000, 500, 500 * 32)
        assert model.system_power_mw(pack) > model.system_power_mw(base)

    def test_energy_efficiency_improvement(self):
        model = EnergyModel()
        base = _result(SystemKind.BASE, 4000, 1000, 1000 * 4)
        pack = _result(SystemKind.PACK, 1000, 130, 130 * 32)
        comparison = model.compare(base, pack)
        assert comparison.speedup == pytest.approx(4.0)
        assert comparison.energy_efficiency_improvement > 2.0
        assert comparison.power_increase < 0.6
        data = comparison.as_dict()
        assert data["workload"] == "test"

    def test_custom_params(self):
        model = EnergyModel(PowerParams(static_mw=10, lane_active_mw=0,
                                        memory_traffic_mw=0, adapter_static_mw=0,
                                        adapter_traffic_mw=0))
        result = _result(SystemKind.BASE, 100, 0, 0)
        assert model.system_power_mw(result) == pytest.approx(10.0)


def test_adapter_lanes_follow_the_bus_width():
    model = AdapterAreaModel()
    assert [model.lanes_for_bus(bits) for bits in (64, 128, 256)] == [2, 4, 8]
    with pytest.raises(ConfigurationError):
        model.lanes_for_bus(48)
