"""End-to-end AXI error-response semantics and bus-level fault injection.

Covers the full error path introduced with :mod:`repro.axi.faults`:

* the ``Resp`` severity order and ``worst_resp`` merge rule (pinned — the
  whole poison/abort machinery keys off it);
* ``BusFaultSpec``/``BusFaultPlan`` validation, matching and JSON forms;
* injected faults on every system kind (banked *and* ideal endpoints),
  surfaced as structured, JSON-serializable fault reports instead of
  exceptions;
* bit-identical fault reports across the event/naive engine modes;
* the per-transaction watchdog turning lost responses into TIMEOUT aborts;
* the lost-store contract: a lost burst is dropped whole where an endpoint
  accepts it, so a lost store writes nothing and the stores behind it
  complete;
* post-abort SoC reuse (graceful quiesce);
* ``SystemRunResult.fault_report`` serialization;
* the structured ``HangDiagnosis`` attached to ``DeadlockError``;
* the ``MemoryAccessError`` rename and its compatibility alias.
"""

import json

import numpy as np
import pytest

from repro.axi.faults import (
    BUS_FAULT_KINDS,
    DEFAULT_WATCHDOG_CYCLES,
    BusFaultPlan,
    BusFaultSpec,
)
from repro.axi.transaction import BusRequest
from repro.axi.types import Resp, worst_resp
from repro.cli import main
from repro.controller.index_stage import IndexStage
from repro.errors import (
    ConfigurationError,
    DeadlockError,
    MemoryAccessError,
    ReproError,
)
from repro.mem.banked import BankedMemory, BankedMemoryConfig
from repro.mem.storage import MemoryStorage
from repro.sim.engine import Engine
from repro.system.config import SystemConfig, SystemKind
from repro.system.runner import run_workload
from repro.system.soc import build_system
from repro.vector.builder import AraProgramBuilder
from repro.vector.config import LoweringMode
from repro.workloads import make_workload

#: A spec that faults gemv's data region on every system kind.
GEMV_FAULT = {"faults": [{"kind": "slverr", "addr_lo": 4096, "addr_hi": 8192}]}


def _run_gemv(config, size=24, **kwargs):
    return run_workload(make_workload("gemv", size=size), config, **kwargs)


# ---------------------------------------------------------------- Resp order
class TestRespOrdering:
    def test_severity_values_pinned(self):
        # The enum values are load-bearing: they are the AXI wire encoding
        # *and* the severity order worst_resp merges by.
        assert Resp.OKAY.value == 0
        assert Resp.EXOKAY.value == 1
        assert Resp.SLVERR.value == 2
        assert Resp.DECERR.value == 3

    def test_worst_resp_total_order(self):
        order = (Resp.OKAY, Resp.EXOKAY, Resp.SLVERR, Resp.DECERR)
        for i, weaker in enumerate(order):
            for stronger in order[i:]:
                assert worst_resp(weaker, stronger) is stronger
                assert worst_resp(stronger, weaker) is stronger

    def test_worst_resp_identity(self):
        for resp in Resp:
            assert worst_resp(resp, resp) is resp

    def test_is_error(self):
        assert not Resp.OKAY.is_error
        assert not Resp.EXOKAY.is_error
        assert Resp.SLVERR.is_error
        assert Resp.DECERR.is_error


# ------------------------------------------------------------- spec matching
class TestBusFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            BusFaultSpec(kind="explode")

    def test_negative_stall_rejected(self):
        with pytest.raises(ConfigurationError):
            BusFaultSpec(kind="stall", stall_cycles=-1)

    def test_keys_are_conjunctive(self):
        spec = BusFaultSpec(kind="slverr", port="mem", txn=7,
                            addr_lo=0x100, addr_hi=0x200)
        assert spec.matches("mem", 7, 0x100)
        assert not spec.matches("other", 7, 0x100)   # wrong port
        assert not spec.matches("mem", 8, 0x100)     # wrong txn
        assert not spec.matches("mem", 7, 0xFF)      # below range
        assert not spec.matches("mem", 7, 0x200)     # addr_hi is exclusive

    def test_txn_keyed_spec_never_matches_wordless_access(self):
        # Word-granular accesses carry txn=None; a txn-keyed spec must not
        # fire on them (documented banked-memory caveat).
        spec = BusFaultSpec(kind="slverr", txn=3)
        assert not spec.matches("mem", None, 0)
        assert BusFaultSpec(kind="slverr").matches("mem", None, 0)

    @pytest.mark.parametrize(("key", "value"), [
        ("port", 1), ("port", ["mem"]), ("txn", "3"), ("txn", True),
        ("addr_lo", "4096"), ("addr_lo", False), ("addr_hi", 1.5),
        ("stall_cycles", "5"), ("stall_cycles", -1), ("stall_cycles", True),
        ("stall_cycles", None),
    ])
    def test_mistyped_key_is_rejected(self, key, value):
        # A wrong type would otherwise surface mid-run, from matches().
        with pytest.raises(ConfigurationError, match=f"bus fault {key} must be"):
            BusFaultSpec(kind="slverr", **{key: value})

    def test_resp_mapping(self):
        assert BusFaultSpec(kind="slverr").resp is Resp.SLVERR
        assert BusFaultSpec(kind="decerr").resp is Resp.DECERR
        assert BusFaultSpec(kind="stall").resp is Resp.OKAY
        assert BusFaultSpec(kind="lost").resp is Resp.OKAY


# ---------------------------------------------------------------- plan forms
class TestBusFaultPlan:
    def test_json_round_trip(self):
        plan = BusFaultPlan(
            faults=(BusFaultSpec(kind="slverr", addr_lo=64, addr_hi=128),
                    BusFaultSpec(kind="stall", port="mem", stall_cycles=9)),
            watchdog_cycles=321)
        assert BusFaultPlan.from_json(plan.to_json()) == plan
        # ... and through an actual JSON string.
        assert BusFaultPlan.from_json(json.dumps(plan.to_json())) == plan

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            BusFaultPlan.from_json("not json at all {")
        with pytest.raises(ConfigurationError):
            BusFaultPlan.from_json([1, 2, 3])
        with pytest.raises(ConfigurationError):
            BusFaultPlan.from_json({"faults": [{"kind": "slverr",
                                                "bogus_key": 1}]})
        # A misspelt or retired top-level key never falls back to a default.
        for key in ("watchdog_cycle", "seed"):
            with pytest.raises(ConfigurationError, match=key):
                BusFaultPlan.from_json({"faults": [], key: 100})
        for watchdog in ("x", None, True, 2.5, "100"):
            with pytest.raises(ConfigurationError, match="watchdog_cycles"):
                BusFaultPlan.from_json({"faults": [],
                                        "watchdog_cycles": watchdog})
        # Spec fields of the wrong type fail when the plan is parsed.
        for spec, key in (({"kind": "slverr", "addr_lo": "4096"}, "addr_lo"),
                          ({"kind": "stall", "stall_cycles": "5"}, "stall_cycles"),
                          ({"kind": "slverr", "txn": True}, "txn"),
                          ({"kind": "slverr", "port": 0}, "port")):
            with pytest.raises(ConfigurationError, match=f"bus fault {key} must be"):
                BusFaultPlan.from_json({"faults": [spec]})
        for faults in ({"kind": "slverr"}, "slverr", None, [["slverr"]], [1]):
            with pytest.raises(ConfigurationError, match="JSON array of objects"):
                BusFaultPlan.from_json({"faults": faults})

    def test_watchdog_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            BusFaultPlan(watchdog_cycles=0)
        assert BusFaultPlan().watchdog_cycles == DEFAULT_WATCHDOG_CYCLES

    def test_first_match_wins(self):
        first = BusFaultSpec(kind="slverr", addr_lo=0, addr_hi=100)
        second = BusFaultSpec(kind="decerr", addr_lo=50, addr_hi=150)
        plan = BusFaultPlan(faults=(first, second))
        assert plan.first_match("mem", None, 60) is first
        assert plan.first_match("mem", None, 120) is second
        assert plan.first_match("mem", None, 200) is None

    def test_touches_port(self):
        plan = BusFaultPlan(faults=(BusFaultSpec(kind="slverr", port="mem"),))
        assert plan.touches_port("mem")
        assert not plan.touches_port("other")
        anywhere = BusFaultPlan(faults=(BusFaultSpec(kind="slverr"),))
        assert anywhere.touches_port("anything")

    def test_all_kinds_enumerated(self):
        assert BUS_FAULT_KINDS == ("slverr", "decerr", "stall", "lost")


# ----------------------------------------------------------- config plumbing
class TestConfigPlumbing:
    def test_config_coerces_dict_and_string(self):
        by_dict = SystemConfig(bus_faults=GEMV_FAULT)
        by_str = SystemConfig(bus_faults=json.dumps(GEMV_FAULT))
        assert isinstance(by_dict.bus_faults, BusFaultPlan)
        assert by_dict.bus_faults == by_str.bus_faults

    def test_with_bus_faults_helper(self):
        config = SystemConfig().with_bus_faults(GEMV_FAULT)
        assert isinstance(config.bus_faults, BusFaultPlan)
        assert config.with_bus_faults(None).bus_faults is None
        assert SystemConfig().bus_faults is None

    @pytest.mark.parametrize(("plan", "message"), [
        ('{"faults": [], "watchdog_cycles": "x"}', "watchdog_cycles"),
        ('{"faults": [{"kind": "slverr", "addr_lo": "4096"}]}',
         "bus fault addr_lo"),
        ('{"faults": [{"kind": "stall", "stall_cycles": "5"}]}',
         "bus fault stall_cycles"),
        ('{"faults": {"kind": "slverr"}}', "bus fault plan faults"),
    ], ids=["watchdog_cycles", "addr_lo", "stall_cycles", "faults-object"])
    def test_cli_rejects_malformed_plan(self, capsys, plan, message):
        assert main(["workloads", "--workloads", "gemv", "--size", "8",
                     "--inject-bus-fault", plan]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


# --------------------------------------------------------- injected aborts
class TestInjectedFaults:
    @pytest.mark.parametrize("kind", [SystemKind.BASE, SystemKind.PACK,
                                      SystemKind.IDEAL])
    def test_slverr_aborts_gracefully_on_every_kind(self, kind):
        # BASE/PACK run on the banked memory, IDEAL on the ideal endpoint —
        # both injection choke points produce the same structured abort.
        result = _run_gemv(SystemConfig(bus_faults=GEMV_FAULT).with_kind(kind))
        assert result.faulted
        assert result.verified is False
        faults = result.fault_report["faults"]
        assert faults, "injected SLVERR never fired"
        for fault in faults:
            assert fault["resp"] == "SLVERR"
            assert 4096 <= fault["addr"] < 8192
            assert fault["kind"] in ("load", "store")
        json.dumps(result.fault_report)  # must be JSON-serializable
        assert "ABORTED" in result.summary()

    def test_decerr_reported_as_decerr(self):
        plan = {"faults": [{"kind": "decerr", "addr_lo": 4096,
                            "addr_hi": 8192}]}
        result = _run_gemv(SystemConfig(bus_faults=plan))
        assert result.faulted
        assert all(f["resp"] == "DECERR"
                   for f in result.fault_report["faults"])

    def test_stall_is_absorbed_not_aborted(self):
        plan = {"faults": [{"kind": "stall", "addr_lo": 4096,
                            "addr_hi": 8192, "stall_cycles": 7}]}
        clean = _run_gemv(SystemConfig())
        stalled = _run_gemv(SystemConfig(bus_faults=plan))
        assert stalled.fault_report is None
        assert stalled.verified is True
        assert stalled.cycles > clean.cycles  # back-pressure costs cycles

    def test_lost_response_becomes_timeout_via_watchdog(self):
        plan = {"faults": [{"kind": "lost", "addr_lo": 4096,
                            "addr_hi": 8192}],
                "watchdog_cycles": 200}
        result = _run_gemv(SystemConfig(bus_faults=plan))
        assert result.faulted
        faults = result.fault_report["faults"]
        assert any(f["resp"] == "TIMEOUT" for f in faults)
        # The watchdog fired, not the deadlock detector: the run completed
        # and returned a report well before the 10k-cycle deadlock window.
        assert result.cycles < 10_000

    def test_fault_reports_identical_across_engine_and_policy(self):
        # event/naive must agree bit-identically on the structured report
        # (the fuzz corpus extends this to the multi-engine topologies).
        reports = {}
        for event in (True, False):
            config = SystemConfig(bus_faults=GEMV_FAULT)
            soc = build_system(config)
            workload = make_workload("gemv", size=24)
            workload.initialize(soc.storage)
            program = workload.build_program(config.lowering,
                                             config.vector_config())
            soc.run_program(program, event_driven=event)
            reports[event] = json.dumps(soc.last_fault_report, sort_keys=True)
        assert len(set(reports.values())) == 1, reports

    def test_post_abort_soc_is_reusable(self):
        config = SystemConfig(bus_faults=GEMV_FAULT)
        soc = build_system(config)
        workload = make_workload("gemv", size=24)
        workload.initialize(soc.storage)
        program = workload.build_program(config.lowering,
                                         config.vector_config())
        soc.run_program(program)
        first = json.dumps(soc.last_fault_report, sort_keys=True)
        assert soc.last_fault_report is not None
        # Quiesce must leave the SoC clean: the same program re-runs and
        # aborts bit-identically, no residue from the first abort.
        workload.initialize(soc.storage)
        soc.run_program(program)
        assert json.dumps(soc.last_fault_report, sort_keys=True) == first

    def test_absent_plan_is_bit_identical_to_default(self):
        clean = _run_gemv(SystemConfig())
        explicit = _run_gemv(SystemConfig(bus_faults=None))
        assert clean.fault_report is None and explicit.fault_report is None
        assert clean.verified and explicit.verified
        assert clean.cycles == explicit.cycles
        assert clean.stats == explicit.stats


# ------------------------------------------------------ lost-store contract
SRC, LOST, KEPT = 0x1000, 0x4000, 0x8000


def _lost_store_run(kind, channels):
    """Load 64 words, store them to ``LOST`` (a lost range) and then,
    strided, to ``KEPT``; returns the SoC after the aborted run."""
    plan = {"faults": [{"kind": "lost", "addr_lo": LOST,
                        "addr_hi": LOST + 256}],
            "watchdog_cycles": 200}
    config = SystemConfig(memory_bytes=1 << 20, bus_faults=plan)
    config = config.with_kind(kind).with_channels(channels)
    soc = build_system(config)
    soc.storage.write_array(SRC, np.arange(1, 65, dtype=np.float32))
    builder = AraProgramBuilder("lost-store", config.lowering)
    builder.vle32("v1", SRC, 64)
    builder.vse32("v1", LOST, 64)
    builder.vsse32("v1", KEPT, 64, stride_elems=2)
    soc.run_program(builder.build())
    return soc


class TestLostStoreContract:
    """A lost store writes nothing, and the stores behind it complete."""

    @pytest.mark.parametrize("channels", [1, 2], ids=["1ch", "2ch"])
    @pytest.mark.parametrize("kind", [SystemKind.BASE, SystemKind.PACK,
                                      SystemKind.IDEAL])
    def test_lost_store_writes_nothing(self, kind, channels):
        soc = _lost_store_run(kind, channels)
        [fault] = soc.last_fault_report["faults"]
        assert (fault["resp"], fault["addr"]) == ("TIMEOUT", LOST)
        assert soc.storage.read_bytes(LOST, 256) == bytes(256)
        kept = soc.storage.read_array(KEPT, 127, np.float32)
        assert np.array_equal(kept[::2], np.arange(1, 65, dtype=np.float32))
        assert not kept[1::2].any()

    @pytest.mark.parametrize("kind", [SystemKind.BASE, SystemKind.PACK])
    def test_lost_burst_leaks_no_in_flight_word(self, kind):
        """No word of a lost burst was issued, so every converter pipe of
        the banked channel ends the aborted run with nothing in flight."""
        soc = _lost_store_run(kind, channels=1)
        adapter = soc.endpoint.adapter
        pipes = [pipe for converter in adapter.converters
                 for pipe in converter.pipes]
        assert pipes and all(not any(pipe.in_flight) for pipe in pipes)
        assert not soc.endpoint.busy()

    def test_banked_loss_is_keyed_by_name_txn_and_start_address(self):
        def burst(addr, txn_id=0):
            return BusRequest(addr=addr, is_write=False, num_elements=8,
                              elem_bytes=4, bus_bytes=32, contiguous=True,
                              txn_id=txn_id)

        plan = BusFaultPlan.from_json({"faults": [
            {"kind": "lost", "port": "mem", "txn": 5},
            {"kind": "lost", "addr_lo": 0x100, "addr_hi": 0x120},
            {"kind": "slverr", "addr_lo": 0x200, "addr_hi": 0x220},
        ]})
        memory = BankedMemory("mem", BankedMemoryConfig(),
                              MemoryStorage(1 << 12), bus_faults=plan)
        assert memory.loses(burst(0x400, txn_id=5))
        assert not memory.loses(burst(0x400, txn_id=6))
        assert memory.loses(burst(0x100))
        # Keyed by the start address: a burst running into the range from
        # below is not lost, and only ``lost`` specs lose bursts.
        assert not memory.loses(burst(0xE0))
        assert not memory.loses(burst(0x200))
        other = BankedMemory("other", BankedMemoryConfig(),
                             MemoryStorage(1 << 12), bus_faults=plan)
        assert not other.loses(burst(0x400, txn_id=5))


# -------------------------------------------------------- index-line faults
@pytest.fixture
def index_faults(monkeypatch):
    """Record every poisoned index line either indirect converter's index
    stage sees, by the name of the stage's fetch pipe."""
    seen = []
    inner = IndexStage._note_index_fault

    def spy(self, burst, resp):
        seen.append((self.pipe.name, resp))
        return inner(self, burst, resp)

    monkeypatch.setattr(IndexStage, "_note_index_fault", spy)
    return seen


class TestIndexLineFaults:
    """A bus fault on the index array reaches the PACK controller's own
    index fetch, which the requestor never sees as a transaction."""

    def test_gather_index_fault_aborts_the_gather(self, index_faults):
        workload = make_workload("spmv", size=16)
        lo = workload.addr_col_idx
        plan = {"faults": [{"kind": "slverr", "addr_lo": lo,
                            "addr_hi": lo + 64}]}
        result = run_workload(
            workload, SystemConfig(bus_faults=plan).with_kind(SystemKind.PACK))
        assert index_faults == [("adapter.indirect_read.index", Resp.SLVERR)] * 2
        assert result.faulted and result.verified is False
        [fault] = result.fault_report["faults"]
        # Op 2 is row 0's vlimxei32 gather; its burst addresses ``x``.
        assert fault["op_index"] == 2 and fault["kind"] == "load"
        assert fault["resp"] == "SLVERR"
        assert fault["addr"] == workload.addr_x

    def test_scatter_index_fault_aborts_the_scatter(self, index_faults):
        plan = {"faults": [{"kind": "slverr", "addr_lo": 0x2000,
                            "addr_hi": 0x2020}]}
        config = SystemConfig(bus_faults=plan).with_kind(SystemKind.PACK)
        soc = build_system(config)
        soc.storage.write_array(0x2000, np.arange(8, dtype=np.uint32)[::-1])
        builder = AraProgramBuilder("scatter", LoweringMode.PACK)
        builder.vmv_vx("v1", 2.0, 8)
        builder.vsimxei32("v1", 0x4000, 0x2000, 8)
        soc.run_program(builder.build())
        assert index_faults == [("adapter.indirect_write.index", Resp.SLVERR)]
        [fault] = soc.last_fault_report["faults"]
        assert fault["op_index"] == 1 and fault["kind"] == "store"
        assert fault["resp"] == "SLVERR" and fault["addr"] == 0x4000


# ------------------------------------------------------------- serialization
class TestResultSerialization:
    def test_fault_report_round_trips(self):
        from repro.orchestrate.serialize import (
            system_run_result_from_dict,
            system_run_result_to_dict,
        )

        result = _run_gemv(SystemConfig(bus_faults=GEMV_FAULT))
        payload = system_run_result_to_dict(result)
        json.dumps(payload)
        restored = system_run_result_from_dict(payload)
        assert restored.fault_report == result.fault_report
        assert restored.faulted

    def test_clean_result_omits_fault_report(self):
        from repro.orchestrate.serialize import (
            system_run_result_from_dict,
            system_run_result_to_dict,
        )

        result = _run_gemv(SystemConfig())
        payload = system_run_result_to_dict(result)
        assert "fault_report" not in payload
        assert system_run_result_from_dict(payload).fault_report is None


# ------------------------------------------------------------ hang diagnosis
class TestHangDiagnosis:
    @staticmethod
    def _wedged_engine():
        from repro.sim.component import Component

        engine = Engine(deadlock_window=20)
        queue = engine.new_queue("stuck-q", 4)

        class Filler(Component):
            def tick(self, cycle):
                if queue.can_push():
                    queue.push(cycle)

            def busy(self):
                return True

        consumer_seen = []

        class Sleeper(Component):
            """Subscribed waiter that never actually pops."""

            def tick(self, cycle):
                consumer_seen.append(cycle)

            def wake_queues(self):
                return [queue]

        engine.add_component(Filler("filler"))
        engine.add_component(Sleeper("sleeper"))
        return engine

    def test_deadlock_error_carries_diagnosis(self):
        engine = self._wedged_engine()
        with pytest.raises(DeadlockError) as excinfo:
            engine.drain(max_cycles=10_000)
        diagnosis = excinfo.value.diagnosis
        assert diagnosis is not None
        assert diagnosis.window == 20
        assert "filler" in diagnosis.busy_components
        names = [q.name for q in diagnosis.queues]
        assert "stuck-q" in names
        assert diagnosis.blame is not None
        assert diagnosis.blame.name == "stuck-q"
        assert "sleeper" in diagnosis.blame.waiters

    def test_diagnosis_render_and_to_dict(self):
        engine = self._wedged_engine()
        with pytest.raises(DeadlockError) as excinfo:
            engine.drain(max_cycles=10_000)
        diagnosis = excinfo.value.diagnosis
        payload = diagnosis.to_dict()
        json.dumps(payload)
        assert payload["blame"] == "stuck-q"
        text = diagnosis.render()
        assert "no forward progress" in text
        assert "stuck-q" in text and "blame" in text
        # The one-line summary keeps the legacy report's shape.
        assert "busy components" in diagnosis.summary()
        # The exception message *is* the rendering.
        assert str(excinfo.value) == text

    def test_diagnose_is_public_and_non_destructive(self):
        engine = self._wedged_engine()
        engine.step(5)
        diagnosis = engine.diagnose()
        assert diagnosis.cycle == 5
        assert diagnosis.blame is not None
        engine.step(1)  # still steppable after a snapshot


# ------------------------------------------------------------ renamed error
class TestMemoryAccessErrorRename:
    def test_alias_is_gone(self):
        # The deprecated MemoryError_ alias was removed; reprolint's DEP01
        # tombstone keeps it from coming back.
        import repro.errors

        assert not hasattr(repro.errors, "MemoryError_")

    def test_not_the_builtin_and_still_a_repro_error(self):
        assert not issubclass(MemoryAccessError, MemoryError)
        assert issubclass(MemoryAccessError, ReproError)

    def test_functional_layer_raises_it(self):
        from repro.mem.storage import MemoryStorage

        storage = MemoryStorage(64)
        with pytest.raises(MemoryAccessError):
            storage.read(60, 8)
