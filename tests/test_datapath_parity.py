"""Lane-kernel, controller-stream and whole-system parity.

The struct-of-arrays plan kernels of :mod:`repro.controller.lanes` are the
simulator's only datapath.  These tests pin them three ways:

* **kernel properties** — for random burst geometry, the flat slot arrays of
  every plan kernel equal the concatenated ``WordSlot`` sequences of its
  readable beat-at-a-time reference planner (``reference_planners.py``);
* **stream properties** — random burst streams through the controller
  testbench produce identical cycle counts, statistics, per-burst latencies
  and payloads on both engines;
* **system pins** — every workload on all three evaluation systems matches
  across the engines and reproduces the cycle and beat counts recorded from
  the retired scalar per-object datapath.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_planners import (
    plan_contiguous_beats,
    plan_index_fetch_beats,
    plan_indexed_beat,
    plan_narrow_beats,
    plan_strided_beats,
)

from repro.axi.pack import PackUserField
from repro.axi.transaction import BusRequest, reset_txn_ids
from repro.controller.lanes import (
    SlotBatch,
    batch_contiguous,
    batch_index_fetch,
    batch_indexed_beat,
    batch_narrow,
    batch_strided,
)
from repro.controller.testbench import ControllerTestbench
from repro.errors import ProtocolError

WORD = 4
BUS = 32
BUS_WORDS = BUS // WORD


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def flatten_plans(plans):
    """Reference planner output as (slot tuples, per-beat metadata)."""
    slots = []
    beats = []
    for index, plan in enumerate(plans):
        for slot in plan.slots:
            slots.append(
                (index, slot.port, slot.word_addr, slot.offset, slot.nbytes,
                 slot.byte_shift)
            )
        beats.append((plan.useful_bytes, plan.last))
    return slots, beats


def flatten_batch(batch: SlotBatch):
    """Plan kernel output in the same shape as :func:`flatten_plans`."""
    slots = [
        (batch.beat_of[i], batch.ports[i], batch.words[i], batch.offsets[i],
         batch.nbytes[i], batch.shifts[i])
        for i in range(batch.num_slots)
    ]
    beats = list(zip(batch.beat_useful, batch.beat_last))
    # beat_start must be a consistent prefix over beat_of.
    for beat in range(batch.num_beats):
        start, end = batch.beat_start[beat], batch.beat_start[beat + 1]
        assert all(batch.beat_of[i] == beat for i in range(start, end))
    assert batch.beat_start[-1] == batch.num_slots
    return slots, beats


def contiguous_request(addr: int, num_elements: int, elem_bytes: int,
                       is_write: bool = False) -> BusRequest:
    return BusRequest(
        addr=addr, is_write=is_write, num_elements=num_elements,
        elem_bytes=elem_bytes, bus_bytes=BUS, contiguous=True,
    )


def narrow_request(addr: int, num_elements: int, elem_bytes: int,
                   is_write: bool = False) -> BusRequest:
    return BusRequest(
        addr=addr, is_write=is_write, num_elements=num_elements,
        elem_bytes=elem_bytes, bus_bytes=BUS, contiguous=False,
    )


def strided_request(addr: int, num_elements: int, elem_bytes: int,
                    stride_elems: int, is_write: bool = False) -> BusRequest:
    return BusRequest(
        addr=addr, is_write=is_write, num_elements=num_elements,
        elem_bytes=elem_bytes, bus_bytes=BUS,
        pack=PackUserField.strided(stride_elems),
    )


def indirect_request(base: int, num_elements: int, elem_bytes: int,
                     index_base: int, index_bytes: int = 4,
                     is_write: bool = False) -> BusRequest:
    return BusRequest(
        addr=base, is_write=is_write, num_elements=num_elements,
        elem_bytes=elem_bytes, bus_bytes=BUS,
        pack=PackUserField.indirect(index_bytes, index_base),
    )


# --------------------------------------------------------------------------
# kernel vs reference planner properties
# --------------------------------------------------------------------------


class TestPlanKernelEquivalence:
    @given(
        addr=st.integers(min_value=0, max_value=3000),
        num_elements=st.integers(min_value=1, max_value=250),
        elem_bytes=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_contiguous(self, addr, num_elements, elem_bytes):
        if addr + num_elements * elem_bytes > 4096:
            num_elements = max(1, (4096 - addr) // elem_bytes)
        request = contiguous_request(addr, num_elements, elem_bytes)
        reference = flatten_plans(plan_contiguous_beats(request, WORD, BUS_WORDS))
        batch = flatten_batch(batch_contiguous(request, WORD, BUS_WORDS))
        assert reference == batch

    @given(
        addr=st.integers(min_value=0, max_value=100_000),
        num_elements=st.integers(min_value=1, max_value=200),
        elem_bytes=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    # The one-word burst BASE issues per element, on its shared tables.
    @example(addr=0x1234, num_elements=1, elem_bytes=WORD)
    def test_narrow(self, addr, num_elements, elem_bytes):
        request = narrow_request(addr, num_elements, elem_bytes)
        reference = flatten_plans(plan_narrow_beats(request, WORD, BUS_WORDS))
        batch = flatten_batch(batch_narrow(request, WORD, BUS_WORDS))
        assert reference == batch

    def test_one_word_narrow_batches_share_immutable_tables(self):
        """A one-word narrow batch keeps its geometry tables as immutable
        tuples; only the per-batch arrays are fresh lists."""
        first, second = (
            batch_narrow(narrow_request(addr, 1, WORD), WORD, BUS_WORDS)
            for addr in (0x40, 0x1234)
        )
        for name in ("offsets", "nbytes", "shifts", "beat_of", "beat_start",
                     "beat_useful", "beat_last"):
            assert isinstance(getattr(first, name), tuple), name
        for name in ("ports", "words", "beat_remaining"):
            assert isinstance(getattr(first, name), list), name
            assert getattr(first, name) is not getattr(second, name), name
        assert (first.words, second.words) == ([0x10], [0x48D])
        assert (first.num_beats, first.num_slots) == (1, 1)

    @given(
        addr_words=st.integers(min_value=0, max_value=25_000),
        num_elements=st.integers(min_value=1, max_value=300),
        elem_bytes=st.sampled_from([4, 8]),
        stride_elems=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_strided(self, addr_words, num_elements, elem_bytes, stride_elems):
        request = strided_request(
            addr_words * WORD, num_elements, elem_bytes, stride_elems
        )
        reference = flatten_plans(plan_strided_beats(request, WORD, BUS_WORDS))
        batch = flatten_batch(batch_strided(request, WORD, BUS_WORDS))
        assert reference == batch

    @given(
        base_words=st.integers(min_value=0, max_value=25_000),
        elem_bytes=st.sampled_from([4, 8]),
        offsets=st.lists(
            st.integers(min_value=0, max_value=10_000), min_size=1, max_size=8
        ),
        beat=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_indexed_beat(self, base_words, elem_bytes, offsets, beat):
        epb = BUS // elem_bytes
        offsets = offsets[:epb]
        count = max(len(offsets) + beat * epb, 1)
        request = indirect_request(base_words * WORD, count, elem_bytes, 0)
        beat = min(beat, request.num_beats - 1)
        plan = plan_indexed_beat(request, beat, offsets, WORD, BUS_WORDS)
        reference = flatten_plans([plan])
        batch = flatten_batch(
            batch_indexed_beat(request, beat, offsets, WORD, BUS_WORDS)
        )
        assert reference == batch

    @given(
        index_units=st.integers(min_value=0, max_value=12_000),
        num_indices=st.integers(min_value=1, max_value=500),
        index_bytes=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_index_fetch(self, index_units, num_indices, index_bytes):
        index_base = index_units * index_bytes  # must be index-size aligned
        request = indirect_request(0, num_indices, 4, index_base, index_bytes)
        reference = flatten_plans(
            plan_index_fetch_beats(
                index_base=index_base,
                num_indices=num_indices,
                index_bytes=index_bytes,
                bus_bytes=BUS,
                word_bytes=WORD,
                bus_words=BUS_WORDS,
                txn_id=request.txn_id,
            )
        )
        batch = flatten_batch(batch_index_fetch(request, BUS, WORD, BUS_WORDS))
        assert reference == batch

    def test_strided_misalignment_raises_like_scalar(self):
        request = strided_request(addr=2, num_elements=4, elem_bytes=4,
                                  stride_elems=2)
        with pytest.raises(ProtocolError):
            list(plan_strided_beats(request, WORD, BUS_WORDS))
        with pytest.raises(ProtocolError):
            batch_strided(request, WORD, BUS_WORDS)

    def test_indexed_misalignment_raises_like_scalar(self):
        request = indirect_request(2, 4, 4, 0)
        with pytest.raises(ProtocolError):
            plan_indexed_beat(request, 0, [0, 1], WORD, BUS_WORDS)
        with pytest.raises(ProtocolError):
            batch_indexed_beat(request, 0, [0, 1], WORD, BUS_WORDS)


# --------------------------------------------------------------------------
# end-to-end stream parity through the controller testbench
# --------------------------------------------------------------------------

#: One request spec: (kind, parameters...) drawn by the stream strategy.
_request_specs = st.lists(
    st.one_of(
        st.tuples(st.just("contig"), st.integers(0, 700),
                  st.integers(1, 80), st.booleans()),
        st.tuples(st.just("narrow"), st.integers(0, 700),
                  st.integers(1, 40), st.just(False)),
        st.tuples(st.just("strided"), st.integers(0, 400),
                  st.integers(1, 48), st.integers(1, 8), st.booleans()),
        st.tuples(st.just("indirect"), st.integers(0, 400),
                  st.integers(1, 32), st.booleans()),
    ),
    min_size=1,
    max_size=5,
)

#: Index pools per indirect burst, reproducibly derived from a drawn seed.
_seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _build_stream(specs, seed):
    """Turn drawn specs into concrete requests + storage image + payloads.

    Returns ``(requests, arrays, payloads)`` where ``arrays`` is a list of
    ``(addr, numpy array)`` to write into the testbench storage before the
    run (index arrays and source data) and ``payloads`` maps write txn ids
    to W payload bytes.
    """
    rng = np.random.default_rng(seed)
    requests = []
    arrays = []
    payloads = {}
    # A data region well inside the 4 MiB testbench storage.
    data_base = 0x1000
    index_region = 0x80000
    for spec in specs:
        kind = spec[0]
        if kind == "contig":
            _, off, count, is_write = spec
            addr = data_base + off * WORD
            request = contiguous_request(addr, count, WORD, is_write)
        elif kind == "narrow":
            _, off, count, _ = spec
            addr = data_base + off * WORD
            request = narrow_request(addr, count, WORD)
        elif kind == "strided":
            _, off, count, stride, is_write = spec
            addr = data_base + off * WORD
            request = strided_request(addr, count, WORD, stride, is_write)
        else:
            _, off, count, is_write = spec
            base = data_base + off * WORD
            indices = rng.integers(0, 2048, size=count, dtype=np.uint32)
            index_base = index_region
            index_region += count * 4 + 32
            arrays.append((index_base, indices))
            request = indirect_request(base, count, WORD, index_base,
                                       is_write=is_write)
        if request.is_write:
            payload = rng.integers(
                0, 255, size=request.num_beats * BUS, dtype=np.uint8
            )
            payloads[request.txn_id] = payload.tobytes()
        requests.append(request)
    return requests, arrays, payloads


def _run_stream(requests, arrays, payloads, event_driven):
    reset_txn_ids()
    bench = ControllerTestbench()
    for addr, array in arrays:
        bench.storage.write_array(addr, array)
    result = bench.run(
        requests, write_payloads=payloads, event_driven=event_driven
    )
    outcomes = {
        txn: (outcome.issue_cycle, outcome.complete_cycle,
              outcome.beats_received, outcome.payload)
        for txn, outcome in result.outcomes.items()
    }
    return (
        result.cycles,
        dict(bench.stats.as_dict()),
        result.r_beats,
        result.r_useful_bytes,
        outcomes,
    )


class TestStreamParity:
    @given(specs=_request_specs, seed=_seeds)
    @settings(max_examples=12, deadline=None)
    def test_full_policy_both_engines(self, specs, seed):
        """Random streams: the event and naive engines agree."""
        requests, arrays, payloads = _build_stream(specs, seed)
        reference = _run_stream(requests, arrays, payloads, True)
        observed = _run_stream(requests, arrays, payloads, False)
        assert observed == reference


# --------------------------------------------------------------------------
# whole-system pins against the retired scalar reference
# --------------------------------------------------------------------------

#: (cycles, R beats, W beats) per (system, workload) at size 16, recorded
#: from the scalar per-object datapath before the lane kernels replaced it.
SCALAR_REFERENCE = {
    ("base", "ismt"): (595, 142, 142),
    ("base", "gemv"): (697, 34, 16),
    ("base", "trmv"): (647, 26, 16),
    ("base", "spmv"): (994, 187, 16),
    ("base", "prank"): (1070, 180, 16),
    ("base", "sssp"): (1068, 178, 16),
    ("base", "csrspmv"): (824, 200, 33),
    ("pack", "ismt"): (431, 44, 44),
    ("pack", "gemv"): (121, 32, 2),
    ("pack", "trmv"): (117, 24, 2),
    ("pack", "spmv"): (739, 52, 16),
    ("pack", "prank"): (824, 47, 16),
    ("pack", "sssp"): (825, 48, 16),
    ("pack", "csrspmv"): (700, 64, 33),
    ("ideal", "ismt"): (326, 44, 44),
    ("ideal", "gemv"): (110, 32, 2),
    ("ideal", "trmv"): (106, 24, 2),
    ("ideal", "spmv"): (855, 83, 16),
    ("ideal", "prank"): (927, 72, 16),
    ("ideal", "sssp"): (929, 74, 16),
    ("ideal", "csrspmv"): (681, 81, 33),
}


def _run_workload(name, kind, event_driven=True):
    from repro.orchestrate.spec import WorkloadSpec
    from repro.system.config import SystemConfig
    from repro.system.soc import build_system

    reset_txn_ids()
    workload = WorkloadSpec.create(name, size=16, **(
        {} if name in ("ismt", "gemv", "trmv")
        else {"avg_nnz_per_row": 8.0}
    )).build()
    config = SystemConfig(memory_bytes=1 << 22).with_kind(kind)
    soc = build_system(config)
    workload.initialize(soc.storage)
    program = workload.build_program(config.lowering, config.vector_config())
    cycles, result = soc.run_program(program, event_driven=event_driven)
    verified = workload.verify(soc.storage)
    return cycles, dict(soc.stats.as_dict()), result, verified


def _pinned(run):
    cycles, _, result, _ = run
    return cycles, result.r_beats, result.w_beats


class TestSystemParity:
    KINDS = ("base", "pack", "ideal")

    @pytest.mark.parametrize(
        "name", ["ismt", "gemv", "trmv", "spmv", "prank", "sssp", "csrspmv"]
    )
    @pytest.mark.parametrize("kind_name", KINDS)
    def test_workload_parity(self, name, kind_name):
        """Both engines reproduce the scalar reference and verify."""
        from repro.system.config import SystemKind

        kind = SystemKind(kind_name)
        event = _run_workload(name, kind)
        naive = _run_workload(name, kind, event_driven=False)
        assert naive[:3] == event[:3]
        assert _pinned(event) == SCALAR_REFERENCE[(kind_name, name)]
        assert event[3] is True and naive[3] is True
