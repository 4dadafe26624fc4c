"""Functional-memory oracle: predict final state without simulating timing.

The oracle interprets a *built* program (the same
:class:`~repro.vector.builder.Program` the cycle-level engine executes) in
program order against a :class:`~repro.mem.storage.MemoryStorage` image.  It
reuses the op's own ``fn`` for computes and
:func:`~repro.mem.functional.stream_element_addresses` for memory ops, so
there is no second implementation of the ISA semantics to drift — the
contract it checks is purely that the cycle-level machinery (dispatch,
chaining, lowering, banking, arbitration, batching) moves the
right bytes, not *what* the right bytes are.

Program order is exact for the fuzzer's cases: the engine may reorder
independent ops in time, but fuzz cases only let ops alias memory through
explicit fences, so the data outcome of any legal schedule equals the
program-order outcome.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import WorkloadError
from repro.mem.functional import stream_element_addresses
from repro.mem.storage import MemoryStorage
from repro.vector.builder import Program
from repro.vector.engine import _DTYPES
from repro.vector.ops import (
    KIND_COMPUTE,
    KIND_LOAD,
    KIND_STORE,
)


def interpret_program(program: Program,
                      storage: MemoryStorage) -> Dict[str, np.ndarray]:
    """Execute ``program`` functionally, mutating ``storage`` in place.

    Returns the final register file as a dict of register name to value
    array — exactly what the engine's ``regfile`` should hold after the
    run.  Scalar work is a timing-only no-op.
    """
    regs: Dict[str, np.ndarray] = {}
    for op in program.ops:
        if op.KIND == KIND_LOAD:
            addresses = stream_element_addresses(storage, op.stream)
            raw = storage.read_scattered(addresses, op.stream.elem_bytes)
            dtype = _DTYPES[op.dtype]
            regs[op.dest] = raw.view(dtype)[: op.stream.num_elements].copy()
        elif op.KIND == KIND_STORE:
            if op.src not in regs:
                raise WorkloadError(
                    f"oracle: store reads unwritten register {op.src!r}"
                )
            dtype = _DTYPES[op.dtype]
            payload = np.ascontiguousarray(regs[op.src], dtype=dtype).tobytes()
            total = op.stream.total_bytes
            if len(payload) < total:
                raise WorkloadError(
                    f"oracle: register {op.src!r} holds {len(payload)} bytes "
                    f"but the store needs {total}"
                )
            addresses = stream_element_addresses(storage, op.stream)
            storage.write_scattered(
                addresses, np.frombuffer(payload, dtype=np.uint8)[:total],
                op.stream.elem_bytes,
            )
        elif op.KIND == KIND_COMPUTE:
            # Mirrors VectorEngine._apply_compute byte for byte.
            if op.fn is None:
                if op.dest is not None and op.dest not in regs:
                    regs[op.dest] = np.zeros(op.num_elements, dtype=np.float32)
                continue
            args = [regs[src] for src in op.srcs]
            result = op.fn(*args)
            if op.dest is not None and result is not None:
                regs[op.dest] = np.asarray(result)
    return regs
