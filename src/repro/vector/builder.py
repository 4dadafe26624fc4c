"""Assembler-style program builder used by the workload kernels.

The builder plays the role of the compiler + decoder: workloads call methods
named after the vector instructions they would emit, and the builder records
one micro-operation per instruction (its mnemonic included), wiring up
register data dependencies automatically.

A key design point mirrors the paper: on the PACK system a kernel gathers
through :meth:`AraProgramBuilder.vlimxei32` (indices stay in memory), while
on BASE/IDEAL the same kernel must first :meth:`vle32` the indices into a
vector register and then :meth:`vluxei32` — the builder refuses to assemble
``vlimxei``/``vsimxei`` unless the target has the AXI-Pack extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.axi.stream import ContiguousStream, IndirectStream, StridedStream
from repro.errors import WorkloadError
from repro.vector.config import ELEM_BYTES, LoweringMode, max_vl
from repro.vector.isa import Mnemonic, check_supported
from repro.vector.ops import ScalarWork, VectorCompute, VectorLoad, VectorOp, VectorStore


#: (load, store) mnemonics of each kind of memory access
_ACCESS_MNEMONICS = {
    "contiguous": (Mnemonic.VLE32, Mnemonic.VSE32),
    "strided": (Mnemonic.VLSE32, Mnemonic.VSSE32),
    "in-memory-indexed": (Mnemonic.VLIMXEI32, Mnemonic.VSIMXEI32),
    "register-indexed": (Mnemonic.VLUXEI32, Mnemonic.VSUXEI32),
}
#: mnemonics an arithmetic op cannot carry
_NOT_ARITHMETIC = frozenset(
    [mnemonic for pair in _ACCESS_MNEMONICS.values() for mnemonic in pair]
    + [Mnemonic.SCALAR]
)


def _access_mnemonic(op: VectorOp) -> Tuple[str, Mnemonic]:
    """What a load or store accesses and the mnemonic that says so."""
    stream = op.stream
    if isinstance(stream, ContiguousStream):
        kind = "contiguous"
    elif isinstance(stream, StridedStream):
        kind = "strided"
    elif op.uses_in_memory_indices:
        kind = "in-memory-indexed"
    else:
        kind = "register-indexed"
    load, store = _ACCESS_MNEMONICS[kind]
    if isinstance(op, VectorStore):
        return f"{kind} store", store
    return f"{kind} load", load


def _render(op: VectorOp) -> str:
    """Assembly-like listing line, e.g.
    ``vlse32.v vd=v1, base=0x1000, stride=8  # row 0  [vl=8]``."""
    if isinstance(op, (VectorLoad, VectorStore)):
        stream = op.stream
        vl = stream.num_elements
        args = [f"vd={op.dest}" if isinstance(op, VectorLoad) else f"vs={op.src}",
                f"base={hex(stream.base)}"]
        if isinstance(stream, StridedStream):
            args.append(f"stride={stream.stride_elems}")
        elif op.index_values_reg is not None:
            args.append(f"vs2={op.index_values_reg}")
        elif isinstance(stream, IndirectStream):
            args.append(f"idx_base={hex(stream.index_base)}")
    elif isinstance(op, VectorCompute):
        vl = op.num_elements
        args = [f"vd={op.dest}", f"srcs={','.join(op.srcs)}"]
    else:
        vl = 0
        args = [f"cycles={op.cycles}"]
    text = f"{op.mnemonic.value} {', '.join(args)}"
    if op.label:
        text += f"  # {op.label}"
    return f"{text}  [vl={vl}]"


@dataclass
class Program:
    """A fully assembled kernel: one micro-op per instruction."""

    name: str
    mode: LoweringMode
    ops: List[VectorOp] = field(default_factory=list)

    @property
    def num_instructions(self) -> int:
        """Number of assembled instructions (scalar work included)."""
        return len(self.ops)

    def listing(self, limit: Optional[int] = None) -> str:
        """Human-readable assembly listing (truncated to ``limit`` lines)."""
        lines = [_render(op) for op in self.ops]
        if limit is not None and len(lines) > limit:
            omitted = len(lines) - limit
            lines = lines[:limit] + [f"... ({omitted} more instructions)"]
        return "\n".join(lines)

    def validate(self) -> None:
        """Check the program is a legal kernel for its lowering mode.

        Raises :class:`~repro.errors.WorkloadError` on the first violation.
        The checks mirror what the engine enforces at dispatch/lowering time
        (ISA support for the mode, each op's mnemonic naming what the op
        does, vector lengths within the register group,
        dependency ids referring to earlier ops, register-indexed ops naming
        an index register on systems without AXI-Pack) plus data-flow rules
        that would otherwise only surface mid-simulation (reading a vector
        register no earlier op has written).  Programs assembled through
        :class:`AraProgramBuilder` should always pass; the fuzzer calls this
        on every generated program before running it.
        """
        if not self.ops:
            raise WorkloadError(f"program {self.name!r} contains no instructions")
        written: set = set()
        for index, op in enumerate(self.ops):
            where = f"{self.name!r} op {index} ({op.mnemonic.value})"
            check_supported(op.mnemonic, self.mode)
            if op.op_id != index:
                raise WorkloadError(f"{where}: op_id {op.op_id} != position {index}")
            for dep in op.deps:
                if not 0 <= dep < index:
                    raise WorkloadError(
                        f"{where}: dependency {dep} does not precede the op"
                    )
            reads: List[str] = []
            if isinstance(op, (VectorLoad, VectorStore)):
                if op.stream is None:
                    raise WorkloadError(f"{where}: memory op has no stream")
                access, mnemonic = _access_mnemonic(op)
                if op.mnemonic is not mnemonic:
                    raise WorkloadError(f"{where}: {access}s carry {mnemonic.value}")
                vl = op.stream.num_elements
                limit = max_vl(op.stream.elem_bytes)
                if vl > limit:
                    raise WorkloadError(f"{where}: vl {vl} exceeds max_vl {limit}")
                if op.uses_in_memory_indices and not self.mode.has_axi_pack:
                    raise WorkloadError(
                        f"{where}: in-memory indices need the AXI-Pack extension"
                    )
                if (isinstance(op.stream, IndirectStream)
                        and not op.uses_in_memory_indices
                        and op.index_values_reg is None):
                    raise WorkloadError(
                        f"{where}: register-indexed op names no index register"
                    )
                if op.index_values_reg is not None:
                    reads.append(op.index_values_reg)
            elif isinstance(op, VectorCompute):
                if op.mnemonic in _NOT_ARITHMETIC:
                    raise WorkloadError(
                        f"{where}: arithmetic ops cannot carry {op.mnemonic.value}"
                    )
                if op.num_elements > max_vl(ELEM_BYTES):
                    raise WorkloadError(
                        f"{where}: vl {op.num_elements} exceeds max_vl "
                        f"{max_vl(ELEM_BYTES)}"
                    )
                if op.fn is not None:
                    reads.extend(op.srcs)
            elif isinstance(op, ScalarWork) and op.mnemonic is not Mnemonic.SCALAR:
                raise WorkloadError(f"{where}: scalar work carries scalar")
            if isinstance(op, VectorStore):
                reads.append(op.src)
            for reg in reads:
                if reg not in written:
                    raise WorkloadError(
                        f"{where}: reads register {reg!r} before any op writes it"
                    )
            if isinstance(op, VectorLoad):
                written.add(op.dest)
            elif isinstance(op, VectorCompute) and op.dest is not None:
                written.add(op.dest)


class AraProgramBuilder:
    """Builds :class:`Program` objects instruction by instruction."""

    def __init__(self, name: str, mode: LoweringMode) -> None:
        self.name = name
        self.mode = mode
        self.program = Program(name=name, mode=mode)
        self._writers: Dict[str, int] = {}
        self._readers: Dict[str, List[int]] = {}
        self._last_ordered_mem: Optional[int] = None

    # ------------------------------------------------------------- utilities
    @property
    def max_vl(self) -> int:
        """Largest vector length a single register group holds (32-bit elements)."""
        return max_vl(ELEM_BYTES)

    def strip_mine(self, total: int) -> List[int]:
        """Split ``total`` elements into chunks of at most ``max_vl``."""
        if total <= 0:
            raise WorkloadError("strip_mine needs a positive element count")
        chunks = []
        remaining = total
        while remaining > 0:
            take = min(self.max_vl, remaining)
            chunks.append(take)
            remaining -= take
        return chunks

    def _next_id(self) -> int:
        return len(self.program.ops)

    def _deps_for(self, reads: Sequence[str], writes: Sequence[str]) -> List[int]:
        deps = []
        for reg in reads:
            if reg in self._writers:
                deps.append(self._writers[reg])
        for reg in writes:
            # Write-after-write and write-after-read ordering keep register
            # reuse well defined (the engine relaxes WAR hazards the way
            # element-granular chaining does, but the dependency must exist).
            if reg in self._writers:
                deps.append(self._writers[reg])
            deps.extend(self._readers.get(reg, ()))
        if self._last_ordered_mem is not None:
            deps.append(self._last_ordered_mem)
        return sorted(set(deps))

    def _add(self, op: VectorOp, writes: Sequence[str],
             reads: Sequence[str] = ()) -> int:
        check_supported(op.mnemonic, self.mode)
        self.program.ops.append(op)
        for reg in writes:
            self._writers[reg] = op.op_id
            self._readers[reg] = []
        for reg in reads:
            self._readers.setdefault(reg, []).append(op.op_id)
        return op.op_id

    # ------------------------------------------------------------ scalar side
    def scalar(self, cycles: int, label: str = "loop bookkeeping",
               after: Sequence[int] = ()) -> int:
        """Account for scalar-core work (loop control, pointer arithmetic)."""
        op = ScalarWork(op_id=self._next_id(), mnemonic=Mnemonic.SCALAR,
                        deps=sorted(set(after)), cycles=cycles, label=label)
        return self._add(op, writes=())

    # ----------------------------------------------------------------- loads
    def vle32(self, dest: str, base: int, count: int, kind: str = "data",
              dtype: str = "float32", label: str = "") -> int:
        """Unit-stride load of ``count`` 32-bit elements.

        ``dtype`` selects how the loaded bytes are interpreted in the
        register file (``"uint32"`` for index arrays, ``"float32"`` for
        data); the bus traffic is identical either way.
        """
        stream = ContiguousStream(base=base, num_elements=count, elem_bytes=4)
        op = VectorLoad(op_id=self._next_id(), mnemonic=Mnemonic.VLE32,
                        deps=self._deps_for((), (dest,)), label=label,
                        stream=stream, dest=dest, dtype=dtype, kind=kind)
        return self._add(op, writes=(dest,))

    def vlse32(self, dest: str, base: int, count: int, stride_elems: int,
               label: str = "") -> int:
        """Strided load of ``count`` 32-bit elements."""
        stream = StridedStream(base=base, num_elements=count, elem_bytes=4,
                               stride_elems=stride_elems)
        op = VectorLoad(op_id=self._next_id(), mnemonic=Mnemonic.VLSE32,
                        deps=self._deps_for((), (dest,)), label=label,
                        stream=stream, dest=dest, dtype="float32")
        return self._add(op, writes=(dest,))

    def vluxei32(self, dest: str, base: int, index_reg: str, count: int,
                 index_base: int, label: str = "") -> int:
        """Register-indexed gather (indices already loaded into ``index_reg``).

        ``index_base`` records where the indices came from so the IDEAL
        system can model perfectly packed gathers; the BASE system resolves
        the register values into narrow per-element transactions.
        """
        stream = IndirectStream(base=base, num_elements=count, elem_bytes=4,
                                index_base=index_base, index_bytes=4)
        op = VectorLoad(op_id=self._next_id(), mnemonic=Mnemonic.VLUXEI32,
                        deps=self._deps_for((index_reg,), (dest,)), label=label,
                        stream=stream, dest=dest, dtype="float32",
                        index_values_reg=index_reg)
        return self._add(op, writes=(dest,), reads=(index_reg,))

    def vlimxei32(self, dest: str, base: int, index_base: int, count: int,
                  label: str = "") -> int:
        """In-memory-indexed gather (AXI-Pack extension): indices stay in
        memory, 32 bits each."""
        stream = IndirectStream(base=base, num_elements=count, elem_bytes=4,
                                index_base=index_base, index_bytes=4)
        op = VectorLoad(op_id=self._next_id(), mnemonic=Mnemonic.VLIMXEI32,
                        deps=self._deps_for((), (dest,)), label=label,
                        stream=stream, dest=dest, dtype="float32",
                        uses_in_memory_indices=True)
        return self._add(op, writes=(dest,))

    # ---------------------------------------------------------------- stores
    def _store(self, op: VectorStore, reads: Sequence[str]) -> int:
        op_id = self._add(op, writes=(), reads=reads)
        if op.ordered:
            self._last_ordered_mem = op_id
        return op_id

    def vse32(self, src: str, base: int, count: int, ordered: bool = False,
              label: str = "") -> int:
        """Unit-stride store of ``count`` 32-bit elements."""
        stream = ContiguousStream(base=base, num_elements=count, elem_bytes=4)
        op = VectorStore(op_id=self._next_id(), mnemonic=Mnemonic.VSE32,
                         deps=self._deps_for((src,), ()), label=label,
                         stream=stream, src=src, dtype="float32", ordered=ordered)
        return self._store(op, reads=(src,))

    def vsse32(self, src: str, base: int, count: int, stride_elems: int,
               ordered: bool = False, label: str = "") -> int:
        """Strided store of ``count`` 32-bit elements."""
        stream = StridedStream(base=base, num_elements=count, elem_bytes=4,
                               stride_elems=stride_elems)
        op = VectorStore(op_id=self._next_id(), mnemonic=Mnemonic.VSSE32,
                         deps=self._deps_for((src,), ()), label=label,
                         stream=stream, src=src, dtype="float32", ordered=ordered)
        return self._store(op, reads=(src,))

    def vsuxei32(self, src: str, base: int, index_reg: str, count: int,
                 index_base: int, ordered: bool = False, label: str = "") -> int:
        """Register-indexed scatter."""
        stream = IndirectStream(base=base, num_elements=count, elem_bytes=4,
                                index_base=index_base, index_bytes=4)
        op = VectorStore(op_id=self._next_id(), mnemonic=Mnemonic.VSUXEI32,
                         deps=self._deps_for((src, index_reg), ()), label=label,
                         stream=stream, src=src, dtype="float32",
                         ordered=ordered, index_values_reg=index_reg)
        return self._store(op, reads=(src, index_reg))

    def vsimxei32(self, src: str, base: int, index_base: int, count: int,
                  ordered: bool = False, label: str = "") -> int:
        """In-memory-indexed scatter (AXI-Pack extension) through 32-bit
        indices."""
        stream = IndirectStream(base=base, num_elements=count, elem_bytes=4,
                                index_base=index_base, index_bytes=4)
        op = VectorStore(op_id=self._next_id(), mnemonic=Mnemonic.VSIMXEI32,
                         deps=self._deps_for((src,), ()), label=label,
                         stream=stream, src=src, dtype="float32", ordered=ordered,
                         uses_in_memory_indices=True)
        return self._store(op, reads=(src,))

    # ------------------------------------------------------------ arithmetic
    def _compute(self, mnemonic: Mnemonic, dest: Optional[str], srcs: Sequence[str],
                 count: int, fn: Optional[Callable], is_reduction: bool = False,
                 label: str = "", dest_is_src: bool = False) -> int:
        reads = list(srcs) + ([dest] if dest_is_src and dest else [])
        writes = (dest,) if dest else ()
        op = VectorCompute(op_id=self._next_id(), mnemonic=mnemonic,
                           deps=self._deps_for(reads, writes), label=label,
                           num_elements=count, srcs=tuple(reads), dest=dest,
                           is_reduction=is_reduction, fn=fn)
        return self._add(op, writes=writes, reads=tuple(reads))

    def compute(self, mnemonic: Mnemonic, dest: Optional[str], srcs: Sequence[str],
                count: int, fn: Optional[Callable] = None, is_reduction: bool = False,
                dest_is_src: bool = False, label: str = "") -> int:
        """Assemble an arithmetic instruction with a custom functional body.

        Workloads use this for operations whose numpy semantics need extra
        context baked in (e.g. the variable-length accumulations of the
        column-wise triangular kernel or PageRank's damping update).
        """
        return self._compute(mnemonic, dest, srcs, count, fn=fn,
                             is_reduction=is_reduction, label=label,
                             dest_is_src=dest_is_src)

    def vfadd(self, dest: str, a: str, b: str, count: int, label: str = "") -> int:
        """Element-wise addition."""
        return self._compute(Mnemonic.VFADD, dest, (a, b), count,
                             fn=lambda x, y: x + y, label=label)

    def vfsub(self, dest: str, a: str, b: str, count: int, label: str = "") -> int:
        """Element-wise subtraction."""
        return self._compute(Mnemonic.VFSUB, dest, (a, b), count,
                             fn=lambda x, y: x - y, label=label)

    def vfmul(self, dest: str, a: str, b: str, count: int, label: str = "") -> int:
        """Element-wise multiplication."""
        return self._compute(Mnemonic.VFMUL, dest, (a, b), count,
                             fn=lambda x, y: x * y, label=label)

    def vfmul_vf(self, dest: str, a: str, scalar: float, count: int, label: str = "") -> int:
        """Vector-scalar multiplication."""
        return self._compute(Mnemonic.VFMUL_VF, dest, (a,), count,
                             fn=lambda x: (x * np.float32(scalar)).astype(np.float32),
                             label=label)

    def vfmacc(self, dest: str, a: str, b: str, count: int, label: str = "") -> int:
        """Fused multiply-accumulate: ``dest += a * b``."""
        return self._compute(Mnemonic.VFMACC, dest, (a, b), count,
                             fn=lambda x, y, acc: (acc + x * y).astype(np.float32),
                             label=label, dest_is_src=True)

    def vfmacc_vf(self, dest: str, a: str, scalar: float, count: int, label: str = "") -> int:
        """Vector-scalar multiply-accumulate: ``dest += a * scalar``."""
        return self._compute(Mnemonic.VFMACC_VF, dest, (a,), count,
                             fn=lambda x, acc: (acc + x * np.float32(scalar)).astype(np.float32),
                             label=label, dest_is_src=True)

    def vfmin(self, dest: str, a: str, b: str, count: int, label: str = "") -> int:
        """Element-wise minimum (used by sssp relaxations)."""
        return self._compute(Mnemonic.VFMIN, dest, (a, b), count,
                             fn=lambda x, y: np.minimum(x, y), label=label)

    def vfredsum(self, dest: str, src: str, count: int, label: str = "") -> int:
        """Sum reduction of ``src`` into the single-element register ``dest``."""
        return self._compute(Mnemonic.VFREDSUM, dest, (src,), count,
                             fn=lambda x: np.asarray([np.float32(np.sum(x, dtype=np.float32))]),
                             is_reduction=True, label=label)

    def vfredmin(self, dest: str, src: str, count: int, label: str = "") -> int:
        """Minimum reduction of ``src`` into ``dest``."""
        return self._compute(Mnemonic.VFREDMIN, dest, (src,), count,
                             fn=lambda x: np.asarray([np.float32(np.min(x))]),
                             is_reduction=True, label=label)

    def vmv(self, dest: str, src: str, count: int, label: str = "") -> int:
        """Register move."""
        return self._compute(Mnemonic.VMV, dest, (src,), count,
                             fn=lambda x: x.copy(), label=label)

    def vmv_vx(self, dest: str, value: float, count: int, label: str = "") -> int:
        """Broadcast a scalar into a vector register."""
        return self._compute(Mnemonic.VMV_VX, dest, (), count,
                             fn=lambda: np.full(count, np.float32(value), dtype=np.float32),
                             label=label)

    # ----------------------------------------------------------------- fences
    def fence(self) -> None:
        """Order all subsequent memory operations after all previous ones."""
        mem_ops = [op.op_id for op in self.program.ops if op.is_memory]
        if mem_ops:
            self._last_ordered_mem = mem_ops[-1]

    # ----------------------------------------------------------------- result
    def build(self) -> Program:
        """Return the assembled program."""
        if not self.program.ops:
            raise WorkloadError(f"program {self.name!r} contains no instructions")
        return self.program
