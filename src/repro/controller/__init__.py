"""Banked AXI-Pack memory controller (paper §II-C, Fig. 2b-d).

The controller sits between an AXI/AXI-Pack port and the multi-banked SRAM.
Its *adapter* decodes incoming bursts and hands them to one of five
converters:

* :class:`~repro.controller.base_converter.BaseAxi4Converter` — regular AXI4
  bursts (full backward compatibility);
* :class:`~repro.controller.strided_read.StridedReadConverter` and
  :class:`~repro.controller.strided_write.StridedWriteConverter` — AXI-Pack
  strided bursts;
* :class:`~repro.controller.indirect_read.IndirectReadConverter` and
  :class:`~repro.controller.indirect_write.IndirectWriteConverter` — AXI-Pack
  indirect bursts, with the index stage
  (:class:`~repro.controller.index_stage.IndexStage`) performing the
  indirection bank-side.

Each converter breaks beats into parallel word accesses, regulated so the
decoupling queues never overflow, and re-packs (or unpacks) bus-wide beats.
"""

from repro.controller.adapter import AxiPackAdapter
from repro.controller.base_converter import BaseAxi4Converter
from repro.controller.strided_read import StridedReadConverter
from repro.controller.strided_write import StridedWriteConverter
from repro.controller.indirect_read import IndirectReadConverter
from repro.controller.indirect_write import IndirectWriteConverter

__all__ = [
    "AxiPackAdapter",
    "BaseAxi4Converter",
    "StridedReadConverter",
    "StridedWriteConverter",
    "IndirectReadConverter",
    "IndirectWriteConverter",
]
