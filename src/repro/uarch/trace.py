"""Execution tracing: disassembled instruction traces with effects.

A debugging aid for workload and injector development: runs the
functional engine with a window hook and records, per executed
instruction, the PC, the disassembly, the destination register value
it produced and the privilege mode.  Traces are windowed (start/count)
so multi-thousand-instruction workloads stay inspectable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.disassembler import format_instr
from ..isa.errors import DecodeError
from ..kernel.loader import build_system_image
from ..uarch.functional import (FuncResult, FunctionalEngine, RunStatus,
                                _dest_reg, _writes_reg, cached_decode)


@dataclass
class TraceEntry:
    index: int
    pc: int
    text: str
    in_kernel: bool
    dest: int | None = None
    dest_value: int | None = None

    def render(self, regs) -> str:
        mode = "K" if self.in_kernel else "U"
        effect = ""
        if self.dest is not None:
            effect = f"  ; {regs.name(self.dest)} <- {self.dest_value:#x}"
        return f"{self.index:6d} {mode} {self.pc:#010x}  " \
               f"{self.text}{effect}"


@dataclass
class Trace:
    entries: list = field(default_factory=list)
    status: str = "completed"
    truncated: bool = False

    def render(self, regs) -> str:
        lines = [entry.render(regs) for entry in self.entries]
        if self.truncated:
            lines.append("... (trace window ended before the program)")
        lines.append(f"status: {self.status}")
        return "\n".join(lines)


class _Window:
    """Engine hook recording instructions ``start..start+count-1``:
    idle until ``start``, then polled every step to finish the entry of
    the instruction that just ran and decode the one about to run.
    Once the instruction after the window has run, it ends the run."""

    def __init__(self, trace: Trace, start: int, count: int) -> None:
        self.trace = trace
        self.next_check = start
        self._end = start + count
        self._pending = None

    def poll(self, engine):
        ms, executed = engine.ms, engine.executed
        if self._pending is not None:
            pc, instr = self._pending
            self._pending = None
            entry = TraceEntry(executed - 1, pc,
                               format_instr(instr, engine.regs_meta, pc=pc),
                               ms.in_kernel)
            if _writes_reg(instr):
                entry.dest = _dest_reg(instr, ms.xlen)
                entry.dest_value = engine.regs[entry.dest]
            self.trace.entries.append(entry)
        if executed > self._end:
            self.trace.truncated = True
            self.trace.status = "window-closed"
            return FuncResult(RunStatus.COMPLETED, b"", 0, executed)
        self.next_check = executed + 1
        if executed < self._end and not ms.halted:
            word = engine.memory.read_int(ms.pc & 0xFFFF_FFFF, 4)
            try:
                self._pending = (ms.pc, cached_decode(word,
                                                      engine.regs_meta))
            except DecodeError:
                pass  # the engine's own fetch raises the fault
        return None


def trace_program(program, start: int = 0, count: int = 200,
                  max_instructions: int = 500_000) -> Trace:
    """Execute *program* and capture a window of its dynamic trace."""
    engine = FunctionalEngine(build_system_image(program),
                              kernel="sim",
                              max_instructions=max_instructions)
    trace = Trace()
    engine.hook = _Window(trace, start, count)
    result = engine.run()
    if not trace.truncated:
        trace.status = result.status.value
        if result.fault_kind is not None:
            trace.status += f": {result.fault_kind.value}"
    return trace
