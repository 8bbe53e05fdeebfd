"""Execution tracer tests."""

from __future__ import annotations

from repro.isa.assembler import assemble
from repro.isa.registers import MR64, register_set
from repro.uarch.trace import trace_program
from repro.workloads.suite import load_workload

SIMPLE = """
.text
_start:
    li   r4, 7
    addi r5, r4, 1
    li   r1, 0
    li   r2, 0
    syscall
"""


class TestTracer:
    def test_captures_instructions_in_order(self):
        program = assemble(SIMPLE, MR64)
        trace = trace_program(program)
        texts = [entry.text for entry in trace.entries]
        assert texts[0].startswith("addi r4")     # li expansion
        assert any("addi r5, r4, 1" in t for t in texts)
        assert trace.status == "completed"

    def test_records_destination_values(self):
        program = assemble(SIMPLE, MR64)
        trace = trace_program(program)
        entry = next(e for e in trace.entries
                     if "addi r5, r4, 1" in e.text)
        assert entry.dest == 5 and entry.dest_value == 8

    def test_kernel_mode_flagged(self):
        program = assemble(SIMPLE, MR64)
        trace = trace_program(program)
        assert any(entry.in_kernel for entry in trace.entries)
        assert any(not entry.in_kernel for entry in trace.entries)

    def test_window_truncation(self):
        program = load_workload("crc32", MR64)
        trace = trace_program(program, start=100, count=20)
        assert len(trace.entries) == 20
        assert trace.entries[0].index == 100
        assert trace.truncated

    def test_render(self):
        program = assemble(SIMPLE, MR64)
        text = trace_program(program).render(register_set(MR64))
        assert "0x00001000" in text
        assert "r4 <- 0x7" in text
        assert text.endswith("status: completed")

    def test_crash_status(self):
        program = assemble(
            ".text\n_start:\n    li r4, 0\n    lw r5, 0(r4)", MR64)
        trace = trace_program(program)
        assert trace.status == "sim-exception: access-fault"
