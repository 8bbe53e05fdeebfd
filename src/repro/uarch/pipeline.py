"""The out-of-order pipeline engine (the GeFIN/gem5 stand-in).

This is the microarchitectural heart of the reproduction: an
instruction-granular out-of-order timing model wrapped around
*bit-accurate* state for the paper's five injection targets —
physical register file, load/store queue, L1 instruction cache,
L1 data cache and unified L2.

Timing model (O(1) per instruction)::

    fetch_i    = max(fetch_{i-1} + 1/W_fetch, redirect, ROB head, IQ head)
    dispatch_i = fetch_i + frontend_depth (+ rename/LSQ stalls)
    ready_i    = max(dispatch_i, ready(sources))
    start_i    = max(ready_i, FU available)
    complete_i = start_i + latency (+ D-cache latency for loads)
    commit_i   = max(complete_i + 1, commit_{i-1} + 1/W_commit)

Branch mispredictions redirect fetch to ``complete + penalty``;
syscall/eret serialise the frontend.  Functional execution is eager
and in program order, but *values live in the renamed physical
register file and in data-carrying caches*, so injected faults behave
structurally: dead state masks, live state propagates, corrupt lines
write back, escape to DMA, or re-enter the pipeline as wrong
data/instructions.

HVF instrumentation: the engine records the first *architectural
crossing* — the first committed instruction affected by the injected
corruption — and classifies it into an FPM (WD / WI / WOI).  Runs that
corrupt the output with no crossing are ESC by definition.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from ..isa import layout
from ..isa.encoding import Decoded
from ..isa.errors import DecodeError
from ..isa.registers import register_set
from ..kernel.loader import SystemImage
from ..kernel.syscalls import EXIT_CODE_OFFSET
from .branch import BranchPredictor
from .cache import Cache, MemoryPort, TaintProbe
from .config import MicroarchConfig
from .cpu import CoreAccess, MachineState, execute
from .exceptions import (ContainmentError, DetectTrap, FaultKind,
                         SimException)
from .functional import RunStatus, cached_decode
from .lsq import LoadStoreQueue
from .regfile import PhysRegFile

_LINK32, _LINK64 = 14, 30


def fold_coordinates(engine: "PipelineEngine", spec) -> tuple[int, int, int]:
    """Fold a fault spec's raw ``(a, b, c)`` onto the target geometry.

    The containment contract promises a :class:`Verdict` for *any*
    coordinate triple, not just ones that happen to lie inside the
    structure the spec names on this core: a spec sampled for a large
    core (or fuzzed from arbitrary integers) must land somewhere, the
    way an address decoder ignores bits beyond the array's width.
    Folding is modulo each dimension, so in-range coordinates are
    untouched and campaigns keep their exact historical sampling.
    """
    structure = spec.structure
    a, b, c = spec.a, spec.b, getattr(spec, "c", 0)
    if structure == "RF":
        return a % engine.rf.n_phys, b % engine.rf.xlen, c
    if structure == "LSQ":
        return a % engine.lsq.size, b % engine.lsq.entry_bits, c
    cache = {"L1I": engine.l1i, "L1D": engine.l1d,
             "L2": engine.l2}[structure]
    # c (the bit within line data / tag) is folded at the flip site,
    # where data vs. tag width is known
    return a % cache.n_sets, b % cache.assoc, c


@dataclass
class Crossing:
    """The moment an injected fault became architecturally visible."""

    fpm: str           # FPM value ("WD" / "WI" / "WOI")
    cycle: float
    in_kernel: bool
    #: first corrupted architectural register (rename-map index), if
    #: the crossing happened through a register read
    arch_reg: int | None = None
    #: first corrupted memory/fetch address, if it happened through
    #: a tainted line or a corrupted instruction word
    mem_addr: int | None = None


@dataclass
class PipelineResult:
    """Raw result of one pipeline execution."""

    status: RunStatus
    output: bytes
    exit_code: int
    cycles: float
    instructions: int
    kernel_instructions: int = 0
    fault_applied: bool = False
    fault_live: bool = False
    crossing: Crossing | None = None
    fault_kind: FaultKind | None = None
    fault_in_kernel: bool = False
    occupancy: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)


class _PipelineCore(CoreAccess):
    """CoreAccess adapter over the renamed register file + caches."""

    __slots__ = ("e",)

    def __init__(self, engine: "PipelineEngine") -> None:
        self.e = engine

    def read_reg(self, index: int) -> int:
        e = self.e
        # Sources were resolved through the rename map *before* the
        # destination was renamed (else ``add r3, r3, r1`` would read
        # its own unwritten destination register).
        cached = e.src_vals.get(index)
        if cached is not None:
            return cached
        value, phys = e.rf.read(index)
        if phys in e.rf.tainted and e.crossing is None:
            e.record_crossing("WD", arch_reg=index)
        return value

    def write_reg(self, index: int, value: int) -> None:
        e = self.e
        if index == 0:
            return
        # the destination was pre-allocated during rename
        e.rf.write(e.dest_phys, value)

    def load(self, addr: int, nbytes: int, signed: bool) -> int:
        e = self.e
        e.memory.check_access(addr, nbytes, write=False,
                              kernel_mode=e.ms.in_kernel)
        data, latency, tainted = e.l1d.read(addr, nbytes, e.probe)
        e.mem_latency = latency
        if tainted and e.crossing is None:
            e.record_crossing("WD", mem_addr=addr)
        e.pending_mem = ("load", addr, nbytes)
        value = int.from_bytes(data, "little")
        if signed and value & (1 << (8 * nbytes - 1)):
            value -= 1 << (8 * nbytes)
        return value

    def store(self, addr: int, nbytes: int, value: int) -> None:
        e = self.e
        e.memory.check_access(addr, nbytes, write=True,
                              kernel_mode=e.ms.in_kernel)
        old, latency, _ = e.l1d.read(addr, nbytes, e.probe)
        data = (value & ((1 << (8 * nbytes)) - 1)).to_bytes(nbytes,
                                                            "little")
        latency += e.l1d.write(addr, data, e.probe)
        e.mem_latency = latency
        e.pending_mem = ("store", addr, nbytes, value, old)


class PipelineEngine:
    """One end-to-end out-of-order execution, optionally with faults."""

    def __init__(self, image: SystemImage, config: MicroarchConfig,
                 faults=(), max_instructions: int = 2_000_000,
                 max_cycles: float = float("inf"),
                 collect_stats: bool = False,
                 tracer=None) -> None:
        if register_set(config.isa).xlen != register_set(image.isa).xlen:
            raise ValueError(
                f"config {config.name} is {config.isa} but program "
                f"is {image.isa}")
        self.image = image
        self.config = config
        self.memory = image.memory
        self.regs_meta = register_set(image.isa)
        xlen = self.regs_meta.xlen

        # --- microarchitectural state --------------------------------
        self.probe = TaintProbe()
        self.memport = MemoryPort(self.memory, config.dram_latency)
        self.l2 = Cache("L2", config.l2.size, config.l2.assoc,
                        config.l2.line_size, config.l2.latency,
                        self.memport)
        self.l1i = Cache("L1I", config.l1i.size, config.l1i.assoc,
                         config.l1i.line_size, config.l1i.latency,
                         self.l2)
        self.l1d = Cache("L1D", config.l1d.size, config.l1d.assoc,
                         config.l1d.line_size, config.l1d.latency,
                         self.l2)
        self.rf = PhysRegFile(config.n_phys_regs, self.regs_meta.count,
                              xlen)
        self.lsq = LoadStoreQueue(config.lsq_size, xlen)
        self.predictor = BranchPredictor(config.predictor_entries,
                                         config.btb_entries)

        # boot state
        self.ms = MachineState(xlen=xlen, pc=image.entry)
        sp_phys = self.rf.rename_map[self.regs_meta.stack_reg]
        self.rf.values[sp_phys] = image.initial_sp

        # --- timing state --------------------------------------------
        self.fetch_time = 0.0
        self.last_commit = 0.0
        self.reg_ready = [0.0] * config.n_phys_regs
        self.rob_commits: deque[float] = deque()
        self.iq_issues: deque[float] = deque()
        self.fu = {
            "alu": [0.0] * config.n_alu,
            "mul": [0.0] * config.n_mul,
            "div": [0.0] * config.n_div,
            "mem": [0.0] * config.n_mem_ports,
        }

        # --- fault machinery -----------------------------------------
        self.faults = sorted(faults, key=lambda f: f.cycle)
        self._next_fault = 0
        self.fault_applied = False
        self.fault_live = False
        self.crossing: Crossing | None = None
        #: optional repro.obs.tracing.FaultTracer; every hook guards
        #: with ``is not None`` so tracing costs nothing when off
        self.tracer = tracer

        # --- control -------------------------------------------------
        self.max_instructions = max_instructions
        self.max_cycles = max_cycles
        self.instructions = 0
        self.kernel_instructions = 0
        self.collect_stats = collect_stats
        self._occ_samples = 0
        self._occ_sums = {"RF": 0.0, "LSQ": 0.0, "L1I": 0.0,
                          "L1D": 0.0, "L2": 0.0}

        self._core = _PipelineCore(self)
        self.dest_phys = -1
        self.src_vals: dict[int, int] = {}
        self.mem_latency = 0
        self.pending_mem: tuple | None = None
        #: optional ACE lifetime tracker (see repro.core.ace); when
        #: set, the engine reports write/read/release events for the
        #: register file, LSQ and D-cache lines.
        self.lifetime_tracker = None
        self._fetch_line = None
        self._fetch_line_base = -1
        self._fetch_line_tag = -1
        #: optional observer (checkpoint fast path, cosim probe, trace
        #: recorder, residency profiler): an object with ``next_check``
        #: (instruction count) and ``poll(engine)``.  Polled at every
        #: instruction boundary whose count is >= ``next_check``,
        #: including the one after the halting instruction; a non-None
        #: poll() return ends the run with that result.
        self.hook = None

    # ------------------------------------------------------------------
    # crossing / fault bookkeeping
    # ------------------------------------------------------------------
    def record_crossing(self, fpm: str, arch_reg: int | None = None,
                        mem_addr: int | None = None) -> None:
        if self.crossing is None:
            self.crossing = Crossing(fpm, self.fetch_time,
                                     self.ms.in_kernel,
                                     arch_reg=arch_reg,
                                     mem_addr=mem_addr)
            if self.tracer is not None:
                self.tracer.crossed(self.fetch_time,
                                    self._crossing_detail(self.crossing))

    def _crossing_detail(self, crossing: Crossing) -> str:
        mode = "kernel" if crossing.in_kernel else "user"
        site = ""
        if crossing.arch_reg is not None:
            site = f" via {self.regs_meta.name(crossing.arch_reg)}"
        elif crossing.mem_addr is not None:
            site = f" via {crossing.mem_addr:#010x}"
        return f"{crossing.fpm} in {mode} mode{site}"

    def _apply_due_faults(self) -> None:
        while (self._next_fault < len(self.faults)
               and self.faults[self._next_fault].cycle <= self.fetch_time):
            spec = self.faults[self._next_fault]
            self._next_fault += 1
            self._apply_fault(spec)

    def _trace_landing(self, detail: str) -> None:
        if self.tracer is not None:
            state = "live" if self.fault_live else "dead"
            self.tracer.landed(self.fetch_time,
                               f"{detail} ({state} state)")

    def _apply_fault(self, spec) -> None:
        self.fault_applied = True
        structure = spec.structure
        n_bits = getattr(spec, "n_bits", 1)
        a, b, c = fold_coordinates(self, spec)
        if structure == "RF":
            phys = a
            if spec.prefer_live:
                live = [i for i in range(self.rf.n_phys)
                        if self.rf.state[i]]
                if not live:
                    self._trace_landing("RF: no live register")
                    return
                phys = live[a % len(live)]
            for k in range(n_bits):
                info = self.rf.flip_bit(phys,
                                        (b + k) % self.rf.xlen)
                self.fault_live = self.fault_live or info["live"]
            self._trace_landing(f"RF: physical register {phys}, "
                                f"bit {b % self.rf.xlen}")
            return
        if structure == "LSQ":
            self._apply_lsq_fault(spec, a, b)
            return
        cache = {"L1I": self.l1i, "L1D": self.l1d, "L2": self.l2}[structure]
        set_index, way = a, b
        if spec.prefer_live:
            live = [(s, w) for s, ways in enumerate(cache.sets)
                    for w, line in enumerate(ways) if line.valid]
            if not live:
                self._trace_landing(f"{structure}: no valid line")
                return
            set_index, way = live[(a * cache.assoc + b) % len(live)]
        if getattr(spec, "kind", "data") == "tag":
            for k in range(n_bits):
                info = cache.flip_tag_bit(
                    set_index, way, (c + k) % cache.tag_bits)
                self.fault_live = self.fault_live or info["live"]
        else:
            line_bits = cache.line_size * 8
            for k in range(n_bits):
                info = cache.flip_bit(set_index, way,
                                      (c + k) % line_bits)
                self.fault_live = self.fault_live or info["live"]
        self._trace_landing(
            f"{structure}: set {set_index}, way {way}, "
            f"{'tag' if getattr(spec, 'kind', 'data') == 'tag' else 'line'}"
            f" bit {c}")
        if self.fault_live:
            # invalidate the fetch fast path if we hit its line
            self._fetch_line_base = -1

    def _apply_lsq_fault(self, spec, index: int, bit: int) -> None:
        if spec.prefer_live:
            live = [i for i, e in enumerate(self.lsq.entries) if e.valid]
            if not live:
                return
            index = live[index % len(live)]
        entry, fld, bit = self.lsq.flip_target(index, bit)
        if not entry.valid or entry.commit_cycle <= self.fetch_time:
            self._trace_landing(f"LSQ: entry {index} ({fld} field)")
            return  # dead slot: hardware-masked
        self.fault_live = True
        self._trace_landing(
            f"LSQ: entry {index}, {fld} field, bit {bit} "
            f"({'store' if entry.is_store else 'load'} "
            f"@ {entry.addr:#010x})")
        n_bits = getattr(spec, "n_bits", 1)
        if fld == "data":
            for k in range(n_bits):
                self._flip_lsq_data_bit(entry, bit + k)
        else:  # address field
            mask = 0
            for k in range(n_bits):
                mask |= 1 << ((bit + k) % 32)
            flipped = (entry.addr ^ mask) & 0xFFFF_FFFF
            self._replay_with_address(entry, flipped)

    def _flip_lsq_data_bit(self, entry, bit: int) -> None:
        if entry.is_store:
            # corrupt the stored bytes in place (they were written
            # eagerly); the corruption is architecturally visible
            # when the store commits.
            byte_index, bit_in_byte = divmod(bit, 8)
            if byte_index < entry.nbytes:
                addr = entry.addr + byte_index
                current, _, _ = self.l1d.read(addr, 1, self.probe)
                self.l1d.write(addr, bytes([current[0]
                                            ^ (1 << bit_in_byte)]),
                               self.probe)
                self._taint_line(addr)
                self.record_crossing("WD", mem_addr=addr)
        else:
            # corrupt the load's destination register if still live
            if entry.dest_phys >= 0 \
                    and self.rf.state[entry.dest_phys]:
                self.rf.values[entry.dest_phys] ^= \
                    1 << (bit % self.rf.xlen)
                self.rf.tainted.add(entry.dest_phys)

    def _taint_line(self, addr: int) -> None:
        index, tag = self.l1d._index_tag(addr)
        line = self.l1d._find(index, tag)
        if line is not None:
            if line.taint is None:
                line.taint = set()
            line.taint.add(addr - self.l1d.line_base(index, tag))

    def _replay_with_address(self, entry, flipped: int) -> None:
        """Retroactively move an in-flight memory op to a flipped address."""
        region = self.memory.region_of(flipped)
        self.record_crossing("WD", mem_addr=flipped)
        if entry.is_store:
            # undo the original store, redo at the corrupted address
            self.l1d.write(entry.addr, entry.old_data, self.probe)
            self._taint_line(entry.addr)
            if region is None or (region.kernel_only
                                  and not entry.in_kernel):
                raise SimException(FaultKind.ACCESS_FAULT, flipped,
                                   detail="lsq address corruption",
                                   in_kernel=entry.in_kernel)
            data = (entry.data
                    & ((1 << (8 * entry.nbytes)) - 1)).to_bytes(
                        entry.nbytes, "little")
            self.l1d.write(flipped, data, self.probe)
            self._taint_line(flipped)
            entry.addr = flipped
        else:
            if region is None or (region.kernel_only
                                  and not entry.in_kernel):
                raise SimException(FaultKind.ACCESS_FAULT, flipped,
                                   detail="lsq address corruption",
                                   in_kernel=entry.in_kernel)
            if entry.dest_phys >= 0 and self.rf.state[entry.dest_phys]:
                data, _, _ = self.l1d.read(flipped, entry.nbytes,
                                           self.probe)
                value = int.from_bytes(data, "little")
                self.rf.values[entry.dest_phys] = value & self.rf.mask
                self.rf.tainted.add(entry.dest_phys)

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------
    def _fetch(self) -> tuple[Decoded, float]:
        """Fetch + decode at the current PC; returns (instr, extra_lat)."""
        ms = self.ms
        pc = ms.pc
        if pc & 3:
            raise SimException(FaultKind.MISALIGNED, pc, detail="pc",
                               in_kernel=ms.in_kernel)
        addr = pc & 0xFFFF_FFFF
        region = self.memory.region_of(addr)
        if region is None:
            raise SimException(FaultKind.FETCH_FAULT, addr,
                               in_kernel=ms.in_kernel)
        if region.kernel_only and not ms.in_kernel:
            raise SimException(FaultKind.PRIVILEGE_FAULT, addr,
                               detail="fetch", in_kernel=False)

        line_size = self.l1i.line_size
        base = addr & ~(line_size - 1)
        extra = 0.0
        line = self._fetch_line
        if (base != self._fetch_line_base or line is None
                or not line.valid or line.tag != self._fetch_line_tag):
            # slow path: go through the I-cache
            _, latency, _ = self.l1i.read(addr, 4, self.probe)
            if latency > self.l1i.hit_latency:
                extra = latency - self.l1i.hit_latency
            index, tag = self.l1i._index_tag(addr)
            line = self.l1i._find(index, tag)
            self._fetch_line = line
            self._fetch_line_base = base
            self._fetch_line_tag = tag

        off = addr - base
        word = int.from_bytes(line.data[off:off + 4], "little")
        if line.taint and any(off <= t < off + 4 for t in line.taint):
            self._classify_fetch_corruption(addr, word)
        try:
            return cached_decode(word, self.regs_meta), extra
        except DecodeError:
            raise SimException(FaultKind.ILLEGAL_INSTRUCTION, pc,
                               in_kernel=ms.in_kernel) from None

    def _classify_fetch_corruption(self, addr: int, word: int) -> None:
        if self.crossing is not None:
            return
        pristine = self.image.pristine_word(addr)
        if pristine is None or pristine == word:
            # corrupted line holds data being executed, or the flip
            # cancelled out — treat as wrong instruction stream
            if pristine != word:
                self.record_crossing("WI", mem_addr=addr)
            return
        from ..faults.fpm import classify_instruction_corruption
        self.record_crossing(
            classify_instruction_corruption(pristine, word).value,
            mem_addr=addr)

    # ------------------------------------------------------------------
    # per-instruction register usage
    # ------------------------------------------------------------------
    @staticmethod
    def _sources(instr: Decoded) -> tuple[int, int]:
        """(rs1, rs2) architectural sources; 0 means none/zero-reg."""
        fmt = instr.d.fmt
        if fmt in ("R", "S", "B"):
            return instr.rs1, instr.rs2
        if fmt in ("I", "RJ"):
            return instr.rs1, 0
        return 0, 0

    def _dest(self, instr: Decoded) -> int:
        """Architectural destination register, 0 if none."""
        fmt = instr.d.fmt
        if fmt in ("R", "I", "U"):
            return instr.rd
        if instr.op == "jalr":
            return instr.rd
        if instr.op == "jal":
            return (_LINK32 if self.regs_meta.xlen == 32 else _LINK64)
        return 0

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> PipelineResult:
        from ..obs.metrics import get_registry

        registry = get_registry()
        wall_started = (time.perf_counter() if registry.enabled
                        else 0.0)
        config = self.config
        ms = self.ms
        inv_fetch = 1.0 / config.fetch_width
        inv_commit = 1.0 / config.commit_width
        depth = float(config.frontend_depth)
        penalty = float(config.penalty)
        rob_size = config.rob_size
        iq_size = config.iq_size
        latencies = {"alu": float(config.alu_latency),
                     "mul": float(config.mul_latency),
                     "div": float(config.div_latency),
                     "load": 1.0, "store": 1.0, "branch": 1.0,
                     "sys": 1.0}
        status = RunStatus.COMPLETED
        fault_kind: FaultKind | None = None
        fault_in_kernel = False
        have_faults = bool(self.faults)
        hook = self.hook

        try:
            while True:
                if hook is not None \
                        and self.instructions >= hook.next_check:
                    early = hook.poll(self)
                    if early is not None:
                        if registry.enabled:
                            self._record_metrics(
                                registry,
                                time.perf_counter() - wall_started)
                        return early
                if ms.halted:
                    break
                if self.instructions >= self.max_instructions \
                        or self.fetch_time > self.max_cycles:
                    status = RunStatus.TIMEOUT
                    break
                if have_faults and self._next_fault < len(self.faults):
                    self._apply_due_faults()

                # ---- fetch ------------------------------------------
                fetch = self.fetch_time + inv_fetch
                if len(self.rob_commits) >= rob_size:
                    fetch = max(fetch, self.rob_commits[0])
                if len(self.iq_issues) >= iq_size:
                    fetch = max(fetch, self.iq_issues[0])
                self.fetch_time = fetch
                pc = ms.pc
                instr, icache_extra = self._fetch()
                fetch += icache_extra
                self.fetch_time = fetch

                # ---- rename / dispatch ------------------------------
                dispatch = fetch + depth
                rs1, rs2 = self._sources(instr)
                ready = dispatch
                self.src_vals.clear()
                tracker = self.lifetime_tracker
                tainted_src = 0
                if rs1:
                    value, phys = self.rf.read(rs1)
                    self.src_vals[rs1] = value
                    ready = max(ready, self.reg_ready[phys])
                    if phys in self.rf.tainted:
                        tainted_src = rs1
                    if tracker is not None:
                        tracker.reg_read(phys, ready)
                if rs2:
                    value, phys = self.rf.read(rs2)
                    self.src_vals.setdefault(rs2, value)
                    ready = max(ready, self.reg_ready[phys])
                    if not tainted_src and phys in self.rf.tainted:
                        tainted_src = rs2
                    if tracker is not None:
                        tracker.reg_read(phys, ready)
                if tainted_src:
                    self.record_crossing("WD", arch_reg=tainted_src)
                dest_arch = self._dest(instr)
                if dest_arch:
                    # writer_commit patched after commit is known (the
                    # entry just appended is at the deque's tail)
                    self.dest_phys, stall = self.rf.allocate(
                        dest_arch, dispatch, float("inf"))
                    has_pending = True
                    dispatch = max(dispatch, stall)
                    ready = max(ready, dispatch)
                else:
                    has_pending = False
                    self.dest_phys = -1

                cls = instr.d.cls
                lsq_entry = None
                if cls in ("load", "store"):
                    lsq_entry, stall = self.lsq.allocate(dispatch)
                    dispatch = max(dispatch, stall)
                    ready = max(ready, dispatch)

                # ---- execute (functional, eager) ---------------------
                self.mem_latency = 0
                self.pending_mem = None
                next_pc = execute(instr, ms, self._core)

                # ---- issue / complete timing -------------------------
                fu_pool = self.fu["mem"] if cls in ("load", "store") \
                    else self.fu.get(cls, self.fu["alu"])
                unit = min(range(len(fu_pool)), key=fu_pool.__getitem__)
                start = max(ready, fu_pool[unit])
                if cls == "div":
                    fu_pool[unit] = start + latencies["div"]
                else:
                    fu_pool[unit] = start + 1.0
                latency = latencies.get(cls, 1.0)
                if cls == "load":
                    latency = 1.0 + self.mem_latency
                complete = start + latency

                # ---- commit -----------------------------------------
                commit = max(complete + 1.0,
                             self.last_commit + inv_commit)
                self.last_commit = commit
                self.rob_commits.append(commit)
                if len(self.rob_commits) > rob_size:
                    self.rob_commits.popleft()
                self.iq_issues.append(start)
                if len(self.iq_issues) > iq_size:
                    self.iq_issues.popleft()

                if self.dest_phys >= 0:
                    self.reg_ready[self.dest_phys] = complete
                    if has_pending and self.rf.pending_free:
                        # patch the reclamation cycle of the old mapping
                        old = self.rf.pending_free[-1][1]
                        self.rf.pending_free[-1] = (commit, old)
                        if self.lifetime_tracker is not None:
                            self.lifetime_tracker.reg_write(
                                self.dest_phys, complete)
                            self.lifetime_tracker.reg_release(old,
                                                              commit)
                if lsq_entry is not None:
                    mem = self.pending_mem
                    if mem is not None and self.lifetime_tracker \
                            is not None:
                        self.lifetime_tracker.mem_access(
                            mem[1], mem[2], mem[0] == "store", start)
                        self.lifetime_tracker.lsq_op(dispatch, commit)
                    if mem is not None:
                        lsq_entry.is_store = mem[0] == "store"
                        lsq_entry.addr = mem[1]
                        lsq_entry.nbytes = mem[2]
                        if lsq_entry.is_store:
                            lsq_entry.data = mem[3]
                            lsq_entry.old_data = mem[4]
                            lsq_entry.dest_phys = -1
                        else:
                            lsq_entry.data = 0
                            lsq_entry.dest_phys = self.dest_phys
                        lsq_entry.alloc_cycle = dispatch
                        lsq_entry.commit_cycle = commit
                        lsq_entry.in_kernel = ms.in_kernel
                    else:
                        # the op faulted before reaching memory
                        lsq_entry.valid = False
                        self.lsq.valid_count -= 1

                # ---- control flow ------------------------------------
                if cls == "branch":
                    taken = next_pc != pc + 4
                    mispredicted = self.predictor.update(pc, taken,
                                                         next_pc)
                    if mispredicted:
                        self.fetch_time = max(self.fetch_time,
                                              complete + penalty)
                elif cls == "sys":
                    # syscall / eret serialise the frontend
                    self.fetch_time = max(self.fetch_time,
                                          commit + penalty)
                ms.pc = next_pc

                # ---- bookkeeping -------------------------------------
                self.instructions += 1
                if ms.in_kernel:
                    self.kernel_instructions += 1
                if self.collect_stats and not self.instructions % 64:
                    self._sample_occupancy()
        except SimException as exc:
            status = RunStatus.SIM_EXCEPTION
            fault_kind = exc.kind
            fault_in_kernel = exc.in_kernel or ms.in_kernel
        except DetectTrap:
            status = RunStatus.DETECTED
        except ContainmentError:
            raise
        except Exception as exc:
            # Containment contract: a fault must never surface as a
            # host-level Python error.  Anything that does is a
            # simulator bug; wrap it with the coordinates needed to
            # replay it deterministically.
            raise ContainmentError(
                f"fault escaped the timing model as "
                f"{type(exc).__name__}: {exc}",
                context={
                    "engine": "pipeline",
                    "error": f"{type(exc).__name__}: {exc}",
                    "pc": ms.pc,
                    "instructions": self.instructions,
                    "cycle": round(self.fetch_time, 3),
                }) from exc

        output, exit_code = self._drain_output()
        if registry.enabled:
            self._record_metrics(registry,
                                 time.perf_counter() - wall_started)
        return PipelineResult(
            status=status,
            output=output,
            exit_code=exit_code,
            cycles=self.last_commit,
            instructions=self.instructions,
            kernel_instructions=self.kernel_instructions,
            fault_applied=self.fault_applied,
            fault_live=self.fault_live,
            crossing=self.crossing,
            fault_kind=fault_kind,
            fault_in_kernel=fault_in_kernel,
            occupancy=self._occupancy_averages(),
            stats=self._final_stats(),
        )

    # ------------------------------------------------------------------
    # DMA drain: coherent, pipeline-bypassing output collection
    # ------------------------------------------------------------------
    def coherent_read(self, addr: int, nbytes: int) -> bytes:
        """Read memory the way a snooping DMA engine would.

        Checks the L1D, then the L2, then main memory — per line
        segment — without going through the pipeline.  Corrupt cached
        output data therefore reaches the program output without any
        architectural crossing: the ESC channel.
        """
        out = bytearray()
        line = self.l1d.line_size
        while nbytes:
            seg = min(nbytes, line - (addr % line))
            data = self.l1d.snoop(addr, seg)
            if data is None:
                data = self.l2.snoop(addr, seg)
            if data is None:
                data = self.memory.read(addr, seg)
            out.extend(data)
            addr += seg
            nbytes -= seg
        return bytes(out)

    def _drain_output(self) -> tuple[bytes, int]:
        out_len = int.from_bytes(
            self.coherent_read(layout.OUTPUT_LEN_ADDR, 4), "little")
        out_len = min(out_len, layout.OUTPUT_LIMIT - layout.OUTPUT_BASE)
        output = self.coherent_read(layout.OUTPUT_BASE, out_len)
        exit_code = int.from_bytes(
            self.coherent_read(layout.KERNEL_DATA_BASE
                               + EXIT_CODE_OFFSET, 4), "little")
        return output, exit_code

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def _sample_occupancy(self) -> None:
        # reclaim state that has logically committed by now, else the
        # samples overstate occupancy by the reclamation laziness
        self.lsq.reclaim(self.fetch_time)
        self.rf._reclaim(self.fetch_time)
        self._occ_samples += 1
        self._occ_sums["RF"] += self.rf.occupancy()
        self._occ_sums["LSQ"] += self.lsq.occupancy()
        self._occ_sums["L1I"] += self.l1i.occupancy()
        self._occ_sums["L1D"] += self.l1d.occupancy()
        self._occ_sums["L2"] += self.l2.occupancy()

    def _occupancy_averages(self) -> dict:
        if not self._occ_samples:
            return {}
        return {k: v / self._occ_samples
                for k, v in self._occ_sums.items()}

    def _final_stats(self) -> dict:
        if not self.collect_stats:
            return {}
        return {
            "l1i": self.l1i.stats(),
            "l1d": self.l1d.stats(),
            "l2": self.l2.stats(),
            "branch": self.predictor.stats(),
        }

    def _record_metrics(self, registry, wall: float) -> None:
        """Fold this execution into the process-wide metrics registry.

        Runs once per execution (never in the instruction loop), so
        the pipeline's hot path carries no metric calls at all.
        """
        registry.counter("pipeline.runs").inc()
        registry.counter("pipeline.instructions").inc(self.instructions)
        registry.timer("pipeline.wall_seconds").add(wall)
        if wall > 0:
            registry.gauge("pipeline.sim_cycles_per_sec").set(
                self.last_commit / wall)
        branch = self.predictor.stats()
        registry.counter("pipeline.squashes").inc(branch["mispredicts"])
        for name, cache in (("l1i", self.l1i), ("l1d", self.l1d),
                            ("l2", self.l2)):
            stats = cache.stats()
            registry.counter(f"pipeline.{name}.hits").inc(stats["hits"])
            registry.counter(f"pipeline.{name}.misses").inc(
                stats["misses"])
            lookups = stats["hits"] + stats["misses"]
            if lookups:
                registry.gauge(f"pipeline.{name}.hit_rate").set(
                    stats["hits"] / lookups)


def run_pipeline(user_program, config: MicroarchConfig, faults=(),
                 max_instructions: int = 2_000_000,
                 max_cycles: float = float("inf"),
                 collect_stats: bool = False) -> PipelineResult:
    """Build a fresh system image and run it through the pipeline."""
    from ..kernel.loader import build_system_image

    image = build_system_image(user_program)
    engine = PipelineEngine(image, config, faults=faults,
                            max_instructions=max_instructions,
                            max_cycles=max_cycles,
                            collect_stats=collect_stats)
    return engine.run()
