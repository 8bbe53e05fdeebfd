"""LLFI-like software-level (SVF) fault injector.

Reproduces the LLFI model exactly as the paper characterises it
(§II.B, §VI): the fault is *instantaneous* — one bit of the
destination value of one dynamic **user-level** instruction is
flipped immediately after that instruction executes — and the kernel
is completely invisible (syscalls are emulated natively by the host,
the way LLFI runs on real hardware).

Only Wrong Data is representable; WI/WOI/ESC cannot be modelled at
this layer, which is one of the paper's central points.
"""

from __future__ import annotations

import random

from ..uarch.functional import FaultAction, FunctionalEngine
from .archinj import run_functional
from .gefin import InjectionResult
from .golden import GoldenRun


def _dest_flip_action(rng: random.Random, golden: GoldenRun,
                      xlen: int) -> FaultAction:
    """Flip one bit of the k-th user instruction's just-written result."""
    when = rng.randrange(max(1, golden.dest_instructions))
    bit = rng.randrange(xlen)

    def apply(engine: FunctionalEngine) -> None:
        # The engine fires user_dest actions right after the write;
        # the destination register of the last instruction is the one
        # whose value changed.  We flip it via the last-written dest.
        dest = engine.last_dest
        if dest:
            engine.regs[dest] ^= 1 << bit

    action = FaultAction("user_dest", when, apply)
    action.origin = (f"destination register of user instruction "
                     f"{when}, bit {bit}")
    action.site_bit = bit
    return action


def run_one_svf(workload: str, isa: str, action: FaultAction,
                golden: GoldenRun,
                hardened: bool = False, tracer=None,
                fastpath: "bool | None" = None,
                hook=None) -> InjectionResult:
    return run_functional("svf", workload, isa, action, golden,
                          hardened=hardened, tracer=tracer,
                          fastpath=fastpath, hook=hook)
