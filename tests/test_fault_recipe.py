"""The campaign run recipe: which fault run ``(seed, index)`` draws.

Every cached campaign, the planner's common-random-number subsets and
the trace replays depend on :func:`~repro.injectors.campaign.draw_fault`
drawing exactly these faults.  A reordered RNG tuple or a changed
sampler fails here, in a fast test, rather than only in the
benchmark's campaign digest check.
"""

from __future__ import annotations

import pytest

from repro.injectors.campaign import draw_fault
from repro.injectors.golden import golden_run

#: (injector, workload, config, target, seed, index, expected) where
#: expected is the gefin spec's (structure, cycle, a, b, c, kind,
#: n_bits, prefer_live) or the pvf/svf action's (when, origin)
PINS = [
    ("gefin", "sha", "cortex-a72", "RF", 7, 0,
     ("RF", 3686.5983892552526, 38, 33, 0, "data", 1, True)),
    ("gefin", "qsort", "cortex-a72", "LSQ", 1, 5,
     ("LSQ", 5606.300272136139, 25, 28, 0, "data", 1, True)),
    ("gefin", "crc32", "cortex-a72", "L1D", 3, 11,
     ("L1D", 4122.365134093538, 3, 1, 421, "data", 1, True)),
    ("gefin", "qsort", "cortex-a9", "L2", 2, 3,
     ("L2", 6748.131417711868, 28, 5, 234, "data", 1, True)),
    ("pvf", "sha", "cortex-a72", "WD", 7, 0,
     (2435, "program-flow memory 0x0001017f, bit 2 at instruction 2435")),
    ("pvf", "crc32", "cortex-a72", "WD", 1, 4,
     (1849, "architectural register 1, bit 52 at instruction 1849")),
    ("pvf", "qsort", "cortex-a72", "WOI", 3, 9,
     (11906, "instruction word operand bit 20 at instruction 11906")),
    ("pvf", "sha", "cortex-a72", "WI", 5, 2,
     (5344, "PC bit 22 at instruction 5344")),
    ("pvf", "qsort", "cortex-a9", "WD", 4, 6,
     (7767, "program-flow memory 0x0001001e, bit 7 at instruction 7767")),
    ("svf", "sha", "cortex-a72", None, 7, 0,
     (7297, "destination register of user instruction 7297, bit 30")),
    ("svf", "crc32", "cortex-a72", None, 2, 13,
     (1598, "destination register of user instruction 1598, bit 40")),
    ("svf", "qsort", "cortex-a72", None, 9, 1,
     (1825, "destination register of user instruction 1825, bit 63")),
]


@pytest.mark.parametrize(
    "injector,workload,config,target,seed,index,expected", PINS,
    ids=[f"{p[0]}-{p[1]}-{p[2]}-{p[3]}-{p[4]}-{p[5]}" for p in PINS])
def test_draw_fault_matches_recorded_recipe(injector, workload, config,
                                            target, seed, index,
                                            expected):
    golden = golden_run(workload, config)
    fault = draw_fault(injector, workload, config, target, seed, index,
                       golden)
    if injector == "gefin":
        assert (fault.structure, fault.cycle, fault.a, fault.b, fault.c,
                fault.kind, fault.n_bits, fault.prefer_live) == expected
    else:
        assert (fault.when, fault.origin) == expected


def test_svf_ignores_target():
    golden = golden_run("crc32", "cortex-a72")
    a = draw_fault("svf", "crc32", "cortex-a72", None, 2, 13, golden)
    b = draw_fault("svf", "crc32", "cortex-a72", "WD", 2, 13, golden)
    assert (a.when, a.origin) == (b.when, b.origin)


def test_unknown_injector_rejected():
    golden = golden_run("crc32", "cortex-a72")
    with pytest.raises(ValueError):
        draw_fault("xyz", "crc32", "cortex-a72", None, 1, 0, golden)
