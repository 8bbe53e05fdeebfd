"""Two-level planner savings gate (>=5x, estimates inside Wilson).

Runs a Table-III-style sweep — three workloads x five structures on
one core — twice: naively (the fixed-``n`` design sized by
:func:`repro.faults.sampling.samples_for_margin`) and through the
two-level planner (:mod:`repro.core.planner`).  Gates:

* the planner spends at least **5x fewer** total injections, and
* **every** cell's extrapolated estimate lies inside the naive
  campaign's 99% Wilson interval (on the occupancy-weighted AVF
  axis the paper reports).

Both sweeps are deterministic under the fixed seed, so this is a
regression gate, not a flaky statistical assertion.  Results are
persisted as text (``out/perf_planner.txt``) and machine-readably
(``out/BENCH_perf_planner.json``) for the cross-PR perf trajectory.
"""

from __future__ import annotations

import time

from bench_common import emit, emit_json

from repro.faults.sampling import samples_for_margin, wilson_interval
from repro.injectors.campaign import run_campaign

WORKLOADS = ("corner", "smooth", "stringsearch")
STRUCTURES = ("RF", "LSQ", "L1I", "L1D", "L2")
CONFIG = "cortex-a72"
SEED = 1
#: per-cell naive margin; the naive design pays
#: ``samples_for_margin(0.08)`` = 260 injections per cell
TARGET_MARGIN = 0.08

#: the acceptance gate from the planner issue
MIN_SAVINGS = 5.0


def test_perf_planner_savings():
    naive_n = samples_for_margin(TARGET_MARGIN)
    rows = []
    cells = []
    total_naive = 0
    total_planned = 0
    escaped = []

    started = time.perf_counter()
    for workload in WORKLOADS:
        for structure in STRUCTURES:
            naive = run_campaign(workload, CONFIG, injector="gefin",
                                 structure=structure, n=naive_n,
                                 seed=SEED)
            vulnerable = sum(r.vulnerable for r in naive.results)
            weight = naive.occupancy_weight
            low, high = wilson_interval(vulnerable, naive_n,
                                        confidence=0.99)
            low, high = weight * low, weight * high

            planned = run_campaign(
                workload, CONFIG, structure=structure, n=naive_n,
                seed=SEED, planner="two-level",
                target_margin=TARGET_MARGIN)
            plan = planned.plan
            estimate = plan["estimate"]
            inside = low <= estimate <= high

            total_naive += naive_n
            total_planned += plan["actual_n"]
            if not inside:
                escaped.append(f"{workload}/{structure}")
            rows.append(
                f"{'ok ' if inside else 'ESC'} "
                f"{workload:>12s}/{structure:<4s} "
                f"naive={100 * weight * vulnerable / naive_n:6.2f}% "
                f"[{100 * low:5.2f}, {100 * high:5.2f}]  "
                f"planned={100 * estimate:6.2f}% "
                f"n={plan['actual_n']:3d}/{naive_n} "
                f"({plan['savings']:.2f}x)")
            cells.append({
                "workload": workload, "structure": structure,
                "naive_k": vulnerable, "naive_n": naive_n,
                "weight": round(weight, 6),
                "wilson": [round(low, 6), round(high, 6)],
                "estimate": estimate,
                "actual_n": plan["actual_n"],
                "savings": plan["savings"],
                "inside": inside,
            })
    elapsed = time.perf_counter() - started

    savings = total_naive / total_planned if total_planned else 0.0
    lines = [
        f"two-level planner sweep  {len(WORKLOADS)}x"
        f"{len(STRUCTURES)} cells @ {CONFIG}, seed {SEED}, "
        f"margin {TARGET_MARGIN}",
        "-" * 72,
        *rows,
        "-" * 72,
        f"total injections: naive={total_naive} "
        f"planned={total_planned}  savings={savings:.2f}x "
        f"(gate: >={MIN_SAVINGS:.0f}x)",
        f"cells outside naive 99% Wilson: {len(escaped)}"
        + (f"  ({', '.join(escaped)})" if escaped else ""),
    ]
    emit("perf_planner", "\n".join(lines))
    emit_json("perf_planner", {
        "config": CONFIG, "seed": SEED,
        "target_margin": TARGET_MARGIN,
        "cells": cells,
        "total_naive": total_naive,
        "total_planned": total_planned,
        "savings": round(savings, 3),
        "escaped": escaped,
        "elapsed_s": round(elapsed, 3),
    })

    assert not escaped, (
        f"planner estimates escaped the naive Wilson interval in: "
        f"{escaped}")
    assert savings >= MIN_SAVINGS, (
        f"planner saved only {savings:.2f}x (< {MIN_SAVINGS}x)")
