"""Pre-populate the campaign cache for the benchmark harness.

Every bench reads its campaigns from the on-disk store; running this
script first makes ``pytest benchmarks/ --benchmark-only`` fast and
deterministic.  Safe to interrupt and re-run — completed campaigns are
skipped.

Usage::

    python benchmarks/warm_cache.py [--quick]
"""

from __future__ import annotations

import os
import sys
import time

os.environ.setdefault(
    "REPRO_CACHE_DIR",
    os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), ".repro-cache"))

from repro.core.study import StudyScale  # noqa: E402
from repro.injectors.campaign import run_campaign  # noqa: E402
from repro.uarch.config import ALL_CONFIGS  # noqa: E402
from repro.workloads.suite import WORKLOAD_NAMES  # noqa: E402

#: workload subset used by the cross-microarchitecture rPVF figure
FIG8_WORKLOADS = ("fft", "qsort", "sha", "djpeg")

#: case-study workloads (paper §VI.B)
CASE_STUDY_WORKLOADS = ("sha", "smooth")

STRUCTURES = ("RF", "LSQ", "L1I", "L1D", "L2")


def warm(quick: bool = False) -> None:
    scale = StudyScale.from_env()
    if quick:
        scale = StudyScale(n_avf=6, n_pvf=20, n_svf=20, seed=scale.seed)
    t0 = time.time()
    done = 0

    def tick(campaign) -> None:
        nonlocal done
        done += 1
        print(f"[{time.time() - t0:7.1f}s] {done:4d} "
              f"{campaign.summary()}", flush=True)

    # ---- microarchitectural campaigns on all four cores --------------
    for config in ALL_CONFIGS:
        for workload in WORKLOAD_NAMES:
            for structure in STRUCTURES:
                tick(run_campaign(workload, config, injector="gefin",
                                  structure=structure, n=scale.n_avf,
                                  seed=scale.seed))

    # ---- architecture level: typical (WD) PVF on one core per ISA ----
    for config_name in ("cortex-a72", "cortex-a9"):
        for workload in WORKLOAD_NAMES:
            tick(run_campaign(workload, config_name, injector="pvf",
                              model="WD", n=scale.n_pvf,
                              seed=scale.seed))

    # ---- per-FPM PVF for Fig. 7 (A72) and Fig. 8 (all cores) ---------
    for workload in WORKLOAD_NAMES:
        for model in ("WOI", "WI"):
            tick(run_campaign(workload, "cortex-a72", injector="pvf",
                              model=model, n=scale.n_pvf,
                              seed=scale.seed))
    for config in ALL_CONFIGS:
        for workload in FIG8_WORKLOADS:
            for model in ("WD", "WOI", "WI"):
                tick(run_campaign(workload, config, injector="pvf",
                                  model=model, n=scale.n_pvf,
                                  seed=scale.seed))

    # ---- software level (LLFI view), 64-bit only ----------------------
    for workload in WORKLOAD_NAMES:
        tick(run_campaign(workload, "cortex-a72", injector="svf",
                          n=scale.n_svf, seed=scale.seed))

    # ---- two-level planner sweep (bench_perf_planner gate) -----------
    from repro.faults.sampling import samples_for_margin

    planner_n = samples_for_margin(0.08)
    for workload in ("corner", "smooth", "stringsearch"):
        for structure in STRUCTURES:
            tick(run_campaign(workload, "cortex-a72",
                              injector="gefin", structure=structure,
                              n=planner_n, seed=scale.seed))
            tick(run_campaign(
                workload, "cortex-a72", structure=structure,
                n=planner_n, seed=scale.seed, planner="two-level",
                target_margin=0.08))

    # ---- hardened case study ------------------------------------------
    for workload in CASE_STUDY_WORKLOADS:
        for structure in STRUCTURES:
            tick(run_campaign(workload, "cortex-a72", injector="gefin",
                              structure=structure, n=scale.n_avf,
                              seed=scale.seed, hardened=True))
        tick(run_campaign(workload, "cortex-a72", injector="pvf",
                          model="WD", n=scale.n_pvf, seed=scale.seed,
                          hardened=True))
        tick(run_campaign(workload, "cortex-a72", injector="svf",
                          n=scale.n_svf, seed=scale.seed,
                          hardened=True))

    print(f"cache warm: {done} campaigns in {time.time() - t0:.0f}s")


if __name__ == "__main__":
    warm(quick="--quick" in sys.argv)
