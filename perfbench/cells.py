"""The benchmark's workloads: which campaigns each runs, its set-up, one
timed pass over its campaign set, and the digests that check results.

Every workload runs on ``cortex-a72`` against the sha and qsort
programs, with one worker.  The campaign seed is the benchmark's
``--seed``; nothing else about the inputs varies between seeds.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

CONFIG = "cortex-a72"
PROGRAMS = ("sha", "qsort")
STRUCTURES = ("RF", "LSQ", "L1I", "L1D", "L2")
PVF_MODELS = ("WD", "WOI", "WI")
WORKLOADS = ("gefin", "arch", "accel")

#: runs per campaign (the planner's budget on ``accel``).  Sized so one
#: pass over a workload's campaign set fits the run length of
#: ``BENCHMARK.json`` on a 2-core host, with enough runs that the pass
#: time varies little between seeds.
N_GEFIN = 24
N_ARCH = 64
#: runs per campaign in the smoke-sized mode the benchmark's tests use
N_SMOKE = 2
BATCH_LANES = 64
TARGET_MARGIN = 0.05

#: every ``REPRO_*`` variable the campaign path reads, pinned so the
#: caller's environment cannot change what is measured.  The cache and
#: event-log paths are set per cache directory.
PINNED_ENV = {
    "REPRO_FASTPATH": "1",
    "REPRO_BATCH": "0",
    "REPRO_WORKERS": "1",
    "REPRO_METRICS": "0",
    "REPRO_PROFILE": "0",
    "REPRO_SCALE": "1",
    "REPRO_CHECKPOINT_EVERY": "",
    "REPRO_PROGRESS": "0",
}


def pin_environment(cache: Path) -> None:
    """Pin the ``REPRO_*`` variables and point the caches at *cache*."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(PINNED_ENV)
    use_cache(cache)


def use_cache(cache: Path) -> None:
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    os.environ["REPRO_EVENT_LOG"] = str(cache / "events.jsonl")


@dataclass(frozen=True)
class Cell:
    """One campaign of a workload's set."""

    injector: str           # gefin / pvf / svf
    program: str
    target: "str | None"    # structure (gefin) or model (pvf)
    planner: bool = False
    batched: bool = False

    @property
    def name(self) -> str:
        return "/".join(x for x in (self.injector, self.program,
                                    self.target) if x)

    def run(self, n: int, seed: int):
        from repro.injectors.campaign import run_campaign

        kwargs = {}
        if self.injector == "gefin":
            kwargs["structure"] = self.target
        elif self.injector == "pvf":
            kwargs["model"] = self.target
        if self.planner:
            kwargs.update(planner="two-level",
                          target_margin=TARGET_MARGIN)
        return run_campaign(
            self.program, CONFIG, injector=self.injector, n=n, seed=seed,
            workers=1, fastpath=True,
            batch_lanes=BATCH_LANES if self.batched else 0, **kwargs)


def _gefin_cells(planner: bool) -> list:
    return [Cell("gefin", p, s, planner=planner)
            for p in PROGRAMS for s in STRUCTURES]


def _arch_cells(batched: bool) -> list:
    cells = []
    for p in PROGRAMS:
        cells += [Cell("pvf", p, m, batched=batched) for m in PVF_MODELS]
        cells.append(Cell("svf", p, None, batched=batched))
    return cells


def cells(workload: str) -> list:
    if workload == "gefin":
        return _gefin_cells(planner=False)
    if workload == "arch":
        return _arch_cells(batched=False)
    if workload == "accel":
        return _gefin_cells(planner=True) + _arch_cells(batched=True)
    raise ValueError(f"unknown workload {workload!r}")


def runs_per_cell(cell: Cell, smoke: bool) -> int:
    if smoke:
        return N_SMOKE
    return N_GEFIN if cell.injector == "gefin" else N_ARCH


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------
def checkpoint_engines(workload: str) -> tuple:
    engines = []
    if workload in ("gefin", "accel"):
        engines.append("pipeline")
    if workload in ("arch", "accel"):
        engines += ["functional-sim", "functional-host"]
    return tuple(engines)


def import_program() -> None:
    """Import every module a campaign would otherwise import lazily."""
    import repro.core.planner  # noqa: F401
    import repro.injectors.batch  # noqa: F401
    import repro.injectors.campaign  # noqa: F401
    import repro.isa.registers  # noqa: F401
    import repro.obs.profiles  # noqa: F401


def forget() -> None:
    """Drop the program's in-process caches, so that the next
    :func:`set_up` from an empty cache is cold again."""
    from repro.core.planner import _residency_profile
    from repro.injectors.golden import checkpoint_store, golden_run
    from repro.kernel.kernel_asm import kernel_program
    from repro.obs.profiles import profile_golden_run
    from repro.workloads.suite import load_workload, workload_spec

    for cached in (_residency_profile, checkpoint_store, golden_run,
                   kernel_program, profile_golden_run, load_workload,
                   workload_spec):
        cached.cache_clear()


def set_up(workload: str) -> None:
    """Imports, assembly, golden runs and checkpoint stores for the
    workload's programs, plus the planner's residency profile on
    ``accel``.  From an empty cache this is the cold set-up; from a
    warm one it loads what an earlier set-up wrote."""
    import_program()
    from repro.injectors.golden import checkpoint_store, golden_run

    # the call forms the campaign path uses, so that it hits these
    # in-process caches (they key on the exact arguments)
    for program in PROGRAMS:
        golden_run(program, CONFIG, hardened=False)
        for engine in checkpoint_engines(workload):
            checkpoint_store(program, CONFIG, engine=engine,
                             hardened=False)
        if workload == "accel":
            from repro.core.planner import _residency_profile

            _residency_profile(program, CONFIG, False)


# ---------------------------------------------------------------------------
# one pass over the campaign set
# ---------------------------------------------------------------------------
@dataclass
class PassResult:
    wall_s: float
    runs: int
    failed: int
    attempted: int
    digests: dict      # cell name -> digest of its results


def result_digest(results) -> str:
    """Digest of a campaign's per-run results (not its schema stamp)."""
    blob = json.dumps([asdict(r) for r in results], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def run_pass(workload: str, seed: int, smoke: bool, work: Path,
             base: Path) -> PassResult:
    """Run the workload's campaign set once into a cache that holds no
    campaign sidecar, so every campaign is simulated and writes its
    sidecars.

    Golden data and checkpoint stores must already be warm in this
    process (see :func:`set_up`); the pass's cache also gets a copy of
    the ones on disk in *base*, as a later CLI invocation would find.
    """
    cache = Path(tempfile.mkdtemp(prefix="pass-", dir=work))
    for path in base.iterdir():
        if path.name.startswith(("golden-", "checkpoints-")):
            shutil.copyfile(path, cache / path.name)
    use_cache(cache)
    digests = {}
    runs = failed = attempted = 0
    try:
        started = time.perf_counter()
        for cell in cells(workload):
            n = runs_per_cell(cell, smoke)
            try:
                campaign = cell.run(n, seed)
            except Exception as exc:  # noqa: BLE001 — counted and reported
                print(f"campaign {cell.name} failed: {exc!r}",
                      file=sys.stderr)
                failed += n
                attempted += n
                continue
            digests[cell.name] = result_digest(campaign.results)
            runs += len(campaign.results)
            attempted += len(campaign.results)
        wall = time.perf_counter() - started
        retried = _failed_attempts(cache / "events.jsonl")
        return PassResult(wall, runs, failed + retried,
                          attempted + retried, digests)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def _failed_attempts(events: Path) -> int:
    """Shard retries and containment escapes the engine logged."""
    count = 0
    if events.exists():
        with open(events) as handle:
            for line in handle:
                event = json.loads(line).get("event")
                if event in ("shard_retry", "containment_escape"):
                    count += 1
    return count
