"""The repository's benchmark: fault-injection campaign throughput.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gefin --seed 1 --seconds 20 --trace 0

``--workload`` is ``gefin``, ``arch``, ``accel`` or ``all`` (the three in
order, in this one process).  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` is the separate traced run that reports the
per-layer metrics.  Each metric is printed as ``workload metric value
unit``; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is non-zero when a campaign's results do not match their recorded
or cross-mode digests.  See ``perfbench/README.md`` for what each
workload and metric covers.  The job service, the ``obs/server.py`` HTTP
layer, hardening and the multi-worker pool path are not measured.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
OUT = HERE / "out"

#: cold set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: a cold set-up that takes longer than this has hung
SETUP_TIMEOUT_S = 120


def _load_expected() -> dict:
    if EXPECTED.exists():
        return json.loads(EXPECTED.read_text())
    return {}


def _matches(expected: dict, seed: int) -> bool:
    """Whether *expected* was recorded for this seed at these sizes."""
    import cells

    return (expected.get("seed") == seed
            and expected.get("n_gefin") == cells.N_GEFIN
            and expected.get("n_arch") == cells.N_ARCH)


@dataclass
class Outcome:
    """What one workload's run measured and checked."""

    metrics: dict           # the BENCHMARK.json metrics of this mode
    shown: dict             # what is printed (metrics plus extras)
    attempted: int
    failed: int
    passes: int
    digests: dict           # campaign name -> result digest
    problems: list          # correctness failures
    flags: list = field(default_factory=list)  # count differences
    counts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------
def cold_set_up(workload: str, work: Path) -> "tuple[float, Path]":
    """One cold set-up in a fresh interpreter and an empty cache;
    returns its wall time and the cache it filled."""
    cache = Path(tempfile.mkdtemp(prefix="setup-", dir=work))
    started = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--cold-setup", workload, "--cache", str(cache)],
                   check=True, timeout=SETUP_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - started, cache


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------
def check_digests(workload: str, digests: dict, recorded: dict,
                  scalar_arch: "dict | None") -> list:
    """Mismatches of one pass's campaign digests.

    Each campaign must match its recorded digest when one exists for
    this seed; on ``accel`` the batched pvf/svf campaigns must also equal
    the scalar ``arch`` campaigns (*scalar_arch*, else the recorded
    ``arch`` digests).
    """
    import cells

    problems = []
    want = recorded.get("digests", {}).get(workload, {})
    for cell in cells.cells(workload):
        got = digests.get(cell.name)
        if got is None:
            problems.append(f"{workload}: {cell.name} produced no result")
        elif cell.name in want and want[cell.name] != got:
            problems.append(f"{workload}: {cell.name} digest {got} != "
                            f"recorded {want[cell.name]}")
    if workload == "accel":
        reference = scalar_arch or recorded.get("digests", {}).get("arch")
        for cell in cells.cells(workload):
            if not cell.batched or reference is None:
                continue
            if digests.get(cell.name) != reference.get(cell.name):
                problems.append(f"accel: batched {cell.name} differs from "
                                f"the scalar arch campaign")
    return problems


def check_counts(workload: str, counts: dict, recorded: dict) -> list:
    """Deterministic counts that differ from the recorded ones."""
    want = recorded.get("counts", {}).get(workload, {})
    return [f"{workload}: {name} = {counts[name]} but recorded "
            f"{want[name]}"
            for name in sorted(want) if counts.get(name) != want[name]]


# ---------------------------------------------------------------------------
# the untraced run: end-to-end metrics
# ---------------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, smoke: bool,
            work: Path, recorded: dict,
            scalar_arch: "dict | None") -> Outcome:
    import cells

    setups, base = [], None
    for _ in range(SETUP_REPEATS):
        elapsed, cache = cold_set_up(workload, work)
        setups.append(elapsed)
        if base is not None:
            shutil.rmtree(base)
        base = cache
    cells.pin_environment(base)
    cells.set_up(workload)      # warm: loads what the cold set-up wrote

    passes = []
    started = time.perf_counter()
    while True:
        passes.append(cells.run_pass(workload, seed, smoke, work, base))
        if time.perf_counter() - started + passes[-1].wall_s > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = [f"{workload}: pass {i} digests differ from pass 0"
                for i, p in enumerate(passes) if p.digests
                != passes[0].digests]
    if workload == "accel" and scalar_arch is None \
            and not recorded.get("digests", {}).get("arch"):
        # no recorded reference for this seed: run the scalar campaigns
        # (untimed; accel's set-up covers theirs) to hold the batched
        # ones to them
        scalar_arch = cells.run_pass("arch", seed, smoke, work,
                                     base).digests
    shutil.rmtree(base)
    problems += check_digests(workload, passes[0].digests, recorded,
                              scalar_arch)

    wall = statistics.median(p.wall_s for p in passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "wall_s": wall,
        "runs_per_s": passes[0].runs / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    return Outcome(metrics, dict(metrics, failed_frac=failed / attempted),
                   attempted, failed, len(passes), passes[0].digests,
                   problems)


# ---------------------------------------------------------------------------
# the traced run: per-layer metrics
# ---------------------------------------------------------------------------
def measure_traced(workload: str, seed: int, seconds: float, smoke: bool,
                   work: Path, recorded: dict) -> Outcome:
    import cells
    import spans as sp
    from repro.obs.metrics import MetricsRegistry, set_registry

    base = Path(tempfile.mkdtemp(prefix="setup-", dir=work))
    cells.pin_environment(base)
    cells.import_program()
    cells.forget()

    tracer = sp.Tracer()
    tracer.install()
    try:
        with tracer.root("bench.setup") as setup_root:
            cells.set_up(workload)
        # drop the in-process copies so the stores load from disk
        from repro.injectors import golden
        golden.golden_run.cache_clear()
        golden.checkpoint_store.cache_clear()
        with tracer.root("bench.load") as load_root:
            cells.set_up(workload)
    finally:
        tracer.uninstall()

    untraced, traced, per_pass = [], [], []
    started = time.perf_counter()
    while True:
        untraced.append(cells.run_pass(workload, seed, smoke, work, base))
        registry = MetricsRegistry(enabled=True)
        set_registry(registry)
        tracer.install()
        try:
            with tracer.root("bench.pass") as root:
                traced.append(cells.run_pass(workload, seed, smoke, work,
                                             base))
        finally:
            tracer.uninstall()
            set_registry(None)
        per_pass.append(sp.pass_metrics(
            tracer.spans, root, registry.snapshot()["counters"]))
        pair = untraced[-1].wall_s + traced[-1].wall_s
        if time.perf_counter() - started + pair > seconds:
            break
    shutil.rmtree(base)

    problems = []
    for label, runs in (("untraced", untraced), ("traced", traced)):
        problems += [f"{workload}: {label} pass {i} digests differ from "
                     f"the first untraced pass"
                     for i, p in enumerate(runs)
                     if p.digests != untraced[0].digests]
    problems += check_digests(workload, traced[0].digests, recorded, None)
    flags = [f"{workload}: {name} differs between traced passes"
             for name in sp.COUNT_METRICS
             if len({m[name] for m in per_pass}) > 1]
    counts = {name: per_pass[0][name] for name in sp.COUNT_METRICS}
    flags += check_counts(workload, counts, recorded)

    metrics = {name: statistics.fmean(m[name] for m in per_pass)
               for name in per_pass[0]}
    metrics.update(counts)
    setup = sp.setup_metrics(tracer.spans, setup_root)
    setup["uarch.snapshot.load_store_s"] = sp.setup_metrics(
        tracer.spans, load_root)["uarch.snapshot.load_store_s"]
    metrics.update(setup)
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced) - 1)

    sp.write_spans(OUT / f"spans-{workload}-{seed}.json", tracer.spans)
    return Outcome(metrics, metrics,
                   sum(p.attempted for p in untraced + traced),
                   sum(p.failed for p in untraced + traced), len(traced),
                   traced[0].digests, problems, flags, counts)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("gefin", "arch", "accel", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few injections per campaign (for tests)")
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests (--trace 0) or "
                             "counts (--trace 1) as the expected values "
                             "for its seed, replacing the record")
    parser.add_argument("--cold-setup", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    parser.add_argument("--cache", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cells

    if args.cold_setup:
        cells.pin_environment(Path(args.cache))
        cells.set_up(args.cold_setup)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    expected = _load_expected()
    # a recording run replaces the record, so it is held only to the
    # cross-mode checks
    recorded = expected if _matches(expected, args.seed) \
        and not (args.smoke or args.record) else {}
    workloads = cells.WORKLOADS if args.workload == "all" \
        else (args.workload,)

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    saved_env = dict(os.environ)
    correct, attempted, failed = True, 0, 0
    metrics: dict = {}
    scalar_arch = None
    try:
        for workload in workloads:
            if args.trace:
                out = measure_traced(workload, args.seed, seconds,
                                     args.smoke, work, recorded)
            else:
                out = measure(workload, args.seed, seconds, args.smoke,
                              work, recorded, scalar_arch)
                if workload == "arch":
                    scalar_arch = out.digests
            for name, value in out.shown.items():
                unit = units.get(name, "ratio")
                print(f"{workload} {name} {value:.6g} {unit}")
            print(f"{workload} passes {out.passes}")
            for line in out.problems:
                print(f"MISMATCH {line}", file=sys.stderr)
            for line in out.flags:
                print(f"FLAG {line}", file=sys.stderr)
            correct = correct and not out.problems
            attempted += out.attempted
            failed += out.failed
            prefix = f"{workload}." if args.workload == "all" else ""
            for name, value in out.metrics.items():
                metrics[prefix + name] = {"value": value,
                                          "unit": units[name]}
            if args.record and not out.problems and not args.smoke:
                _record(expected, args.seed, workload, args.trace, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.environ.clear()
        os.environ.update(saved_env)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _record(expected: dict, seed: int, workload: str, trace: int,
            out: Outcome) -> None:
    import cells

    if not _matches(expected, seed):
        expected.clear()
        expected.update(seed=seed, n_gefin=cells.N_GEFIN,
                        n_arch=cells.N_ARCH, digests={}, counts={})
    if trace:
        expected["counts"][workload] = out.counts
    else:
        expected["digests"][workload] = out.digests
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                        + "\n")


if __name__ == "__main__":
    sys.exit(main())
