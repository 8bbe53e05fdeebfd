"""Campaign orchestration: thousands of deterministic injection runs.

A *campaign* is ``n`` independent single-fault injection runs of one
injector against one (workload, core, structure/model) target.  Every
run is deterministic in ``(seed, index)``, so campaigns are exactly
reproducible, can be parallelised across processes, and are cached on
disk (the statistical analyses re-read the same campaigns from many
benches).

The aggregation implements the paper's estimators:

* **AVF** (gefin)  = occupancy_weight x P(SDC or Crash)
* **HVF** (gefin)  = occupancy_weight x P(activated or exposed)
* FPM distribution = occupancy_weight x P(first crossing is that FPM)
* **PVF/SVF**      = P(SDC or Crash) at their respective layers

plus Leveugle-style margins of error for every proportion.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..faults.fault import sample_uniform
from ..faults.outcomes import Outcome
from ..faults.sampling import margin_of_error
from ..isa.registers import register_set
from ..obs import EventLog, ProgressReporter, progress_enabled
from ..obs.metrics import (BATCH_FALLBACKS, LATENCY_BUCKETS, Histogram,
                           MetricsRegistry, get_registry)
from ..uarch.config import MicroarchConfig, config_by_name
from ..uarch.exceptions import ContainmentError
from .archinj import build_pvf_action, run_one_pvf
from .engine import atomic_write_text, clear_checkpoints, run_sharded
from .gefin import InjectionResult, run_one_injection
from .golden import cache_dir, checkpoint_store, golden_run
from .llfi import _dest_flip_action, run_one_svf

INJECTORS = ("gefin", "pvf", "svf")
#: the checkpoint store each injector's fast path restores from
_FASTPATH_ENGINES = {"gefin": "pipeline", "pvf": "functional-sim",
                     "svf": "functional-host"}


# ---------------------------------------------------------------------------
# the run recipe (deterministic in (seed, index); picklable by design)
# ---------------------------------------------------------------------------
def draw_fault(injector: str, workload: str, config_name: str,
               target: "str | None", seed: int, index: int,
               golden, prefer_live: bool = True):
    """The fault campaign run ``(seed, index)`` injects.

    A :class:`~repro.faults.fault.FaultSpec` for gefin (*target* is
    the structure), a :class:`~repro.uarch.functional.FaultAction`
    for pvf (*target* is the model) and svf (*target* is ignored).
    Every campaign mode, the planner and the trace replay draw here,
    so a run means the same fault everywhere.  The RNG tuples are
    part of every cached result: reordering one changes them all.
    """
    config = config_by_name(config_name)
    if injector == "gefin":
        rng = random.Random(repr((seed, "gefin", workload, config_name,
                                  target, index)))
        return sample_uniform(config, target, golden.cycles, rng,
                              prefer_live=prefer_live)
    xlen = register_set(config.isa).xlen
    if injector == "pvf":
        rng = random.Random(repr((seed, "pvf", target, workload,
                                  config_name, index)))
        return build_pvf_action(target, rng, golden, xlen)
    if injector == "svf":
        rng = random.Random(repr((seed, "svf", workload, config_name,
                                  index)))
        return _dest_flip_action(rng, golden, xlen)
    raise ValueError(f"unknown injector {injector!r}")


def run_task(task: tuple, tracer=None, hook=None) -> InjectionResult:
    """Run one campaign run from its task tuple ``(injector, workload,
    config_name, target, seed, index, hardened, prefer_live,
    fastpath)``; *tracer* and the engine *hook* observe the replay."""
    (injector, workload, config_name, target, seed, index, hardened,
     prefer_live, fastpath) = task
    config = config_by_name(config_name)
    golden = golden_run(workload, config_name, hardened=hardened)
    fault = draw_fault(injector, workload, config_name, target, seed,
                       index, golden, prefer_live)
    try:
        if injector == "gefin":
            return run_one_injection(workload, config, fault, golden,
                                     hardened=hardened, tracer=tracer,
                                     fastpath=fastpath, hook=hook)
        run = run_one_pvf if injector == "pvf" else run_one_svf
        return run(workload, config.isa, fault, golden,
                   hardened=hardened, tracer=tracer, fastpath=fastpath,
                   hook=hook)
    except ContainmentError as exc:
        model = {"model": target} if injector == "pvf" else {}
        raise exc.with_context(seed=seed, index=index, **model)


def _one_batch(task: tuple) -> list:
    """A lane group of pvf/svf runs: *task* is :func:`run_task`'s
    tuple with a tuple of indices in place of the index."""
    from .batch import run_batched_pvf, run_batched_svf

    (injector, workload, config_name, target, seed, indices, hardened,
     prefer_live, fastpath) = task
    golden = golden_run(workload, config_name, hardened=hardened)
    actions = [draw_fault(injector, workload, config_name, target,
                          seed, index, golden) for index in indices]
    run = run_batched_pvf if injector == "pvf" else run_batched_svf
    try:
        return run(workload, config_by_name(config_name).isa, actions,
                   golden, hardened=hardened, fastpath=fastpath)
    except ContainmentError as exc:
        model = {"model": target} if injector == "pvf" else {}
        raise exc.with_context(seed=seed, indices=list(indices),
                               **model, batched=True)


# shard codecs (scalar: one InjectionResult per task; batched: a lane
# group's list per task)
def _decode_one(entry):
    return InjectionResult(**entry)


def _result_outcome(result):
    return result.outcome


def _encode_many(results):
    return [asdict(result) for result in results]


def _decode_many(entry):
    return [InjectionResult(**fields) for fields in entry]


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------
@dataclass
class CampaignResult:
    """Aggregated result of one campaign."""

    injector: str
    workload: str
    config_name: str
    n: int
    seed: int
    structure: str | None = None      # gefin campaigns
    model: str | None = None          # pvf campaigns (WD/WOI/WI)
    hardened: bool = False
    occupancy_weight: float = 1.0
    #: fault-population size (e.g. bits x cycles) for the
    #: finite-population margin correction; ``None`` = infinite
    population: float | None = None
    #: golden runtime the injection times were sampled over (cycles
    #: for gefin, dynamic instructions for pvf/svf); normalises
    #: program-phase attribution without re-running the golden
    t_max: float | None = None
    results: list = field(default_factory=list)
    #: two-level planner record (per-class weights/trials, planned vs
    #: actual sample counts); ``None`` for naive fixed-``n`` campaigns.
    #: See :func:`repro.core.planner.run_planned_campaign`.
    plan: "dict | None" = None

    # ------------------------------------------------------------------
    # estimators
    # ------------------------------------------------------------------
    def _count(self, predicate) -> int:
        return sum(1 for r in self.results if predicate(r))

    def rate(self, predicate) -> float:
        """Weighted fraction of runs satisfying *predicate*."""
        if not self.results:
            return 0.0
        return self.occupancy_weight * self._count(predicate) \
            / len(self.results)

    def vulnerability(self) -> float:
        """AVF (gefin) / PVF / SVF: P(SDC or Crash)."""
        return self.rate(lambda r: r.vulnerable)

    #: the paper calls the same estimator different names per layer
    avf = vulnerability
    pvf = vulnerability
    svf = vulnerability

    def sdc(self) -> float:
        return self.rate(lambda r: r.outcome == Outcome.SDC.value)

    def crash(self) -> float:
        return self.rate(lambda r: r.outcome == Outcome.CRASH.value)

    def crash_kind_rate(self, kind: str) -> float:
        return self.rate(lambda r: r.crash_kind == kind)

    def detected(self) -> float:
        return self.rate(lambda r: r.outcome == Outcome.DETECTED.value)

    def masked(self) -> float:
        return self.rate(lambda r: r.outcome == Outcome.MASKED.value)

    def hvf(self) -> float:
        """Fraction activated in hardware or exposed to software."""
        return self.rate(lambda r: r.hvf_visible)

    def fpm_rates(self) -> dict:
        """FPM -> weighted rate (incl. ESC); the HVF breakdown of Fig 5/6."""
        out = {}
        for fpm in ("WD", "WI", "WOI", "ESC"):
            out[fpm] = self.rate(lambda r, f=fpm: r.fpm == f)
        return out

    def fpm_distribution(self) -> dict:
        """FPM -> share of software-reaching faults (sums to 1)."""
        rates = self.fpm_rates()
        total = sum(rates.values())
        if total <= 0:
            return {k: 0.0 for k in rates}
        return {k: v / total for k, v in rates.items()}

    def margin(self, confidence: float = 0.99,
               population: float | None = None) -> float:
        """Margin of error; NaN for an empty campaign.

        *population* (or the campaign's ``population`` field) enables
        the finite-population correction of
        :func:`repro.faults.sampling.margin_of_error`.
        """
        n = len(self.results)
        if n == 0:
            return math.nan
        if population is None:
            population = self.population
        pop = population if population is not None else math.inf
        return margin_of_error(n, population=pop,
                               confidence=confidence)

    def summary(self) -> str:
        target = self.structure or self.model or "-"
        return (f"{self.injector}:{self.workload}@{self.config_name}"
                f"/{target}{'+ft' if self.hardened else ''} "
                f"n={len(self.results)} "
                f"vuln={100 * self.vulnerability():.2f}% "
                f"(sdc={100 * self.sdc():.2f}% "
                f"crash={100 * self.crash():.2f}% "
                f"det={100 * self.detected():.2f}%) "
                f"+/-{100 * self.margin():.2f}%")

    # ------------------------------------------------------------------
    # (de)serialisation for the on-disk store
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        from . import golden as golden_mod

        data = asdict(self)
        # version-salt the stored entry itself (in addition to the
        # cache *key*), so entries written by a different engine
        # schema are recognised as stale even if they land on the
        # same path (e.g. copied caches)
        data["schema"] = golden_mod.CACHE_SCHEMA_VERSION
        data["results"] = [asdict(r) for r in self.results]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "CampaignResult":
        data = dict(data)
        data.pop("schema", None)
        data["results"] = [InjectionResult(**r) for r in data["results"]]
        return cls(**data)


# ---------------------------------------------------------------------------
# campaign telemetry
# ---------------------------------------------------------------------------
def _latency_histogram(results) -> Histogram:
    """Visibility-latency histogram over the crossed runs."""
    hist = Histogram(LATENCY_BUCKETS)
    for result in results:
        latency = result.visibility_latency
        if latency is not None:
            hist.observe(latency)
    return hist


def _summary_fields(campaign: "CampaignResult",
                    elapsed: float) -> dict:
    """The ``campaign_summary`` event payload: everything the
    ``repro report`` dashboard needs without re-running simulation."""
    outcomes: dict = {}
    for result in campaign.results:
        outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
    hist = _latency_histogram(campaign.results)
    runs = len(campaign.results)
    return {
        "injector": campaign.injector,
        "workload": campaign.workload,
        "config": campaign.config_name,
        "target": campaign.structure or campaign.model,
        "runs": runs,
        "elapsed": round(elapsed, 3),
        "runs_per_sec": round(runs / elapsed, 3) if elapsed > 0 else 0.0,
        "outcomes": outcomes,
        "latency": {"boundaries": list(hist.boundaries),
                    "counts": list(hist.counts),
                    "count": hist.count, "sum": round(hist.sum, 3)},
    }


def _record_campaign_metrics(registry: MetricsRegistry,
                             campaign: "CampaignResult",
                             elapsed: float) -> None:
    """Fold per-structure outcome tallies and latencies into *registry*."""
    target = campaign.structure or campaign.model or campaign.injector
    for result in campaign.results:
        registry.counter(
            f"campaign.outcomes.{target}.{result.outcome}").inc()
    hist = registry.histogram("campaign.visibility_latency_cycles",
                              LATENCY_BUCKETS)
    for result in campaign.results:
        latency = result.visibility_latency
        if latency is not None:
            hist.observe(latency)
    registry.timer("campaign.wall_seconds").add(elapsed)


# ---------------------------------------------------------------------------
# the campaign cell and the switches around it
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignSpec:
    """One campaign cell: every axis that can change its result.

    The fields are the whole cache key (:meth:`key`, :meth:`path`) of
    naive and planned campaigns and of job-service requests, so a
    value that is not a field here cannot change a cached result;
    those are :class:`RunOptions`.  Normalised when built: *structure*
    outside gefin, *model* outside pvf, the ``"naive"`` planner and a
    naive campaign's *target_margin*/*batch* become ``None``.  A
    :class:`~repro.uarch.config.MicroarchConfig` *config* is kept by
    name, so it must equal the registered core of that name.
    """

    workload: str
    config: str
    injector: str = "gefin"
    structure: "str | None" = None
    model: "str | None" = "WD"
    n: int = 200
    seed: int = 1
    hardened: bool = False
    prefer_live: bool = True
    planner: "str | None" = None
    target_margin: "float | None" = None
    batch: "int | None" = None

    def __post_init__(self) -> None:
        config = self.config
        name = config if isinstance(config, str) else config.name
        registered = config_by_name(name)
        if not isinstance(config, str) and config != registered:
            raise ValueError(
                f"core {name!r} differs from the registered core of "
                f"that name; a campaign keeps only the name, so "
                f"register the variant under a name of its own")
        if self.injector not in INJECTORS:
            raise ValueError(f"unknown injector {self.injector!r}")
        if self.injector == "svf" and \
                register_set(registered.isa).xlen != 64:
            # the LLFI model behind svf flips 64-bit destination values
            raise ValueError(
                "the SVF injector supports 64-bit ISAs only, mirroring "
                "LLFI's limitation reported in the paper")
        if self.injector == "gefin" and self.structure is None:
            raise ValueError("gefin campaigns need a structure")
        planner = None if self.planner == "naive" else self.planner
        if planner is not None:
            from ..core.planner import PLANNERS

            if planner not in PLANNERS:
                raise ValueError(f"unknown planner {planner!r}")
        normal = {"config": name, "planner": planner}
        if self.injector != "gefin":
            normal["structure"] = None
        if self.injector != "pvf":
            normal["model"] = None
        if planner is None:
            normal.update(target_margin=None, batch=None)
        for field_name, value in normal.items():
            object.__setattr__(self, field_name, value)

    @property
    def target(self) -> "str | None":
        """The structure (gefin) or model (pvf) faults are drawn for."""
        return self.structure if self.injector == "gefin" else self.model

    def plan_knobs(self) -> tuple:
        """The two-level planner's ``(target_margin, batch)``, each
        ``None`` resolved to the planner default."""
        from ..core.planner import DEFAULT_BATCH, DEFAULT_TARGET_MARGIN

        return (DEFAULT_TARGET_MARGIN if self.target_margin is None
                else self.target_margin,
                DEFAULT_BATCH if self.batch is None else self.batch)

    def key(self) -> tuple:
        """The cache-key tuple.

        The tuples are part of every cached path: reordering one
        orphans the warm caches (``tests/test_cache_keys.py`` pins
        them).
        """
        from . import golden as golden_mod
        from .golden import config_digest, workload_digest

        cfg = config_by_name(self.config)
        digest = (workload_digest(self.workload, cfg.isa, self.hardened)
                  + config_digest(cfg))
        schema = golden_mod.CACHE_SCHEMA_VERSION
        if self.planner is not None:
            from ..core import planner as planning

            target_margin, batch = self.plan_knobs()
            return (f"planned-{self.injector}", self.workload,
                    self.config,
                    "-" if self.injector == "svf" else self.target,
                    self.n, self.seed, self.hardened, self.prefer_live,
                    round(target_margin, 9),
                    round(planning.PLAN_CONFIDENCE, 9), batch,
                    planning.PLAN_PHASES, planning.PLAN_REGIONS, digest,
                    schema)
        if self.injector == "gefin":
            return ("gefin", self.workload, self.config, self.structure,
                    self.n, self.seed, self.hardened, self.prefer_live,
                    digest, schema)
        if self.injector == "pvf":
            return ("pvf", self.workload, self.config, self.model,
                    self.n, self.seed, self.hardened, digest, schema)
        return ("svf", self.workload, self.config, self.n, self.seed,
                self.hardened, digest, schema)

    def path(self) -> Path:
        """The ``campaign-*.json`` sidecar of this cell.

        Computing it never simulates (it hashes the workload image and
        core geometry only), so callers can probe the cache, as the
        job service's duplicate-submission dedup does, without paying
        for a run.
        """
        meta = self.key()
        digest = hashlib.sha256(json.dumps(meta).encode()).hexdigest()[:20]
        return cache_dir() / f"campaign-{meta[0]}-{meta[1]}-{digest}.json"


@dataclass(frozen=True)
class RunOptions:
    """How a campaign runs: the switches that cannot change its result.

    The fast path and batch lanes are byte-identical to the scalar
    slow path (the fastpath and batch equivalence suites hold them to
    it); *workers*, *progress*, *use_cache* and *cancel* (a
    :class:`threading.Event`) only schedule, report, store or stop.
    """

    use_cache: bool
    workers: int
    progress: bool
    fastpath: bool
    batch_lanes: int
    cancel: "threading.Event | None"

    @classmethod
    def resolve(cls, n: int, *, use_cache: bool = True,
                workers: "int | None" = None,
                progress: "bool | None" = None,
                fastpath: "bool | None" = None,
                batch_lanes: "int | None" = None,
                cancel=None) -> "RunOptions":
        """The options of an *n*-run campaign: each ``None`` switch
        defers to its environment variable (``REPRO_WORKERS``,
        ``REPRO_PROGRESS``, ``REPRO_FASTPATH``, ``REPRO_BATCH``)."""
        from ..uarch.batch import resolve_batch_lanes
        from ..uarch.snapshot import fastpath_enabled

        return cls(use_cache=use_cache,
                   workers=(workers if workers is not None
                            else default_workers(n)),
                   progress=progress_enabled(progress),
                   fastpath=fastpath_enabled(fastpath),
                   batch_lanes=resolve_batch_lanes(batch_lanes),
                   cancel=cancel)


# ---------------------------------------------------------------------------
# the campaign runner
# ---------------------------------------------------------------------------
def _write_profile_sidecar(campaign: "CampaignResult", path) -> None:
    """Write the ``profile-*.json`` residency sidecar when enabled.

    The profile comes from ONE fault-free pipeline run per
    (workload, config, hardened) — memoised in-process, cached on
    disk as the sidecar itself — so campaign results are unaffected
    (``REPRO_PROFILE=0``, the default, writes nothing at all).
    """
    from ..obs.profiles import profile_enabled, profile_golden_run

    if not profile_enabled():
        return
    sidecar = cache_dir() / f"profile-{path.stem}.json"
    if sidecar.exists():
        return
    profile = profile_golden_run(campaign.workload,
                                 campaign.config_name,
                                 hardened=campaign.hardened)
    atomic_write_text(sidecar, json.dumps(profile.to_json()))


def load_cached_campaign(path) -> "CampaignResult | None":
    """Load one campaign sidecar, unlinking stale/corrupt entries.

    An entry whose stored ``schema`` stamp differs from the current
    :data:`~repro.injectors.golden.CACHE_SCHEMA_VERSION` was written
    by a different engine schema and is removed so the campaign
    recomputes (PR-4 invalidation discipline).
    """
    from . import golden as golden_mod

    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
        if data.get("schema") != golden_mod.CACHE_SCHEMA_VERSION:
            raise ValueError("stale campaign cache schema")
        return CampaignResult.from_json(data)
    except (ValueError, TypeError, KeyError, OSError):
        # tolerate two processes racing to remove (or replace)
        # the same corrupt/stale entry
        path.unlink(missing_ok=True)
        return None


def default_workers(n: int) -> int:
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(
                f"ignoring malformed REPRO_WORKERS={env!r} "
                f"(expected an integer); using the automatic default",
                RuntimeWarning, stacklevel=2)
    if n < 32:
        return 1
    return min(os.cpu_count() or 1, 8)


def run_enveloped(sample, spec: CampaignSpec,
                  options: RunOptions) -> CampaignResult:
    """Run (or load) the campaign *spec* names, choosing its runs with
    *sample*.

    Everything but the choice of runs is shared by every sampling
    strategy: the cache lookup, golden data, the occupancy weight, the
    :class:`CampaignResult`, its ``campaign_summary`` and metrics
    records, and the sidecars.  *sample* is called as
    ``sample(golden, weight, task, path, events, registry)`` —
    ``task(run)`` builds the :func:`run_task` tuple of one run — and
    returns ``(results, plan, checkpoint_dir)``: the ``plan`` record
    (``None`` for naive campaigns) and the shard checkpoints to clear
    once the sidecar is written (``None`` for none).
    """
    path = spec.path()
    if options.use_cache:
        campaign = load_cached_campaign(path)
        if campaign is not None:
            _write_profile_sidecar(campaign, path)
            return campaign

    golden = golden_run(spec.workload, spec.config,
                        hardened=spec.hardened)
    if options.fastpath:
        # the checkpoint store on disk before any worker forks, so that
        # every worker loads it instead of re-running the capture run
        checkpoint_store(spec.workload, spec.config,
                         engine=_FASTPATH_ENGINES[spec.injector],
                         hardened=spec.hardened)
    weight = (golden.occupancy.get(spec.structure, 1.0)
              if spec.injector == "gefin" and spec.prefer_live else 1.0)

    def task(run) -> tuple:
        return (spec.injector, spec.workload, spec.config, spec.target,
                spec.seed, run, spec.hardened, spec.prefer_live,
                options.fastpath)

    events = EventLog.resolve(default=cache_dir() / "events.jsonl")
    # The process-wide default, so serial-path pipeline metrics land in
    # the same snapshot as the campaign/engine series.
    registry = get_registry()
    wall_started = time.monotonic()
    results, plan, checkpoint_dir = sample(golden, weight, task, path,
                                           events, registry)
    elapsed = time.monotonic() - wall_started

    campaign = CampaignResult(
        injector=spec.injector, workload=spec.workload,
        config_name=spec.config, n=spec.n, seed=spec.seed,
        structure=spec.structure, model=spec.model,
        hardened=spec.hardened, occupancy_weight=weight,
        t_max=(golden.cycles if spec.injector == "gefin"
               else float(max(1, golden.instructions))),
        results=results, plan=plan,
    )
    events.emit("campaign_summary", campaign=path.stem,
                **_summary_fields(campaign, elapsed))
    if registry.enabled:
        _record_campaign_metrics(registry, campaign, elapsed)
        snapshot = registry.snapshot()
        events.emit("metrics_snapshot", campaign=path.stem,
                    metrics=snapshot)
        # "metrics-" prefix: must never match the campaign-*.json globs
        # used for cache scans and resume
        atomic_write_text(cache_dir() / f"metrics-{path.stem}.json",
                          json.dumps(snapshot, indent=2))
    if options.use_cache:
        atomic_write_text(path, json.dumps(campaign.to_json()))
        clear_checkpoints(checkpoint_dir)
    _write_profile_sidecar(campaign, path)
    return campaign


def run_campaign(workload: str, config: "MicroarchConfig | str",
                 injector: str = "gefin", structure: str | None = None,
                 model: str = "WD", n: int = 200, seed: int = 1,
                 hardened: bool = False, prefer_live: bool = True,
                 use_cache: bool = True,
                 workers: int | None = None,
                 progress: bool | None = None,
                 fastpath: bool | None = None,
                 planner: str | None = None,
                 target_margin: float | None = None,
                 batch: int | None = None,
                 batch_lanes: int | None = None,
                 cancel=None) -> CampaignResult:
    """Run (or load) one fault-injection campaign.

    Parameters mirror the paper's experimental axes: *injector* picks
    the abstraction layer (``gefin`` = microarchitectural AVF/HVF,
    ``pvf`` = architecture level, ``svf`` = LLFI-style software
    level); *structure* is required for ``gefin``; *model* selects the
    PVF fault-propagation model.  The arguments that can change the
    result build a :class:`CampaignSpec` (the cache key), the rest a
    :class:`RunOptions`, where each ``None`` defers to the
    environment (``REPRO_WORKERS``, ``REPRO_PROGRESS``,
    ``REPRO_FASTPATH``, ``REPRO_BATCH``).

    Runs go through the sharded engine (:mod:`repro.injectors.engine`):
    deterministic shards, per-shard retry, and atomic shard
    checkpoints from which an interrupted campaign resumes to the same
    bytes.  *planner* ``"two-level"`` delegates to
    :func:`repro.core.planner.run_planned_campaign`, which stops the
    cell once its Wilson interval is inside *target_margin*, with
    ``n`` as the budget.  *batch_lanes* packs pvf/svf runs into the
    bit-parallel engine (:mod:`repro.uarch.batch`); gefin campaigns
    fall back to scalar runs with a ``batch_fallback`` event.
    *cancel* stops the campaign at a shard (planned: batch) boundary
    with :class:`~repro.injectors.engine.ExecutionCancelled`, leaving
    the shard checkpoints for a byte-identical resume.
    """
    spec = CampaignSpec(
        workload=workload, config=config, injector=injector,
        structure=structure, model=model, n=n, seed=seed,
        hardened=hardened, prefer_live=prefer_live, planner=planner,
        target_margin=target_margin, batch=batch)
    options = RunOptions.resolve(
        n, use_cache=use_cache, workers=workers, progress=progress,
        fastpath=fastpath, batch_lanes=batch_lanes, cancel=cancel)
    if spec.planner is not None:
        from ..core.planner import run_planned_campaign

        return run_planned_campaign(spec, options)
    lanes = options.batch_lanes

    def sample(golden, weight, task, path, events, registry):
        lane_groups = None
        if lanes >= 2 and spec.injector in ("pvf", "svf") and spec.n:
            from .batch import plan_lane_groups

            lane_groups = plan_lane_groups(
                spec.injector, spec.n, lanes, workload=spec.workload,
                config_name=spec.config, seed=spec.seed, golden=golden,
                model=spec.target)
        runs = range(spec.n) if lane_groups is None else lane_groups
        tasks = [task(run) for run in runs]
        worker = run_task if lane_groups is None else _one_batch

        label = (f"{spec.injector}:{spec.workload}@{spec.config}"
                 + (f"/{spec.target}" if spec.target else ""))
        reporter = (ProgressReporter(len(tasks), label=label)
                    if options.progress else None)
        if lanes >= 2 and spec.injector == "gefin":
            # the pipeline engine has no batched mode; record the
            # fallback
            if registry.enabled:
                registry.counter(BATCH_FALLBACKS).inc()
            events.emit("batch_fallback", campaign=path.stem,
                        injector=spec.injector, lanes=lanes)
        # Batched shards carry a lane group per task, so their
        # checkpoint layout is incompatible with scalar shards of the
        # same campaign: keep them in a distinct directory.
        stem = (path.stem if lane_groups is None
                else f"{path.stem}-l{lanes}")
        checkpoint_dir = (cache_dir() / "shards" / stem
                          if options.use_cache else None)
        if lane_groups is None:
            encode = asdict
            decode = _decode_one
            outcome_key = _result_outcome
        else:
            encode = _encode_many
            decode = _decode_many
            outcome_key = None
        results = run_sharded(
            worker, tasks, workers=options.workers,
            checkpoint_dir=checkpoint_dir,
            encode=encode,
            decode=decode,
            events=events, progress=reporter,
            outcome_key=outcome_key,
            label=path.stem,
            metrics=registry if registry.enabled else None,
            repro_dir=cache_dir() / "repros",
            stop_event=options.cancel)
        if lane_groups is not None:
            # flatten lane groups back into campaign index order;
            # results are then bit-for-bit the scalar campaign's
            flat = [None] * spec.n
            for group, group_results in zip(lane_groups, results):
                for index, result in zip(group, group_results):
                    flat[index] = result
            results = flat
        return results, None, checkpoint_dir

    return run_enveloped(sample, spec, options)
