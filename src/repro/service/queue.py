"""Crash-safe on-disk job queue for campaign submissions.

The write path of the campaign service: HTTP submissions land here as
*jobs*, worker threads (:mod:`repro.service.supervisor`) drain them
through :func:`repro.injectors.campaign.run_campaign`, and every
failure mode degrades to a retry or a cache hit — never a lost or
corrupted result.

Durability discipline
---------------------

* **One JSON file per job**, rewritten atomically (same-directory
  tempfile + ``os.replace`` via
  :func:`repro.injectors.engine.atomic_write_text`) on every state
  transition, so a reader never observes a torn record and a crash
  between transitions loses at most the transition in flight.
* **States** move ``queued -> leased -> running -> done | failed |
  cancelled``; every transition is validated against
  :data:`TRANSITIONS` and appended to the job's ``history``.
* **Leases** are separate files created with ``O_EXCL`` (the
  cross-process mutual exclusion) carrying a wall-clock deadline.  A
  live worker renews its lease; a SIGKILL'd worker's lease expires
  and :meth:`JobQueue.reclaim` moves the job back to ``queued`` —
  the sharded engine's checkpoints then make the re-run resume
  byte-identically.
* **Idempotent submission**: the job id is a content address of the
  canonical campaign request, so duplicate submissions return the
  existing job; requests whose ``campaign-*.json`` sidecar already
  exists (same content-addressed path :func:`run_campaign` uses) are
  born ``done`` without ever touching the simulator.
* **Bounded depth**: a full queue raises :class:`QueueFull` and the
  HTTP layer sheds the submission with ``429 Retry-After`` instead
  of letting the backlog grow without bound.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from ..injectors.engine import atomic_write_text

__all__ = [
    "InvalidRequest",
    "Job",
    "JobQueue",
    "QueueFull",
    "STATES",
    "TRANSITIONS",
    "canonical_request",
    "request_digest",
]

QUEUED = "queued"
LEASED = "leased"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (QUEUED, LEASED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL = frozenset((DONE, FAILED, CANCELLED))

#: the legal state machine; ``leased/running -> queued`` is the
#: reclaim/drain edge (worker died or is shutting down), ``failed/
#: cancelled -> queued`` is explicit resubmission of a dead job
TRANSITIONS = {
    QUEUED: frozenset((LEASED, CANCELLED)),
    LEASED: frozenset((RUNNING, QUEUED, CANCELLED, FAILED)),
    RUNNING: frozenset((DONE, FAILED, CANCELLED, QUEUED)),
    DONE: frozenset(),
    FAILED: frozenset((QUEUED,)),
    CANCELLED: frozenset((QUEUED,)),
}

GEFIN_STRUCTURES = ("RF", "LSQ", "L1I", "L1D", "L2")
PVF_MODELS = ("WD", "WOI", "WI")

#: per-job run ceiling: a single submission may not book more than
#: this many injections (service-level sanity cap, not a statistics
#: statement)
MAX_JOB_RUNS = 100_000


class InvalidRequest(ValueError):
    """The submitted campaign request failed validation."""


class QueueFull(RuntimeError):
    """The bounded queue is at capacity; retry after ``retry_after``."""

    def __init__(self, depth: int, retry_after: int) -> None:
        super().__init__(
            f"job queue is full ({depth} queued); retry in "
            f"~{retry_after}s")
        self.depth = depth
        self.retry_after = retry_after


# ---------------------------------------------------------------------------
# canonical requests (the content address)
# ---------------------------------------------------------------------------
def canonical_request(raw: dict) -> dict:
    """Validate and normalise a campaign request.

    The canonical form is what gets content-addressed, so two
    submissions that mean the same campaign must canonicalise to the
    same bytes: defaults are filled in, axes that do not apply to the
    chosen injector are nulled out (a gefin request's ``model`` must
    not change the digest), and unknown keys are rejected rather than
    silently dropped.  The keys are the fields of
    :class:`~repro.injectors.campaign.CampaignSpec`, which does the
    nulling.
    """
    from ..injectors.campaign import INJECTORS, CampaignSpec
    from ..workloads.suite import WORKLOAD_NAMES

    if not isinstance(raw, dict):
        raise InvalidRequest("request body must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(CampaignSpec)}
    if unknown:
        raise InvalidRequest(
            f"unknown request keys: {sorted(unknown)}")

    workload = raw.get("workload")
    if workload not in WORKLOAD_NAMES:
        raise InvalidRequest(
            f"unknown workload {workload!r} (expected one of "
            f"{list(WORKLOAD_NAMES)})")
    injector = raw.get("injector", "gefin")
    if injector not in INJECTORS:
        raise InvalidRequest(
            f"unknown injector {injector!r} (expected one of "
            f"{list(INJECTORS)})")

    config = raw.get("config", "cortex-a72")
    from ..uarch.config import config_by_name

    try:
        config_by_name(config)
    except (KeyError, ValueError, TypeError):
        raise InvalidRequest(f"unknown config {config!r}") from None

    structure = raw.get("structure", "RF")
    if injector == "gefin" and structure not in GEFIN_STRUCTURES:
        raise InvalidRequest(
            f"unknown structure {structure!r} (expected one of "
            f"{list(GEFIN_STRUCTURES)})")
    model = raw.get("model", "WD")
    if injector == "pvf" and model not in PVF_MODELS:
        raise InvalidRequest(
            f"unknown model {model!r} (expected one of "
            f"{list(PVF_MODELS)})")

    n = raw.get("n", 200)
    if not isinstance(n, int) or isinstance(n, bool) \
            or not 1 <= n <= MAX_JOB_RUNS:
        raise InvalidRequest(
            f"n must be an integer in [1, {MAX_JOB_RUNS}], got {n!r}")
    seed = raw.get("seed", 1)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InvalidRequest(f"seed must be an integer, got {seed!r}")

    hardened = raw.get("hardened", False)
    prefer_live = raw.get("prefer_live", True)
    for name, value in (("hardened", hardened),
                        ("prefer_live", prefer_live)):
        if not isinstance(value, bool):
            raise InvalidRequest(f"{name} must be a boolean, "
                                 f"got {value!r}")

    planner = raw.get("planner")
    if planner == "":
        planner = None
    target_margin = raw.get("target_margin")
    batch = raw.get("batch")
    if planner == "two-level":
        if target_margin is not None and not (
                isinstance(target_margin, (int, float))
                and 0 < target_margin < 1):
            raise InvalidRequest("target_margin must be in (0, 1), "
                                 f"got {target_margin!r}")
        if batch is not None and (not isinstance(batch, int)
                                  or isinstance(batch, bool)
                                  or batch < 1):
            raise InvalidRequest(f"batch must be a positive integer, "
                                 f"got {batch!r}")

    try:
        spec = CampaignSpec(
            workload=workload, config=config, injector=injector,
            structure=structure, model=model, n=n, seed=seed,
            hardened=hardened, prefer_live=prefer_live,
            planner=planner, target_margin=target_margin, batch=batch)
    except ValueError as exc:
        raise InvalidRequest(str(exc)) from None
    return asdict(spec)


def request_digest(request: dict) -> str:
    """Content address of a canonical request (the job identity)."""
    blob = json.dumps(request, sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def request_label(request: dict) -> str:
    """Human-oriented one-liner: ``gefin:sha@cortex-a72/RF n=200``."""
    target = request.get("structure") or request.get("model")
    return (f"{request['injector']}:{request['workload']}"
            f"@{request['config']}"
            + (f"/{target}" if target else "")
            + f" n={request['n']} seed={request['seed']}"
            + ("+ft" if request.get("hardened") else ""))


def cached_sidecar(request: dict) -> "Path | None":
    """The fresh ``campaign-*.json`` sidecar for *request*, if any.

    Probes the exact content-addressed path :func:`run_campaign`
    uses, through the loader it uses: a hit means the service can
    answer without simulating.
    """
    from ..injectors.campaign import CampaignSpec, load_cached_campaign

    path = CampaignSpec(**request).path()
    return path if load_cached_campaign(path) is not None else None


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------
@dataclass
class Job:
    """One queued campaign request and its lifecycle record."""

    id: str
    state: str
    request: dict
    created: float
    updated: float
    attempts: int = 0
    worker: str | None = None
    #: sidecar stem (``campaign-...``) once known — the progress/
    #: result join key against events.jsonl and the cache directory
    campaign: str | None = None
    #: the submission was answered from an existing sidecar without
    #: simulating (the dedup fast path)
    cached: bool = False
    cancel_requested: bool = False
    error: str | None = None
    #: containment reproducer path, attached on fail-fast
    repro: str | None = None
    history: list = field(default_factory=list)

    @property
    def label(self) -> str:
        return request_label(self.request)

    def to_json(self) -> dict:
        data = asdict(self)
        data["label"] = self.label
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Job":
        data = dict(data)
        data.pop("label", None)
        return cls(**data)


# ---------------------------------------------------------------------------
# the queue
# ---------------------------------------------------------------------------
class JobQueue:
    """Durable FIFO of campaign jobs under ``<root>/jobs``.

    Thread-safe within a process (one lock) and crash-safe across
    processes (atomic job-file replaces + ``O_EXCL`` lease files).
    *events* (an :class:`~repro.obs.events.EventLog`) receives a
    ``job_update`` record per transition so the observatory's SSE
    stream can narrate the queue live; *metrics* (a
    :class:`~repro.obs.metrics.MetricsRegistry`) gains per-state
    counters and the ``service.queue_depth`` gauge.
    """

    def __init__(self, root: "Path | str", max_depth: int = 64,
                 lease_ttl: float = 30.0, retry_after: int = 5,
                 events=None, metrics=None) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.leases_dir = self.root / "leases"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        self.max_depth = max_depth
        self.lease_ttl = lease_ttl
        self.retry_after = retry_after
        self.events = events
        self.metrics = metrics
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # paths + persistence
    # ------------------------------------------------------------------
    def job_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def lease_path(self, job_id: str) -> Path:
        return self.leases_dir / f"{job_id}.lease"

    def load(self, job_id: str) -> "Job | None":
        try:
            data = json.loads(self.job_path(job_id).read_text())
            return Job.from_json(data)
        except (OSError, ValueError, TypeError, KeyError):
            return None

    def _write(self, job: Job) -> None:
        job.updated = round(time.time(), 3)
        atomic_write_text(self.job_path(job.id),
                          json.dumps(job.to_json(), sort_keys=True,
                                     indent=2))

    def _transition(self, job: Job, state: str, **fields) -> Job:
        if state != job.state and state not in TRANSITIONS[job.state]:
            raise ValueError(
                f"illegal transition {job.state} -> {state} "
                f"for {job.id}")
        job.state = state
        for key, value in fields.items():
            setattr(job, key, value)
        job.history.append({"state": state,
                            "ts": round(time.time(), 3)})
        self._write(job)
        self._observe(job)
        return job

    def _observe(self, job: Job) -> None:
        """Telemetry after a transition: event + counters + depth."""
        if self.events is not None:
            # the sidecar stem rides under ``sidecar`` (not
            # ``campaign``) so ReportAggregator never mistakes a job
            # record for campaign telemetry
            self.events.emit("job_update", job=job.id,
                             state=job.state, label=job.label,
                             attempts=job.attempts, cached=job.cached,
                             sidecar=job.campaign,
                             error=job.error)
        if self.metrics is not None:
            self.metrics.counter(f"service.jobs_{job.state}").inc()
            self.metrics.gauge("service.queue_depth").set(
                float(self.depth()))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def jobs(self) -> list:
        """Every job, oldest submission first."""
        out = []
        for path in self.jobs_dir.glob("job-*.json"):
            job = self.load(path.stem)
            if job is not None:
                out.append(job)
        out.sort(key=lambda j: (j.created, j.id))
        return out

    def queued_jobs(self) -> list:
        return [j for j in self.jobs() if j.state == QUEUED]

    def depth(self) -> int:
        """Jobs currently waiting (the bounded-queue dimension)."""
        return len(self.queued_jobs())

    def position(self, job_id: str) -> "int | None":
        """0-based place in the FIFO for a queued job, else ``None``."""
        for i, job in enumerate(self.queued_jobs()):
            if job.id == job_id:
                return i
        return None

    # ------------------------------------------------------------------
    # submission (idempotent, bounded, cache-dedup'd)
    # ------------------------------------------------------------------
    def submit(self, raw_request: dict) -> tuple:
        """Accept a campaign request; returns ``(job, created)``.

        Raises :class:`InvalidRequest` for malformed requests and
        :class:`QueueFull` when the bounded queue is at capacity.
        Duplicate submissions (same canonical request) return the
        live job; a request whose campaign sidecar is already cached
        is answered ``done`` instantly without simulating; a job that
        previously ``failed``/``cancelled`` is requeued fresh.
        """
        request = canonical_request(raw_request)
        job_id = f"job-{request_digest(request)}"
        with self._lock:
            existing = self.load(job_id)
            if existing is not None and existing.state not in (
                    FAILED, CANCELLED):
                return existing, False

            sidecar = cached_sidecar(request)
            now = round(time.time(), 3)
            if sidecar is not None:
                # dedup fast path: the result already exists on disk;
                # the job is born done and the simulator never runs
                if self.metrics is not None:
                    self.metrics.counter("service.jobs_deduped").inc()
                # a resubmitted failed/cancelled job is reborn done
                # the same way a fresh one is: the sidecar IS the
                # result, no state machine to walk
                job = Job(id=job_id, state=DONE, request=request,
                          created=now, updated=now, cached=True,
                          campaign=sidecar.stem,
                          history=(existing.history
                                   if existing is not None else []))
                job.history.append({"state": DONE, "ts": now})
                self._write(job)
                self._observe(job)
                return job, existing is None

            if self.depth() >= self.max_depth:
                if self.metrics is not None:
                    self.metrics.counter("service.jobs_shed").inc()
                raise QueueFull(self.depth(), self.retry_after)

            if existing is not None:
                # resubmission of a failed/cancelled job: requeue it
                return self._transition(
                    existing, QUEUED, attempts=0, error=None,
                    repro=None, worker=None,
                    cancel_requested=False), False
            job = Job(id=job_id, state=QUEUED, request=request,
                      created=now, updated=now)
            job.history.append({"state": QUEUED, "ts": now})
            self._write(job)
            self._observe(job)
            if self.metrics is not None:
                self.metrics.counter("service.jobs_submitted").inc()
            return job, True

    # ------------------------------------------------------------------
    # leasing (worker side)
    # ------------------------------------------------------------------
    def _write_lease(self, job_id: str, worker: str,
                     deadline: float, exclusive: bool) -> bool:
        path = self.lease_path(job_id)
        payload = json.dumps({"worker": worker,
                              "deadline": round(deadline, 3)})
        if exclusive:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL
                             | os.O_WRONLY)
            except FileExistsError:
                return False
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            return True
        atomic_write_text(path, payload)
        return True

    def _read_lease(self, job_id: str) -> "dict | None":
        try:
            return json.loads(self.lease_path(job_id).read_text())
        except (OSError, ValueError):
            return None

    def release(self, job_id: str) -> None:
        self.lease_path(job_id).unlink(missing_ok=True)

    def lease(self, worker: str, now: "float | None" = None) -> "Job | None":
        """Claim the oldest queued job for *worker*, or ``None``.

        The ``O_EXCL`` lease-file create is the cross-process mutual
        exclusion: two supervisors draining the same queue directory
        can never lease the same job.  Queued jobs whose cancel flag
        was set while waiting are finalised here instead of leased.
        """
        now = time.time() if now is None else now
        with self._lock:
            for job in self.queued_jobs():
                if job.cancel_requested:
                    self.release(job.id)
                    self._transition(job, CANCELLED)
                    continue
                if not self._write_lease(job.id, worker,
                                         now + self.lease_ttl,
                                         exclusive=True):
                    continue
                current = self.load(job.id)
                if current is None or current.state != QUEUED:
                    # lost the race to another process between the
                    # directory scan and the lease create
                    self.release(job.id)
                    continue
                return self._transition(current, LEASED,
                                        worker=worker)
        return None

    def renew(self, job: Job, now: "float | None" = None) -> None:
        """Heartbeat: push the lease deadline out another TTL."""
        now = time.time() if now is None else now
        self._write_lease(job.id, job.worker or "?",
                          now + self.lease_ttl, exclusive=False)

    def reclaim(self, now: "float | None" = None,
                max_attempts: int = 5) -> list:
        """Requeue leased/running jobs whose lease expired.

        The SIGKILL-recovery path: a dead worker stops renewing, the
        deadline passes, and the job returns to ``queued`` with its
        attempt count bumped (so a crash-looping job eventually
        fails instead of looping forever).  Returns the reclaimed
        jobs.
        """
        now = time.time() if now is None else now
        reclaimed = []
        with self._lock:
            for job in self.jobs():
                if job.state not in (LEASED, RUNNING):
                    continue
                lease = self._read_lease(job.id)
                if lease is not None and lease.get("deadline",
                                                   0.0) > now:
                    continue
                self.release(job.id)
                attempts = job.attempts + 1
                if attempts >= max_attempts:
                    self._transition(
                        job, FAILED, attempts=attempts, worker=None,
                        error=f"reclaimed {attempts} times without "
                              f"completing (crash loop?)")
                    continue
                job = self._transition(job, QUEUED, attempts=attempts,
                                       worker=None)
                if self.metrics is not None:
                    self.metrics.counter(
                        "service.jobs_reclaimed").inc()
                reclaimed.append(job)
        return reclaimed

    # ------------------------------------------------------------------
    # worker-side transitions
    # ------------------------------------------------------------------
    def mark_running(self, job: Job,
                     campaign: "str | None" = None) -> Job:
        with self._lock:
            return self._transition(job, RUNNING,
                                    campaign=campaign or job.campaign)

    def complete(self, job: Job, campaign: "str | None" = None) -> Job:
        with self._lock:
            self.release(job.id)
            return self._transition(job, DONE,
                                    campaign=campaign or job.campaign,
                                    error=None)

    def fail(self, job: Job, error: str,
             repro: "str | None" = None) -> Job:
        with self._lock:
            self.release(job.id)
            return self._transition(job, FAILED, error=error,
                                    repro=repro)

    def requeue(self, job: Job, error: "str | None" = None) -> Job:
        """Transient failure or drain: back to the queue, attempts+1."""
        with self._lock:
            self.release(job.id)
            return self._transition(job, QUEUED,
                                    attempts=job.attempts + 1,
                                    worker=None, error=error)

    def mark_cancelled(self, job: Job) -> Job:
        with self._lock:
            self.release(job.id)
            return self._transition(job, CANCELLED)

    # ------------------------------------------------------------------
    # cancellation (client side)
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> "Job | None":
        """Request cancellation; returns the updated job or ``None``.

        A queued job is finalised immediately; a leased/running job
        gets its ``cancel_requested`` flag set — the supervisor polls
        the flag and stops the campaign at the next shard boundary.
        Terminal jobs are returned unchanged (cancel is idempotent).
        """
        with self._lock:
            job = self.load(job_id)
            if job is None:
                return None
            if job.state == QUEUED:
                self.release(job.id)
                return self._transition(job, CANCELLED,
                                        cancel_requested=True)
            if job.state in (LEASED, RUNNING):
                job.cancel_requested = True
                self._write(job)
                self._observe(job)
            return job
