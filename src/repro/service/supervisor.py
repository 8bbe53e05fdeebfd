"""Supervised worker pool draining the durable job queue.

``N`` worker threads lease jobs from a :class:`~repro.service.queue.
JobQueue` and run them through the existing sharded campaign
executor (:func:`repro.injectors.campaign.run_campaign`, which fans
out over :mod:`repro.injectors.engine`).  The supervisor owns every
failure mode the queue's durability story promises:

* a **housekeeper** thread renews leases for in-flight jobs (so only
  dead workers' leases expire), reclaims expired leases back to the
  queue, propagates ``cancel_requested`` flags from the job files
  into each run's stop event, and enforces per-job wall-clock
  deadlines;
* **transient failures** requeue with capped exponential backoff
  (the engine's :func:`~repro.injectors.engine._backoff` curve),
  waiting on the stop event rather than sleeping so drains stay
  prompt;
* :class:`~repro.uarch.exceptions.ContainmentError` **fails fast** —
  it is deterministic, so retrying burns budget on the same escape —
  with a JSON reproducer written and attached to the job record;
* **cooperative cancellation** stops the campaign at the next shard
  boundary (checkpoints stay on disk);
* **draining** (`drain()`, the SIGTERM path) stops leasing, gives
  running jobs a grace period, then requeues what is still running —
  their shard checkpoints make the restart resume byte-identically.
"""

from __future__ import annotations

import threading
import time

from ..injectors.engine import ExecutionCancelled, _backoff
from ..uarch.exceptions import ContainmentError
from .queue import JobQueue

__all__ = ["Supervisor", "run_job_campaign"]


def run_job_campaign(request: dict, *, cancel=None,
                     workers: "int | None" = 1):
    """Execute one canonical job request as a campaign.

    Returns ``(campaign_stem, CampaignResult)``; the stem is the
    sidecar name the result landed under.  This is the supervisor's
    default runner — tests swap in fakes to exercise the lifecycle
    without simulating.
    """
    from ..injectors.campaign import run_campaign

    campaign = run_campaign(**request, workers=workers, progress=False,
                            cancel=cancel)
    return job_campaign_stem(request), campaign


def job_campaign_stem(request: dict) -> str:
    """The sidecar stem a job will write, known before it runs."""
    from ..injectors.campaign import CampaignSpec

    return CampaignSpec(**request).path().stem


class _Active:
    """Book-keeping for one in-flight job on one worker thread."""

    __slots__ = ("job", "cancel", "started", "timed_out",
                 "requeue_on_cancel")

    def __init__(self, job) -> None:
        self.job = job
        self.cancel = threading.Event()
        self.started = time.monotonic()
        self.timed_out = False
        self.requeue_on_cancel = False


class Supervisor:
    """``workers`` threads draining *queue* until stopped or drained."""

    def __init__(self, queue: JobQueue, workers: int = 2,
                 poll_interval: float = 0.2,
                 job_timeout: "float | None" = None,
                 max_retries: int = 2, backoff_base: float = 0.5,
                 backoff_cap: float = 8.0,
                 engine_workers: "int | None" = 1,
                 runner=None) -> None:
        self.queue = queue
        self.workers = max(1, workers)
        self.poll_interval = poll_interval
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.engine_workers = engine_workers
        self.runner = runner or (
            lambda request, cancel=None: run_job_campaign(
                request, cancel=cancel, workers=self.engine_workers))
        self._stop = threading.Event()      # full shutdown
        self._draining = threading.Event()  # stop leasing new work
        self._threads: list = []
        self._active: dict = {}             # job id -> _Active
        self._active_lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Supervisor":
        """Reclaim orphans, then launch worker + housekeeper threads."""
        self.queue.reclaim()
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, args=(f"worker-{i}",),
                name=f"repro-job-worker-{i}", daemon=True)
            thread.start()
            self._threads.append(thread)
        keeper = threading.Thread(target=self._housekeeper_loop,
                                  name="repro-job-housekeeper",
                                  daemon=True)
        keeper.start()
        self._threads.append(keeper)
        return self

    @property
    def active_count(self) -> int:
        with self._active_lock:
            return len(self._active)

    def drain(self, grace: float = 10.0) -> None:
        """Graceful shutdown: stop leasing, finish or requeue.

        Running jobs get *grace* seconds to complete; whatever is
        still running is then cancelled at its next shard boundary
        and **requeued** (not marked cancelled), so a restarted
        supervisor resumes from the shard checkpoints and the final
        result stays byte-identical to an uninterrupted run.
        """
        self._draining.set()
        deadline = time.monotonic() + max(0.0, grace)
        while self.active_count and time.monotonic() < deadline:
            time.sleep(min(0.05, self.poll_interval))
        with self._active_lock:
            for active in self._active.values():
                active.requeue_on_cancel = True
                active.cancel.set()
        self.stop()

    def stop(self, timeout: float = 30.0) -> None:
        self._draining.set()
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    # ------------------------------------------------------------------
    # the housekeeper: leases, cancel flags, deadlines, reclaim
    # ------------------------------------------------------------------
    def _housekeeper_loop(self) -> None:
        while not self._stop.wait(self.poll_interval):
            try:
                self._housekeeping()
            except Exception:  # noqa: BLE001 — keep the keeper alive
                pass

    def _housekeeping(self) -> None:
        self.queue.reclaim()
        now = time.monotonic()
        with self._active_lock:
            active_now = list(self._active.values())
        for active in active_now:
            self.queue.renew(active.job)
            if (self.job_timeout is not None
                    and not active.timed_out
                    and now - active.started > self.job_timeout):
                active.timed_out = True
                active.cancel.set()
            if not active.cancel.is_set():
                current = self.queue.load(active.job.id)
                if current is not None and current.cancel_requested:
                    active.cancel.set()
        if self.queue.metrics is not None:
            self.queue.metrics.gauge("service.queue_depth").set(
                float(self.queue.depth()))
            self.queue.metrics.gauge("service.jobs_active").set(
                float(len(active_now)))

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _worker_loop(self, name: str) -> None:
        while not self._stop.is_set() and not self._draining.is_set():
            try:
                job = self.queue.lease(name)
            except Exception:  # noqa: BLE001 — a torn queue dir read
                job = None
            if job is None:
                self._stop.wait(self.poll_interval)
                continue
            self._run_job(job)

    def _run_job(self, job) -> None:
        active = _Active(job)
        with self._active_lock:
            self._active[job.id] = active
        try:
            job = self.queue.mark_running(
                job, campaign=job_campaign_stem(job.request))
            stem, _ = self.runner(job.request, cancel=active.cancel)
            self.queue.complete(job, campaign=stem or job.campaign)
        except ExecutionCancelled:
            self._after_cancelled(job, active)
        except ContainmentError as exc:
            # deterministic simulator escape: never retried; the
            # reproducer file is the attachment triage starts from
            repro = self._write_repro(exc, job)
            self.queue.fail(
                job,
                error=f"ContainmentError: "
                      f"{exc.args[0] if exc.args else exc}",
                repro=repro)
        except Exception as exc:  # noqa: BLE001 — transient, retried
            self._after_transient(job, active, exc)
        finally:
            with self._active_lock:
                self._active.pop(job.id, None)

    def _after_cancelled(self, job, active: "_Active") -> None:
        if active.timed_out:
            self.queue.fail(
                job, error=f"deadline exceeded "
                           f"({self.job_timeout:.0f}s wall clock)")
        elif active.requeue_on_cancel:
            # drain path: the job did nothing wrong — requeue so the
            # restarted service resumes from the shard checkpoints
            self.queue.requeue(job)
        else:
            self.queue.mark_cancelled(job)

    def _after_transient(self, job, active: "_Active", exc) -> None:
        attempts = job.attempts + 1
        error = f"{type(exc).__name__}: {exc}"
        if attempts > self.max_retries:
            self.queue.fail(job, error=f"gave up after {attempts} "
                                       f"attempts; last: {error}")
            return
        # capped exponential backoff, interruptible by cancel/stop so
        # a drain never blocks on a sleeping retry
        delay = _backoff(attempts, self.backoff_base, self.backoff_cap)
        woken = active.cancel.wait(delay)
        job = self.queue.requeue(job, error=error)
        if woken and not active.requeue_on_cancel \
                and not active.timed_out:
            # the wake came from a user cancel request, not a drain
            # or deadline — honour it on the requeued record
            self.queue.cancel(job.id)

    def _write_repro(self, exc: ContainmentError,
                     job) -> "str | None":
        from ..injectors.engine import write_containment_repro
        from ..injectors.golden import cache_dir

        try:
            return str(write_containment_repro(
                cache_dir() / "repros", exc, label=job.id))
        except OSError:
            return None
