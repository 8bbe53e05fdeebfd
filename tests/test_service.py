"""Durable campaign job service: queue, supervisor, crash recovery.

The acceptance bar from the issue: submissions are idempotent and
content-addressed; a request whose sidecar is already cached is
answered without ever touching a simulator (poisoned-simulator gate);
a SIGKILL'd worker's job is reclaimed after restart and completes
with a byte-identical ``CampaignResult.to_json()``; every queue
transition survives a process boundary because the whole state
machine lives in atomically-replaced JSON files.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.injectors.engine import ExecutionCancelled
from repro.service.queue import (
    InvalidRequest,
    JobQueue,
    QueueFull,
    TRANSITIONS,
    canonical_request,
    request_digest,
)
from repro.service.supervisor import Supervisor
from repro.uarch.exceptions import ContainmentError


def _request(**overrides) -> dict:
    raw = {"workload": "crc32", "injector": "svf", "n": 8,
           "seed": 770003}
    raw.update(overrides)
    return raw


def _wait_for(predicate, timeout: float = 20.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError("condition not met before deadline")


# ---------------------------------------------------------------------------
# canonical requests
# ---------------------------------------------------------------------------
class TestCanonicalRequest:
    def test_defaults_filled_and_digest_key_order_free(self):
        a = canonical_request({"workload": "crc32"})
        assert a["injector"] == "gefin" and a["structure"] == "RF"
        assert a["n"] == 200 and a["seed"] == 1
        b = canonical_request({"n": 200, "workload": "crc32",
                               "seed": 1})
        assert request_digest(a) == request_digest(b)

    def test_inapplicable_axes_do_not_change_identity(self):
        # a gefin request's model axis is nulled out, so supplying
        # one cannot fork the content address
        a = canonical_request(_request(injector="gefin",
                                       structure="RF"))
        b = canonical_request(_request(injector="gefin",
                                       structure="RF", model="WOI"))
        assert request_digest(a) == request_digest(b)

    @pytest.mark.parametrize("bad", [
        {"workload": "nope"},
        {"workload": "crc32", "injector": "nope"},
        {"workload": "crc32", "config": "nope"},
        {"workload": "crc32", "structure": "TLB"},
        {"workload": "crc32", "injector": "pvf", "model": "XX"},
        {"workload": "crc32", "n": 0},
        {"workload": "crc32", "n": True},
        {"workload": "crc32", "n": 10 ** 9},
        {"workload": "crc32", "seed": "one"},
        {"workload": "crc32", "hardened": "yes"},
        {"workload": "crc32", "planner": "three-level"},
        {"workload": "crc32", "planner": "two-level",
         "target_margin": 2.0},
        {"workload": "crc32", "planner": "two-level", "batch": 0},
        {"workload": "crc32", "sudo": True},
        "not a dict",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(InvalidRequest):
            canonical_request(bad)

    def test_rejects_svf_on_32bit_config(self):
        # the LLFI model is 64-bit only: the request must fail at
        # submission, not in the worker after a golden run
        with pytest.raises(InvalidRequest, match="64-bit"):
            canonical_request({"workload": "sha", "config": "cortex-a9",
                               "injector": "svf"})
        assert canonical_request({"workload": "sha",
                                  "config": "cortex-a9",
                                  "injector": "pvf"})["config"] \
            == "cortex-a9"


# ---------------------------------------------------------------------------
# the queue state machine
# ---------------------------------------------------------------------------
class TestJobQueue:
    def test_submit_is_idempotent_and_durable(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, created = queue.submit(_request())
        assert created and job.state == "queued"
        again, created_again = queue.submit(_request())
        assert not created_again and again.id == job.id
        # a different process sees the same record
        reopened = JobQueue(tmp_path)
        assert reopened.load(job.id).state == "queued"
        assert [j.id for j in reopened.jobs()] == [job.id]

    def test_fifo_position(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = [queue.submit(_request(seed=s))[0].id
               for s in (770001, 770002, 770003)]
        assert [queue.position(i) for i in ids] == [0, 1, 2]

    def test_bounded_queue_sheds(self, tmp_path):
        queue = JobQueue(tmp_path, max_depth=2, retry_after=7)
        queue.submit(_request(seed=770011))
        queue.submit(_request(seed=770012))
        with pytest.raises(QueueFull) as err:
            queue.submit(_request(seed=770013))
        assert err.value.retry_after == 7
        # a duplicate of a queued job still answers while full
        job, created = queue.submit(_request(seed=770011))
        assert not created and job.state == "queued"

    def test_lease_is_exclusive_and_transitions(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_request())
        leased = queue.lease("w0")
        assert leased.id == job.id and leased.state == "leased"
        assert leased.worker == "w0"
        assert queue.lease_path(job.id).exists()
        assert queue.lease("w1") is None      # nothing else queued
        running = queue.mark_running(leased, campaign="campaign-x")
        done = queue.complete(running)
        assert done.state == "done" and done.campaign == "campaign-x"
        assert not queue.lease_path(job.id).exists()
        assert [h["state"] for h in done.history] == \
            ["queued", "leased", "running", "done"]

    def test_illegal_transition_rejected(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_request())
        done = queue.complete(queue.mark_running(queue.lease("w0")))
        assert TRANSITIONS["done"] == frozenset()
        with pytest.raises(ValueError, match="illegal transition"):
            queue._transition(done, "leased")

    def test_reclaim_requeues_expired_lease(self, tmp_path):
        queue = JobQueue(tmp_path, lease_ttl=30.0)
        job, _ = queue.submit(_request())
        queue.mark_running(queue.lease("w0"))
        assert queue.reclaim() == []          # lease still fresh
        reclaimed = queue.reclaim(now=time.time() + 60)
        assert [j.id for j in reclaimed] == [job.id]
        assert reclaimed[0].state == "queued"
        assert reclaimed[0].attempts == 1

    def test_renew_defers_reclaim(self, tmp_path):
        queue = JobQueue(tmp_path, lease_ttl=30.0)
        queue.submit(_request())
        job = queue.lease("w0")
        queue.renew(job, now=time.time() + 100)
        assert queue.reclaim(now=time.time() + 60) == []

    def test_crash_loop_fails_terminally(self, tmp_path):
        queue = JobQueue(tmp_path, lease_ttl=30.0)
        job, _ = queue.submit(_request())
        for _ in range(2):
            queue.lease("w0")
            queue.reclaim(now=time.time() + 60, max_attempts=2)
        final = queue.load(job.id)
        assert final.state == "failed"
        assert "crash loop" in final.error

    def test_cancel_lifecycle(self, tmp_path):
        queue = JobQueue(tmp_path)
        assert queue.cancel("job-" + "0" * 16) is None
        job, _ = queue.submit(_request())
        cancelled = queue.cancel(job.id)
        assert cancelled.state == "cancelled"
        # cancel is idempotent on terminal jobs
        assert queue.cancel(job.id).state == "cancelled"
        # a running job only gets flagged; the supervisor finishes it
        job2, _ = queue.submit(_request(seed=770009))
        queue.mark_running(queue.lease("w0"))
        flagged = queue.cancel(job2.id)
        assert flagged.state == "running" and flagged.cancel_requested

    def test_lease_finalises_cancel_flagged_queued_job(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_request())
        loaded = queue.load(job.id)
        loaded.cancel_requested = True
        queue._write(loaded)
        assert queue.lease("w0") is None
        assert queue.load(job.id).state == "cancelled"

    def test_failed_job_resubmission_requeues_fresh(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_request())
        queue.fail(queue.lease("w0"), error="boom")
        again, created = queue.submit(_request())
        assert not created
        assert again.id == job.id and again.state == "queued"
        assert again.attempts == 0 and again.error is None

    def test_transitions_emit_job_update_events(self, tmp_path):
        from repro.obs.events import EventLog

        log = tmp_path / "events.jsonl"
        queue = JobQueue(tmp_path, events=EventLog(log))
        job, _ = queue.submit(_request())
        queue.complete(queue.mark_running(queue.lease("w0")),
                       campaign="campaign-x")
        records = [json.loads(line)
                   for line in log.read_text().splitlines()]
        assert [r["state"] for r in records] == \
            ["queued", "leased", "running", "done"]
        assert all(r["event"] == "job_update" and r["job"] == job.id
                   for r in records)
        # the sidecar stem rides under its own key so the report
        # aggregator never mistakes a job record for a campaign
        assert records[-1]["sidecar"] == "campaign-x"
        assert all("campaign" not in r for r in records)


# ---------------------------------------------------------------------------
# sidecar dedup: the poisoned-simulator gate
# ---------------------------------------------------------------------------
class TestSidecarDedup:
    def test_cached_campaign_never_resimulates(self, tmp_path,
                                               monkeypatch):
        from repro.injectors.campaign import run_campaign

        raw = _request(n=6, seed=91)
        baseline = run_campaign("crc32", "cortex-a72",
                                injector="svf", n=6, seed=91,
                                workers=1, progress=False)
        # poison every simulation entry point: a dedup'd submission
        # that touches any of them fails the test
        import repro.injectors.golden as golden_mod
        import repro.uarch.functional as functional_mod
        import repro.uarch.pipeline as pipeline_mod

        def boom(*args, **kwargs):
            raise AssertionError("dedup path ran a simulation")

        monkeypatch.setattr(golden_mod, "golden_run", boom)
        monkeypatch.setattr(pipeline_mod, "run_pipeline", boom)
        monkeypatch.setattr(pipeline_mod.PipelineEngine, "run", boom)
        monkeypatch.setattr(functional_mod, "run_functional", boom)
        monkeypatch.setattr(functional_mod.FunctionalEngine, "run",
                            boom)

        queue = JobQueue(tmp_path)
        job, created = queue.submit(raw)
        assert created
        assert job.state == "done" and job.cached
        sidecar = Path(os.environ["REPRO_CACHE_DIR"],
                       f"{job.campaign}.json")
        data = json.loads(sidecar.read_text())
        assert data["workload"] == "crc32"
        assert len(data["results"]) == len(baseline.results)

    def test_cached_planned_campaign_dedups(self, tmp_path,
                                            monkeypatch):
        """A two-level request is keyed like a naive one: its
        existing sidecar answers the submission, born done."""
        from repro.injectors.campaign import CampaignSpec, run_campaign
        from repro.service.supervisor import job_campaign_stem

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        axes = dict(injector="svf", n=16, seed=5, planner="two-level",
                    target_margin=0.2)
        run_campaign("crc32", "cortex-a72", workers=1, progress=False,
                     **axes)
        stem = CampaignSpec("crc32", "cortex-a72", **axes).path().stem
        assert stem.startswith("campaign-planned-svf-crc32-")

        raw = _request(**axes)
        job, created = JobQueue(tmp_path / "jobs").submit(raw)
        assert created
        assert job.state == "done" and job.cached
        assert job.campaign == stem
        assert job_campaign_stem(canonical_request(raw)) == stem

    def test_uncached_request_queues_normally(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_request(seed=987654))
        assert job.state == "queued" and not job.cached


# ---------------------------------------------------------------------------
# the supervisor (fake runners: lifecycle without simulating)
# ---------------------------------------------------------------------------
def _supervise(queue, runner, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("poll_interval", 0.02)
    return Supervisor(queue, runner=runner, **kwargs).start()


class TestSupervisor:
    def test_success_path(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_request())
        sup = _supervise(queue, lambda request, cancel=None:
                         ("campaign-fake", None))
        try:
            final = _wait_for(lambda: (queue.load(job.id)
                                       if queue.load(job.id).state
                                       == "done" else None))
        finally:
            sup.stop()
        assert final.campaign == "campaign-fake"
        assert final.attempts == 0

    def test_transient_failure_retries_then_succeeds(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_request())
        calls = []

        def flaky(request, cancel=None):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient wobble")
            return "campaign-fake", None

        sup = _supervise(queue, flaky, backoff_base=0.01,
                         backoff_cap=0.02)
        try:
            final = _wait_for(lambda: (queue.load(job.id)
                                       if queue.load(job.id).state
                                       == "done" else None))
        finally:
            sup.stop()
        assert len(calls) == 2 and final.attempts == 1

    def test_gives_up_after_max_retries(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_request())

        def broken(request, cancel=None):
            raise RuntimeError("permanently broken")

        sup = _supervise(queue, broken, max_retries=1,
                         backoff_base=0.01, backoff_cap=0.02)
        try:
            final = _wait_for(lambda: (queue.load(job.id)
                                       if queue.load(job.id).state
                                       == "failed" else None))
        finally:
            sup.stop()
        assert "gave up after 2 attempts" in final.error
        assert "permanently broken" in final.error

    def test_containment_fails_fast_with_repro(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_request())
        calls = []

        def escaping(request, cancel=None):
            calls.append(1)
            raise ContainmentError("flip escaped the simulator",
                                   context={"pc": 0x40, "cycle": 7})

        sup = _supervise(queue, escaping, max_retries=5)
        try:
            final = _wait_for(lambda: (queue.load(job.id)
                                       if queue.load(job.id).state
                                       == "failed" else None))
        finally:
            sup.stop()
        # deterministic failure: exactly one attempt, never retried
        assert len(calls) == 1
        assert final.error.startswith("ContainmentError")
        assert final.repro and Path(final.repro).exists()
        repro = json.loads(Path(final.repro).read_text())
        assert repro["context"]["pc"] == 0x40

    def test_cancel_stops_at_shard_boundary(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_request())
        started = threading.Event()

        def waits(request, cancel=None):
            started.set()
            if cancel.wait(20):
                raise ExecutionCancelled("cancelled at a boundary")
            raise AssertionError("cancel never arrived")

        sup = _supervise(queue, waits)
        try:
            assert started.wait(10)
            queue.cancel(job.id)
            final = _wait_for(lambda: (queue.load(job.id)
                                       if queue.load(job.id).state
                                       == "cancelled" else None))
        finally:
            sup.stop()
        assert final.state == "cancelled"

    def test_drain_requeues_running_job(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_request())
        started = threading.Event()

        def waits(request, cancel=None):
            started.set()
            if cancel.wait(20):
                raise ExecutionCancelled("stopping for drain")
            raise AssertionError("drain never arrived")

        sup = _supervise(queue, waits)
        assert started.wait(10)
        sup.drain(grace=0.1)
        final = queue.load(job.id)
        # requeued, not cancelled: a restarted supervisor resumes it
        assert final.state == "queued" and final.attempts == 1

    def test_deadline_fails_overrunning_job(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_request())

        def endless(request, cancel=None):
            if cancel.wait(20):
                raise ExecutionCancelled("deadline cancel")
            raise AssertionError("deadline never fired")

        sup = _supervise(queue, endless, job_timeout=0.1)
        try:
            final = _wait_for(lambda: (queue.load(job.id)
                                       if queue.load(job.id).state
                                       == "failed" else None))
        finally:
            sup.stop()
        assert "deadline exceeded" in final.error


# ---------------------------------------------------------------------------
# crash recovery: SIGKILL mid-campaign, restart, byte-identical
# ---------------------------------------------------------------------------
_CRASH_WORKER = """
import sys, time
from repro.service.queue import JobQueue
from repro.service.supervisor import Supervisor

queue = JobQueue(sys.argv[1], lease_ttl=1.0)
job, _ = queue.submit({"workload": "fft", "injector": "svf",
                       "n": 40, "seed": 7})
print(job.id, flush=True)
Supervisor(queue, workers=1, poll_interval=0.1).start()
time.sleep(600)
"""

_RECOVERY_WORKER = """
import sys, time
from repro.service.queue import JobQueue
from repro.service.supervisor import Supervisor

queue = JobQueue(sys.argv[1], lease_ttl=1.0)
sup = Supervisor(queue, workers=1, poll_interval=0.1).start()
deadline = time.time() + 120
job_id = sys.argv[2]
while time.time() < deadline:
    job = queue.load(job_id)
    if job is not None and job.state in ("done", "failed"):
        break
    time.sleep(0.1)
sup.stop()
print(job.state, job.campaign, job.attempts, flush=True)
"""


class TestCrashRecovery:
    def _env(self, cache: Path) -> dict:
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(cache)
        env["REPRO_WORKERS"] = "1"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH",
                                                       "")
        return env

    def test_sigkilled_job_reclaimed_byte_identical(self, tmp_path):
        baseline_cache = tmp_path / "baseline"
        crash_cache = tmp_path / "crash"
        queue_root = tmp_path / "queue"
        for d in (baseline_cache, crash_cache, queue_root):
            d.mkdir()

        # 1. the uninterrupted reference run, in its own cache
        baseline = subprocess.run(
            [sys.executable, "-c",
             "from repro.injectors.campaign import run_campaign, "
             "CampaignSpec\n"
             "run_campaign('fft', 'cortex-a72', injector='svf', "
             "n=40, seed=7, workers=1, progress=False)\n"
             "print(CampaignSpec('fft', 'cortex-a72', "
             "injector='svf', n=40, seed=7).path())"],
            env=self._env(baseline_cache), capture_output=True,
            text=True, timeout=120)
        assert baseline.returncode == 0, baseline.stderr
        baseline_path = Path(baseline.stdout.strip().splitlines()[-1])
        baseline_bytes = baseline_path.read_bytes()

        # 2. start a worker on a fresh cache and SIGKILL it once at
        # least two shards have checkpointed (mid-campaign, not idle)
        worker = subprocess.Popen(
            [sys.executable, "-c", _CRASH_WORKER, str(queue_root)],
            env=self._env(crash_cache), stdout=subprocess.PIPE,
            text=True)
        try:
            job_id = worker.stdout.readline().strip()
            assert job_id.startswith("job-")
            events = crash_cache / "events.jsonl"

            def shards_done():
                try:
                    text = events.read_text()
                except OSError:
                    return 0
                return text.count('"event": "shard_done"') \
                    + text.count('"event":"shard_done"')

            _wait_for(lambda: shards_done() >= 2, timeout=60,
                      interval=0.05)
            worker.kill()
            worker.wait(timeout=30)
        finally:
            if worker.poll() is None:
                worker.kill()

        killed = JobQueue(queue_root).load(job_id)
        assert killed.state in ("leased", "running")

        # 3. a restarted supervisor reclaims the expired lease and
        # resumes from the shard checkpoints
        recovery = subprocess.run(
            [sys.executable, "-c", _RECOVERY_WORKER,
             str(queue_root), job_id],
            env=self._env(crash_cache), capture_output=True,
            text=True, timeout=180)
        assert recovery.returncode == 0, recovery.stderr
        state, campaign, attempts = \
            recovery.stdout.strip().splitlines()[-1].split()
        assert state == "done"
        assert int(attempts) >= 1        # the reclaim bumped it
        recovered = crash_cache / f"{campaign}.json"
        assert recovered.name == baseline_path.name
        assert recovered.read_bytes() == baseline_bytes
