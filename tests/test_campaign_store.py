"""Campaign store: cache keys, invalidation, parallel execution path."""

from __future__ import annotations

import json

from repro.injectors.campaign import CampaignSpec, run_campaign
from repro.injectors.golden import cache_dir, workload_digest


class TestCacheKeys:
    def test_digest_differs_per_workload_and_hardening(self):
        a = workload_digest("sha", "mrisc64", False)
        b = workload_digest("qsort", "mrisc64", False)
        c = workload_digest("sha", "mrisc64", True)
        assert len({a, b, c}) == 3

    def test_digest_stable(self):
        assert workload_digest("sha", "mrisc64", False) == \
            workload_digest("sha", "mrisc64", False)

    def test_campaign_paths_distinct(self):
        p1 = CampaignSpec("sha", "cortex-a72", injector="svf", n=10,
                          seed=1).path()
        p2 = CampaignSpec("sha", "cortex-a72", injector="svf", n=10,
                          seed=2).path()
        assert p1 != p2
        assert str(p1).startswith(str(cache_dir()))

    def test_corrupt_cache_entry_recomputed(self):
        campaign = run_campaign("crc32", "cortex-a72", injector="svf",
                                n=8, seed=77)
        # find & corrupt the stored file
        matches = [p for p in cache_dir().glob("campaign-svf-crc32-*")
                   if json.loads(p.read_text())["seed"] == 77]
        assert matches
        matches[0].write_text("{ not json")
        again = run_campaign("crc32", "cortex-a72", injector="svf",
                             n=8, seed=77)
        assert again.vulnerability() == campaign.vulnerability()

    def test_no_cache_flag_bypasses_store(self):
        first = run_campaign("crc32", "cortex-a72", injector="svf",
                             n=5, seed=88, use_cache=False)
        second = run_campaign("crc32", "cortex-a72", injector="svf",
                              n=5, seed=88, use_cache=False)
        assert [r.outcome for r in first.results] == \
            [r.outcome for r in second.results]


class TestParallelPath:
    def test_worker_pool_matches_serial(self):
        serial = run_campaign("crc32", "cortex-a72", injector="svf",
                              n=12, seed=99, use_cache=False,
                              workers=1)
        parallel = run_campaign("crc32", "cortex-a72", injector="svf",
                                n=12, seed=99, use_cache=False,
                                workers=2)
        assert [r.outcome for r in serial.results] == \
            [r.outcome for r in parallel.results]

    def test_default_workers_env(self, monkeypatch):
        from repro.injectors.campaign import default_workers

        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers(1000) == 3
        monkeypatch.delenv("REPRO_WORKERS")
        assert default_workers(4) == 1
