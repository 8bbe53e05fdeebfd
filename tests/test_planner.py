"""Two-level statistical campaign planner (repro.core.planner).

Small sample counts throughout: these tests verify the planner's
*machinery* — deterministic partitioning, stream subsampling,
naive-equivalence, monotone stopping, schema invalidation — not
statistical precision (benchmarks/bench_perf_planner.py owns the
>=5x / Wilson-containment gate).
"""

from __future__ import annotations

import json

import pytest

from repro.core import planner as planner_mod
from repro.core.planner import (
    EquivClass,
    _allocate,
    _stratified_estimate,
    enumerate_stream,
    partition_classes,
    planner_table,
)
from repro.faults.sampling import wilson_interval
from repro.injectors import golden as golden_mod
from repro.injectors.campaign import run_campaign
from repro.injectors.golden import golden_run

WORKLOAD = "crc32"
CONFIG = "cortex-a72"


class TestPartition:
    def test_partition_deterministic(self, a72):
        a = partition_classes(WORKLOAD, a72, structure="RF")
        b = partition_classes(WORKLOAD, a72, structure="RF")
        assert a == b

    def test_partition_covers_population(self, a72):
        classes = partition_classes(WORKLOAD, a72, structure="RF")
        assert len(classes) == (planner_mod.PLAN_PHASES
                                * planner_mod.PLAN_REGIONS)
        assert sum(c.weight for c in classes) == pytest.approx(1.0)
        assert all(0.0 <= c.live <= 1.0 for c in classes)

    def test_arch_injectors_single_class(self, a72):
        for injector in ("pvf", "svf"):
            classes = partition_classes(WORKLOAD, a72,
                                        injector=injector)
            assert len(classes) == 1
            assert classes[0].weight == 1.0

    def test_gefin_requires_structure(self, a72):
        with pytest.raises(ValueError):
            partition_classes(WORKLOAD, a72, structure=None)

    def test_stream_enumeration_deterministic_and_total(self, a72):
        golden = golden_run(WORKLOAD, CONFIG)
        a = enumerate_stream(WORKLOAD, a72, "RF", 1, 40, golden)
        b = enumerate_stream(WORKLOAD, a72, "RF", 1, 40, golden)
        assert a == b
        # every naive index lands in exactly one class
        flat = sorted(i for members in a for i in members)
        assert flat == list(range(40))
        c = enumerate_stream(WORKLOAD, a72, "RF", 2, 40, golden)
        assert a != c


class TestAllocation:
    def test_representatives_first(self):
        weights = [0.5, 0.3, 0.2]
        alloc = _allocate(3, weights, [0, 0, 0], [10, 10, 10])
        assert alloc == [1, 1, 1]

    def test_proportional_and_exact(self):
        weights = [0.5, 0.3, 0.2]
        alloc = _allocate(20, weights, [1, 1, 1], [99, 99, 99])
        assert sum(alloc) == 20
        assert alloc[0] > alloc[1] > alloc[2]

    def test_respects_population_caps(self):
        weights = [0.9, 0.1]
        alloc = _allocate(10, weights, [0, 0], [3, 20])
        assert alloc[0] <= 3
        assert sum(alloc) == 10

    def test_skips_zero_weight_classes(self):
        alloc = _allocate(8, [0.0, 1.0], [0, 0], [10, 10])
        assert alloc[0] == 0 and alloc[1] == 8


class TestEstimator:
    def test_pure_sample_mean_without_prior(self):
        est = _stratified_estimate([0.5, 0.5], [False, False],
                                   [10, 10], [5, 1])
        assert est == pytest.approx(0.5 * 0.5 + 0.5 * 0.1)

    def test_pruned_classes_contribute_zero(self):
        est = _stratified_estimate([0.5, 0.5], [False, True],
                                   [10, 0], [10, 0])
        assert est == pytest.approx(0.5)

    def test_prior_pulls_empty_cells(self):
        est = _stratified_estimate([1.0], [False], [0], [0],
                                   prior_p=0.25, prior_strength=4.0)
        assert est == pytest.approx(0.25)


class TestPlannedCampaign:
    N = 40

    def test_sidecar_byte_stable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        kwargs = dict(structure="RF", n=self.N, seed=1,
                      planner="two-level", target_margin=0.1)
        run_campaign(WORKLOAD, CONFIG, **kwargs)
        path = sorted(tmp_path.glob("campaign-planned-*.json"))[0]
        first = path.read_bytes()
        path.unlink()
        # recompute (parallel this time) — must rewrite the same bytes
        run_campaign(WORKLOAD, CONFIG, workers=2, **kwargs)
        assert path.read_bytes() == first
        # and a cache hit must not rewrite anything
        before = path.stat().st_mtime_ns
        cached = run_campaign(WORKLOAD, CONFIG, **kwargs)
        assert path.stat().st_mtime_ns == before
        assert cached.plan is not None

    def test_results_subset_of_naive(self, tmp_path, monkeypatch):
        """Common random numbers: every planned injection reuses a
        naive (seed, index) site, so planned results are a subset of
        the naive campaign's result multiset."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        naive = run_campaign(WORKLOAD, CONFIG, structure="RF",
                             n=self.N, seed=1)
        planned = run_campaign(WORKLOAD, CONFIG, structure="RF",
                               n=self.N, seed=1, planner="two-level",
                               target_margin=0.1)
        pool = [(r.outcome, r.vulnerable) for r in naive.results]
        for result in planned.results:
            pool.remove((result.outcome, result.vulnerable))

    def test_full_budget_equals_naive(self, tmp_path, monkeypatch):
        """At full budget the subsample IS the population: the
        planner's estimate must equal the naive campaign's exactly
        (up to the sidecar's 6-decimal rounding)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        naive = run_campaign(WORKLOAD, CONFIG, structure="RF",
                             n=self.N, seed=1)
        planned = run_campaign(WORKLOAD, CONFIG, structure="RF",
                               n=self.N, seed=1, planner="two-level",
                               target_margin=1e-9)
        assert planned.plan["actual_n"] == self.N
        assert not planned.plan["stopped_early"]
        assert planned.plan["estimate"] == pytest.approx(
            naive.vulnerability(), abs=1e-6)

    def test_estimate_within_naive_wilson(self, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        naive = run_campaign(WORKLOAD, CONFIG, structure="RF",
                             n=self.N, seed=1)
        vulnerable = sum(r.vulnerable for r in naive.results)
        low, high = wilson_interval(vulnerable, self.N,
                                    confidence=0.99)
        weight = naive.occupancy_weight
        planned = run_campaign(WORKLOAD, CONFIG, structure="RF",
                               n=self.N, seed=1, planner="two-level",
                               target_margin=0.05)
        assert weight * low <= planned.plan["estimate"] \
            <= weight * high

    def test_early_stopping_monotone(self, tmp_path, monkeypatch):
        """Looser targets can never cost more injections."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spent = [
            run_campaign(
                WORKLOAD, CONFIG, structure="RF", n=self.N, seed=1,
                planner="two-level",
                target_margin=margin).plan["actual_n"]
            for margin in (0.02, 0.08, 0.3)]
        assert spent == sorted(spent, reverse=True)
        assert spent[0] <= self.N

    def test_planned_arch_campaign_is_naive_prefix(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        naive = run_campaign(WORKLOAD, CONFIG, injector="svf",
                             n=24, seed=1)
        planned = run_campaign(WORKLOAD, CONFIG, injector="svf", n=24,
                               seed=1, planner="two-level",
                               target_margin=0.2)
        k = planned.plan["actual_n"]
        assert planned.results == naive.results[:k]

    def test_run_campaign_delegates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        campaign = run_campaign(WORKLOAD, CONFIG, structure="RF",
                                n=self.N, seed=1,
                                planner="two-level",
                                target_margin=0.1)
        assert campaign.plan is not None
        assert campaign.plan["planner"] == "two-level"
        with pytest.raises(ValueError):
            run_campaign(WORKLOAD, CONFIG, structure="RF", n=4,
                         planner="bogus")

    def test_cancel_stops_before_sidecar(self, tmp_path, monkeypatch):
        """A set cancel event stops a planned campaign at its first
        batch boundary, as it stops a naive one; no sidecar lands."""
        import threading

        from repro.injectors.campaign import CampaignSpec
        from repro.injectors.engine import ExecutionCancelled

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cancel = threading.Event()
        cancel.set()
        kwargs = dict(injector="svf", n=16, seed=5,
                      planner="two-level", target_margin=0.2)
        with pytest.raises(ExecutionCancelled):
            run_campaign(WORKLOAD, CONFIG, cancel=cancel, **kwargs)
        assert not CampaignSpec(WORKLOAD, CONFIG, **kwargs).path().exists()

    def test_schema_invalidates_stale_plan_sidecar(self, tmp_path,
                                                   monkeypatch):
        """Schema-4 invalidation: a planned sidecar written under a
        different engine schema is stale even on the same path."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        kwargs = dict(structure="RF", n=self.N, seed=1,
                      planner="two-level", target_margin=0.1)
        first = run_campaign(WORKLOAD, CONFIG, **kwargs)
        path = sorted(tmp_path.glob("campaign-planned-*.json"))[0]
        entry = json.loads(path.read_text())
        assert entry["schema"] == golden_mod.CACHE_SCHEMA_VERSION

        entry["schema"] = golden_mod.CACHE_SCHEMA_VERSION - 1
        entry["results"] = []
        entry["plan"] = None  # a stale hit would lose the plan
        path.write_text(json.dumps(entry))
        again = run_campaign(WORKLOAD, CONFIG, **kwargs)
        assert again.to_json() == first.to_json()
        assert again.plan is not None
        fresh = json.loads(path.read_text())
        assert fresh["schema"] == golden_mod.CACHE_SCHEMA_VERSION

        # a schema bump moves the cache key: old entries miss
        monkeypatch.setattr(golden_mod, "CACHE_SCHEMA_VERSION",
                            golden_mod.CACHE_SCHEMA_VERSION + 1)
        bumped = run_campaign(WORKLOAD, CONFIG, **kwargs)
        assert bumped.results == first.results
        assert len(sorted(
            tmp_path.glob("campaign-planned-*.json"))) == 2

    def test_planner_table_rows(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        naive = run_campaign(WORKLOAD, CONFIG, structure="RF",
                             n=self.N, seed=1)
        planned = run_campaign(WORKLOAD, CONFIG, structure="RF",
                               n=self.N, seed=1, planner="two-level",
                               target_margin=0.1)
        rows = planner_table([naive, planned])
        assert len(rows) == 1  # naive campaigns carry no plan
        row = rows[0]
        assert row["planned_n"] == self.N
        assert row["actual_n"] == planned.plan["actual_n"]
        assert row["savings"] == planned.plan["savings"]


def test_equiv_class_is_frozen():
    cls = EquivClass(phase=0, region=0, weight=0.5, live=1.0)
    with pytest.raises(AttributeError):
        cls.weight = 0.9
