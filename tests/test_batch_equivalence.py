"""Differential equivalence of the batched bit-parallel engine.

The batched engine (:mod:`repro.uarch.batch`) packs up to 64
injection runs into uint64 bit-planes behind one leader replay of the
golden trajectory.  Its contract is the same as the checkpoint fast
path's: *byte-identical results*.  For every workload, every
functional injector and every fault model, a batched campaign must
produce exactly the ``CampaignResult.to_json()`` bytes the scalar
path produces — including the adversarial placements (the trap in
lane 0, in lane 63, an eviction in the middle of a full batch) and
with the fast path off.  These tests hold it to that, plus the
round-trip the eviction path rests on (a materialised lane state is a
lossless scalar state) and the cache rules (batched campaigns share
the scalar cache entry, their shard layout is kept apart, schema
bumps invalidate).
"""

from __future__ import annotations

import json

import pytest

from repro.injectors import golden as golden_mod
from repro.injectors.archinj import build_pvf_action, run_one_pvf
from repro.injectors.batch import (plan_lane_groups, run_batched_pvf,
                                   run_batched_svf)
from repro.injectors.campaign import draw_fault
from repro.injectors.campaign import run_campaign
from repro.injectors.golden import golden_run
from repro.injectors.llfi import run_one_svf
from repro.obs.metrics import (BATCH_BATCHES, BATCH_EARLY_RETIRES,
                               BATCH_FALLBACKS, BATCH_LANES_PACKED,
                               BATCH_SCALAR_EVICTIONS, MetricsRegistry,
                               set_registry)
from repro.uarch import batch as batch_mod
from repro.uarch import snapshot
from repro.uarch.config import config_by_name
from repro.uarch.functional import FunctionalEngine
from repro.workloads.suite import load_workload
from repro.kernel.loader import build_system_image

WORKLOAD = "crc32"
CONFIG = "cortex-a72"
ISA = "mrisc64"

pytestmark = pytest.mark.skipif(not batch_mod.batch_available(),
                                reason="numpy not installed")


@pytest.fixture(scope="module")
def golden():
    return golden_run(WORKLOAD, CONFIG)


def _actions(injector, golden, n, model=None, seed=3, workload=WORKLOAD):
    return [draw_fault(injector, workload, CONFIG, model, seed, i, golden)
            for i in range(n)]


def _differential_pvf(actions, golden, workload=WORKLOAD):
    """A batch of pvf actions against per-action scalar runs."""
    scalar = [run_one_pvf(workload, ISA, a, golden) for a in actions]
    batched = run_batched_pvf(workload, ISA, actions, golden)
    assert batched == scalar
    return batched


# ---------------------------------------------------------------------------
# lane-count resolution (flag > env > off)
# ---------------------------------------------------------------------------
class TestResolve:
    def test_off_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH", raising=False)
        assert batch_mod.resolve_batch_lanes() == 0

    @pytest.mark.parametrize("env", ["0", "false", "no", "off", ""])
    def test_falsy_env_disables(self, env, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", env)
        assert batch_mod.resolve_batch_lanes() == 0

    @pytest.mark.parametrize("env,lanes", [
        ("1", batch_mod.DEFAULT_LANES),
        ("true", batch_mod.DEFAULT_LANES),
        ("24", 24),
        ("999", batch_mod.MAX_LANES),
        ("-3", 0),
    ])
    def test_env_widths(self, env, lanes, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", env)
        assert batch_mod.resolve_batch_lanes() == lanes

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "64")
        assert batch_mod.resolve_batch_lanes(8) == 8
        assert batch_mod.resolve_batch_lanes(0) == 0
        assert batch_mod.resolve_batch_lanes(100) == batch_mod.MAX_LANES

    def test_numpy_absent_disables(self, monkeypatch):
        monkeypatch.setattr(batch_mod, "np", None)
        assert batch_mod.resolve_batch_lanes(64) == 0
        assert not batch_mod.batch_available()


# ---------------------------------------------------------------------------
# campaign-level byte equality, per workload / injector / model
# ---------------------------------------------------------------------------
def _campaign_pair(workload, monkeypatch=None, lanes=8, **kwargs):
    kwargs = dict(n=12, seed=1, use_cache=False, **kwargs)
    scalar = run_campaign(workload, CONFIG, **kwargs)
    batched = run_campaign(workload, CONFIG, batch_lanes=lanes,
                           **kwargs)
    assert batched.to_json() == scalar.to_json()
    return scalar, batched


class TestCampaignEquivalence:
    @pytest.mark.parametrize("model", ["WD", "WOI", "WI"])
    def test_pvf_models_agree(self, model):
        _campaign_pair(WORKLOAD, injector="pvf", model=model)

    def test_svf_agrees(self):
        _campaign_pair(WORKLOAD, injector="svf")

    @pytest.mark.parametrize("workload", ["sha", "qsort"])
    def test_other_workloads_agree_pvf(self, workload):
        _campaign_pair(workload, injector="pvf", model="WD")

    @pytest.mark.parametrize("workload", ["sha", "qsort"])
    def test_other_workloads_agree_svf(self, workload):
        _campaign_pair(workload, injector="svf")

    def test_agrees_with_fastpath_off(self):
        _campaign_pair(WORKLOAD, injector="pvf", model="WD",
                       fastpath=False)

    def test_aggregates_agree(self):
        scalar, batched = _campaign_pair(WORKLOAD, injector="svf")
        assert batched.vulnerability() == scalar.vulnerability()
        assert batched.hvf() == scalar.hvf()
        assert batched.fpm_rates() == scalar.fpm_rates()

    def test_full_width_batch_agrees(self, golden):
        actions = _actions("pvf", golden, 64, model="WD", seed=7)
        _differential_pvf(actions, golden)


# ---------------------------------------------------------------------------
# gefin has no batched mode: it must fall back, observably
# ---------------------------------------------------------------------------
class TestGefinFallback:
    def test_gefin_falls_back_to_scalar(self):
        kwargs = dict(injector="gefin", structure="RF", n=6, seed=1,
                      use_cache=False)
        scalar = run_campaign(WORKLOAD, CONFIG, **kwargs)
        registry = MetricsRegistry(enabled=True)
        set_registry(registry)
        try:
            batched = run_campaign(WORKLOAD, CONFIG, batch_lanes=8,
                                   **kwargs)
        finally:
            set_registry(None)
        assert batched.to_json() == scalar.to_json()
        counters = registry.snapshot()["counters"]
        assert counters.get(BATCH_FALLBACKS, 0) == 1
        assert counters.get(BATCH_BATCHES, 0) == 0


# ---------------------------------------------------------------------------
# the batch actually engages (it must not silently degrade to scalar)
# ---------------------------------------------------------------------------
class TestBatchEngages:
    def test_batches_and_retires_are_observed(self):
        registry = MetricsRegistry(enabled=True)
        set_registry(registry)
        try:
            run_campaign("sha", CONFIG, injector="pvf", model="WD",
                         n=24, seed=1, use_cache=False, batch_lanes=24)
        finally:
            set_registry(None)
        counters = registry.snapshot()["counters"]
        assert counters.get(BATCH_BATCHES, 0) == 1
        assert counters.get(BATCH_LANES_PACKED, 0) == 24
        # WD faults on sha reconverge heavily; lanes must retire early
        assert counters.get(BATCH_EARLY_RETIRES, 0) > 0

    def test_lane_groups_cover_all_indices(self, golden):
        groups = plan_lane_groups("pvf", 23, 8, workload=WORKLOAD,
                                  config_name=CONFIG, seed=1,
                                  golden=golden, model="WD")
        assert [len(g) for g in groups] == [8, 8, 7]
        assert sorted(i for g in groups for i in g) == list(range(23))
        # groups are time-sorted so a batch shares one restore point
        whens = [[draw_fault("pvf", WORKLOAD, CONFIG, "WD", 1, i,
                             golden).when for i in g]
                 for g in groups]
        flat = [w for g in whens for w in g]
        assert flat == sorted(flat)


# ---------------------------------------------------------------------------
# eviction: the materialised lane state is a lossless scalar state
# ---------------------------------------------------------------------------
class TestEvictionRoundTrip:
    def _state_outcomes(self, golden):
        actions = _actions("svf", golden, 64)
        outcomes, image, _store = __import__(
            "repro.injectors.batch", fromlist=["_run_batch"]
        )._run_batch(WORKLOAD, ISA, "host", actions, golden, False,
                     None)
        states = [(lane, o) for lane, o in enumerate(outcomes)
                  if o.kind == "state"]
        assert states, "expected structural divergence in a svf batch"
        return actions, states

    def test_materialised_state_round_trips(self, golden):
        _actions_, states = self._state_outcomes(golden)
        config = config_by_name(CONFIG)
        for _lane, outcome in states[:3]:
            image = build_system_image(load_workload(WORKLOAD,
                                                     config.isa))
            engine = FunctionalEngine(
                image, kernel="host",
                max_instructions=golden.max_instructions)
            snapshot.restore_functional(engine, outcome.state)
            recaptured = snapshot.capture_functional(engine)
            assert recaptured == outcome.state

    def test_restored_digest_is_deterministic(self, golden):
        _actions_, states = self._state_outcomes(golden)
        _lane, outcome = states[0]
        config = config_by_name(CONFIG)
        digests = []
        for _ in range(2):
            image = build_system_image(load_workload(WORKLOAD,
                                                     config.isa))
            engine = FunctionalEngine(
                image, kernel="host",
                max_instructions=golden.max_instructions)
            snapshot.restore_functional(engine, outcome.state)
            digests.append(snapshot.functional_digest(engine))
        assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# adversarial lane placements: traps and evictions at batch edges
# ---------------------------------------------------------------------------
class TestEvictionBoundaries:
    def _wd(self, golden, index, seed=7):
        return draw_fault("pvf", WORKLOAD, CONFIG, "WD", seed, index,
                          golden)

    def _trap(self, golden):
        """A WI opcode-field flip: decodes to garbage and traps."""
        import random as _random
        rng = _random.Random("boundary-trap")
        for _ in range(64):
            action = build_pvf_action("WI", rng, golden, 64)
            result = run_one_pvf(WORKLOAD, ISA, action, golden)
            if result.outcome in ("crash", "detected"):
                return action
        raise AssertionError("no trapping WI action found")

    def test_trap_in_lane_0(self, golden):
        actions = [self._trap(golden)] + \
            [self._wd(golden, i) for i in range(1, 64)]
        _differential_pvf(actions, golden)

    def test_trap_in_lane_63(self, golden):
        actions = [self._wd(golden, i) for i in range(63)] + \
            [self._trap(golden)]
        _differential_pvf(actions, golden)

    def test_eviction_mid_batch(self, golden):
        actions = [self._wd(golden, i) for i in range(64)]
        actions[31] = self._trap(golden)
        _differential_pvf(actions, golden)

    def test_every_lane_evicts(self, golden):
        trap = self._trap(golden)
        actions = [trap] * 8
        _differential_pvf(actions, golden)

    def test_single_lane_batch(self, golden):
        _differential_pvf([self._wd(golden, 5)], golden)

    def test_svf_batch_agrees_lanewise(self, golden):
        actions = _actions("svf", golden, 16, seed=11)
        scalar = [run_one_svf(WORKLOAD, ISA, a, golden)
                  for a in actions]
        batched = run_batched_svf(WORKLOAD, ISA, actions, golden)
        assert batched == scalar


# ---------------------------------------------------------------------------
# cache rules: shared entry, separate shards, schema invalidation
# ---------------------------------------------------------------------------
class TestCacheRules:
    def test_batched_campaign_shares_scalar_cache_entry(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        kwargs = dict(injector="svf", n=6, seed=9, use_cache=True)
        scalar = run_campaign(WORKLOAD, CONFIG, **kwargs)
        # batching is an execution strategy, not a sampling change:
        # the batched campaign must *hit* the scalar cache entry
        batched = run_campaign(WORKLOAD, CONFIG, batch_lanes=8,
                               **kwargs)
        assert batched.to_json() == scalar.to_json()
        assert len(sorted(tmp_path.glob("campaign-svf-*.json"))) == 1

    def test_batched_shards_are_kept_apart(self, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_campaign(WORKLOAD, CONFIG, injector="svf", n=6, seed=9,
                     use_cache=True, batch_lanes=8)
        # lane-group shards live under a "-l<lanes>" stem so scalar
        # and batched checkpoints of one campaign can never mix
        # (shards are cleaned up after a completed campaign, so the
        # layout is observable via the cache entry itself)
        entries = sorted(tmp_path.glob("campaign-svf-*.json"))
        assert len(entries) == 1
        payload = json.loads(entries[0].read_text())
        assert len(payload["results"]) == 6

    def test_schema_bump_recomputes_batched_campaign(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        kwargs = dict(injector="svf", n=4, seed=9, use_cache=True,
                      batch_lanes=8)
        first = run_campaign(WORKLOAD, CONFIG, **kwargs)
        assert len(sorted(tmp_path.glob("campaign-svf-*.json"))) == 1
        monkeypatch.setattr(golden_mod, "CACHE_SCHEMA_VERSION",
                            golden_mod.CACHE_SCHEMA_VERSION + 1)
        bumped = run_campaign(WORKLOAD, CONFIG, **kwargs)
        assert bumped.results == first.results
        assert len(sorted(tmp_path.glob("campaign-svf-*.json"))) == 2
