"""Pinned campaign sidecar names.

A campaign's identity is its sidecar path, derived from one cache-key
tuple per campaign kind.  The tracked warm caches (``.repro-cache/``,
``tests/.test-cache/``) only hit while those tuples hash to the same
names, so a reordered or re-typed tuple must fail here, fast, rather
than silently orphan them.  A deliberate key change (a schema bump, a
new workload image) re-records the names below.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.injectors.campaign import CampaignSpec, run_campaign
from repro.uarch.config import CORTEX_A72

#: the tracked warm cache the benches and figures read
WARM_CACHE = Path(__file__).resolve().parents[1] / ".repro-cache"

PINNED = [
    (dict(workload="sha", injector="gefin", structure="RF", n=40,
          seed=1),
     "campaign-gefin-sha-05192e790dcded44cc87.json"),
    (dict(workload="sha", injector="pvf", model="WOI", n=40, seed=1),
     "campaign-pvf-sha-de19962b59ffbe294512.json"),
    (dict(workload="crc32", injector="svf", n=16, seed=5),
     "campaign-svf-crc32-45ea8319ef33495e5b28.json"),
    (dict(workload="qsort", injector="gefin", structure="L1D", n=24,
          seed=2, hardened=True),
     "campaign-gefin-qsort-7a65421261407309c3d6.json"),
    (dict(workload="crc32", injector="gefin", structure="LSQ", n=24,
          seed=3, prefer_live=False),
     "campaign-gefin-crc32-16af696fedeee7556104.json"),
    (dict(workload="crc32", injector="gefin", structure="RF", n=40,
          seed=1, planner="two-level", target_margin=0.1),
     "campaign-planned-gefin-crc32-58b74b43d367b5743c8f.json"),
    (dict(workload="crc32", injector="svf", n=16, seed=5,
          planner="two-level", target_margin=0.2),
     "campaign-planned-svf-crc32-d371f7740293b0edecf3.json"),
    # planner defaults resolve as in run_campaign (margin 0.05,
    # batch 16)
    (dict(workload="sha", injector="pvf", model="WI", n=48, seed=1,
          planner="two-level"),
     "campaign-planned-pvf-sha-cd27c096ea764b8cd806.json"),
]


@pytest.mark.parametrize("axes,name", PINNED,
                         ids=[name for _, name in PINNED])
def test_sidecar_name_pinned(axes, name):
    assert CampaignSpec(config="cortex-a72", **axes).path().name == name


def test_naive_planner_is_the_naive_key():
    axes = dict(injector="svf", n=16, seed=5)
    assert CampaignSpec("crc32", "cortex-a72", planner="naive",
                        **axes).path() == \
        CampaignSpec("crc32", "cortex-a72", **axes).path()


def test_unknown_planner_rejected():
    with pytest.raises(ValueError):
        CampaignSpec("crc32", "cortex-a72", injector="svf",
                     planner="bogus")


def test_warm_cache_sidecars_rederive_their_names():
    """Every tracked sidecar names itself: rebuilding its spec from
    its own contents gives back its file name.  Sidecars do not record
    ``prefer_live``, so either value may match; a planned sidecar's
    ``plan`` record supplies its margin and batch."""
    sidecars = sorted(WARM_CACHE.glob("campaign-*.json"))
    assert sidecars
    orphans = []
    for path in sidecars:
        data = json.loads(path.read_text())
        plan = data["plan"] or {}
        names = {CampaignSpec(
            workload=data["workload"], config=data["config_name"],
            injector=data["injector"], structure=data["structure"],
            model=data["model"], n=data["n"], seed=data["seed"],
            hardened=data["hardened"], prefer_live=prefer_live,
            planner=plan.get("planner"),
            target_margin=plan.get("target_margin"),
            batch=plan.get("batch")).path().name
            for prefer_live in (True, False)}
        if path.name not in names:
            orphans.append(path.name)
    assert orphans == []


def test_spec_normalises_ignored_axes():
    assert CampaignSpec("crc32", "cortex-a72", injector="svf",
                        structure="RF", model="WI", target_margin=0.3,
                        batch=4) == \
        CampaignSpec("crc32", "cortex-a72", injector="svf")
    spec = CampaignSpec("crc32", CORTEX_A72, structure="RF",
                        planner="naive")
    assert (spec.config, spec.model, spec.planner) == \
        ("cortex-a72", None, None)


def test_custom_core_under_a_registered_name_rejected():
    """A campaign keeps only its core's name, so a modified core under
    a registered name would run and cache the registered one."""
    half_rob = dataclasses.replace(CORTEX_A72,
                                   rob_size=CORTEX_A72.rob_size // 2)
    with pytest.raises(ValueError, match="cortex-a72"):
        CampaignSpec("crc32", half_rob, injector="svf")
    with pytest.raises(ValueError, match="cortex-a72"):
        run_campaign("crc32", half_rob, injector="svf", n=2,
                     use_cache=False)
