"""Pinned campaign sidecar names.

A campaign's identity is its sidecar path, derived from one cache-key
tuple per campaign kind.  The tracked warm caches (``.repro-cache/``,
``tests/.test-cache/``) only hit while those tuples hash to the same
names, so a reordered or re-typed tuple must fail here, fast, rather
than silently orphan them.  A deliberate key change (a schema bump, a
new workload image) re-records the names below.
"""

from __future__ import annotations

import pytest

from repro.injectors.campaign import campaign_cache_path

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
    axes = dict(axes)
    workload = axes.pop("workload")
    assert campaign_cache_path(workload, "cortex-a72",
                               **axes).name == name


def test_naive_planner_is_the_naive_key():
    axes = dict(injector="svf", n=16, seed=5)
    assert campaign_cache_path("crc32", "cortex-a72", planner="naive",
                               **axes) == \
        campaign_cache_path("crc32", "cortex-a72", **axes)


def test_unknown_planner_rejected():
    with pytest.raises(ValueError):
        campaign_cache_path("crc32", "cortex-a72", injector="svf",
                            planner="bogus")
