"""Tests of the benchmark itself: span arithmetic, the tracer's
install/uninstall, the digest check, and the metric names and units a
smoke-sized run prints against ``BENCHMARK.json``.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans as sp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))


def _span(name, start, end, parent=-1, **attrs):
    return sp.Span(name, start, end, parent, 0, attrs)


def _pass_spans():
    """A root pass with one pipeline run that polls the digest twice,
    a nested golden run and a sidecar write."""
    return [
        _span("bench.pass", 0.0, 10.0),                          # 0
        _span("injectors.campaign", 0.5, 9.5, 0),                # 1
        _span("injectors.run", 1.0, 8.0, 1),                     # 2
        _span("uarch.pipeline", 2.0, 7.0, 2,
              instructions=500, cycles=812.5),                   # 3
        _span("uarch.snapshot.digest", 3.0, 3.5, 3),             # 4
        _span("uarch.snapshot.digest", 5.0, 6.0, 3),             # 5
        _span("injectors.write", 8.5, 9.0, 1, bytes=120,
              path="/c/campaign-x.json"),                        # 6
        _span("injectors.write", 9.0, 9.25, 1, bytes=99,
              path="/c/metrics-x.json"),                         # 7
    ]


def test_self_times_subtract_children_once():
    spans = _pass_spans()
    own = sp.self_times(spans)
    assert own[3] == pytest.approx(5.0 - 0.5 - 1.0)
    assert own[2] == pytest.approx(7.0 - 5.0)
    assert sum(own) == pytest.approx(spans[0].duration)


def test_layer_self_times_add_up_to_the_root():
    spans = _pass_spans()
    layers = sp.layer_self_times(spans, sp.subtree(spans, 0))
    assert set(layers) == set(sp.LAYERS) | {"other"}
    assert sum(layers.values()) == pytest.approx(10.0)
    assert layers["uarch"] == pytest.approx(5.0)
    assert layers["other"] == pytest.approx(1.0)


def test_pass_metrics_from_spans_and_counters():
    spans = _pass_spans()
    counters = {"fastpath.restores": 4, "fastpath.early_exits": 1,
                "engine.batch_lanes_packed": 64,
                "engine.batch_early_retires": 16}
    m = sp.pass_metrics(spans, 0, counters)
    assert m["uarch.pipeline.self_s"] == pytest.approx(3.5)
    assert m["uarch.pipeline.instructions"] == 500
    assert m["uarch.pipeline.cycles"] == 812.5
    assert m["uarch.snapshot.digest_calls"] == 2
    assert m["uarch.snapshot.digest_s"] == pytest.approx(1.5)
    assert m["uarch.snapshot.early_exit_ratio"] == 0.25
    assert m["uarch.batch.retire_ratio"] == 0.25
    assert m["injectors.bytes_written"] == 120
    assert m["injectors.run_samples"] == 1
    assert m["injectors.run_ms_p50"] == pytest.approx(7000.0)
    assert m["trace.wall_s"] == 10.0
    layers = sum(v for k, v in m.items() if k.startswith("layer."))
    assert layers == pytest.approx(m["trace.wall_s"])


def test_setup_metrics_sum_each_set_up_function():
    spans = [
        _span("bench.setup", 0.0, 5.0),
        _span("injectors.golden", 0.0, 2.0, 0),
        _span("isa.assemble", 0.1, 0.4, 1),
        _span("injectors.checkpoint_store", 2.0, 4.0, 0),
        _span("injectors.golden", 2.0, 2.1, 3),
        _span("uarch.snapshot.capture", 2.1, 3.9, 3),
    ]
    m = sp.setup_metrics(spans, 0)
    assert m["injectors.golden_s"] == pytest.approx(2.1)
    assert m["isa.assemble_s"] == pytest.approx(0.3)
    assert m["uarch.snapshot.capture_s"] == pytest.approx(1.8)


def test_percentile_nearest_rank():
    assert sp.percentile([], 50) == 0.0
    assert sp.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert sp.percentile(list(range(1, 11)), 90) == 9


def test_tracer_patches_import_sites_and_restores_them():
    import cells
    from repro.injectors import campaign, golden
    from repro.uarch.pipeline import PipelineEngine

    cells.import_program()
    original = golden.golden_run
    original_run = PipelineEngine.__dict__["run"]
    tracer = sp.Tracer()
    tracer.install()
    try:
        assert golden.golden_run is not original
        assert campaign.golden_run is golden.golden_run
        assert golden.golden_run.__wrapped__ is original
        assert PipelineEngine.__dict__["run"] is not original_run
    finally:
        tracer.uninstall()
    assert golden.golden_run is original
    assert campaign.golden_run is original
    assert PipelineEngine.__dict__["run"] is original_run


def test_digest_check_flags_mismatches_and_batched_differences():
    import cells

    names = [c.name for c in cells.cells("accel")]
    digests = {name: "d" for name in names}
    assert run.check_digests("accel", digests, {}, None) == []
    recorded = {"digests": {"accel": {names[0]: "other"}}}
    assert len(run.check_digests("accel", digests, recorded, None)) == 1
    scalar = {name: "d" for name in names}
    scalar["svf/qsort"] = "scalar"
    problems = run.check_digests("accel", digests, {}, scalar)
    assert problems == ["accel: batched svf/qsort differs from the "
                        "scalar arch campaign"]
    del digests[names[1]]
    assert any("produced no result" in p
               for p in run.check_digests("accel", digests, {}, None))


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--smoke"], cwd=ROOT, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric():
    result = _smoke("arch", 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric_and_accounts_time():
    result = _smoke("accel", 1)
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == want
    layers = sum(v["value"] for k, v in metrics.items()
                 if k.startswith("layer."))
    assert layers == pytest.approx(metrics["trace.wall_s"]["value"],
                                   rel=1e-9)
    # accel exercises every engine and the planner
    for name in ("uarch.pipeline.instructions",
                 "uarch.functional.instructions",
                 "uarch.batch.lanes_packed", "core.planner.runs",
                 "obs.profile_s", "uarch.snapshot.capture_s"):
        assert metrics[name]["value"] > 0, name


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gefin",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
