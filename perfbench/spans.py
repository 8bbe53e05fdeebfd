"""Span tracer for the benchmark's traced run, and the arithmetic over
its spans.

The tracer times the public functions of each layer from outside the
program: :meth:`Tracer.install` replaces each target function (and every
module-level name that was imported from it, so call sites that did
``from .golden import golden_run`` are covered too) by a wrapper that
records one span per call.  Nothing under ``src/`` is edited, and
:meth:`Tracer.uninstall` puts every original back.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index of
the enclosing span (``-1`` for a root) and ``run`` the id of the
injection run it belongs to (``0`` outside any run).  Spans stay in
memory; :func:`write_spans` writes them out when the benchmark ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import import_module

#: the program's layers (its top-level packages); any other span
#: prefix, such as the benchmark's own root spans, counts as ``other``
LAYERS = ("isa", "kernel", "uarch", "faults", "injectors", "core", "obs")

#: (module, attribute path, span name).  Span names start with the
#: layer they are charged to.  ``build_pvf_action`` lives in the
#: injectors package but draws a fault, so it is charged to faults.
TARGETS = (
    ("repro.isa.assembler", "assemble", "isa.assemble"),
    ("repro.kernel.loader", "build_system_image", "kernel.build_image"),
    ("repro.uarch.pipeline", "PipelineEngine.run", "uarch.pipeline"),
    ("repro.uarch.functional", "FunctionalEngine.run",
     "uarch.functional"),
    ("repro.uarch.batch", "BatchedFunctionalEngine.run", "uarch.batch"),
    ("repro.uarch.snapshot", "prepare_pipeline_fastpath",
     "uarch.snapshot.restore"),
    ("repro.uarch.snapshot", "prepare_functional_fastpath",
     "uarch.snapshot.restore"),
    ("repro.uarch.snapshot", "pipeline_digest", "uarch.snapshot.digest"),
    ("repro.uarch.snapshot", "functional_digest",
     "uarch.snapshot.digest"),
    ("repro.uarch.snapshot", "load_store", "uarch.snapshot.load_store"),
    ("repro.uarch.snapshot", "build_pipeline_store",
     "uarch.snapshot.capture"),
    ("repro.uarch.snapshot", "build_functional_store",
     "uarch.snapshot.capture"),
    ("repro.faults.fault", "sample_uniform", "faults.sample"),
    ("repro.injectors.archinj", "build_pvf_action", "faults.sample"),
    ("repro.faults.outcomes", "classify", "faults.classify"),
    ("repro.injectors.golden", "golden_run", "injectors.golden"),
    ("repro.injectors.golden", "checkpoint_store",
     "injectors.checkpoint_store"),
    ("repro.injectors.gefin", "run_one_injection", "injectors.run"),
    ("repro.injectors.archinj", "run_one_pvf", "injectors.run"),
    ("repro.injectors.llfi", "run_one_svf", "injectors.run"),
    ("repro.injectors.batch", "run_batched_pvf", "injectors.batched"),
    ("repro.injectors.batch", "run_batched_svf", "injectors.batched"),
    ("repro.injectors.engine", "run_sharded", "injectors.shard"),
    ("repro.injectors.engine", "atomic_write_text", "injectors.write"),
    ("repro.injectors.campaign", "run_campaign", "injectors.campaign"),
    ("repro.core.planner", "run_planned_campaign", "core.planner"),
    ("repro.obs.profiles", "profile_golden_run", "obs.profile"),
)

#: spans that start a new injection run id
RUN_SPANS = ("injectors.run", "injectors.batched")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run: int
    #: work counts measured at the span (instructions, bytes, ...)
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around the :data:`TARGETS` while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._runs = 0
        self._run = 0
        self._patches: list = []

    # -- span recording -------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if name in RUN_SPANS:
            self._runs += 1
            self._run = self._runs
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self._run))
        self._stack.append(index)
        return index

    def close(self, index: int, **attrs) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if attrs:
            span.attrs.update(attrs)
        self._stack.pop()
        if span.name in RUN_SPANS:
            parent = self.spans[span.parent] if span.parent >= 0 else None
            self._run = parent.run if parent is not None else 0

    @contextmanager
    def root(self, name: str):
        """One of the benchmark's own root spans; yields its index."""
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every target; modules must already be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, path, span in TARGETS:
            module = import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original,
                            self._wrap(original, span))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, span)
            # the defining module plus every site that imported the
            # function by name
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, attr, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name: str):
        tracer = self
        if name == "uarch.pipeline":
            def wrapper(engine, *args, **kwargs):
                index = tracer.open(name)
                instr, cycle = engine.instructions, engine.fetch_time
                try:
                    return fn(engine, *args, **kwargs)
                finally:
                    tracer.close(
                        index, instructions=engine.instructions - instr,
                        cycles=engine.fetch_time - cycle)
        elif name == "uarch.functional":
            def wrapper(engine, *args, **kwargs):
                index = tracer.open(name)
                executed = engine.executed
                try:
                    return fn(engine, *args, **kwargs)
                finally:
                    tracer.close(index,
                                 instructions=engine.executed - executed)
        elif name == "injectors.write":
            def wrapper(path, text, *args, **kwargs):
                index = tracer.open(name)
                try:
                    return fn(path, text, *args, **kwargs)
                finally:
                    tracer.close(index, path=str(path),
                                 bytes=len(text.encode()))
        elif name == "core.planner":
            def wrapper(*args, **kwargs):
                index = tracer.open(name)
                attrs = {}
                try:
                    campaign = fn(*args, **kwargs)
                    attrs = {"budget": campaign.plan["planned_n"],
                             "runs": campaign.plan["actual_n"]}
                    return campaign
                finally:
                    tracer.close(index, **attrs)
        else:
            def wrapper(*args, **kwargs):
                index = tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(index)
        wrapper.__wrapped__ = fn
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------
def self_times(spans: list) -> list:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so children nest inside their parent
    and never overlap each other: their covered time is the sum of
    their durations.
    """
    out = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.duration
    return out


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "other"


def subtree(spans: list, root: int) -> list:
    """Indices of *root* and every span below it (spans are recorded in
    start order, so descendants follow their ancestor)."""
    inside = {root}
    for index in range(root + 1, len(spans)):
        if spans[index].parent in inside:
            inside.add(index)
    return sorted(inside)


def layer_self_times(spans: list, indices: list) -> dict:
    """Layer -> summed self time over *indices* (a whole subtree), with
    an ``other`` entry, so the values add up to the root's duration."""
    own = self_times(spans)
    out = {layer: 0.0 for layer in LAYERS + ("other",)}
    for index in indices:
        out[layer_of(spans[index].name)] += own[index]
    return out


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def pass_metrics(spans: list, root: int, counters: dict) -> dict:
    """Per-layer metrics of one traced campaign pass.

    *root* is the pass's root span; *counters* the metrics-registry
    counters the pass recorded.  Keys are the ``per_layer`` names of
    ``BENCHMARK.json`` that a pass measures.
    """
    indices = subtree(spans, root)
    own = self_times(spans)
    by_name: dict = defaultdict(list)
    for index in indices:
        by_name[spans[index].name].append(index)

    def self_s(name):
        return sum(own[i] for i in by_name[name])

    def total_s(name):
        return sum(spans[i].duration for i in by_name[name])

    def attr(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in by_name[name])

    pipe_s, func_s = self_s("uarch.pipeline"), self_s("uarch.functional")
    pipe_i = attr("uarch.pipeline", "instructions")
    func_i = attr("uarch.functional", "instructions")
    lanes = counters.get("engine.batch_lanes_packed", 0)
    retires = counters.get("engine.batch_early_retires", 0)
    restores = counters.get("fastpath.restores", 0)
    exits = counters.get("fastpath.early_exits", 0)
    run_ms = [spans[i].duration * 1e3 for i in by_name["injectors.run"]]
    writes = [spans[i] for i in by_name["injectors.write"]]
    planner_runs = attr("core.planner", "runs")
    budget = attr("core.planner", "budget")
    metrics = {
        "uarch.pipeline.self_s": pipe_s,
        "uarch.pipeline.instructions": pipe_i,
        "uarch.pipeline.cycles": round(attr("uarch.pipeline", "cycles"), 3),
        "uarch.pipeline.instr_per_s": pipe_i / pipe_s if pipe_s else 0.0,
        "uarch.functional.self_s": func_s,
        "uarch.functional.instructions": func_i,
        "uarch.functional.instr_per_s": func_i / func_s if func_s else 0.0,
        "uarch.batch.self_s": self_s("uarch.batch"),
        "uarch.batch.lanes_packed": lanes,
        "uarch.batch.early_retires": retires,
        "uarch.batch.evictions":
            counters.get("engine.batch_scalar_evictions", 0),
        "uarch.batch.retire_ratio": retires / lanes if lanes else 0.0,
        "uarch.snapshot.restore_s": total_s("uarch.snapshot.restore"),
        "uarch.snapshot.restores": restores,
        "uarch.snapshot.digest_s": total_s("uarch.snapshot.digest"),
        "uarch.snapshot.digest_calls": len(by_name["uarch.snapshot.digest"]),
        "uarch.snapshot.instructions_skipped":
            counters.get("fastpath.instructions_skipped", 0),
        "uarch.snapshot.instructions_saved":
            counters.get("fastpath.instructions_saved", 0),
        "uarch.snapshot.early_exit_ratio":
            exits / restores if restores else 0.0,
        "kernel.build_image_s": total_s("kernel.build_image"),
        "kernel.build_image_calls": len(by_name["kernel.build_image"]),
        "faults.sample_s": total_s("faults.sample"),
        "faults.classify_s": total_s("faults.classify"),
        "injectors.run_ms_p50": percentile(run_ms, 50),
        "injectors.run_ms_p90": percentile(run_ms, 90),
        "injectors.run_samples": len(run_ms),
        "injectors.shard_self_s": self_s("injectors.shard"),
        "injectors.campaign_self_s": self_s("injectors.campaign"),
        "injectors.write_s": sum(span.duration for span in writes),
        # the metrics-*.json sidecars exist only because the traced run
        # enables the metrics registry, and their timers vary run to run
        "injectors.bytes_written": sum(
            span.attrs["bytes"] for span in writes
            if not span.attrs["path"].rsplit("/", 1)[-1]
            .startswith("metrics-")),
        "core.planner.self_s": self_s("core.planner"),
        "core.planner.runs": planner_runs,
        "core.planner.savings": budget / planner_runs if planner_runs
        else 0.0,
        "trace.wall_s": spans[root].duration,
    }
    for layer, seconds in layer_self_times(spans, indices).items():
        metrics[f"layer.{layer}.self_s"] = seconds
    return metrics


def setup_metrics(spans: list, root: int) -> dict:
    """Per-layer metrics of a traced set-up: the time inside each
    set-up function (none of them calls itself, so no span is counted
    inside another of its name)."""
    totals: dict = defaultdict(float)
    for index in subtree(spans, root):
        totals[spans[index].name] += spans[index].duration
    return {
        "isa.assemble_s": totals["isa.assemble"],
        "injectors.golden_s": totals["injectors.golden"],
        "uarch.snapshot.capture_s": totals["uarch.snapshot.capture"],
        "uarch.snapshot.load_store_s": totals["uarch.snapshot.load_store"],
        "obs.profile_s": totals["obs.profile"],
    }


#: per-layer counts that must repeat exactly for the same code and seed
COUNT_METRICS = (
    "uarch.pipeline.instructions",
    "uarch.pipeline.cycles",
    "uarch.functional.instructions",
    "uarch.snapshot.restores",
    "uarch.snapshot.instructions_skipped",
    "uarch.snapshot.instructions_saved",
    "uarch.snapshot.digest_calls",
    "uarch.batch.lanes_packed",
    "uarch.batch.early_retires",
    "uarch.batch.evictions",
    "core.planner.runs",
    "injectors.bytes_written",
    "kernel.build_image_calls",
    "injectors.run_samples",
)


def write_spans(path, spans: list) -> None:
    """Write the recorded spans as one JSON document."""
    with open(path, "w") as handle:
        json.dump([{"name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run": s.run, **s.attrs}
                   for s in spans], handle)
