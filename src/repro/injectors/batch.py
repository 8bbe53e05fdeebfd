"""Batched campaign execution for the functional injectors.

Bridges :class:`repro.uarch.batch.BatchedFunctionalEngine` into the
campaign layer: takes the exact per-index fault actions a scalar
campaign draws (:func:`repro.injectors.campaign.draw_fault`), groups
them into lane batches sorted by trigger time (lanes that fire close
together share the same checkpoint restore and retire quickly), runs
each batch, and finishes evicted lanes on the scalar engines so every
:class:`InjectionResult` is byte-identical to the scalar path.
"""

from __future__ import annotations

from ..kernel.loader import build_system_image
from ..uarch.batch import MAX_LANES, BatchedFunctionalEngine
from ..uarch.exceptions import ContainmentError
from ..uarch.functional import FaultAction, FunctionalEngine
from ..uarch.snapshot import fastpath_enabled, restore_functional
from ..workloads.suite import load_workload
from .archinj import FUNCTIONAL, functional_result, run_one_pvf
from .campaign import draw_fault
from .golden import GoldenRun, checkpoint_store
from .llfi import run_one_svf


def plan_lane_groups(injector: str, n: int, lanes: int, *, workload: str,
                     config_name: str, seed: int, golden: GoldenRun,
                     model: "str | None" = None) -> list:
    """Partition campaign indices 0..n-1 into lane groups.

    Indices are sorted by trigger time before chunking so each batch
    restores from one late checkpoint and reconverges together; the
    flattened results are re-ordered by index afterwards, so grouping
    is invisible in the output.
    """
    lanes = max(1, min(int(lanes), MAX_LANES))
    order = sorted((draw_fault(injector, workload, config_name, model,
                               seed, index, golden).when, index)
                   for index in range(n))
    return [tuple(index for _, index in order[k:k + lanes])
            for k in range(0, n, lanes)]


# ---------------------------------------------------------------------------
# batched single-batch drivers
# ---------------------------------------------------------------------------
def _run_batch(workload: str, isa: str, kernel: str, actions,
               golden: GoldenRun, hardened: bool,
               fastpath: "bool | None"):
    """Run one batch; returns (outcomes, image, store).

    The image and store are handed back so evicted-lane continuations
    can reuse them: ``restore_functional`` replaces the whole memory
    page set, so one image safely serves every sequential continuation.
    """
    program = load_workload(workload, isa, hardened=hardened)
    image = build_system_image(program)
    engine = FunctionalEngine(image, kernel=kernel,
                              max_instructions=golden.max_instructions)
    store = None
    if fastpath_enabled(fastpath):
        store = checkpoint_store(workload, golden.config_name,
                                 engine=f"functional-{kernel}",
                                 hardened=hardened)
    outcomes = BatchedFunctionalEngine(engine, actions, store=store).run()
    return outcomes, image, store


def _continue_scalar(injector: str, workload: str, isa: str,
                     action: FaultAction, state: dict,
                     golden: GoldenRun, hardened: bool, image):
    """Finish an evicted lane from its materialised state."""
    kernel, default_origin = FUNCTIONAL[injector]
    engine = FunctionalEngine(image, kernel=kernel,
                              max_instructions=golden.max_instructions)
    engine.schedule(action)
    restore_functional(engine, state)
    # Deliberately no fast-path hook: evicted lanes almost never
    # reconverge (they left the batch for structural divergence), so
    # per-boundary digest polls would cost more than they save — and a
    # plain run is byte-identical either way.
    try:
        return engine.run()
    except ContainmentError as exc:
        raise exc.with_context(
            injector=injector, workload=workload, isa=isa,
            origin=getattr(action, "origin", default_origin),
            inject_cycle=float(action.when), hardened=hardened,
            batched=True)


def _run_batched(injector: str, workload: str, isa: str, actions,
                 golden: GoldenRun, hardened: bool,
                 fastpath: "bool | None") -> list:
    """Run up to 64 pvf or svf actions in one batch; scalar-equal
    results."""
    outcomes, image, _store = _run_batch(workload, isa,
                                         FUNCTIONAL[injector][0],
                                         actions, golden, hardened,
                                         fastpath)
    results = []
    for action, outcome in zip(actions, outcomes):
        if outcome.kind == "result":
            run = outcome.result
        elif outcome.kind == "state":
            run = _continue_scalar(injector, workload, isa, action,
                                   outcome.state, golden, hardened,
                                   image)
        else:  # rerun: reproduce the scalar run wholesale
            rerun = run_one_pvf if injector == "pvf" else run_one_svf
            results.append(rerun(workload, isa, action, golden,
                                 hardened=hardened, fastpath=fastpath))
            continue
        results.append(functional_result(injector, run, golden, action))
    return results


def run_batched_pvf(workload: str, isa: str, actions, golden: GoldenRun,
                    hardened: bool = False,
                    fastpath: "bool | None" = None) -> list:
    """Run up to 64 PVF actions in one batch; scalar-equal results."""
    return _run_batched("pvf", workload, isa, actions, golden, hardened,
                        fastpath)


def run_batched_svf(workload: str, isa: str, actions, golden: GoldenRun,
                    hardened: bool = False,
                    fastpath: "bool | None" = None) -> list:
    """Run up to 64 SVF actions in one batch; scalar-equal results."""
    return _run_batched("svf", workload, isa, actions, golden, hardened,
                        fastpath)
