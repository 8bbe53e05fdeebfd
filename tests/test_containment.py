"""The fault-containment contract.

Any single-bit flip in any injectable structure, at any cycle, in any
workload must terminate in a classified Verdict — never in a host
Python traceback.  These tests pin the three layers of the contract:
the :class:`ContainmentError` carrier, the engine-level guards that
make wild coordinates classifiable, and the campaign/fuzz machinery
that fails fast and writes reproducers when the contract breaks.
"""

from __future__ import annotations

import json
import pickle
import random

import pytest

from repro.faults.fault import FaultSpec
from repro.injectors.gefin import InjectionResult, run_one_injection
from repro.injectors.golden import golden_run
from repro.kernel.loader import build_system_image
from repro.uarch.exceptions import ContainmentError, FaultKind, SimException
from repro.uarch.functional import FaultAction, FunctionalEngine, RunStatus
from repro.uarch.memory import ADDR_MASK
from repro.isa.registers import MR64
from repro.workloads.suite import load_workload

WORKLOAD = "crc32"
CONFIG = "cortex-a72"


# ---------------------------------------------------------------------------
# the error carrier
# ---------------------------------------------------------------------------
class TestContainmentError:
    def test_context_accumulates_inner_wins(self):
        exc = ContainmentError("boom", context={"engine": "pipeline"})
        exc.with_context(engine="outer", workload="sha")
        assert exc.context == {"engine": "pipeline", "workload": "sha"}

    def test_str_carries_coordinates(self):
        exc = ContainmentError("boom", context={"a": 3, "structure": "RF"})
        assert "boom" in str(exc)
        assert "a=3" in str(exc) and "structure='RF'" in str(exc)

    def test_survives_pickling(self):
        # process-pool workers ship the error back to the parent
        exc = ContainmentError("boom", context={"a": 3, "cycle": 1.5})
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, ContainmentError)
        assert clone.args == exc.args
        assert clone.context == exc.context


# ---------------------------------------------------------------------------
# memory guards (satellite: wild addresses are simulated faults)
# ---------------------------------------------------------------------------
class TestMemoryGuards:
    @pytest.fixture(scope="class")
    def memory(self):
        program = load_workload(WORKLOAD, MR64)
        return build_system_image(program).memory

    def test_wrapping_access_is_a_sim_fault(self, memory):
        with pytest.raises(SimException) as info:
            memory.check_access(ADDR_MASK - 1, 8, write=False,
                                kernel_mode=True)
        assert info.value.kind is FaultKind.ACCESS_FAULT

    def test_corrupt_size_is_a_sim_fault(self, memory):
        for nbytes in (0, -4):
            with pytest.raises(SimException) as info:
                memory.check_access(0x1000, nbytes, write=False,
                                    kernel_mode=True)
            assert info.value.kind is FaultKind.ACCESS_FAULT

    def test_region_of_masks_wild_addresses(self, memory):
        # a flipped 64-bit pointer must never reach host indexing
        assert memory.region_of(ADDR_MASK + 0x5000_0000_0000) is \
            memory.region_of(0x5000_0000_0000 & ADDR_MASK)


# ---------------------------------------------------------------------------
# engine guards: wild flip coordinates still classify
# ---------------------------------------------------------------------------
WILD_SPECS = [
    FaultSpec("RF", 50.0, a=10**9, b=4097),
    FaultSpec("LSQ", 50.0, a=2**31, b=10**6),
    FaultSpec("L1I", 50.0, a=2**32 - 1, b=255, c=10**9),
    FaultSpec("L1D", 50.0, a=8191, b=64, c=2**31, kind="tag"),
    FaultSpec("L2", 50.0, a=10**7, b=1000, c=10**7, n_bits=4),
]


class TestCoordinateFolding:
    @pytest.mark.parametrize("spec", WILD_SPECS,
                             ids=[s.structure for s in WILD_SPECS])
    def test_out_of_geometry_flip_yields_verdict(self, spec):
        from repro.uarch.config import config_by_name

        golden = golden_run(WORKLOAD, CONFIG)
        result = run_one_injection(WORKLOAD, config_by_name(CONFIG),
                                   spec, golden)
        assert isinstance(result, InjectionResult)
        assert result.outcome in ("masked", "sdc", "crash", "detected")


# ---------------------------------------------------------------------------
# the run()-level wrap: an escape becomes a coordinate-carrying error
# ---------------------------------------------------------------------------
class TestEscapeWrapping:
    def test_functional_escape_carries_coordinates(self):
        program = load_workload(WORKLOAD, MR64)
        engine = FunctionalEngine(build_system_image(program))

        def explode(_engine):
            raise RuntimeError("synthetic model bug")

        engine.schedule(FaultAction("commit", 10, explode))
        with pytest.raises(ContainmentError) as info:
            engine.run()
        context = info.value.context
        assert context["engine"] == "functional"
        assert context["error"].startswith("RuntimeError")
        assert context["instructions"] == 10
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_pipeline_escape_carries_flip_coordinates(self, monkeypatch):
        # revert the containment guard: folding becomes the identity,
        # so an out-of-range physical register reaches the structure
        import repro.uarch.pipeline as pipeline_mod

        monkeypatch.setattr(
            pipeline_mod, "fold_coordinates",
            lambda engine, spec: (spec.a, spec.b,
                                  getattr(spec, "c", 0)))
        golden = golden_run(WORKLOAD, CONFIG)
        from repro.uarch.config import config_by_name

        spec = FaultSpec("RF", 10.0, a=10**6, b=3)
        with pytest.raises(ContainmentError) as info:
            run_one_injection(WORKLOAD, config_by_name(CONFIG), spec,
                              golden)
        context = info.value.context
        assert context["engine"] == "pipeline"
        assert context["injector"] == "gefin"
        assert context["structure"] == "RF"
        assert context["a"] == 10**6
        assert context["workload"] == WORKLOAD


# ---------------------------------------------------------------------------
# engine layer: fail fast, no retry, reproducer on disk
# ---------------------------------------------------------------------------
class TestEngineFailFast:
    def test_containment_fails_fast_with_repro(self, tmp_path):
        from repro.injectors.engine import run_sharded
        from repro.obs.events import EventLog

        attempts = {"n": 0}

        def worker(task):
            attempts["n"] += 1
            raise ContainmentError("escape", context={"a": task})

        log = tmp_path / "events.jsonl"
        with pytest.raises(ContainmentError):
            run_sharded(worker, [7], workers=1,
                        events=EventLog(log),
                        repro_dir=tmp_path / "repros")
        # deterministic failures are never retried
        assert attempts["n"] == 1
        kinds = [json.loads(line)["event"]
                 for line in log.read_text().splitlines()]
        assert "containment_escape" in kinds
        assert "containment_repro" in kinds
        repros = list((tmp_path / "repros").glob("containment-*.json"))
        assert len(repros) == 1
        payload = json.loads(repros[0].read_text())
        assert payload["context"]["a"] == 7

    def test_transient_errors_still_retry(self, tmp_path):
        from repro.injectors.engine import run_sharded

        attempts = {"n": 0}

        def worker(task):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise OSError("transient")
            return task * 2

        assert run_sharded(worker, [3], workers=1, backoff_base=0.0,
                           repro_dir=tmp_path) == [6]
        assert attempts["n"] == 2
        assert not list(tmp_path.glob("containment-*.json"))


# ---------------------------------------------------------------------------
# the checkpoint fast path preserves the containment contract
# ---------------------------------------------------------------------------
from pathlib import Path  # noqa: E402

BOUNDARY_CORPUS = sorted(
    (Path(__file__).parent / "corpus").glob("*checkpoint-boundary*"))


class TestFastPathContainment:
    """Checkpoint restore must not weaken containment: escapes through
    a restored engine still carry ``(seed, index)``, and the
    checkpoint-boundary corpus classifies identically on both paths."""

    @pytest.mark.parametrize("path", BOUNDARY_CORPUS,
                             ids=[p.stem for p in BOUNDARY_CORPUS])
    def test_boundary_case_fast_slow_agree(self, path):
        from repro.fuzz import FuzzCase
        from repro.uarch.config import config_by_name

        case = FuzzCase.from_json(json.loads(path.read_text())["case"])
        golden = golden_run(case.workload, case.config_name)
        config = config_by_name(case.config_name)
        slow = run_one_injection(case.workload, config,
                                 case.fault_spec(), golden,
                                 fastpath=False)
        fast = run_one_injection(case.workload, config,
                                 case.fault_spec(), golden,
                                 fastpath=True)
        assert slow == fast
        assert fast.outcome in ("masked", "sdc", "crash", "detected")

    def test_escape_through_restore_carries_seed_index(self,
                                                       monkeypatch):
        import repro.injectors.campaign as campaign_mod
        import repro.uarch.pipeline as pipeline_mod

        monkeypatch.setattr(
            pipeline_mod, "fold_coordinates",
            lambda engine, spec: (spec.a, spec.b,
                                  getattr(spec, "c", 0)))
        # mid-run cycle: the fast path restores a non-initial
        # checkpoint before the wild flip detonates
        wild = FaultSpec("RF", 3000.0, a=10**6, b=3)
        monkeypatch.setattr(campaign_mod, "sample_uniform",
                            lambda *args, **kwargs: wild)
        with pytest.raises(ContainmentError) as info:
            campaign_mod.run_task(("gefin", WORKLOAD, CONFIG, "RF", 11,
                                   4, False, False, True))
        context = info.value.context
        assert context["seed"] == 11
        assert context["index"] == 4
        assert context["fastpath"] is True
        assert context["structure"] == "RF"
        assert context["a"] == 10**6

    def test_wild_specs_agree_across_paths(self):
        # the folding guard holds on a restored engine, too
        from repro.uarch.config import config_by_name

        golden = golden_run(WORKLOAD, CONFIG)
        config = config_by_name(CONFIG)
        for spec in WILD_SPECS:
            slow = run_one_injection(WORKLOAD, config, spec, golden,
                                     fastpath=False)
            fast = run_one_injection(WORKLOAD, config, spec, golden,
                                     fastpath=True)
            assert slow == fast, spec


# ---------------------------------------------------------------------------
# property: random instruction words classify in both models
# ---------------------------------------------------------------------------
def _random_words(n, seed):
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(n)]


class TestDecodeTotality:
    """DecodeError is the *only* decoder failure, and both engines turn
    it into an illegal-instruction verdict — for any 32-bit word."""

    def test_decode_is_total(self, regs64):
        from repro.isa.encoding import decode
        from repro.isa.errors import DecodeError

        for word in _random_words(400, seed=0xC0FFEE):
            try:
                decode(word, regs64)
            except DecodeError:
                pass  # the one permitted failure mode

    @pytest.mark.parametrize("word", _random_words(24, seed=0xDEC0DE))
    def test_functional_classifies_random_word(self, word, regs64):
        from repro.isa.encoding import decode
        from repro.isa.errors import DecodeError

        program = load_workload(WORKLOAD, MR64)
        image = build_system_image(program)
        image.memory.write_int(image.entry, word, 4)
        engine = FunctionalEngine(image, max_instructions=5000)
        result = engine.run()   # must not raise
        try:
            decode(word, regs64)
        except DecodeError:
            assert result.status is RunStatus.SIM_EXCEPTION
            assert result.fault_kind is FaultKind.ILLEGAL_INSTRUCTION

    @pytest.mark.parametrize("word", _random_words(8, seed=0xDEC0DE))
    def test_pipeline_classifies_random_word(self, word, regs64, a72):
        from repro.isa.encoding import decode
        from repro.isa.errors import DecodeError
        from repro.uarch.pipeline import PipelineEngine

        program = load_workload(WORKLOAD, MR64)
        image = build_system_image(program)
        image.memory.write_int(image.entry, word, 4)
        engine = PipelineEngine(image, a72, max_instructions=5000,
                                max_cycles=50_000.0)
        result = engine.run()   # must not raise
        try:
            decode(word, regs64)
        except DecodeError:
            assert result.status.value == "sim-exception"
            assert result.fault_kind is FaultKind.ILLEGAL_INSTRUCTION
