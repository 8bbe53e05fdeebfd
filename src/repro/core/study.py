"""Cross-layer study orchestration.

:class:`CrossLayerStudy` runs (or loads from cache) every campaign a
figure needs — AVF per structure, PVF per FPM model, SVF — for a set
of workloads on one core, and exposes the paper's derived quantities:
size-weighted AVF, weighted FPM distributions, rPVF, dominant effect
classes and opposite-pair counts.

Campaign sizes come from :class:`StudyScale`; the environment variable
``REPRO_SCALE`` multiplies all of them (e.g. ``REPRO_SCALE=10`` for a
paper-scale overnight run; the defaults are sized for minutes-scale
regeneration of every figure on one core).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from ..injectors.campaign import CampaignResult, run_campaign
from ..injectors.golden import golden_run
from ..uarch.config import STRUCTURES, MicroarchConfig, config_by_name
from ..workloads.suite import WORKLOAD_NAMES
from .compare import MethodComparison, compare_methods
from .rpvf import RPVFResult, refine_pvf
from .weighting import (
    WeightedVulnerability,
    weighted_fpm_rates,
    weighted_vulnerability,
)


@dataclass(frozen=True)
class StudyScale:
    """Campaign sizes for one study."""

    n_avf: int = 30          # gefin runs per (workload, structure)
    n_pvf: int = 120         # architecture-level runs per model
    n_svf: int = 120         # software-level runs
    seed: int = 1

    @classmethod
    def from_env(cls) -> "StudyScale":
        factor = float(os.environ.get("REPRO_SCALE", "1"))
        base = cls()
        if factor == 1:
            return base
        return replace(base,
                       n_avf=max(4, int(base.n_avf * factor)),
                       n_pvf=max(8, int(base.n_pvf * factor)),
                       n_svf=max(8, int(base.n_svf * factor)))


class CrossLayerStudy:
    """All campaigns for one (workload set, core) pair."""

    def __init__(self, workloads=WORKLOAD_NAMES,
                 config: "MicroarchConfig | str" = "cortex-a72",
                 scale: StudyScale | None = None,
                 hardened: bool = False,
                 progress: bool | None = None,
                 planner: str | None = None,
                 target_margin: float | None = None,
                 fastpath: bool | None = None) -> None:
        self.workloads = tuple(workloads)
        self.config = (config_by_name(config) if isinstance(config, str)
                       else config)
        self.scale = scale or StudyScale.from_env()
        self.hardened = hardened
        #: run_campaign options shared by every campaign the study
        #: runs: live progress on stderr (None = REPRO_PROGRESS), the
        #: sampling strategy (``None``/``"naive"`` = fixed-n,
        #: ``"two-level"`` = the equivalence-class planner of
        #: :mod:`repro.core.planner`, where the scale's ``n`` acts as
        #: the naive-equivalent budget per cell) and the checkpoint
        #: fast path (None = REPRO_FASTPATH)
        self.campaign_options = {
            "progress": progress, "planner": planner,
            "target_margin": target_margin, "fastpath": fastpath}

    # ------------------------------------------------------------------
    # campaigns (cached on disk by run_campaign)
    # ------------------------------------------------------------------
    def avf_campaigns(self, workload: str) -> dict:
        """structure -> gefin CampaignResult."""
        return {
            structure: run_campaign(
                workload, self.config, injector="gefin",
                structure=structure, n=self.scale.n_avf,
                seed=self.scale.seed, hardened=self.hardened,
                **self.campaign_options)
            for structure in STRUCTURES
        }

    def pvf_campaign(self, workload: str,
                     model: str = "WD") -> CampaignResult:
        return run_campaign(workload, self.config, injector="pvf",
                            model=model, n=self.scale.n_pvf,
                            seed=self.scale.seed,
                            hardened=self.hardened,
                            **self.campaign_options)

    def svf_campaign(self, workload: str) -> CampaignResult:
        return run_campaign(workload, self.config, injector="svf",
                            n=self.scale.n_svf, seed=self.scale.seed,
                            hardened=self.hardened,
                            **self.campaign_options)

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def weighted_avf(self, workload: str) -> WeightedVulnerability:
        return weighted_vulnerability(self.avf_campaigns(workload),
                                      self.config)

    def weighted_fpm(self, workload: str) -> dict:
        return weighted_fpm_rates(self.avf_campaigns(workload),
                                  self.config)

    def rpvf(self, workload: str) -> RPVFResult:
        pvf_by_model = {model: self.pvf_campaign(workload, model)
                        for model in ("WD", "WOI", "WI")}
        return refine_pvf(pvf_by_model, self.weighted_fpm(workload))

    def golden(self, workload: str):
        return golden_run(workload, self.config.name,
                          hardened=self.hardened)

    # ------------------------------------------------------------------
    # per-method summaries across the workload set
    # ------------------------------------------------------------------
    def totals(self, method: str) -> dict:
        """workload -> total vulnerability under *method*.

        *method* is one of ``avf`` (size-weighted), ``pvf`` (typical,
        WD-only), ``svf`` or ``rpvf``.
        """
        out = {}
        for workload in self.workloads:
            if method == "avf":
                out[workload] = self.weighted_avf(workload).total
            elif method == "pvf":
                out[workload] = self.pvf_campaign(workload).vulnerability()
            elif method == "svf":
                out[workload] = self.svf_campaign(workload).vulnerability()
            elif method == "rpvf":
                out[workload] = self.rpvf(workload).total
            else:
                raise ValueError(f"unknown method {method!r}")
        return out

    def effects(self, method: str) -> dict:
        """workload -> dominant fault-effect class ("sdc"/"crash")."""
        out = {}
        for workload in self.workloads:
            if method == "avf":
                out[workload] = self.weighted_avf(workload).dominant_effect
            elif method == "rpvf":
                out[workload] = self.rpvf(workload).dominant_effect
            else:
                campaign = (self.pvf_campaign(workload)
                            if method == "pvf"
                            else self.svf_campaign(workload))
                out[workload] = ("sdc" if campaign.sdc()
                                 >= campaign.crash() else "crash")
        return out

    def sdc_crash_split(self, method: str, workload: str) -> tuple:
        """(sdc, crash) for one workload under one method."""
        if method == "avf":
            weighted = self.weighted_avf(workload)
            return weighted.sdc, weighted.crash
        if method == "rpvf":
            refined = self.rpvf(workload)
            return refined.sdc, refined.crash
        campaign = (self.pvf_campaign(workload) if method == "pvf"
                    else self.svf_campaign(workload))
        return campaign.sdc(), campaign.crash()

    def compare(self, method_a: str, method_b: str,
                tolerance: float = 0.0) -> MethodComparison:
        """One Table-III row: method_a vs method_b."""
        return compare_methods(
            f"{method_a.upper()} vs {method_b.upper()}",
            self.totals(method_a), self.totals(method_b),
            self.effects(method_a), self.effects(method_b),
            tolerance=tolerance)
