"""Command-line interface tests."""

from __future__ import annotations

import os
import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("workloads", "configs", "run", "disasm",
                        "campaign", "study", "casestudy"):
            assert command in text

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCommands:
    def test_configs(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        assert "cortex-a72" in out and "mrisc32" in out

    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "sha" in out and "rijndael" in out

    def test_run_functional(self, capsys):
        assert main(["run", "crc32"]) == 0
        out = capsys.readouterr().out
        assert "status   : completed" in out

    def test_run_pipeline_with_stats(self, capsys):
        assert main(["run", "crc32", "--pipeline",
                     "--config", "cortex-a9"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "l1d" in out and "branch" in out

    def test_run_hexdump(self, capsys):
        assert main(["run", "crc32", "--hexdump"]) == 0
        out = capsys.readouterr().out
        from repro.workloads.suite import workload_spec

        assert workload_spec("crc32").reference_output().hex() in out

    def test_disasm(self, capsys):
        assert main(["disasm", "crc32"]) == 0
        out = capsys.readouterr().out
        assert "lbu" in out and "syscall" in out

    def test_campaign_svf(self, capsys):
        assert main(["campaign", "crc32", "--injector", "svf",
                     "-n", "10"]) == 0
        out = capsys.readouterr().out
        assert "svf:crc32" in out and "crashes" in out

    @pytest.mark.parametrize("target,met", [("0.2", False),
                                            ("0.5", True)])
    def test_campaign_planner_line_tells_whether_margin_met(
            self, capsys, target, met):
        """Budget 16 ends svf/crc32 at margin 0.2303: above a 0.2
        target (the budget ran out first), below a 0.5 one."""
        assert main(["campaign", "crc32", "--injector", "svf",
                     "-n", "16", "--no-cache", "--planner", "two-level",
                     "--target-margin", target]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("planner  :"))
        match = re.search(r"margin (\S+) (<=|>) (\S+)"
                          r"( \(budget exhausted\))?$", line)
        assert match, line
        attained, op, wanted, exhausted = match.groups()
        assert float(wanted) == float(target)
        assert (float(attained) <= float(wanted)) is met
        assert op == ("<=" if met else ">")
        assert bool(exhausted) is not met

    def test_campaign_gefin_reports_fpm(self, capsys):
        assert main(["campaign", "crc32", "--structure", "RF",
                     "-n", "6"]) == 0
        out = capsys.readouterr().out
        assert "HVF" in out and "WD=" in out

    def test_trace(self, capsys):
        assert main(["trace", "crc32", "--count", "5"]) == 0
        out = capsys.readouterr().out
        assert "0x00001000" in out and "window-closed" in out

    def test_ace(self, capsys):
        assert main(["ace", "crc32"]) == 0
        out = capsys.readouterr().out
        assert "ACE crc32@cortex-a72" in out

    def test_ace_compare(self, capsys):
        assert main(["ace", "crc32", "--compare", "-n", "6"]) == 0
        out = capsys.readouterr().out
        assert "pessimism" in out

    def test_fit(self, capsys):
        assert main(["fit", "crc32", "-n", "6"]) == 0
        out = capsys.readouterr().out
        assert "total" in out

    def test_study(self, capsys):
        assert main(["study", "--workloads", "crc32,sha",
                     "--methods", "svf,avf",
                     "--n-avf", "4", "--n-pvf", "8",
                     "--n-svf", "8"]) == 0
        out = capsys.readouterr().out
        assert "SVF vs AVF" in out

    def test_study_no_fastpath_stays_in_the_study(self, monkeypatch,
                                                 tmp_path, capsys):
        from repro.core import study
        from repro.uarch.snapshot import fastpath_enabled

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_FASTPATH", raising=False)
        seen = []
        real = study.run_campaign

        def spy(*args, **kwargs):
            seen.append(kwargs["fastpath"])
            return real(*args, **kwargs)

        monkeypatch.setattr(study, "run_campaign", spy)
        assert main(["study", "--workloads", "crc32", "--methods", "svf",
                     "--n-svf", "2", "--no-fastpath"]) == 0
        assert seen and all(value is False for value in seen)
        # the flag reaches the study's campaigns, not the process
        assert "REPRO_FASTPATH" not in os.environ
        assert fastpath_enabled()
