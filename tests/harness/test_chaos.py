"""Chaos harness tests: determinism, report shape, CLI, acceptance."""

import pytest

from repro.cluster import ClusterSpec
from repro.exceptions import ConfigurationError
from repro.harness.chaos import (
    CHAOS_MODEL_NAMES,
    chaos_experiment,
    chaos_fault_plan,
    chaos_trace,
)
from repro.harness.cli import main
from repro.harness.report import quantile_label
from repro.units import KiB


class TestChaosFaultPlan:
    def test_zero_intensity_is_healthy(self):
        plan = chaos_fault_plan(ClusterSpec(), 0.0)
        assert len(plan) == 0

    def test_negative_intensity_rejected(self):
        for bad in ("-0.5", "1.5", "nan", "inf"):
            with pytest.raises(ConfigurationError, match=f"got {bad}"):
                chaos_fault_plan(ClusterSpec(), float(bad))

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown chaos model"):
            chaos_fault_plan(ClusterSpec(), 1.0, models=("gremlins",))

    def test_all_models_compile(self):
        spec = ClusterSpec()
        plan = chaos_fault_plan(spec, 1.0, models=CHAOS_MODEL_NAMES)
        states = plan.compile(spec.num_servers)
        assert states  # at least one degraded server

    def test_write_cliff_lands_on_ssd(self):
        spec = ClusterSpec()
        plan = chaos_fault_plan(spec, 1.0, models=("write_cliff",))
        assert plan.faults[0].server in spec.sserver_ids

    def test_intensity_scales_severity(self):
        mild = chaos_fault_plan(ClusterSpec(), 0.25, models=("slowdown",))
        harsh = chaos_fault_plan(ClusterSpec(), 1.0, models=("slowdown",))
        assert harsh.faults[0].factor > mild.faults[0].factor


class TestChaosTrace:
    def test_write_then_reread(self):
        trace = chaos_trace(processes=2, request_size=8 * KiB, phases=4)
        records = trace.sorted_by_time()
        ops = [r.op for r in records]
        assert ops == ["write"] * 2 + ["read"] * 2 + ["write"] * 2 + ["read"] * 2
        # phase 1 re-reads exactly the offsets phase 0 wrote
        assert {r.offset for r in records[:2]} == {r.offset for r in records[2:4]}

    def test_bad_phase_count_rejected(self):
        with pytest.raises(ConfigurationError):
            chaos_trace(phases=0)


class TestChaosExperiment:
    @pytest.fixture(scope="class")
    def report(self):
        return chaos_experiment(
            trace=chaos_trace(processes=4, phases=6),
            intensities=(0.0, 1.0),
            schemes=("DEF", "SAW"),
        )

    def test_report_shape(self, report):
        names = [figure.figure for figure in report.figures]
        assert names[0] == "chaos-bw"
        for q in (50.0, 95.0, 99.0, 99.9):
            assert f"chaos-{quantile_label(q)}" in names
        assert names[-1] == "chaos-p99-by-server"
        rows = report.figures[0].rows
        assert set(rows) == {"intensity=0", "intensity=1"}
        assert set(report.figures[0].series) == {"DEF", "SAW"}
        assert len(report.figures[-1].rows) == ClusterSpec().num_servers

    def test_digest_is_deterministic(self, report):
        again = chaos_experiment(
            trace=chaos_trace(processes=4, phases=6),
            intensities=(0.0, 1.0),
            schemes=("DEF", "SAW"),
        )
        assert again.digest() == report.digest()
        assert len(report.digest()) == 64

    def test_faults_degrade_bandwidth(self, report):
        bw = report.figures[0]
        assert bw.value("intensity=1", "DEF") < bw.value("intensity=0", "DEF")

    def test_empty_intensities_rejected(self):
        with pytest.raises(ConfigurationError):
            chaos_experiment(intensities=())


class TestAcceptance:
    """The issue's headline claims, pinned as tests."""

    @pytest.fixture(scope="class")
    def report(self):
        return chaos_experiment(
            trace=chaos_trace(processes=8, phases=40),
            intensities=(1.0,),
            schemes=("DEF", "MHA", "SAW", "MHA+SAW"),
        )

    def test_straggler_aware_beats_def_on_p99(self, report):
        p99 = next(f for f in report.figures if f.figure == "chaos-p99")
        assert p99.value("intensity=1", "SAW") < p99.value("intensity=1", "DEF")

    def test_composition_at_least_as_good_on_bandwidth(self, report):
        bw = report.figures[0]
        composed = bw.value("intensity=1", "MHA+SAW")
        assert composed >= bw.value("intensity=1", "MHA")
        assert composed >= bw.value("intensity=1", "SAW")


class TestChaosCLI:
    def test_digest_mode_prints_only_hash(self, capsys):
        argv = [
            "chaos",
            "--intensities", "0,1",
            "--schemes", "DEF,SAW",
            "--models", "slowdown,scrub",
            "--digest",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out.strip()
        assert len(out) == 64
        int(out, 16)  # valid hex

    def test_full_report_mentions_digest(self, capsys):
        argv = ["chaos", "--intensities", "1", "--schemes", "DEF"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "chaos-bw" in out
        assert "digest:" in out
