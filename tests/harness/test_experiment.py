"""Tests for the experiment harness and the paper-shape integration checks.

The integration tests here are the heart of the reproduction: on
miniature versions of the paper's workloads, the scheme ordering the
paper reports must hold.
"""

import pytest

from repro.cluster import ClusterSpec
from repro.harness import compare_schemes, run_scheme
from repro.harness.chaos import chaos_fault_plan
from repro.harness.report import FigureResult, format_table
from repro.units import KiB, MiB
from repro.workloads import HPIOWorkload, IORWorkload, LANLWorkload


@pytest.fixture(scope="module")
def spec():
    return ClusterSpec()


@pytest.fixture(scope="module")
def mixed_trace():
    return IORWorkload(
        num_processes=16,
        request_sizes=[64 * KiB, 256 * KiB],
        total_size=16 * MiB,
        seed=2,
    ).trace("write")


class TestExperiment:
    def test_run_scheme(self, spec, mixed_trace):
        run = run_scheme("DEF", spec, mixed_trace)
        assert run.scheme == "DEF"
        assert run.metrics.bandwidth > 0
        assert run.bandwidth_mib > 0

    def test_compare_schemes_pairs_results(self, spec, mixed_trace):
        cmp = compare_schemes(spec, mixed_trace, ("DEF", "MHA"), label="test")
        assert set(cmp.runs) == {"DEF", "MHA"}
        assert cmp.label == "test"
        assert cmp.bandwidth("MHA") > 0

    def test_improvement_metric(self, spec, mixed_trace):
        cmp = compare_schemes(spec, mixed_trace, ("DEF", "MHA"))
        imp = cmp.improvement("MHA", over="DEF")
        assert imp == pytest.approx(
            cmp.bandwidth("MHA") / cmp.bandwidth("DEF") - 1.0
        )

    def test_ranking_sorted(self, spec, mixed_trace):
        cmp = compare_schemes(spec, mixed_trace)
        ranking = cmp.ranking()
        bws = [cmp.bandwidth(s) for s in ranking]
        assert bws == sorted(bws, reverse=True)

    def test_replay_different_trace(self, spec, mixed_trace):
        other = IORWorkload(
            num_processes=16, request_sizes=128 * KiB, total_size=8 * MiB
        ).trace("read")
        run = run_scheme("MHA", spec, mixed_trace, other)
        assert run.metrics.total_bytes == other.total_bytes()

    def test_sharded_faulted_comparison_matches_serial(self, spec, mixed_trace):
        schemes = ("DEF", "HARL", "MHA", "MHA+SAW")
        plan = chaos_fault_plan(spec, 0.5)
        serial, sharded = (
            compare_schemes(
                spec,
                mixed_trace,
                schemes,
                n_jobs=jobs,
                fault_plan=plan,
                keep_latencies=True,
            )
            for jobs in (1, 2)
        )
        for name in schemes:
            assert sharded[name].metrics == serial[name].metrics
            assert sharded[name].metrics.engine == serial[name].metrics.engine
        assert serial["MHA"].metrics.per_server_latencies


class TestPaperShape:
    """The paper's qualitative results on miniature workloads."""

    def test_mha_beats_def_on_mixed_ior(self, spec, mixed_trace):
        cmp = compare_schemes(spec, mixed_trace, ("DEF", "MHA"))
        assert cmp.improvement("MHA", over="DEF") > 0.10

    def test_mha_at_least_harl_on_mixed_ior(self, spec, mixed_trace):
        cmp = compare_schemes(spec, mixed_trace, ("HARL", "MHA"))
        assert cmp.bandwidth("MHA") >= 0.97 * cmp.bandwidth("HARL")

    def test_mha_degenerates_to_harl_on_uniform(self, spec):
        uniform = IORWorkload(
            num_processes=16, request_sizes=64 * KiB, total_size=8 * MiB
        ).trace("write")
        cmp = compare_schemes(spec, uniform, ("HARL", "MHA"))
        # §V-B: "MHA is comparable to HARL ... for uniform access patterns"
        assert cmp.bandwidth("MHA") == pytest.approx(
            cmp.bandwidth("HARL"), rel=0.10
        )

    def test_heterogeneity_aware_beat_def_on_hpio(self, spec):
        trace = HPIOWorkload(num_processes=8, region_count=256).trace("write")
        cmp = compare_schemes(spec, trace, ("DEF", "HARL", "MHA"))
        assert cmp.bandwidth("MHA") > cmp.bandwidth("DEF")
        assert cmp.bandwidth("HARL") > cmp.bandwidth("DEF")

    def test_mha_tops_lanl(self, spec):
        trace = LANLWorkload(num_processes=8, loops=24).trace("write")
        cmp = compare_schemes(spec, trace)
        best = cmp.bandwidth(cmp.ranking()[0])
        # MHA is (possibly jointly) the best scheme and clearly beats DEF
        assert cmp.bandwidth("MHA") >= 0.999 * best
        assert cmp.improvement("MHA", over="DEF") > 0.5

    def test_mha_relieves_the_bottleneck_server(self, spec, mixed_trace):
        cmp = compare_schemes(spec, mixed_trace, ("DEF", "MHA"))
        # Fig. 8's point: under DEF the slowest (HDD) servers carry far
        # more I/O time than necessary; MHA's layout reduces the
        # busiest server's I/O time, which is what bounds the makespan
        assert max(cmp.runs["MHA"].metrics.per_server_busy) < max(
            cmp.runs["DEF"].metrics.per_server_busy
        )


class TestReport:
    def test_figure_result_table(self):
        r = FigureResult(figure="Fig X", title="demo")
        r.add("row1", "DEF", 100.0)
        r.add("row1", "MHA", 150.0)
        r.note("a note")
        text = format_table(r)
        assert "Fig X" in text and "row1" in text and "150.00" in text
        assert "a note" in text
        assert r.improvement("row1", "MHA", over="DEF") == pytest.approx(0.5)

    def test_improvement_zero_base(self):
        r = FigureResult(figure="F", title="t")
        r.add("r", "A", 0.0)
        r.add("r", "B", 1.0)
        assert r.improvement("r", "B", over="A") == 0.0
