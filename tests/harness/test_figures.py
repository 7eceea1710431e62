"""Smoke tests for every figure entry point (tiny configurations).

The benchmarks run the real (scaled) figures; these tests only check
that each entry point produces a well-formed result quickly, so a
refactor can't silently break the harness.
"""

import pytest

from repro.cluster import ClusterSpec
from repro.core.pipeline import identity_redirector
from repro.devices import WRITE
from repro.harness import (
    ALL_FIGURES,
    fig07_ior_mixed_sizes,
    fig08_server_io_time,
    fig09_ior_mixed_procs,
    fig10_server_ratios,
    fig11_hpio,
    fig12a_btio,
    fig12b_lanl,
    fig13a_lu,
    fig13b_cholesky,
    fig14_redirection_overhead,
)
from repro.units import KiB, MiB
from repro.workloads import IORWorkload


@pytest.fixture(scope="module")
def spec():
    return ClusterSpec()


SCHEMES = ("DEF", "MHA")


class TestFigureSmoke:
    def test_fig07(self, spec):
        r = fig07_ior_mixed_sizes(
            spec, size_mixes=((16,), (64, 128)), num_processes=4,
            total_mib=2, schemes=SCHEMES,
        )
        assert len(r.rows) == 4  # 2 mixes x read/write
        assert set(r.series) == set(SCHEMES)

    def test_fig08(self, spec):
        r = fig08_server_io_time(
            spec, num_processes=4, total_mib=2, schemes=SCHEMES
        )
        assert len(r.rows) == spec.num_servers
        # normalization anchor: some MHA row sits at 1.0
        assert min(r.value(row, "MHA") for row in r.rows) == pytest.approx(1.0)

    def test_fig09(self, spec):
        r = fig09_ior_mixed_procs(
            spec, proc_mixes=((2,), (2, 4)), group_mib=1, schemes=SCHEMES
        )
        assert len(r.rows) == 4

    def test_fig10(self, spec):
        r = fig10_server_ratios(
            spec, ratios=((6, 2), (4, 4)), num_processes=4,
            total_mib=2, schemes=SCHEMES,
        )
        assert len(r.rows) == 4

    def test_fig11(self, spec):
        r = fig11_hpio(
            spec, proc_counts=(4,), region_count=64, schemes=SCHEMES
        )
        assert "4 procs" in r.rows

    def test_fig12a(self, spec):
        r = fig12a_btio(spec, proc_counts=(4,), steps=4, schemes=SCHEMES)
        assert "4 procs" in r.rows

    def test_fig12b(self, spec):
        r = fig12b_lanl(spec, num_processes=2, loops=4, schemes=SCHEMES)
        assert "bandwidth" in r.rows

    def test_fig13a(self, spec):
        r = fig13a_lu(spec, num_processes=2, slabs=4, schemes=SCHEMES)
        assert r.value("bandwidth", "MHA") > 0

    def test_fig13b(self, spec):
        r = fig13b_cholesky(spec, num_processes=2, panels=4, schemes=SCHEMES)
        assert r.value("bandwidth", "MHA") > 0

    def test_fig14(self, spec):
        r = fig14_redirection_overhead(
            spec, proc_counts=(2,), total_mib=1, repeats=2
        )
        # both mapping paths, per record and batched, in us per request
        for column in ("direct", "redirected", "dir_batch", "redir_batch"):
            assert r.value("2 procs", column) > 0
        # lru_hit% counts the per-record loop alone: the same two passes
        # on a fresh identity redirector give the same rate
        trace = IORWorkload(
            num_processes=2, request_sizes=[4 * KiB, 64 * KiB], total_size=1 * MiB
        ).trace(WRITE)
        redirector = identity_redirector(spec, trace)
        for _ in range(2):
            for record in trace:
                redirector.map_request(record.file, record.offset, record.size)
        assert r.value("2 procs", "lru_hit%") == 100.0 * redirector.drt.cache_hit_rate
        # notes are stored verbatim, not %-formatted
        assert r.notes and not any("%%" in note for note in r.notes)

    def test_registry_complete(self):
        assert set(ALL_FIGURES) == {
            "fig07", "fig08", "fig09", "fig10", "fig11",
            "fig12a", "fig12b", "fig13a", "fig13b", "fig14",
        }


class TestCLI:
    def test_cli_runs_one_figure(self, capsys):
        from repro.harness.cli import main

        # fig12b is the fastest full figure
        assert main(["fig12b", "--schemes", "DEF,MHA"]) == 0
        out = capsys.readouterr().out
        assert "Fig 12b" in out

    def test_cli_bars_flag(self, capsys):
        from repro.harness.cli import main

        assert main(["fig12b", "--schemes", "DEF,MHA", "--bars"]) == 0
        out = capsys.readouterr().out
        assert "#" in out

    def test_cli_rejects_unknown_figure(self):
        from repro.harness.cli import main

        with pytest.raises(SystemExit):
            main(["fig99"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--hot-fraction", "2"],
            ["online", "--horizon", "-1"],
            ["chaos", "--horizon", "-1", "--schemes", "DEF"],
        ],
        ids=["serve-hot-fraction", "online-horizon", "chaos-horizon"],
    )
    def test_rejected_setting_prints_one_line(self, argv, capsys):
        """A setting the library rejects exits 2 with one stderr line,
        as argparse does for a bad flag, and nothing runs."""
        from repro.harness.cli import main

        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro-harness: error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--tenants", "0"],
            ["serve", "--max-active", "0"],
            ["serve", "--jobs", "0"],
            ["online", "--processes", "0"],
            ["online", "--passes", "1"],
            ["chaos", "--jobs", "0"],
            ["fig12b", "--jobs", "-1"],
        ],
        ids=[
            "serve-tenants",
            "serve-max-active",
            "serve-jobs",
            "online-processes",
            "online-passes",
            "chaos-jobs",
            "figure-jobs",
        ],
    )
    def test_count_flag_rejected_at_parse_time(self, argv, capsys):
        """A count below its minimum exits 2 while the flags are parsed:
        argparse names the flag and the value, and nothing runs."""
        from repro.harness.cli import main

        flag, value = argv[-2:]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {flag}: must be >= " in captured.err
        assert captured.err.rstrip().endswith(f"got {value}")

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["fig07", "--schemes", "DEF,MHA,NOPE"], "'NOPE'"),
            (["fig12b", "--schemes", " , "], "' , '"),
            (["chaos", "--schemes", "def,NOPE"], "'NOPE'"),
            (["chaos", "--schemes", ""], "''"),
        ],
        ids=["figure-unknown", "figure-empty", "chaos-unknown", "chaos-empty"],
    )
    def test_schemes_rejected_at_parse_time(self, argv, named, capsys, monkeypatch):
        """A scheme list the catalog cannot resolve exits 2 while the
        flags are parsed, naming ``--schemes`` and the bad value, before
        any comparison or chaos cell starts."""
        from repro.harness import chaos, figures
        from repro.harness.cli import main

        def never(*args, **kwargs):
            raise AssertionError("work started before --schemes was checked")

        monkeypatch.setattr(figures, "compare_schemes", never)
        monkeypatch.setattr(chaos, "chaos_experiment", never)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --schemes: " in captured.err
        assert named in captured.err

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["chaos", "--intensities", "0.5,abc"], "'abc'"),
            (["chaos", "--intensities", "2"], "'2'"),
            (["chaos", "--intensities", "0,nan"], "'nan'"),
            (["chaos", "--intensities", " , "], "' , '"),
            (["chaos", "--models", "NOPE"], "'NOPE'"),
            (["chaos", "--models", "slowdown,scrub,NOPE"], "'NOPE'"),
            (["chaos", "--models", ""], "''"),
        ],
        ids=[
            "intensity-not-a-number",
            "intensity-above-one",
            "intensity-nan",
            "intensities-empty",
            "model-unknown",
            "models-one-unknown",
            "models-empty",
        ],
    )
    def test_chaos_lists_rejected_at_parse_time(
        self, argv, named, capsys, monkeypatch
    ):
        """A bad ``--intensities`` or ``--models`` list exits 2 while the
        flags are parsed, naming the flag and the bad value, before any
        chaos cell starts."""
        from repro.harness import chaos
        from repro.harness.cli import main

        def never(*args, **kwargs):
            raise AssertionError("work started before the chaos lists were checked")

        monkeypatch.setattr(chaos, "chaos_experiment", never)
        flag = argv[1]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {flag}: " in captured.err
        assert named in captured.err

    def test_chaos_lists_reach_the_experiment_parsed(self, monkeypatch):
        from repro.harness import chaos
        from repro.harness.cli import main

        seen = {}

        def record(**kwargs):
            seen.update(kwargs)
            raise SystemExit(0)

        monkeypatch.setattr(chaos, "chaos_experiment", record)
        with pytest.raises(SystemExit):
            main(["chaos", "--intensities", " 0, 0.25 ", "--models", "outage, scrub"])
        assert seen["intensities"] == (0.0, 0.25)
        assert seen["models"] == ("outage", "scrub")

    def test_schemes_are_resolved_case_insensitively(self, monkeypatch):
        from repro.harness import figures
        from repro.harness.cli import main

        seen = []

        def record(spec, trace, schemes, **kwargs):
            seen.append(schemes)
            raise SystemExit(0)

        monkeypatch.setattr(figures, "compare_schemes", record)
        with pytest.raises(SystemExit):
            main(["fig07", "--schemes", " def, mha+saw "])
        assert seen == [("DEF", "MHA+SAW")]
