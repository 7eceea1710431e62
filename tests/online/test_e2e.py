"""End-to-end acceptance: the phase-shift experiment and its CLI."""

import pytest

from repro.exceptions import ConfigurationError
from repro.harness.cli import main
from repro.online import phase_shift_experiment
from repro.units import MiB


@pytest.fixture(scope="module")
def report():
    return phase_shift_experiment()


class TestPhaseShiftExperiment:
    def test_at_least_one_relayout_admitted(self, report):
        assert report.replans_admitted >= 1
        assert report.drift_checks >= 1
        assert any(d.admitted for d in report.decisions)

    def test_bytes_moved_matches_migrations(self, report):
        assert report.bytes_moved > 0
        assert report.bytes_moved == sum(m.bytes_moved for m in report.migrations)
        assert all(m.complete for m in report.migrations)

    def test_foreground_served_during_migration(self, report):
        """The migration overlaps live foreground traffic: it starts
        before the foreground finishes, and the contention shows up as
        a measurable (but bounded) slowdown."""
        migration = report.migrations[0]
        assert migration.started_at < report.foreground.makespan
        assert report.foreground_slowdown > 1.0
        assert report.foreground_slowdown < 2.0

    def test_live_beats_stop_the_world(self, report):
        assert report.total_makespan < report.stop_the_world_makespan

    def test_post_swap_mapping_byte_identical_to_offline_plan(self, report):
        assert report.offline_match_fraction == 1.0

    def test_describe_mentions_the_verdict(self, report):
        text = report.describe()
        assert "1 admitted" in text
        assert "ADMIT" in text

    def test_passes_validation(self):
        with pytest.raises(ConfigurationError, match="passes"):
            phase_shift_experiment(passes=1)


class TestOnlineCLI:
    def test_online_subcommand_runs(self, capsys):
        assert main(["online", "--passes", "2", "--total-mib", "2"]) == 0
        out = capsys.readouterr().out
        assert "online relayout run" in out
        assert "replans" in out

    def test_online_subcommand_throttle_knob(self, capsys):
        assert main(["online", "--passes", "2", "--total-mib", "2",
                     "--throttle-mib", "64"]) == 0
        assert "bytes moved" in capsys.readouterr().out

    def test_legacy_figures_interface_intact(self, capsys):
        assert main(["fig12b", "--schemes", "DEF,MHA"]) == 0
        assert "MHA" in capsys.readouterr().out


class TestThrottleEffect:
    def test_throttle_stretches_migration(self):
        fast = phase_shift_experiment(passes=2)
        slow = phase_shift_experiment(passes=2, throttle=8 * MiB)
        assert slow.migrations[0].makespan > fast.migrations[0].makespan
        # the paced copy still moves every byte and commits
        assert slow.bytes_moved == fast.bytes_moved
        assert slow.replans_admitted == 1
