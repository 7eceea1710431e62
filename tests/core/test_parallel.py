"""The executor layer: job resolution, order preservation, fallbacks
and error context propagation."""

import multiprocessing

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.core.determinator import region_search_task
from repro.core.parallel import (
    JOBS_ENV_VAR,
    RegionSearchError,
    parallel_map,
    resolve_jobs,
)
from repro.core.params import CostModelParams
from repro.exceptions import ConfigurationError


def square(x):
    return x * x


def boom(x):
    raise ValueError(f"bad item {x}")


def boom_on_two(x):
    if x == 2:
        raise ValueError("two is right out")
    return x


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "7")
        assert resolve_jobs(3) == 3

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        assert resolve_jobs() == 5

    def test_default_is_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs() == (os.cpu_count() or 1)

    def test_bad_env_var(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(ConfigurationError):
            resolve_jobs()

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            resolve_jobs(bad)


class TestParallelMap:
    def test_serial_preserves_order(self):
        assert parallel_map(square, [3, 1, 2], n_jobs=1) == [9, 1, 4]

    def test_process_pool_preserves_order(self):
        items = list(range(20))
        assert parallel_map(square, items, n_jobs=2) == [x * x for x in items]

    def test_pool_workers_joined_on_success(self):
        before = set(multiprocessing.active_children())
        assert parallel_map(square, list(range(8)), n_jobs=2) == [
            x * x for x in range(8)
        ]
        # the workers exited before parallel_map returned
        assert set(multiprocessing.active_children()) <= before

    def test_empty_items(self):
        assert parallel_map(square, [], n_jobs=4) == []

    def test_single_item_stays_serial(self):
        assert parallel_map(square, [6], n_jobs=8) == [36]

    def test_label_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            parallel_map(square, [1, 2], n_jobs=1, labels=["only-one"])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_error_carries_label_and_cause(self, jobs):
        with pytest.raises(RegionSearchError) as info:
            parallel_map(
                boom_on_two, [1, 2, 3], n_jobs=jobs, labels=["a", "b", "c"]
            )
        assert info.value.label == "b"
        assert "ValueError" in str(info.value)
        assert "two is right out" in str(info.value)
        assert isinstance(info.value.__cause__, ValueError)

    def test_default_labels_are_indices(self):
        with pytest.raises(RegionSearchError) as info:
            parallel_map(boom, [10], n_jobs=1)
        assert info.value.label == "#0"

    def test_unpicklable_function_falls_back_to_serial(self):
        # a lambda cannot cross the process boundary; the pool path
        # must degrade to the serial loop, not crash
        # the lambda below is the point of the test: it must NOT cross
        # the process boundary, and the runtime must degrade gracefully
        result = parallel_map(
            lambda x: x + 1, [1, 2, 3], n_jobs=2  # repro-lint: disable=RL003
        )
        assert result == [2, 3, 4]


class TestRegionSearchTask:
    """The module-level worker entry drives a real region search."""

    def _task(self, engine):
        params = CostModelParams.from_cluster(ClusterSpec())
        rng = np.random.default_rng(0)
        offsets = rng.integers(0, 1 << 20, 24)
        lengths = rng.integers(1, 1 << 16, 24)
        is_read = rng.random(24) < 0.5
        conc = rng.integers(1, 8, 24)
        return (
            params,
            offsets,
            lengths,
            is_read,
            conc,
            None,
            dict(step=4096, engine=engine),
        )

    def test_matches_direct_call(self):
        from repro.core.determinator import determine_stripes

        task = self._task("grid")
        params, offsets, lengths, is_read, conc, _, kwargs = task
        direct = determine_stripes(
            params, offsets, lengths, is_read, conc, **kwargs
        )
        via_task = region_search_task(task)
        assert via_task.pair == direct.pair
        assert via_task.cost == direct.cost

    def test_runs_across_processes(self):
        tasks = [self._task("grid"), self._task("scalar")]
        grid, scalar = parallel_map(
            region_search_task, tasks, n_jobs=2, labels=["g", "s"]
        )
        assert grid.pair == scalar.pair
        assert grid.cost == scalar.cost
