"""The executor layer: job validation, order preservation, fallbacks,
error context propagation, and the region searches that never use it."""

import multiprocessing

import pytest

import repro.core.parallel as parallel
from repro.cluster import ClusterSpec
from repro.core.parallel import TaskError, parallel_map
from repro.core.pipeline import MHAPipeline
from repro.exceptions import ConfigurationError
from repro.online import DriftReport, IncrementalReplanner
from repro.schemes import HARLScheme
from repro.tracing import Trace
from repro.units import KiB, MiB
from repro.workloads import IORWorkload


def square(x):
    return x * x


def boom(x):
    raise ValueError(f"bad item {x}")


def boom_on_two(x):
    if x == 2:
        raise ValueError("two is right out")
    return x


class Counted:
    """An item that counts, in the process that pickles it, how often
    it was pickled."""

    reduces = 0

    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        Counted.reduces += 1
        return (Counted, (self.value,))


def double(item):
    return 2 * item.value


class TestParallelMap:
    def test_serial_preserves_order(self):
        assert parallel_map(square, [3, 1, 2], n_jobs=1) == [9, 1, 4]

    def test_serial_by_default(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("parallel_map started a pool unasked")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
        assert parallel_map(square, [3, 1, 2]) == [9, 1, 4]

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

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_jobs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parallel_map(square, [1, 2], n_jobs=bad)

    def test_label_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            parallel_map(square, [1, 2], n_jobs=1, labels=["only-one"])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_error_carries_label_and_cause(self, jobs):
        with pytest.raises(TaskError) as info:
            parallel_map(
                boom_on_two, [1, 2, 3], n_jobs=jobs, labels=["a", "b", "c"]
            )
        assert info.value.label == "b"
        assert str(info.value).startswith("task 'b' failed: ValueError")
        assert "two is right out" in str(info.value)
        assert isinstance(info.value.__cause__, ValueError)

    def test_default_labels_are_indices(self):
        with pytest.raises(TaskError) as info:
            parallel_map(boom, [10], n_jobs=1)
        assert info.value.label == "#0"

    def test_each_item_is_pickled_once(self, monkeypatch):
        items = [Counted(v) for v in range(6)]
        serial = parallel_map(double, items, n_jobs=1)
        monkeypatch.setattr(Counted, "reduces", 0)
        assert parallel_map(double, items, n_jobs=2) == serial
        assert Counted.reduces == len(items)

    def test_unpicklable_function_falls_back_to_serial(self):
        # a lambda cannot cross the process boundary; the pool path
        # must degrade to the serial loop, not crash
        # the lambda below is the point of the test: it must NOT cross
        # the process boundary, and the runtime must degrade gracefully
        result = parallel_map(
            lambda x: x + 1, [1, 2, 3], n_jobs=2  # repro-lint: disable=RL302
        )
        assert result == [2, 3, 4]



def ior(file, sizes, seed):
    return IORWorkload(
        num_processes=4,
        request_sizes=sizes,
        total_size=2 * MiB,
        seed=seed,
        file=file,
    ).trace("write")


class TestRegionSearchesStayInProcess:
    """MHA plans, HARL builds and online replans search every region in
    the calling process."""

    @pytest.fixture(autouse=True)
    def forbid_pools(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a region search started a process pool")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)

    @pytest.fixture
    def spec(self):
        return ClusterSpec()

    @pytest.fixture
    def trace(self):
        return Trace([
            *ior("a.dat", [16 * KiB, 128 * KiB], seed=1),
            *ior("b.dat", [64 * KiB, 256 * KiB], seed=2),
        ])

    def test_mha_plan(self, spec, trace):
        plan = MHAPipeline(spec, seed=0).plan(trace)
        assert len(plan.decisions) > 1

    def test_harl_build(self, spec, trace):
        scheme = HARLScheme()
        scheme.build(spec, trace)
        assert len(scheme.decisions) > 1

    def test_online_replan(self, spec, trace):
        pipeline = MHAPipeline(spec, seed=0)
        old_plan = pipeline.plan(trace)
        window = ior("b.dat", [32 * KiB, 512 * KiB], seed=3)
        report = DriftReport(
            drifted_regions=old_plan.reorder_plans["b.dat"].region_names(),
            drifted_files=["b.dat"],
        )
        outcome = IncrementalReplanner(pipeline, reuse_tolerance=0.0).replan(
            window, old_plan, report
        )
        assert len(outcome.searched_regions) > 1
