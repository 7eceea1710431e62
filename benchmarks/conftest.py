"""Shared helpers for the benchmarks.

Every figure benchmark regenerates one of the paper's evaluation
figures at a reduced data volume (bandwidths are volume-normalized, so
the scheme ordering — the reproduction target — is unaffected), asserts
the paper's qualitative shape, and prints the reproduced rows so a
``pytest benchmarks/ --benchmark-only -s`` run doubles as the
EXPERIMENTS.md data source.

The ``test_perf_*`` microbenchmarks share one harness: the
:func:`best_of` timer and the module-scoped :func:`report` fixture.
Each perf module names its bench once, as ``BENCH`` (the report's
bench name) and ``BENCH_OUT`` (the output file, relative to the repo
root; ``REPRO_BENCH_OUT`` overrides it).
"""

import os
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
# the perf modules import the ``harness.bench`` reporter from the repo root
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

#: timed runs per measurement; the best wall time is reported
REPEATS = 3


def run_once(benchmark, fn, *args, **kwargs):
    """Run a figure function exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    def _run(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return _run


def _best_of(fn, repeats: int = REPEATS):
    """Best wall time over ``repeats`` runs, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.fixture(scope="session")
def best_of():
    """The shared timer: ``best_of(fn, repeats=3) -> (wall_s, result)``."""
    return _best_of


@pytest.fixture(scope="module")
def report(request):
    """The module's bench report, written to its JSON file on teardown."""
    from harness.bench import BenchReport

    rep = BenchReport(bench=request.module.BENCH)
    rep.collect_environment()
    yield rep
    out = os.environ.get(
        "REPRO_BENCH_OUT", str(REPO_ROOT / request.module.BENCH_OUT)
    )
    rep.write(out)
    print(f"\nwrote {out}")
