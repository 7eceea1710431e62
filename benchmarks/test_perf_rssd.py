"""RSSD search-engine microbenchmark: vectorized grid vs scalar loop.

One synthetic region, 64 candidates per axis (the adaptive bounds put
``B_h = B_s = r_max = 256 KB`` on the default cluster, i.e. 64 nonzero
4 KB steps on each axis), searched by both engines.
Timing is the shared best-of-3 wall clock; the grid engine must clear a
5x speedup over the scalar reference on the same candidate set.

A second, wide region is shaped like the dominant region of the
``plan-large`` end-to-end workload (1,536 contiguous 256 KB writes in
bursts of 21): its phases time the burst-mode search where the request
axis is long.  There the grid engine's lower bound rules out all but
one kernel block of candidates, while on the random region (128
requests over 13 op/length-band groups) the bound is skipped and every
candidate is scored.  A third, scattered region (1,536 contiguous
writes cycling 16/64/256 KB, each burst of 21 drawn from the whole
region) leaves the pruned search several kernel blocks to score, so
its phases time the search's per-block work.  All three counts are
deterministic and asserted.

Results are written to ``BENCH_rssd.json`` (override with the
``REPRO_BENCH_OUT`` environment variable) through the
:mod:`harness.bench` reporter, which CI uploads as an artifact and
gates against ``benchmarks/baselines/BENCH_rssd.json``.
"""

import numpy as np

from harness.bench import PhaseResult

from repro.cluster import ClusterSpec
from repro.core.determinator import determine_stripes
from repro.core.params import CostModelParams
from repro.units import KiB

#: requests in the benchmark region — large enough that the per-request
#: axis dominates, small enough that the scalar reference finishes fast
NUM_REQUESTS = 128
#: largest request: with the default 6H+2S cluster the adaptive bound
#: threshold is (M+N) * 128 KB = 1 MB, so bounds collapse to r_max and
#: each search axis holds r_max / 4 KB = 64 candidate steps
R_MAX = 256 * KiB
#: minimum acceptable grid-over-scalar speedup (acceptance criterion)
MIN_SPEEDUP = 5.0
#: the wide region: contiguous R_MAX writes issued in bursts of 21
WIDE_REQUESTS = 1536
WIDE_BURST = 21
#: candidates the grid engine scores on the wide region: one kernel
#: block of GRID_CHUNK_ELEMS // WIDE_REQUESTS candidates
WIDE_EVALUATED = 21
#: the scattered region's request sizes, in row order
SCATTERED_SIZES = (16 * KiB, 64 * KiB, R_MAX)
#: candidates the grid engine scores on the scattered region: 14 kernel
#: blocks of 21
SCATTERED_EVALUATED = 294
#: candidates in each region's search grid (64 steps on each axis)
CANDIDATES = 2144
BENCH = "rssd-search"
BENCH_OUT = "BENCH_rssd.json"


def make_region(seed: int = 7):
    rng = np.random.default_rng(seed)
    offsets = rng.integers(0, 1 << 24, NUM_REQUESTS)
    lengths = rng.integers(4 * KiB, R_MAX, NUM_REQUESTS)
    lengths[0] = R_MAX  # pin r_max so the bounds are deterministic
    is_read = rng.random(NUM_REQUESTS) < 0.5
    rng.integers(1, 16, NUM_REQUESTS)  # unused, but drawn: later draws depend on it
    bursts = rng.integers(0, NUM_REQUESTS // 4, NUM_REQUESTS)
    return offsets, lengths, is_read, bursts


def make_wide_region():
    offsets = np.arange(WIDE_REQUESTS, dtype=np.int64) * R_MAX
    lengths = np.full(WIDE_REQUESTS, R_MAX, dtype=np.int64)
    is_read = np.zeros(WIDE_REQUESTS, dtype=bool)
    bursts = np.arange(WIDE_REQUESTS) // WIDE_BURST
    return offsets, lengths, is_read, bursts


def make_scattered_region(seed: int = 7):
    lengths = np.resize(np.array(SCATTERED_SIZES, dtype=np.int64), WIDE_REQUESTS)
    offsets = np.cumsum(lengths) - lengths
    is_read = np.zeros(WIDE_REQUESTS, dtype=bool)
    rng = np.random.default_rng(seed)
    bursts = rng.permutation(np.arange(WIDE_REQUESTS) // WIDE_BURST)
    return offsets, lengths, is_read, bursts


def time_engines(report, best_of, phase, region):
    """Time both engines on ``region``, report ``scalar-``/``grid-<phase>``
    and return the grid-over-scalar speedup and the grid decision."""
    params = CostModelParams.from_cluster(ClusterSpec())

    def search(engine):
        return determine_stripes(
            params, *region, step=4 * KiB, max_axis_candidates=64, engine=engine
        )

    t_scalar, scalar = best_of(lambda: search("scalar"))
    t_grid, grid = best_of(lambda: search("grid"))

    # same search, same answer — speed is worthless if the result moved
    assert grid.pair == scalar.pair
    assert grid.cost == scalar.cost
    assert grid.candidates == scalar.candidates

    report.add(PhaseResult.from_timing(f"scalar-{phase}", t_scalar, scalar.candidates))
    report.add(
        PhaseResult.from_timing(
            f"grid-{phase}", t_grid, grid.candidates, scalar_wall_s=t_scalar
        )
    )
    speedup = t_scalar / t_grid
    print(
        f"\n{phase}: {grid.candidates} candidates, grid scored "
        f"{grid.evaluated}, scalar {t_scalar * 1e3:.1f} ms, "
        f"grid {t_grid * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    return speedup, grid


def test_grid_engine_speedup(report, best_of):
    speedup, grid = time_engines(report, best_of, "burst", make_region())
    # too few requests per op/length-band group: no bound, full grid
    assert grid.evaluated == grid.candidates == CANDIDATES
    assert speedup >= MIN_SPEEDUP, (
        f"grid engine only {speedup:.1f}x faster than scalar "
        f"(need >= {MIN_SPEEDUP}x)"
    )


def test_wide_burst_region(report, best_of):
    # no speedup floor: this phase tracks the search's wall time
    _, grid = time_engines(report, best_of, "burst-wide", make_wide_region())
    assert grid.candidates == CANDIDATES
    assert grid.evaluated == WIDE_EVALUATED


def test_scattered_burst_region(report, best_of):
    # no speedup floor: this phase tracks the per-block work of a search
    # that scores several kernel blocks
    _, grid = time_engines(
        report, best_of, "burst-scattered", make_scattered_region()
    )
    assert grid.candidates == CANDIDATES
    assert grid.evaluated == SCATTERED_EVALUATED
