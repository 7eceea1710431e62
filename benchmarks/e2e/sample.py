"""One sample of one workload, in its own process (started by ``run.py``).

Protocol on standard output: the line ``ready`` once the interpreter
has started, the workload's module and the program modules it uses are
imported and ``ClusterSpec()`` is built (the runner times set-up up to
it); then, after the timed call and its checks, one JSON line with the
sample's result.  Seeded input generation runs after ``ready`` and
outside the timed call.

The sample also times :func:`host_probe`, a fixed piece of work that
does not touch the program, once before the timed call and once after
its checks.
On a shared host the CPU's speed drifts by up to 2.5x over minutes; the
runner divides that drift out of the timings it gates on.

    PYTHONPATH=src python benchmarks/e2e/sample.py --workload fig07 \
        --seed 0 --workdir DIR [--trace-out FILE]

``--trace-out`` makes this the traced sample: the layers' entry points
are rebound around the timed call and the span summary is written to
``FILE``.  A failed check or any exception exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

import tracer
import workloads
from repro.cluster import ClusterSpec


def host_probe(array: np.ndarray) -> float:
    """Seconds a fixed mix of interpreter and numpy sorting work takes now,
    the two kinds of work the workloads spend their time in."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(150_000):
        acc += i * i
        table[i & 1023] = acc
    for _ in range(8):
        np.argsort(array)
        np.sort(array, kind="stable")
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    workload = workloads.load(args.workload)
    # never more workers than CPUs: an oversubscribed pool measures the host
    jobs = min(workload.JOBS, os.cpu_count() or 1)
    os.environ["REPRO_JOBS"] = str(jobs)
    spec = ClusterSpec()
    print("ready", flush=True)

    # small (256 KiB), so the probe leaves the peak RSS alone
    probe_array = np.random.default_rng(0).random(32_768)
    probe_s = host_probe(probe_array)
    inputs = workload.prepare(spec, args.seed, args.workdir)
    recorder = tracer.Recorder() if args.trace_out else None
    if recorder is not None:
        recorder.install()
    try:
        start = time.perf_counter()
        result = workload.run(spec, inputs)
        wall_s = time.perf_counter() - start
    finally:
        if recorder is not None:
            recorder.uninstall()
    outcome = workload.check(inputs, result)
    # released first, so the probe's arrays do not raise the peak RSS
    del inputs, result
    probe_s += host_probe(probe_array)
    if recorder is not None:
        args.trace_out.write_text(json.dumps(recorder.summary(wall_s)))
    print(
        json.dumps(
            {
                "jobs": jobs,
                "wall_s": wall_s,
                "probe_s": probe_s,
                "requests": outcome.requests,
                "digest": outcome.digest,
                "sim_bw_mib_s": outcome.sim_bw_mib_s,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
