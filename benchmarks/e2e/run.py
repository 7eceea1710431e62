"""End-to-end benchmark runner: timed samples, one traced sample, checks.

    python benchmarks/e2e/run.py [--workload fig07,plan-large,...]
        [--seed S] [--seconds N] [--trace 0|1] [--out DIR]

For each workload the runner starts one sample process at a time (a
closed loop with one client, see ``sample.py``) until ``--seconds`` have
passed, and at least three times.  From the untraced samples it reports
the end-to-end metrics as median, q1, q3 and n:

* ``requests_per_s``: trace requests the timed call pushed through the
  program (counted from the benchmark's own inputs) over its wall time;
* ``setup_s``: from spawning the sample process to its ``ready`` line;
* ``peak_rss_mib``: the sample process's peak RSS, pool workers included.

The two timings are gated at the reference host speed: each sample's
wall times are divided by its ``host_slowdown``, the sample's
``host_probe`` time over :data:`REFERENCE_PROBE_S`.  The raw wall-clock
medians and the slowdown are printed and kept in the report beside them.

With ``--trace 1`` (the default) one extra sample runs with every layer's
entry points rebound (``tracer.py``); its per-layer metrics are printed
and written with its spans to ``DIR/trace-<workload>.json``.  Every
sample's result digest must equal the others', and at seed 0 the digest
pinned in ``pinned_digests.json``.  ``DIR/report.json`` holds every sample.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``; prefixed with
``<workload>/`` when several workloads ran).  Exit status: 0 when every
sample passed, 1 when any failed, 2 when the program is not found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: the workload names, the end-to-end metrics and the run length
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]
MIN_SAMPLES = 3
#: a sample still running after this long is killed and counted failed;
#: samples take 1-3 s, and a whole run must end well within 180 s
SAMPLE_TIMEOUT_S = 60.0
#: ``probe_s`` of a sample (two ``sample.host_probe`` calls) on a quiet
#: 2-vCPU Xeon at 2.0 GHz, where gated and wall-clock timings agree
REFERENCE_PROBE_S = 0.076
#: reported beside the gated metrics but not gated: the wall-clock
#: timings and the host slowdown they are divided by
WALL_CLOCK = {"wall_requests_per_s": "req/s", "wall_setup_s": "s", "host_slowdown": "ratio"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_sample(
    name: str, seed: int, out: Path, trace_out: Path | None = None
) -> dict[str, Any]:
    """Run one sample process; return its measurements or its error."""
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out / "work"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env["TMPDIR"] = str(workdir)
    # a fixed hash seed removes one source of sample-to-sample variance
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable,
        str(HERE / "sample.py"),
        "--workload",
        name,
        "--seed",
        str(seed),
        "--workdir",
        str(workdir),
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    stderr_path = workdir / "stderr.txt"
    sample: dict[str, Any] = {"ok": False, "traced": trace_out is not None}
    with open(stderr_path, "w+") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=stderr,
            text=True,
            start_new_session=True,
        )
        # the session holds the sample and its pool workers
        watchdog = threading.Timer(SAMPLE_TIMEOUT_S, _kill_session, (proc.pid,))
        watchdog.start()
        try:
            assert proc.stdout is not None
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            lines = proc.stdout.read().splitlines()
            proc.stdout.close()
            # wait4 reports the peak RSS of the sample and of the pool
            # workers it reaped
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
        stderr.seek(0)
        err = stderr.read()
    shutil.rmtree(workdir, ignore_errors=True)
    sample["exit_error"] = "Exception ignored" in err
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-3:]
        sample["error"] = f"exit {proc.returncode}: " + " | ".join(tail)
        return sample
    sample.update(json.loads(lines[-1]))
    slowdown = sample["probe_s"] / REFERENCE_PROBE_S
    wall_rps = sample["requests"] / sample["wall_s"]
    sample.update(
        ok=True,
        host_slowdown=slowdown,
        wall_setup_s=setup_s,
        wall_requests_per_s=wall_rps,
        setup_s=setup_s / slowdown,
        requests_per_s=wall_rps * slowdown,
        peak_rss_mib=usage.ru_maxrss / 1024.0,
    )
    return sample


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, out: Path, pinned: str | None
) -> dict[str, Any]:
    """All samples of one workload, their metrics and their verdict.

    ``pinned`` is the digest every sample must produce (seed 0 only);
    without it, every sample must produce the most common digest."""
    samples: list[dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_SAMPLES or time.perf_counter() < deadline:
        samples.append(run_sample(name, seed, out))
    trace_path = out / f"trace-{name}.json"
    if trace:
        samples.append(run_sample(name, seed, out, trace_out=trace_path))

    ok = [s for s in samples if s["ok"]]
    expected = pinned or (statistics.mode(s["digest"] for s in ok) if ok else None)
    for s in ok:
        if s["digest"] != expected:
            s.update(ok=False, error=f"digest {s['digest'][:12]} != {expected}")
    timed = [s for s in samples if s["ok"] and not s["traced"]]
    report: dict[str, Any] = {
        "jobs": timed[0]["jobs"] if timed else None,
        "attempted": len(samples),
        "failed": sum(not s["ok"] for s in samples),
        "digest": expected,
        "pinned_digest": pinned,
        "sim_bw_mib_s": timed[0]["sim_bw_mib_s"] if timed else None,
        "metrics": {},
        "wall_clock": {},
        "per_layer": {},
        "samples": samples,
    }
    gated = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for key, units in (("metrics", gated), ("wall_clock", WALL_CLOCK)):
        for metric, unit in units.items():
            values = [s[metric] for s in timed]
            if values:
                q1, median, q3 = quartiles(values)
                report[key][metric] = {
                    "unit": unit,
                    "median": median,
                    "q1": q1,
                    "q3": q3,
                    "n": len(values),
                    "values": values,
                }
    traced = samples[-1] if trace else None
    if traced is not None and traced["ok"] and timed:
        summary = json.loads(trace_path.read_text())
        # the untraced median wall time at the traced sample's host speed
        wall = traced["host_slowdown"] * statistics.median(
            s["wall_s"] / s["host_slowdown"] for s in timed
        )
        exit_errors = sum(s["exit_error"] for s in samples)
        report["per_layer"] = tracer.layer_metrics(summary, wall, exit_errors)
        notes = []
        if report["per_layer"]["parallel.pools"]:
            notes.append(
                "work inside pool worker processes is not visible from the "
                "parent; it is counted in parallel.self_frac"
            )
        summary.update(
            workload=name,
            seed=seed,
            untraced_median_wall_s=wall,
            metrics=report["per_layer"],
            notes=notes,
        )
        trace_path.write_text(json.dumps(summary))
    return report


def print_report(name: str, seed: int, rep: dict[str, Any]) -> None:
    """The human-readable tables of one workload."""
    n_traced = sum(s["traced"] for s in rep["samples"])
    print(
        f"== {name}  seed {seed}  REPRO_JOBS={rep['jobs']}  "
        f"{rep['attempted'] - n_traced} timed + {n_traced} traced samples"
    )
    head = ("metric", "unit", "median", "q1", "q3", "n")
    print("  {:<20}{:>18}{:>14}{:>14}{:>14}{:>4}".format(*head))
    for table in ("metrics", "wall_clock"):
        for metric, m in rep[table].items():
            print(
                f"  {metric:<20}{m['unit']:>18}{m['median']:>14.6g}"
                f"{m['q1']:>14.6g}{m['q3']:>14.6g}{m['n']:>4}"
            )
    if rep["sim_bw_mib_s"] is not None:
        bw = rep["sim_bw_mib_s"]
        print(f"  {'sim_bw_mib_s':<20}{'MiB/s (simulated)':>18}{bw:>14.6g}")
    failed_frac = rep["failed"] / rep["attempted"]
    print(f"  {'failed_frac':<20}{'ratio':>18}{failed_frac:>14.6g}")
    pinned = " (pinned)" if rep["pinned_digest"] else ""
    print(f"  digest {rep['digest']}{pinned}")
    for s in rep["samples"]:
        if not s["ok"]:
            print(f"  FAILED sample: {s['error']}")
    if rep["per_layer"]:
        print("  per layer (traced sample):")
        for metric, value in rep["per_layer"].items():
            print(f"    {metric:<28}{tracer.PER_LAYER[metric]:>8}{value:>14.6g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        default=",".join(WORKLOAD_NAMES),
        help="comma-separated workload names (default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    args = parser.parse_args(argv)

    names = [n for n in args.workload.split(",") if n]
    unknown = [n for n in names if n not in WORKLOAD_NAMES]
    if unknown or not names:
        parser.error(f"unknown workloads {unknown}; choose from {WORKLOAD_NAMES}")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is not at {SRC / 'repro'}", file=sys.stderr)
        return 2
    pins = json.loads((HERE / "pinned_digests.json").read_text())
    out = args.out.resolve()
    (out / "work").mkdir(parents=True, exist_ok=True)

    reports = {}
    for name in names:
        reports[name] = run_workload(
            name,
            args.seed,
            args.seconds,
            bool(args.trace),
            out,
            pins.get(name) if args.seed == 0 else None,
        )
        print_report(name, args.seed, reports[name])
    (out / "report.json").write_text(
        json.dumps(
            {
                "schema": "repro-e2e/1",
                "seed": args.seed,
                "seconds": args.seconds,
                "environment": {
                    "host": platform.node(),
                    "nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "machine": platform.machine(),
                },
                "workloads": reports,
            },
            indent=1,
        )
    )

    metrics: dict[str, dict[str, Any]] = {}
    for name, rep in reports.items():
        prefix = f"{name}/" if len(reports) > 1 else ""
        if args.trace:
            for metric, value in rep["per_layer"].items():
                unit = tracer.PER_LAYER[metric]
                metrics[prefix + metric] = {"value": value, "unit": unit}
        else:
            for metric, m in rep["metrics"].items():
                metrics[prefix + metric] = {"value": m["median"], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
