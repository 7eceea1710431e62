"""Command-line harness: regenerate any paper figure from a terminal.

``python -m repro.harness fig07`` (or the installed ``repro-harness``
script) prints the reproduced rows of the requested figure; ``all``
runs the whole evaluation section.  ``python -m repro.harness online``
runs the closed-loop phase-shift experiment of :mod:`repro.online`
instead of a figure, ``python -m repro.harness chaos`` runs the
fault-intensity × scheme sweep of :mod:`repro.harness.chaos`, and
``python -m repro.harness serve`` replays a multi-tenant fleet through
the cluster service of :mod:`repro.tenancy`.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..exceptions import ReproError
from ..schemes import SCHEMES
from ..units import MiB
from .figures import ALL_FIGURES
from .report import format_bars

__all__ = ["main"]


def _count(minimum: int = 1):
    """An argparse ``type`` for a count flag: an integer of at least
    ``minimum``.  A bad value fails at parse time, and argparse names
    the flag: ``argument --tenants: must be >= 1, got 0``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _schemes(text: str) -> tuple[str, ...]:
    """An argparse ``type`` for ``--schemes``: comma-separated scheme
    names, upper-cased, each one the scheme catalog holds.  A bad list
    fails at parse time, and argparse names the flag: ``argument
    --schemes: unknown scheme 'NOPE' ...``."""
    names = tuple(name.strip().upper() for name in text.split(",") if name.strip())
    if not names:
        raise argparse.ArgumentTypeError(f"expected scheme names, got {text!r}")
    for name in names:
        if name not in SCHEMES:
            raise argparse.ArgumentTypeError(
                f"unknown scheme {name!r}; choose from {sorted(SCHEMES)}"
            )
    return names


def _names(choices: tuple[str, ...], what: str):
    """An argparse ``type`` for a comma-separated list of names, each
    one of ``choices``.  A bad list fails at parse time, and argparse
    names the flag: ``argument --models: unknown chaos model 'NOPE'``."""

    def parse(text: str) -> tuple[str, ...]:
        names = tuple(name.strip() for name in text.split(",") if name.strip())
        if not names:
            raise argparse.ArgumentTypeError(f"expected {what} names, got {text!r}")
        for name in names:
            if name not in choices:
                raise argparse.ArgumentTypeError(
                    f"unknown {what} {name!r}; choose from {choices}"
                )
        return names

    return parse


def _intensities(text: str) -> tuple[float, ...]:
    """An argparse ``type`` for ``--intensities``: comma-separated fault
    intensities, each a number in [0, 1].  A bad list fails at parse
    time, and argparse names the flag: ``argument --intensities:
    intensity must be in [0, 1], got '2'``."""
    values: list[float] = []
    for item in (part.strip() for part in text.split(",")):
        if not item:
            continue
        try:
            value = float(item)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a number, got {item!r}"
            ) from None
        if not 0.0 <= value <= 1.0:
            raise argparse.ArgumentTypeError(
                f"intensity must be in [0, 1], got {item!r}"
            )
        values.append(value)
    if not values:
        raise argparse.ArgumentTypeError(f"expected fault intensities, got {text!r}")
    return tuple(values)


def _online_main(argv: list[str]) -> int:
    """The ``online`` subcommand: checkpoint -> IOR phase shift served
    by the live relayout controller."""
    from ..online import phase_shift_experiment

    parser = argparse.ArgumentParser(
        prog="repro-harness online",
        description=(
            "Run the online relayout experiment: a checkpoint-profiled "
            "layout faces an IOR-style pattern shift mid-run; the "
            "controller detects the drift, re-plans, and migrates in "
            "the background while foreground requests keep being served."
        ),
    )
    parser.add_argument(
        "--processes", type=_count(), default=8, help="IOR ranks after the shift"
    )
    parser.add_argument(
        "--total-mib",
        type=float,
        default=4.0,
        help="bytes per IOR pass, in MiB",
    )
    parser.add_argument(
        "--passes",
        type=_count(2),
        default=3,
        help="IOR passes after the shift (pass 1 trips the detector)",
    )
    parser.add_argument(
        "--throttle-mib",
        type=float,
        default=None,
        help="background migration cap per region copier, MiB/s",
    )
    parser.add_argument(
        "--horizon",
        type=float,
        default=3600.0,
        help="seconds of future traffic the gate credits a relayout with",
    )
    parser.add_argument(
        "--drift-threshold",
        type=float,
        default=0.5,
        help="relative feature distance that flags a region as drifted",
    )
    parser.add_argument("--seed", type=int, default=1, help="RNG seed")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    report = phase_shift_experiment(
        ior_processes=args.processes,
        ior_total=int(args.total_mib * MiB),
        passes=args.passes,
        throttle=args.throttle_mib * MiB if args.throttle_mib else None,
        horizon=args.horizon,
        drift_threshold=args.drift_threshold,
        seed=args.seed,
    )
    elapsed = time.perf_counter() - started
    print(report.describe())
    print(f"  ({elapsed:.1f}s)")
    return 0


def _chaos_main(argv: list[str]) -> int:
    """The ``chaos`` subcommand: fault-intensity × scheme sweep."""
    from ..config import DEFAULT_FAULT_SEED
    from .chaos import (
        CHAOS_MODEL_NAMES,
        CHAOS_SCHEMES,
        DEFAULT_CHAOS_INTENSITIES,
        chaos_experiment,
    )

    parser = argparse.ArgumentParser(
        prog="repro-harness chaos",
        description=(
            "Sweep fault intensity across schemes and report aggregate "
            "bandwidth plus p50/p95/p99/p999 request-latency tails. "
            "The sweep is fully deterministic; --digest prints only a "
            "SHA-256 of the full-precision results, which CI compares "
            "across runs."
        ),
    )
    parser.add_argument(
        "--models",
        type=_names(CHAOS_MODEL_NAMES, "chaos model"),
        default=("slowdown", "scrub"),
        help=f"comma-separated fault models from {','.join(CHAOS_MODEL_NAMES)}",
    )
    parser.add_argument(
        "--intensities",
        type=_intensities,
        default=DEFAULT_CHAOS_INTENSITIES,
        help="comma-separated fault intensities in [0, 1]",
    )
    parser.add_argument(
        "--schemes",
        type=_schemes,
        default=CHAOS_SCHEMES,
        help="comma-separated schemes (registry names)",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_FAULT_SEED, help="fault-plan seed"
    )
    parser.add_argument(
        "--horizon",
        type=float,
        default=30.0,
        help="seconds of simulated time randomized faults may land in",
    )
    parser.add_argument(
        "--engine",
        choices=("flat", "event"),
        default=None,
        help="replay engine (default: the flat queue-tail kernel)",
    )
    parser.add_argument(
        "--jobs",
        type=_count(),
        default=1,
        help="worker processes per intensity (default 1 = serial)",
    )
    parser.add_argument(
        "--digest",
        action="store_true",
        help="print only the report's SHA-256 digest (for CI comparison)",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    report = chaos_experiment(
        intensities=args.intensities,
        schemes=args.schemes,
        models=args.models,
        seed=args.seed,
        horizon=args.horizon,
        engine=args.engine,
        n_jobs=args.jobs,
    )
    elapsed = time.perf_counter() - started
    if args.digest:
        print(report.digest())
        return 0
    print(report.describe())
    print(f"\ndigest: {report.digest()}")
    print(f"  ({elapsed:.1f}s)")
    return 0


def _serve_main(argv: list[str]) -> int:
    """The ``serve`` subcommand: the multi-tenant cluster service."""
    from ..config import DEFAULT_ARRIVAL_SEED
    from ..tenancy import serve_scenario

    parser = argparse.ArgumentParser(
        prog="repro-harness serve",
        description=(
            "Replay a multi-tenant fleet on one shared hybrid PFS: "
            "seeded per-tenant arrival processes, admission control, "
            "token-bucket bandwidth shares, SServer quotas, and SCFQ "
            "weighted fair queueing, with per-tenant tail latencies. "
            "Builds shard across --jobs processes (default 1); the result "
            "is bit-identical at any --jobs count, and --digest prints only "
            "the SHA-256 CI compares across runs."
        ),
    )
    parser.add_argument(
        "--tenants", type=_count(), default=1000, help="fleet size (default 1000)"
    )
    parser.add_argument(
        "--hot-fraction",
        type=float,
        default=0.8,
        help="fraction of hot (small working set) tenants in the mix",
    )
    parser.add_argument(
        "--max-active",
        type=_count(),
        default=64,
        help="admission slots: tenants concurrently in flight",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_ARRIVAL_SEED,
        help="arrival-process seed (tenant k draws from [seed, k])",
    )
    parser.add_argument(
        "--engine",
        choices=("flat", "event"),
        default=None,
        help="replay engine (default: the flat queue-tail kernel)",
    )
    parser.add_argument(
        "--jobs",
        type=_count(),
        default=1,
        help="build-shard worker processes (default 1 = serial)",
    )
    parser.add_argument(
        "--digest",
        action="store_true",
        help="print only the report's SHA-256 digest (for CI comparison)",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    report = serve_scenario(
        tenants=args.tenants,
        hot_fraction=args.hot_fraction,
        max_active=args.max_active,
        arrival_seed=args.seed,
        engine=args.engine,
        n_jobs=args.jobs,
    )
    elapsed = time.perf_counter() - started
    if args.digest:
        print(report.digest())
        return 0
    print(report.describe())
    print(f"\ndigest: {report.digest()}")
    print(f"  ({elapsed:.1f}s, {report.total_requests / elapsed:.0f} req/s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run a figure or a subcommand; returns the exit status.  A setting
    the library rejects (any :class:`ReproError`) prints one
    ``repro-harness: error: ...`` line and returns 2, as argparse does
    for a bad flag."""
    try:
        return _main(sys.argv[1:] if argv is None else argv)
    except ReproError as exc:
        print(f"repro-harness: error: {exc}", file=sys.stderr)
        return 2


def _main(argv: list[str]) -> int:
    if argv and argv[0] == "online":
        return _online_main(argv[1:])
    if argv and argv[0] == "chaos":
        return _chaos_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description="Reproduce the MHA paper's evaluation figures.",
    )
    parser.add_argument(
        "figures",
        nargs="+",
        choices=sorted(ALL_FIGURES) + ["all"],
        help="figure ids to run (or 'all')",
    )
    parser.add_argument(
        "--schemes",
        type=_schemes,
        default=None,
        help="comma-separated scheme subset (e.g. DEF,MHA)",
    )
    parser.add_argument(
        "--bars",
        action="store_true",
        help="render results as ASCII bar charts instead of tables",
    )
    parser.add_argument(
        "--engine",
        choices=("flat", "event"),
        default=None,
        help="replay engine (default: the flat queue-tail kernel)",
    )
    parser.add_argument(
        "--jobs",
        type=_count(),
        default=1,
        help="worker processes per figure (default 1 = serial)",
    )
    args = parser.parse_args(argv)

    wanted = sorted(ALL_FIGURES) if "all" in args.figures else args.figures
    kwargs = {}
    if args.schemes:
        kwargs["schemes"] = args.schemes
    if args.engine:
        kwargs["engine"] = args.engine
    kwargs["n_jobs"] = args.jobs

    for fig in wanted:
        fn = ALL_FIGURES[fig]
        started = time.perf_counter()
        if fig == "fig14":
            result = fn()  # fig14 has no scheme axis
        else:
            result = fn(**kwargs)
        elapsed = time.perf_counter() - started
        print(format_bars(result) if args.bars else result)
        print(f"  ({elapsed:.1f}s)\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
