"""Command-line entry point: ``python -m tools.repro_lint src tests``.

Subcommand ``gen-twin-tests`` renders the differential twin suites
(see :mod:`tools.repro_lint.gen_twin_tests`); ``sanitize-report`` diffs
two runtime seed-lineage ledgers (see :mod:`tools.repro_lint.sanitize`);
``effects <module:qualname>`` prints the inferred effect summary and
per-effect witness call chains (see :mod:`tools.repro_lint.callgraph`);
everything else lints.

Exit codes: 0 = clean, 1 = diagnostics found, 2 = usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .engine import lint_paths
from .output import FORMATS, render
from .registry import all_checkers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Domain-specific static analysis for the MHA reproduction: "
            "determinism, units discipline, parallel safety, cost-model "
            "purity, float equality, twin contracts."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (e.g. RL001,RL301)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="diagnostic output format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write diagnostics to FILE instead of stdout",
    )
    return parser


def _effects_main(argv: Sequence[str]) -> int:
    """``effects <module:qualname>`` — explain one function's summary."""
    if len(argv) != 1 or argv[0] in ("-h", "--help"):
        print(
            "usage: python -m tools.repro_lint effects <module:qualname>",
            file=sys.stderr,
        )
        return 0 if argv and argv[0] in ("-h", "--help") else 2
    spec = argv[0]
    if ":" not in spec:
        print(
            f"repro-lint: {spec!r} is not a module:qualname spec",
            file=sys.stderr,
        )
        return 2
    from .callgraph import graph_for_spec

    graph, error = graph_for_spec(spec)
    if error is not None:
        print(f"repro-lint: {error}", file=sys.stderr)
        return 2
    if graph.node(spec) is None:
        module = spec.partition(":")[0]
        print(
            f"repro-lint: no function {spec!r} (module {module} parsed "
            f"fine; check the qualname)",
            file=sys.stderr,
        )
        return 2
    try:
        print(graph.explain(spec))
    except BrokenPipeError:  # piped into head/less that exited early
        sys.stderr.close()  # suppress the interpreter's flush warning
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "gen-twin-tests":
        from .gen_twin_tests import main as gen_main

        return gen_main(argv[1:])
    if argv and argv[0] == "sanitize-report":
        from .sanitize import main as sanitize_main

        return sanitize_main(argv[1:])
    if argv and argv[0] == "effects":
        return _effects_main(argv[1:])

    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for checker in all_checkers():
            module = type(checker).__module__.rpartition(".")[2]
            print(
                f"{checker.rule}  {checker.name}  [checkers.{module}]: "
                f"{checker.description}"
            )
        return 0

    paths = list(args.paths) or ["src", "tests"]
    select = None
    if args.select:
        select = [rule.strip() for rule in args.select.split(",") if rule.strip()]
    try:
        diagnostics = lint_paths(paths, select=select)
    except FileNotFoundError as exc:
        print(f"repro-lint: no such file or directory: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"repro-lint: {exc.args[0]}", file=sys.stderr)
        return 2

    rendered = render(diagnostics, args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    elif rendered:
        print(rendered)
    if diagnostics:
        count = len(diagnostics)
        plural = "s" if count != 1 else ""
        print(f"repro-lint: {count} finding{plural}", file=sys.stderr)
        return 1
    return 0
