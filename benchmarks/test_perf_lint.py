"""Lint-suite wall-clock gate: the RL3xx effect graph must stay cheap.

The effect system made ``repro-lint`` interprocedural — every project
checker now shares one call graph built over the whole tree, propagated
to fixpoint.  That graph runs on every pre-commit and every CI push, so
its cost is part of the developer loop and deserves the same regression
gate as the simulator hot paths:

* ``lint-graph-build`` — parse `src/` + `tests/` and build the call
  graph (scan + effect fixpoint), reported in *nodes*/sec;
* ``lint-full-run`` — a complete ``lint_paths(["src", "tests"])`` with
  every rule registered (the graph is built once inside and shared by
  all five RL3xx checkers), reported in *files*/sec.

Results go to ``BENCH_lint.json`` (override with ``REPRO_BENCH_OUT``);
CI gates against ``benchmarks/baselines/BENCH_lint.json`` at the usual
>30% regression tolerance.  The absolute ceilings below are loose
(slow CI runners) — the baseline comparison is the real gate; these
only catch a runaway (e.g. the fixpoint failing to converge).
"""

import ast
import os
from pathlib import Path

from harness.bench import PhaseResult
from tools.repro_lint.callgraph import build_graph
from tools.repro_lint.engine import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[1]

#: generous absolute ceilings — runaway detectors, not the real gate
MAX_GRAPH_BUILD_S = 30.0
MAX_FULL_RUN_S = 120.0
BENCH = "lint"
BENCH_OUT = "BENCH_lint.json"


def project_files():
    return sorted(
        p
        for root in ("src", "tests")
        for p in (REPO_ROOT / root).rglob("*.py")
        if "__pycache__" not in p.parts
    )


def test_graph_build(report, best_of):
    """Parse the tree once, then time scan + fixpoint in isolation."""
    files = project_files()
    entries = []
    for path in files:
        rel = path.relative_to(REPO_ROOT).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        entries.append((tree, rel, rel, rel.startswith("tests/")))

    wall, graph = best_of(lambda: build_graph(entries))
    nodes = len(graph.nodes)
    assert nodes > 500, "graph suspiciously small — scan regression?"
    assert wall < MAX_GRAPH_BUILD_S
    report.add(PhaseResult.from_timing("lint-graph-build", wall, nodes))


def test_full_lint_run(report, best_of):
    """The command CI and pre-commit actually pay for."""
    n_files = len(project_files())
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        wall, diags = best_of(lambda: lint_paths(["src", "tests"]))
    finally:
        os.chdir(cwd)
    assert diags == [], f"tree must lint clean, got {len(diags)} findings"
    assert wall < MAX_FULL_RUN_S
    report.add(PhaseResult.from_timing("lint-full-run", wall, n_files))
