"""repro-lint: domain-specific static analysis for the MHA reproduction.

Seventeen rules in four families patrol invariants the paper states but
Python cannot enforce by itself:

* **RL001, RL002, RL005** — per-file hygiene: no wall-clock reads or
  unseeded RNGs in the planning/simulation/online subsystems, byte
  quantities spelled with ``repro.units`` constants, no exact
  ``==``/``!=`` on floats outside tests.
* **RL101–RL104** — twin contracts: a ``@twin_of`` fast path keeps its
  reference's signature and config reads, and every fast path is
  registered.
* **RL201–RL202, RL211–RL213** — seed lineage and ordering: every RNG
  stream is derived from ``repro.determinism``, no two call sites alias
  a lineage, and digests and merges never depend on set, directory or
  float-accumulation order.
* **RL301–RL305** — the effect system over the project call graph: Eq. 2
  evaluation is transitively pure, ``parallel_map`` tasks are picklable
  module-level functions that carry no RNG or simulator state and reach
  no global mutation, digests ignore the environment, and ``@effects``
  declarations and twins stay honest.

See ``docs/static-analysis.md`` for the full rule catalogue and the
checker-authoring guide.
"""

from .diagnostics import Diagnostic
from .engine import lint_paths, lint_source
from .registry import Checker, all_checkers, register

__all__ = [
    "Checker",
    "Diagnostic",
    "all_checkers",
    "lint_paths",
    "lint_source",
    "register",
]
