"""Twin contracts: the registry of fast-path / reference-path pairs.

PRs 1 and 4 introduced *performance twins* — a vectorized or event-free
fast path promising bit-identical results to a scalar reference path
(``burst_costs_grid`` vs :func:`~repro.core.cost_model.burst_costs`,
:func:`~repro.pfs.flat.replay_flat` vs the event engine, batched
mapping vs per-record mapping).  Those promises are *contracts*, and
this module makes them first-class: every fast-path entry point is
decorated with :func:`twin_of`, naming its reference and declaring
exactly how the two signatures relate.

The registry is consumed twice:

* **statically** — the RL1xx rule family of ``tools/repro_lint``
  resolves each pair across modules and checks signature parity,
  config-flag parity and registry completeness at the AST level, so a
  twin cannot silently grow a kwarg or a config branch the reference
  lacks (``python -m tools.repro_lint src tests``);
* **at runtime** — ``python -m tools.repro_lint gen-twin-tests``
  renders one hypothesis differential test module per registered pair
  into ``tests/contracts/`` (random workloads, exact-equality asserts,
  statistics parity), and CI fails if those modules go stale.

The decorator itself is zero-cost at call time: it records the
contract and returns the function unchanged (so pickling by reference,
``inspect`` signatures and the mypy strict ratchet all see the
original function).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence, TypeVar

__all__ = [
    "TwinContract",
    "twin_of",
    "get_contract",
    "iter_contracts",
    "load_all",
    "TWIN_MODULES",
    "TWIN_KINDS",
]

F = TypeVar("F", bound=Callable[..., object])

#: the contract kinds the analyzer and test generator understand
TWIN_KINDS = ("bit_identical", "reduction")

#: every module that registers a twin contract.  ``load_all`` imports
#: exactly this list; ``tests/contracts/test_generator.py`` asserts it
#: matches what the static analyzer discovers, so a new ``@twin_of``
#: site in an unlisted module fails the suite instead of silently
#: missing its generated differential test.
TWIN_MODULES = (
    "repro.core.cost_model",
    "repro.core.drt",
    "repro.core.features",
    "repro.core.pipeline",
    "repro.core.redirector",
    "repro.faults.state",
    "repro.layouts.extents",
    "repro.pfs.flat",
    "repro.schemes.base",
    "repro.schemes.straggler",
    "repro.simulate.resources",
    "repro.tracing.columnar",
    "repro.tracing.tracefile",
)


@dataclass(frozen=True)
class TwinContract:
    """One fast-path/reference-path equivalence promise.

    ``reference`` and ``twin`` are ``"module:qualname"`` specs.  The
    signature relation is declared explicitly so the static checker can
    verify it instead of guessing:

    * ``param_map`` — reference parameter renamed on the twin (the
      batch twins pluralize, e.g. ``{"offset": "offsets"}``; the grid
      twins take arrays, e.g. ``{"h": "h_arr"}``);
    * ``unsupported`` — reference parameters the twin deliberately
      lacks; they must match the runtime fallback condition that routes
      such calls to the reference path (e.g. ``replay_trace`` falls
      back to the event engine when ``on_record`` is set);
    * ``twin_only`` — parameters only the twin has (e.g. the flat
      kernel's caller-maintained ``now`` clock);
    * ``fallback_flags`` — ``repro.config`` names that may legitimately
      be read by one side of the pair only (the engine-selection
      flags).
    """

    reference: str
    twin: str
    kind: str = "bit_identical"
    unsupported: tuple[str, ...] = ()
    twin_only: tuple[str, ...] = ()
    param_map: Mapping[str, str] = field(default_factory=dict)
    fallback_flags: tuple[str, ...] = ()
    #: name of the differential-test harness in
    #: ``tests/contracts/_harnesses.py`` that exercises this pair
    harness: str = ""

    def __post_init__(self) -> None:
        if self.kind not in TWIN_KINDS:
            raise ValueError(
                f"twin contract kind must be one of {TWIN_KINDS}, got {self.kind!r}"
            )
        for spec in (self.reference, self.twin):
            if spec.count(":") != 1 or not all(spec.split(":")):
                raise ValueError(
                    f"twin spec must look like 'module:qualname', got {spec!r}"
                )


_REGISTRY: dict[str, TwinContract] = {}


def twin_of(
    reference: str,
    *,
    kind: str = "bit_identical",
    unsupported: Sequence[str] = (),
    twin_only: Sequence[str] = (),
    param_map: Mapping[str, str] | None = None,
    fallback_flags: Sequence[str] = (),
    harness: str = "",
) -> Callable[[F], F]:
    """Register the decorated function as the fast-path twin of
    ``reference`` (a ``"module:qualname"`` spec).

    Returns the function unchanged; the contract is recorded in the
    module registry and on the function as ``__twin_contract__``.
    """

    def decorate(fn: F) -> F:
        twin_spec = f"{fn.__module__}:{fn.__qualname__}"
        contract = TwinContract(
            reference=reference,
            twin=twin_spec,
            kind=kind,
            unsupported=tuple(unsupported),
            twin_only=tuple(twin_only),
            param_map=dict(param_map or {}),
            fallback_flags=tuple(fallback_flags),
            harness=harness,
        )
        existing = _REGISTRY.get(twin_spec)
        if existing is not None and existing != contract:
            raise ValueError(f"conflicting twin contract for {twin_spec}")
        _REGISTRY[twin_spec] = contract
        setattr(fn, "__twin_contract__", contract)
        return fn

    return decorate


def get_contract(twin_spec: str) -> TwinContract:
    """The contract registered for ``twin_spec`` (KeyError if none)."""
    return _REGISTRY[twin_spec]


def iter_contracts() -> Iterator[TwinContract]:
    """All registered contracts, ordered by twin spec (deterministic)."""
    for twin_spec in sorted(_REGISTRY):
        yield _REGISTRY[twin_spec]


def load_all() -> None:
    """Import every twin-registering module, populating the registry.

    Decoration happens at import time, so tools that enumerate the
    registry (the differential-test generator, the registry-sync test)
    call this first.
    """
    for name in TWIN_MODULES:
        importlib.import_module(name)
