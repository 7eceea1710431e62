"""RL301–RL305 — the effect system: transitive purity and effect contracts.

These rules query the interprocedural call graph
(:mod:`tools.repro_lint.callgraph`): every function in the linted files
gets an inferred effect summary, propagated to fixpoint over resolved
call edges, and the rules judge the *transitive* summary, through the
whole call tree rather than one function body at a time.

* **RL301** — Eq.2 purity, transitively: functions in the cost-model /
  determination / placement / gate modules must infer to ``PURE``
  modulo ``READS_CONFIG``, and must be *proven* — an unresolved call
  anywhere in their call tree is itself a finding, because an unproven
  gate is an uncertifiable gate.  Writes to arguments or globals, I/O
  and function-level imports all surface as effects.

* **RL302** — parallel-task hygiene.  At every ``parallel_map`` site,
  in ``src/`` and in tests, the task must survive pickling: after
  unwrapping ``functools.partial`` it must be a module-level function
  (or a module attribute such as ``math.sqrt``), not a lambda, nested
  def, bound method or computed expression; ``partial`` must not bind
  simulated state (``sim``, ``server``, ``pfs``, ``client``, ...); and
  no argument may mention a name the calling scope binds to an RNG
  constructor (workers must derive their own streams).  Transitively,
  for ``src/`` tasks: a task must never reach ``MUTATES_GLOBAL`` or
  un-derived ``RNG`` (those break bit-identical sharded merges and no
  declaration can sanction them).  ``IO``/``READS_ENV`` on a task are
  allowed only when the task function carries an explicit ``@effects``
  contract naming them (the audit trail for config-gated persistence
  such as DRT-backed builds); an undeclared task must additionally be
  proven.

* **RL303** — digest discipline, transitively: digest-producing
  functions (``digest``/``digest_*``/``*_digest`` in ``src/``) must not
  reach ``READS_ENV``, ``TIME`` or ``RNG`` — a digest that varies with
  the environment, the clock, or entropy cannot gate CI.

* **RL304** — declaration honesty: for every ``@effects`` declaration,
  an inferred effect missing from the declaration is a contract
  violation, and a declared effect the analyzer can positively rule
  out (the function is fully proven and does not have it) is a stale
  declaration.  Declarations must be literal.

* **RL305** — twin effect parity: a ``@twin_of`` fast path must not
  infer effects its reference lacks, modulo ``READS_CONFIG`` when the
  contract names ``fallback_flags`` (the twin may consult config to
  decide whether to fall back).

Internal-state mutation (``MUTATES_STATE``: caches, counters, closure
state written through ``nonlocal`` — stateful controllers may keep
internal state) is stripped before any rule fires.  Suppressions use
the standard ``# repro-lint: disable=RL30x`` comment on the flagged
line.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..callgraph import (
    IO,
    MUTATES_GLOBAL,
    MUTATES_STATE,
    READS_CONFIG,
    READS_ENV,
    RNG,
    TIME,
    CallGraph,
    FunctionNode,
    WitnessStep,
    effect_summary,
    graph_for_contexts,
)
from ..diagnostics import Diagnostic
from ..registry import ProjectChecker, register

#: RL301 scope: the modules on the Eq. 2 evaluation path
_EQ2_MODULE_SUFFIXES = (
    "repro/core/params.py",
    "repro/core/features.py",
    "repro/core/determinator.py",
    "repro/core/placer.py",
    "repro/online/gate.py",
    "repro/core/cost_model.py",
)

#: effects Eq.2 functions may keep (config is a deterministic ambient
#: input the twin rules force both paths to mirror)
_EQ2_ALLOWED = frozenset({READS_CONFIG})

#: effects a parallel task may never reach, declared or not
_TASK_FORBIDDEN = frozenset({MUTATES_GLOBAL, RNG})

#: RL302 boundary findings, by :attr:`ParallelSite.boundary` kind
_BOUNDARY_MESSAGES = {
    "lambda": (
        "lambda passed to parallel_map cannot be pickled into worker "
        "processes; define a module-level function"
    ),
    "nested": (
        "`{name}` is a nested function (closure); parallel_map workers "
        "can only import module-level callables"
    ),
    "method": (
        "bound method `{name}` passed to parallel_map pickles its whole "
        "instance into every worker; use a module-level function taking "
        "the data explicitly"
    ),
    "dynamic": (
        "parallel_map task is not a module-level function; pass one by "
        "name, optionally through functools.partial"
    ),
    "rng": (
        "RNG object `{name}` crosses a parallel_map task boundary; workers "
        "must derive their own stream via derive_rng(...) from the "
        "picklable task spec"
    ),
    "state": (
        "partial binds `{name}` into the worker payload; simulator/server "
        "state must not cross the process boundary, pass plain data instead"
    ),
}

#: effects a digest producer may never reach
_DIGEST_FORBIDDEN = frozenset({READS_ENV, TIME, RNG})


def _chain_text(chain: Sequence[WitnessStep]) -> str:
    """Compact one-line witness rendering for a diagnostic message."""
    if not chain:
        return ""
    hops = " -> ".join(step.spec.split(":", 1)[-1] for step in chain)
    last = chain[-1]
    return f" [{hops}; {last.path}:{last.line}: {last.note}]"


def _is_digest_name(name: str) -> bool:
    return (
        name == "digest"
        or name.startswith("digest_")
        or name.endswith("_digest")
    )


def _reportable(node: FunctionNode) -> bool:
    """Nodes worth flagging directly (nested defs surface via parents)."""
    return ".<locals>." not in node.qualname and "<lambda" not in node.qualname


class _EffectRule(ProjectChecker):
    """Shared context collection for the RL3xx family.

    All five rules hand the same ``FileContext`` objects to
    :func:`graph_for_contexts`, which memoizes on the tree identities —
    the graph is built once per lint run no matter how many effect
    rules are enabled.
    """

    def __init__(self) -> None:
        self._ctxs: list = []

    def collect(self, ctx) -> None:
        self._ctxs.append(ctx)

    def _graph(self) -> CallGraph:
        return graph_for_contexts(self._ctxs)

    def at(self, node: FunctionNode, message: str) -> Diagnostic:
        return Diagnostic(
            path=node.path,
            line=node.line,
            col=node.col,
            rule=self.rule,
            message=message,
        )

    def _inferred(self, graph: CallGraph, spec: str) -> frozenset[str]:
        return frozenset(graph.inferred(spec) - {MUTATES_STATE})


@register
class TransitiveEq2Purity(_EffectRule):
    rule = "RL301"
    name = "transitive-eq2-purity"
    description = (
        "cost-model/determination/placement/gate functions must be "
        "transitively pure (READS_CONFIG tolerated) and fully proven"
    )

    def finalize(self) -> Iterator[Diagnostic]:
        graph = self._graph()
        for spec in sorted(graph.nodes):
            node = graph.nodes[spec]
            if node.is_test or not _reportable(node):
                continue
            if not node.path.endswith(_EQ2_MODULE_SUFFIXES):
                continue
            extra = self._inferred(graph, spec) - _EQ2_ALLOWED
            for effect in sorted(extra):
                chain = graph.witness_chain(spec, effect)
                yield self.at(
                    node,
                    f"`{node.qualname}` is in the Eq.2 purity scope but "
                    f"transitively reaches {effect}{_chain_text(chain)}",
                )
            if graph.is_unproven(spec):
                chain = graph.unproven_chain(spec)
                yield self.at(
                    node,
                    f"`{node.qualname}` is in the Eq.2 purity scope but "
                    f"cannot be certified: its call tree has an "
                    f"unresolved call{_chain_text(chain)}; resolve it or "
                    f"pin a boundary with @effects",
                )


@register
class ParallelTaskEffects(_EffectRule):
    rule = "RL302"
    name = "parallel-task-effects"
    description = (
        "parallel_map tasks must be picklable module-level functions "
        "with no RNG or simulator state in the call, and must not "
        "transitively reach MUTATES_GLOBAL or RNG; IO/READS_ENV only via "
        "a pinned @effects contract"
    )

    def finalize(self) -> Iterator[Diagnostic]:
        graph = self._graph()
        seen: set[tuple[str, str]] = set()
        reported: set[Diagnostic] = set()
        for site in graph.parallel_sites:
            for kind, name, line, col in site.boundary:
                diag = Diagnostic(
                    path=site.path,
                    line=line,
                    col=col,
                    rule=self.rule,
                    message=_BOUNDARY_MESSAGES[kind].format(name=name),
                )
                if diag not in reported:
                    reported.add(diag)
                    yield diag
            if site.is_test or site.task is None:
                continue
            node = graph.nodes.get(site.task)
            if node is None:
                continue
            inferred = self._inferred(graph, site.task)
            for effect in sorted(inferred & _TASK_FORBIDDEN):
                key = (site.task, effect)
                if key in seen:
                    continue
                seen.add(key)
                chain = graph.witness_chain(site.task, effect)
                yield self.at(
                    node,
                    f"parallel task `{node.qualname}` (dispatched at "
                    f"{site.path}:{site.line}) transitively reaches "
                    f"{effect}, which breaks bit-identical sharded "
                    f"merges{_chain_text(chain)}",
                )
            declared = node.declared if node.declared is not None else None
            sanctionable = sorted(
                (inferred - _TASK_FORBIDDEN) & {IO, READS_ENV}
            )
            for effect in sanctionable:
                if declared is not None and effect in declared:
                    continue
                key = (site.task, effect)
                if key in seen:
                    continue
                seen.add(key)
                chain = graph.witness_chain(site.task, effect)
                yield self.at(
                    node,
                    f"parallel task `{node.qualname}` transitively "
                    f"reaches {effect} without declaring it; add "
                    f"@effects(...) naming it to sanction the "
                    f"boundary{_chain_text(chain)}",
                )
            if declared is None and graph.is_unproven(site.task):
                key = (site.task, "unproven")
                if key in seen:
                    continue
                seen.add(key)
                chain = graph.unproven_chain(site.task)
                yield self.at(
                    node,
                    f"parallel task `{node.qualname}` cannot be "
                    f"certified: unresolved call in its call "
                    f"tree{_chain_text(chain)}; resolve it or pin the "
                    f"task with @effects",
                )


@register
class DigestEffects(_EffectRule):
    rule = "RL303"
    name = "digest-effects"
    description = (
        "digest producers must not transitively reach READS_ENV, TIME "
        "or RNG"
    )

    def finalize(self) -> Iterator[Diagnostic]:
        graph = self._graph()
        for spec in sorted(graph.nodes):
            node = graph.nodes[spec]
            if node.is_test or not _reportable(node):
                continue
            if not node.path.startswith("src/"):
                continue
            if not _is_digest_name(node.name):
                continue
            bad = self._inferred(graph, spec) & _DIGEST_FORBIDDEN
            for effect in sorted(bad):
                chain = graph.witness_chain(spec, effect)
                yield self.at(
                    node,
                    f"digest producer `{node.qualname}` transitively "
                    f"reaches {effect}; a digest that varies with the "
                    f"environment cannot gate CI{_chain_text(chain)}",
                )
            if graph.is_unproven(spec) and node.declared is None:
                chain = graph.unproven_chain(spec)
                yield self.at(
                    node,
                    f"digest producer `{node.qualname}` cannot be "
                    f"certified: unresolved call in its call "
                    f"tree{_chain_text(chain)}",
                )


@register
class DeclaredEffectsHonesty(_EffectRule):
    rule = "RL304"
    name = "effects-declaration-honesty"
    description = (
        "@effects declarations must cover every inferred effect and "
        "must not keep effects the analyzer can rule out"
    )

    def finalize(self) -> Iterator[Diagnostic]:
        graph = self._graph()
        for spec in sorted(graph.nodes):
            node = graph.nodes[spec]
            if node.declared is None:
                continue
            if not node.declared_literal:
                yield self.at(
                    node,
                    f"@effects on `{node.qualname}` must use literal "
                    f"string effect names",
                )
                continue
            inferred = self._inferred(graph, spec)
            missing = inferred - node.declared
            for effect in sorted(missing):
                chain = graph.witness_chain(spec, effect)
                yield self.at(
                    node,
                    f"`{node.qualname}` declares "
                    f"@effects({effect_summary(node.declared)}) but the "
                    f"analyzer infers {effect}{_chain_text(chain)}; "
                    f"widen the declaration or remove the effect",
                )
            if not graph.is_unproven(spec):
                stale = node.declared - inferred
                for effect in sorted(stale):
                    yield self.at(
                        node,
                        f"`{node.qualname}` declares {effect} but the "
                        f"analyzer proves it never occurs; drop the "
                        f"stale declaration",
                    )


@register
class TwinEffectParity(_EffectRule):
    rule = "RL305"
    name = "twin-effect-parity"
    description = (
        "a @twin_of fast path must not infer effects its reference "
        "lacks (modulo READS_CONFIG under fallback_flags)"
    )

    def finalize(self) -> Iterator[Diagnostic]:
        from .twin_contracts import _Index, _file_info

        infos = [info for ctx in self._ctxs for info in _file_info(ctx)]
        index = _Index(infos)
        graph = self._graph()
        for twin in infos:
            contract = twin.contract
            if (
                contract is None
                or not contract.literal
                or contract.reference is None
                or contract.reference.count(":") != 1
            ):
                continue
            ref = index.resolve(contract.reference)
            if ref is None:
                continue
            twin_node = graph.nodes.get(twin.spec)
            ref_node = graph.nodes.get(ref.spec)
            if twin_node is None or ref_node is None:
                continue
            if graph.is_unproven(twin.spec) or graph.is_unproven(ref.spec):
                continue  # parity is only meaningful between proven sides
            excess = (
                self._inferred(graph, twin.spec)
                - self._inferred(graph, ref.spec)
            )
            if contract.fallback_flags:
                excess -= {READS_CONFIG}
            for effect in sorted(excess):
                chain = graph.witness_chain(twin.spec, effect)
                yield self.at(
                    twin_node,
                    f"twin `{twin_node.qualname}` transitively reaches "
                    f"{effect} but its reference "
                    f"`{ref_node.qualname}` does not; twins must stay "
                    f"effect-equivalent{_chain_text(chain)}",
                )
