"""RL201–RL202 — seed lineage: every stream derived, none aliased.

:mod:`repro.determinism` centralizes RNG stream derivation:
``derive_seed(domain, *indices, base=...)`` hashes a
:class:`~repro.determinism.SeedDomain` tag, the root seed, and the
indices into a collision-free 64-bit seed, and ``derive_rng`` is the
only sanctioned generator constructor in the seeded subsystems.  These
rules make that discipline compiler-grade:

* **RL201** — RNG construction outside the registry: a
  ``default_rng``/``Random``/``RandomState`` call in a seeded package
  whose seed argument is not a literal ``derive_seed(...)`` call.
  List-seeding (``default_rng([seed, k])``) and named scalar seeds both
  count — only the central derivation proves non-aliasing.
* **RL202** — lineage aliasing, project-wide: the ``SeedDomain`` enum
  must map distinct members to distinct tag strings, and no two call
  sites may derive from the same ``(domain, index-arity)`` lineage —
  two such sites can hand out the *same stream* for overlapping
  indices.  One shared helper (one call site) or a second domain are
  the fixes.

RL201 is a per-file pass; RL202 is a
:class:`~tools.repro_lint.registry.ProjectChecker` so call sites in
different modules still collide.  An RNG object crossing a
``parallel_map`` task boundary is RL302's boundary check
(:mod:`.effects`).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..diagnostics import Diagnostic
from ..engine import FileContext
from ..registry import Checker, ProjectChecker, register

#: generator constructors RL201 polices
_RNG_CTORS = frozenset({"default_rng", "Random", "RandomState"})
#: the registry's own constructors (never flagged; counted by RL202)
_DERIVE_FUNCS = frozenset({"derive_seed", "derive_rng"})


def _attr_leaf(node: ast.expr) -> str:
    """Rightmost name of a call target: ``np.random.default_rng`` ->
    ``default_rng``; bare names return themselves."""
    while isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _seed_argument(call: ast.Call) -> ast.expr | None:
    if call.args:
        return call.args[0]
    for kw in call.keywords:
        if kw.arg in ("seed", "x"):
            return kw.value
    return None


def _is_derive_seed_call(node: ast.expr | None) -> bool:
    return (
        isinstance(node, ast.Call)
        and _attr_leaf(node.func) in _DERIVE_FUNCS
    )


def _in_seeded_scope(ctx: FileContext) -> bool:
    return not ctx.is_test and ctx.in_dir(
        "simulate", "pfs", "online", "schemes", "tenancy", "faults", "workloads"
    )


@register
class SeedDerivationChecker(Checker):
    rule = "RL201"
    name = "seed-derivation"
    description = (
        "RNG constructors in seeded subsystems must take their seed "
        "from repro.determinism.derive_seed (or use derive_rng)"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return _in_seeded_scope(ctx)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _attr_leaf(node.func) not in _RNG_CTORS:
                continue
            if _is_derive_seed_call(_seed_argument(node)):
                continue
            yield self.diagnostic(
                ctx,
                node.lineno,
                node.col_offset,
                "RNG constructed outside the seed-lineage registry; use "
                "`derive_rng(SeedDomain.<X>, *indices, base=...)` (or seed "
                "with `derive_seed(...)`) so streams provably never alias "
                "— see repro.determinism",
            )


class _DeriveSite:
    """One ``derive_seed``/``derive_rng`` call site, for RL202."""

    __slots__ = ("path", "line", "col", "domain", "arity", "literal_domain")

    def __init__(
        self,
        path: str,
        line: int,
        col: int,
        domain: str | None,
        arity: int,
        literal_domain: bool,
    ) -> None:
        self.path = path
        self.line = line
        self.col = col
        self.domain = domain
        self.arity = arity
        self.literal_domain = literal_domain


def _domain_of(call: ast.Call) -> tuple[str | None, bool]:
    """The ``SeedDomain.X`` member name of the first argument.

    Returns ``(name, True)`` for an attribute access on a name ending
    in ``SeedDomain`` and ``(None, False)`` for anything dynamic.
    """
    if not call.args:
        return None, False
    first = call.args[0]
    if isinstance(first, ast.Attribute) and isinstance(first.value, ast.Name):
        if first.value.id == "SeedDomain":
            return first.attr, True
    return None, False


def _index_arity(call: ast.Call) -> int:
    """Number of positional index arguments after the domain."""
    arity = len(call.args) - 1
    if any(isinstance(arg, ast.Starred) for arg in call.args[1:]):
        # *indices forwarding: arity is dynamic; treat as a wildcard
        # that matches every arity of the domain
        return -1
    return arity


@register
class LineageAliasChecker(ProjectChecker):
    rule = "RL202"
    name = "lineage-aliasing"
    description = (
        "SeedDomain tags must be unique and no two call sites may "
        "derive the same (domain, index-arity) lineage"
    )

    def __init__(self) -> None:
        self._sites: list[_DeriveSite] = []
        self._enum_tags: list[tuple[str, str, str, int, int]] = []

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.is_test

    def collect(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and node.name == "SeedDomain":
                self._collect_enum(ctx, node)
            elif isinstance(node, ast.Call):
                if _attr_leaf(node.func) not in _DERIVE_FUNCS:
                    continue
                domain, literal = _domain_of(node)
                self._sites.append(
                    _DeriveSite(
                        ctx.display_path,
                        node.lineno,
                        node.col_offset,
                        domain,
                        _index_arity(node),
                        literal,
                    )
                )

    def _collect_enum(self, ctx: FileContext, node: ast.ClassDef) -> None:
        for stmt in node.body:
            if not isinstance(stmt, ast.Assign):
                continue
            if len(stmt.targets) != 1 or not isinstance(
                stmt.targets[0], ast.Name
            ):
                continue
            if not isinstance(stmt.value, ast.Constant) or not isinstance(
                stmt.value.value, str
            ):
                continue
            self._enum_tags.append(
                (
                    ctx.display_path,
                    stmt.targets[0].id,
                    stmt.value.value,
                    stmt.lineno,
                    stmt.col_offset,
                )
            )

    def finalize(self) -> Iterator[Diagnostic]:
        # (1) tag-string uniqueness across the enum definition
        seen_tags: dict[str, str] = {}
        for path, member, tag, line, col in self._enum_tags:
            if tag in seen_tags:
                yield Diagnostic(
                    path=path,
                    line=line,
                    col=col,
                    rule=self.rule,
                    message=(
                        f"SeedDomain.{member} reuses tag {tag!r} already "
                        f"bound to SeedDomain.{seen_tags[tag]}; every "
                        "domain tag must be unique or their streams alias"
                    ),
                )
            else:
                seen_tags[tag] = member
        # (2) one (domain, index-arity) lineage per call site
        by_lineage: dict[tuple[str, int], _DeriveSite] = {}
        wildcard: dict[str, _DeriveSite] = {}
        for site in sorted(
            self._sites, key=lambda s: (s.path, s.line, s.col)
        ):
            if site.domain is None:
                continue
            if site.arity < 0:
                prior_wild = wildcard.get(site.domain)
                if prior_wild is not None:
                    yield self._alias_diag(site, prior_wild)
                else:
                    wildcard[site.domain] = site
                continue
            prior = by_lineage.get((site.domain, site.arity))
            if prior is not None:
                yield self._alias_diag(site, prior)
                continue
            by_lineage[(site.domain, site.arity)] = site
        for site in by_lineage.values():
            prior_wild = wildcard.get(site.domain)
            if prior_wild is not None:
                yield self._alias_diag(site, prior_wild)

    def _alias_diag(self, site: _DeriveSite, prior: _DeriveSite) -> Diagnostic:
        return Diagnostic(
            path=site.path,
            line=site.line,
            col=site.col,
            rule=self.rule,
            message=(
                f"derivation from SeedDomain.{site.domain} with the same "
                f"index arity as {prior.path}:{prior.line} — two call "
                "sites reaching one (domain, arity) lineage can hand out "
                "the same stream; share one helper or add a new domain"
            ),
        )
