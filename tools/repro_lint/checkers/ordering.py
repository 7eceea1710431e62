"""RL211–RL213 — iteration and accumulation order hazards.

Bit-identical replay means every value that feeds a digest, a seeded
computation, or a merged artifact must be produced in a *defined*
order.  Three well-known leaks:

* **RL211** — iterating a set (or ``dict.keys()`` of a set-built dict)
  inside a function that also computes digests, derives seeds, or
  assembles merged runs: set iteration order depends on hash
  randomization (``PYTHONHASHSEED``) for strings, so the same inputs
  can hash differently across interpreter launches.  Wrap the
  iteration in ``sorted(...)``.
* **RL212** — ``os.listdir`` / ``glob.glob`` / ``Path.iterdir`` and
  friends without an enclosing ``sorted(...)``: directory enumeration
  order is filesystem-dependent (and differs across machines even for
  the same tree).
* **RL213** — ``sum()`` over ``parallel_map`` results: float addition
  is not associative, so an accumulation over shard results is only
  reproducible because ``parallel_map`` preserves submission order —
  a contract the call site must either rely on explicitly
  (``math.fsum``, order-insensitive) or document.  ``fsum`` is exempt.

All three are per-file passes; they are regression guards — the tree is
clean today because ``Trace.files()`` is insertion-ordered and the only
glob in the loaders is already sorted.
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

from ..diagnostics import Diagnostic
from ..engine import FileContext
from ..registry import Checker, register

_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: names whose presence marks a function as order-sensitive for RL211
_ORDER_SENSITIVE_MARKERS = frozenset(
    {
        "hashlib",
        "sha256",
        "md5",
        "blake2b",
        "derive_seed",
        "derive_rng",
        "default_rng",
        "digest",
        "hexdigest",
        "MergedRuns",
        "ServeReport",
    }
)

#: callables/attributes that enumerate a directory in FS order
_LISTING_FUNCS = frozenset(
    {"listdir", "glob", "iglob", "rglob", "iterdir", "scandir"}
)


def _leaf(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _is_set_expr(node: ast.expr) -> bool:
    """Expressions that evaluate to a set (hash-order iteration)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and _leaf(node.func) in {"set", "frozenset"}:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra: at least one operand must itself be a set expr
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _function_markers(fn: _FuncDef) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and node.id in _ORDER_SENSITIVE_MARKERS:
            return True
        if isinstance(node, ast.Attribute) and (
            node.attr in _ORDER_SENSITIVE_MARKERS
        ):
            return True
    return False


def _set_bound_names(fn: _FuncDef) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if _is_set_expr(node.value) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


class _SortedSpans:
    """Tracks which nodes sit (directly) under a ``sorted(...)`` call."""

    def __init__(self, root: ast.AST) -> None:
        self._sorted_args: set[int] = set()
        for node in ast.walk(root):
            if isinstance(node, ast.Call) and _leaf(node.func) == "sorted":
                for arg in node.args:
                    self._collect(arg)

    def _collect(self, node: ast.AST) -> None:
        self._sorted_args.add(id(node))
        # `sorted(p for p in path.iterdir())` — the listing call sits
        # one generator deep; unwrap comprehensions too
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            for gen in node.generators:
                self._sorted_args.add(id(gen.iter))

    def covers(self, node: ast.AST) -> bool:
        return id(node) in self._sorted_args


@register
class SetIterationChecker(Checker):
    rule = "RL211"
    name = "set-iteration-order"
    description = (
        "no unsorted set iteration in functions that feed digests, "
        "seed derivation, or merged-run assembly"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.is_test

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _function_markers(fn):
                continue
            yield from self._check_function(ctx, fn)

    def _iter_sources(
        self, fn: _FuncDef
    ) -> Iterator[ast.expr]:
        """Every expression whose iteration order the function observes."""
        for node in ast.walk(fn):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield node.iter
            elif isinstance(node, ast.comprehension):
                yield node.iter

    def _check_function(
        self, ctx: FileContext, fn: _FuncDef
    ) -> Iterator[Diagnostic]:
        spans = _SortedSpans(fn)
        set_names = _set_bound_names(fn)
        for source in self._iter_sources(fn):
            if spans.covers(source):
                continue
            flagged = _is_set_expr(source) or (
                isinstance(source, ast.Name) and source.id in set_names
            )
            if not flagged and isinstance(source, ast.Call):
                # d.keys() where d was built from a set expr is rare;
                # flag explicit .keys() on a set-bound name
                func = source.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "keys"
                    and isinstance(func.value, ast.Name)
                    and func.value.id in set_names
                ):
                    flagged = True
            if flagged:
                yield self.diagnostic(
                    ctx,
                    source.lineno,
                    source.col_offset,
                    "set iteration order feeds an order-sensitive "
                    "computation (digest/seed/merge) in this function; "
                    "hash randomization makes it run-dependent — wrap "
                    "the iterable in sorted(...)",
                )


@register
class DirectoryListingChecker(Checker):
    rule = "RL212"
    name = "directory-listing-order"
    description = (
        "os.listdir/glob/Path.iterdir results must pass through "
        "sorted(...) before use"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.is_test

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        spans = _SortedSpans(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _leaf(node.func) not in _LISTING_FUNCS:
                continue
            if spans.covers(node):
                continue
            yield self.diagnostic(
                ctx,
                node.lineno,
                node.col_offset,
                f"`{_leaf(node.func)}(...)` enumerates in filesystem "
                "order, which differs across machines; wrap the call in "
                "sorted(...) before iterating",
            )


@register
class AccumulationOrderChecker(Checker):
    rule = "RL213"
    name = "accumulation-order"
    description = (
        "float sum() over parallel_map/shard-merge results needs "
        "math.fsum or a documented order guarantee"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.is_test

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from self._check_function(ctx, fn)

    def _parallel_names(self, fn: _FuncDef) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            if _leaf(node.value.func) != "parallel_map":
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    def _check_function(
        self, ctx: FileContext, fn: _FuncDef
    ) -> Iterator[Diagnostic]:
        parallel_names = self._parallel_names(fn)
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            if _leaf(node.func) != "sum" or not node.args:
                continue
            if self._feeds_on_parallel(node.args[0], parallel_names):
                yield self.diagnostic(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "sum() over parallel_map results: float addition is "
                    "order-sensitive — use math.fsum, or document that "
                    "the values are integers / the order is guaranteed "
                    "(parallel_map preserves submission order)",
                )

    def _feeds_on_parallel(
        self, arg: ast.expr, parallel_names: set[str]
    ) -> bool:
        for node in ast.walk(arg):
            if isinstance(node, ast.Name) and node.id in parallel_names:
                return True
            if isinstance(node, ast.Call) and _leaf(node.func) == "parallel_map":
                return True
        return False
