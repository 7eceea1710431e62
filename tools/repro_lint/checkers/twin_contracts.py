"""RL101–RL104 — twin contracts: fast paths must equal their references.

The repo's performance kernels come in *twins*: a vectorized or
event-free fast path (``replay_flat``, ``burst_costs_grid``,
``translate_many``, …) promising results identical to a scalar
reference path.  ``repro.contracts.twin_of`` declares each pair and
exactly how the two signatures relate; these rules verify the
declarations at the AST level, across modules:

* **RL101** — signature parity: every reference parameter exists on the
  twin (possibly renamed via ``param_map``) or is listed in
  ``unsupported``; every twin-only parameter is declared ``twin_only``.
* **RL102** — config-flag parity: a ``repro.config`` value read by one
  side of the pair but not the other must be named in
  ``fallback_flags``, else the twins can diverge under configuration.
* **RL103** — registry completeness: a function whose name matches the
  fast-path conventions (``*_flat``, ``*_grid``, ``*_many``,
  ``batch_*``) must either carry ``@twin_of`` or be the reference of a
  registered contract.
* **RL104** — contract well-formedness: ``twin_of`` arguments must be
  literal constants and the reference spec must resolve to a real
  definition (in the linted files, or on disk under ``src/``).

These are *project* rules: every file is collected first and the pairs
are resolved at the end of the run, so argument order never matters and
single-file (pre-commit) runs fall back to resolving references from
disk.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Iterator, Mapping

from ..diagnostics import Diagnostic
from ..registry import ProjectChecker, register

#: naming conventions that mark a function as a fast path (RL103)
_TWIN_SUFFIXES = ("_columnar", "_flat", "_grid", "_many")
_TWIN_PREFIXES = ("batch_",)

#: must mirror ``repro.contracts.TWIN_KINDS`` (asserted by the test suite)
_TWIN_KINDS = ("bit_identical", "reduction")

_CACHE_KEY = "twin_contracts:file_info"


@dataclass
class ParsedContract:
    """One ``@twin_of(...)`` decoration, read off the AST."""

    line: int
    col: int
    #: positional reference spec, or ``None`` if not a string literal
    reference: str | None = None
    kind: str = "bit_identical"
    unsupported: tuple[str, ...] = ()
    twin_only: tuple[str, ...] = ()
    param_map: Mapping[str, str] = None  # type: ignore[assignment]
    fallback_flags: tuple[str, ...] = ()
    #: False when any argument failed to parse as a literal constant
    literal: bool = True

    def __post_init__(self) -> None:
        if self.param_map is None:
            self.param_map = {}


@dataclass
class FunctionInfo:
    """What the twin rules need to know about one ``def``."""

    path: str
    module: str
    qualname: str
    name: str
    line: int
    col: int
    #: declared parameters, ``self``/``cls`` stripped for methods
    params: tuple[str, ...]
    #: ``repro.config`` names read anywhere in the body
    config_reads: frozenset[str]
    contract: ParsedContract | None
    nested: bool
    is_test: bool

    @property
    def spec(self) -> str:
        return f"{self.module}:{self.qualname}"


def _module_name(posix_path: str) -> str:
    """Dotted module for a source path, e.g. ``src/repro/pfs/flat.py``
    -> ``repro.pfs.flat``; empty when the path has no ``src`` segment."""
    parts = posix_path.split("/")
    if "src" not in parts:
        return ""
    idx = len(parts) - 1 - parts[::-1].index("src")
    mod_parts = parts[idx + 1 :]
    if not mod_parts or not mod_parts[-1].endswith(".py"):
        return ""
    mod_parts[-1] = mod_parts[-1][: -len(".py")]
    if mod_parts[-1] == "__init__":
        mod_parts = mod_parts[:-1]
    return ".".join(mod_parts)


def _attr_chain(node: ast.expr) -> list[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


def _config_aliases(tree: ast.Module) -> tuple[dict[str, str], set[str]]:
    """How this module can reach ``repro.config`` values.

    Returns ``(direct, modules)``: ``direct`` maps local names to the
    config constant they alias (``from ..config import X [as Y]``);
    ``modules`` holds local names bound to the config *module* itself
    (``from .. import config``, ``import repro.config as cfg``), whose
    attribute reads are config reads.
    """
    direct: dict[str, str] = {}
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            is_config_module = (node.module or "").split(".")[-1:] == ["config"] and (
                node.level > 0 or (node.module or "").startswith("repro")
            )
            if is_config_module:
                for alias in node.names:
                    direct[alias.asname or alias.name] = alias.name
            elif node.module in ("repro", None) or node.level > 0:
                for alias in node.names:
                    if alias.name == "config":
                        modules.add(alias.asname or "config")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.config" and alias.asname:
                    modules.add(alias.asname)
    return direct, modules


def _config_reads(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    direct: dict[str, str],
    modules: set[str],
) -> frozenset[str]:
    reads: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and node.id in direct:
            reads.add(direct[node.id])
        elif isinstance(node, ast.Attribute):
            chain = _attr_chain(node.value)
            if chain and ".".join(chain) in (
                set(modules) | {"repro.config"}
            ):
                reads.add(node.attr)
    return frozenset(reads)


def _parse_contract(call: ast.Call) -> ParsedContract:
    parsed = ParsedContract(line=call.lineno, col=call.col_offset)
    if call.args and isinstance(call.args[0], ast.Constant) and isinstance(
        call.args[0].value, str
    ):
        parsed.reference = call.args[0].value
    elif call.args:
        parsed.literal = False
    for kw in call.keywords:
        try:
            value = ast.literal_eval(kw.value)
        except ValueError:
            parsed.literal = False
            continue
        if kw.arg == "kind":
            parsed.kind = value
        elif kw.arg == "unsupported":
            parsed.unsupported = tuple(value)
        elif kw.arg == "twin_only":
            parsed.twin_only = tuple(value)
        elif kw.arg == "param_map":
            parsed.param_map = dict(value)
        elif kw.arg == "fallback_flags":
            parsed.fallback_flags = tuple(value)
    return parsed


def _twin_decorator(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> ParsedContract | None:
    for dec in fn.decorator_list:
        if not isinstance(dec, ast.Call):
            continue
        chain = _attr_chain(dec.func)
        if chain and chain[-1] == "twin_of":
            return _parse_contract(dec)
    return None


def _params_of(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, in_class: bool
) -> tuple[str, ...]:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if in_class and names and names[0] in ("self", "cls"):
        names = names[1:]
    return tuple(names)


def extract_functions(
    tree: ast.Module, posix_path: str, display_path: str, is_test: bool
) -> list[FunctionInfo]:
    """Every ``def`` in a module, with qualnames and contract parses."""
    module = _module_name(posix_path)
    direct, config_modules = _config_aliases(tree)
    out: list[FunctionInfo] = []

    def visit(body: list[ast.stmt], prefix: str, in_func: bool) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}" if prefix else node.name
                out.append(
                    FunctionInfo(
                        path=display_path,
                        module=module,
                        qualname=qualname,
                        name=node.name,
                        line=node.lineno,
                        col=node.col_offset,
                        params=_params_of(node, in_class="." in qualname),
                        config_reads=_config_reads(node, direct, config_modules),
                        contract=_twin_decorator(node),
                        nested=in_func,
                        is_test=is_test,
                    )
                )
                visit(node.body, f"{qualname}.", True)
            elif isinstance(node, ast.ClassDef):
                qualname = f"{prefix}{node.name}" if prefix else node.name
                visit(node.body, f"{qualname}.", in_func)

    visit(tree.body, "", False)
    return out


def _file_info(ctx) -> list[FunctionInfo]:
    info = ctx.cache.get(_CACHE_KEY)
    if info is None:
        info = extract_functions(
            ctx.tree, ctx.posix_path, ctx.display_path, ctx.is_test
        )
        ctx.cache[_CACHE_KEY] = info
    return info


class _Index:
    """Resolves ``module:qualname`` specs against collected files, with a
    disk fallback for single-file runs."""

    def __init__(self, infos: list[FunctionInfo]) -> None:
        self._by_spec: dict[str, FunctionInfo] = {}
        self._modules = {info.module for info in infos if info.module}
        for info in infos:
            if info.module and not info.nested:
                self._by_spec.setdefault(info.spec, info)
        self._disk_cache: dict[str, dict[str, FunctionInfo]] = {}

    def resolve(self, spec: str) -> FunctionInfo | None:
        hit = self._by_spec.get(spec)
        if hit is not None:
            return hit
        module, _, qualname = spec.partition(":")
        if module in self._modules:
            return None  # module was linted; the def genuinely isn't there
        return self._load_module(module).get(qualname)

    def _load_module(self, module: str) -> dict[str, FunctionInfo]:
        cached = self._disk_cache.get(module)
        if cached is not None:
            return cached
        defs: dict[str, FunctionInfo] = {}
        rel = module.replace(".", "/")
        for candidate in (f"src/{rel}.py", f"src/{rel}/__init__.py"):
            if not os.path.isfile(candidate):
                continue
            try:
                with open(candidate, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=candidate)
            except (OSError, SyntaxError):
                break
            for info in extract_functions(tree, candidate, candidate, False):
                if not info.nested:
                    defs.setdefault(info.qualname, info)
            break
        self._disk_cache[module] = defs
        return defs


class _TwinRule(ProjectChecker):
    """Shared collection for the RL1xx family."""

    def __init__(self) -> None:
        self._infos: list[FunctionInfo] = []

    def collect(self, ctx) -> None:
        self._infos.extend(_file_info(ctx))

    def _contract_sites(self) -> list[FunctionInfo]:
        return [info for info in self._infos if info.contract is not None]

    def _index(self) -> _Index:
        return _Index(self._infos)

    def at(self, info: FunctionInfo, line: int, col: int, message: str) -> Diagnostic:
        return Diagnostic(
            path=info.path, line=line, col=col, rule=self.rule, message=message
        )

    def _resolved_pairs(self) -> Iterator[tuple[FunctionInfo, FunctionInfo]]:
        """(twin, reference) for every well-formed, resolvable contract."""
        index = self._index()
        for twin in self._contract_sites():
            contract = twin.contract
            if not contract.literal or contract.reference is None:
                continue
            if contract.reference.count(":") != 1:
                continue
            ref = index.resolve(contract.reference)
            if ref is not None:
                yield twin, ref


@register
class TwinSignatureParity(_TwinRule):
    rule = "RL101"
    name = "twin-signature-parity"
    description = (
        "a twin's signature must cover its reference's parameters, "
        "modulo the declared param_map/unsupported/twin_only sets"
    )

    def finalize(self) -> Iterator[Diagnostic]:
        for twin, ref in self._resolved_pairs():
            contract = twin.contract
            line, col = contract.line, contract.col
            ref_params = set(ref.params)
            twin_params = set(twin.params)

            for p in contract.unsupported:
                if p not in ref_params:
                    yield self.at(
                        twin, line, col,
                        f"unsupported parameter {p!r} is not a parameter of "
                        f"reference {ref.spec}",
                    )
            for key, value in sorted(contract.param_map.items()):
                if key not in ref_params:
                    yield self.at(
                        twin, line, col,
                        f"param_map key {key!r} is not a parameter of "
                        f"reference {ref.spec}",
                    )
                if value not in twin_params:
                    yield self.at(
                        twin, line, col,
                        f"param_map value {value!r} is not a parameter of "
                        f"twin {twin.spec}",
                    )
            for p in contract.twin_only:
                if p not in twin_params:
                    yield self.at(
                        twin, line, col,
                        f"twin_only parameter {p!r} is not a parameter of "
                        f"twin {twin.spec}",
                    )

            mapped = {contract.param_map.get(p, p) for p in ref.params}
            for p in ref.params:
                target = contract.param_map.get(p, p)
                if p in contract.unsupported:
                    if target in twin_params:
                        yield self.at(
                            twin, line, col,
                            f"parameter {p!r} is declared unsupported but "
                            f"present on twin {twin.spec}",
                        )
                    continue
                if target not in twin_params:
                    yield self.at(
                        twin, line, col,
                        f"reference parameter {p!r} missing on twin "
                        f"{twin.spec}; add it, rename it via param_map=, or "
                        "declare it unsupported= (with a runtime fallback)",
                    )
            for p in twin.params:
                if p not in mapped and p not in contract.twin_only:
                    yield self.at(
                        twin, line, col,
                        f"twin parameter {p!r} is absent from reference "
                        f"{ref.spec}; declare it twin_only= or add it to "
                        "the reference",
                    )


@register
class TwinConfigParity(_TwinRule):
    rule = "RL102"
    name = "twin-config-parity"
    description = (
        "a repro.config value read by one side of a twin pair only "
        "must be declared in fallback_flags"
    )

    def finalize(self) -> Iterator[Diagnostic]:
        for twin, ref in self._resolved_pairs():
            contract = twin.contract
            allowed = set(contract.fallback_flags)
            for flag in sorted(twin.config_reads - ref.config_reads - allowed):
                yield self.at(
                    twin, contract.line, contract.col,
                    f"config flag {flag!r} read by twin {twin.spec} but not "
                    f"by reference {ref.spec}; mirror the branch or declare "
                    "it in fallback_flags=",
                )
            for flag in sorted(ref.config_reads - twin.config_reads - allowed):
                yield self.at(
                    twin, contract.line, contract.col,
                    f"config flag {flag!r} read by reference {ref.spec} but "
                    f"not by twin {twin.spec}; mirror the branch or declare "
                    "it in fallback_flags=",
                )


@register
class TwinRegistryCompleteness(_TwinRule):
    rule = "RL103"
    name = "twin-registry-completeness"
    description = (
        "functions named like fast paths (*_flat, *_grid, *_many, "
        "batch_*) must be registered with @twin_of or serve as a "
        "contract's reference"
    )

    def finalize(self) -> Iterator[Diagnostic]:
        references = {
            info.contract.reference
            for info in self._contract_sites()
            if info.contract.reference is not None
        }
        for info in self._infos:
            if info.is_test or info.nested or not info.module:
                continue
            name = info.name
            if not (
                name.endswith(_TWIN_SUFFIXES) or name.startswith(_TWIN_PREFIXES)
            ):
                continue
            if info.contract is not None or info.spec in references:
                continue
            yield self.at(
                info, info.line, info.col,
                f"{name!r} is named like a fast path but has no twin "
                "contract; decorate it with @twin_of or register a "
                "contract naming it as reference",
            )


@register
class TwinContractWellFormed(_TwinRule):
    rule = "RL104"
    name = "twin-contract-well-formed"
    description = (
        "twin_of arguments must be literals and the reference spec "
        "must resolve to a real definition"
    )

    def finalize(self) -> Iterator[Diagnostic]:
        index = self._index()
        for twin in self._contract_sites():
            contract = twin.contract
            line, col = contract.line, contract.col
            if not contract.literal:
                yield self.at(
                    twin, line, col,
                    "twin_of arguments must be literal constants so the "
                    "contract is statically checkable",
                )
            if contract.reference is None:
                yield self.at(
                    twin, line, col,
                    "twin_of reference must be a 'module:qualname' string "
                    "literal",
                )
                continue
            if contract.reference.count(":") != 1 or not all(
                contract.reference.split(":")
            ):
                yield self.at(
                    twin, line, col,
                    f"malformed twin reference {contract.reference!r} "
                    "(expected 'module:qualname')",
                )
                continue
            if contract.kind not in _TWIN_KINDS:
                yield self.at(
                    twin, line, col,
                    f"unknown twin contract kind {contract.kind!r} "
                    f"(expected one of {', '.join(_TWIN_KINDS)})",
                )
            if index.resolve(contract.reference) is None:
                yield self.at(
                    twin, line, col,
                    f"twin reference {contract.reference!r} does not resolve "
                    "to a definition (checked linted files and src/ on disk)",
                )
