"""Project-wide call graph and interprocedural effect inference (RL3xx).

This module gives the RL3xx rules their engine: a call graph over every
collected file (plus the transitive ``repro.*`` closure loaded from
``src/`` on disk, so single-file pre-commit runs stay sound) and a
per-function *effect summary* propagated to fixpoint over that graph.

The lattice is the one documented in :mod:`repro.effects` — ``PURE``
(the empty set) at the bottom, the seven effect atoms above it::

    PURE ⊑ {READS_CONFIG, READS_ENV, RNG, TIME,
            MUTATES_ARG, MUTATES_GLOBAL, IO}

plus one *internal* pseudo-effect, ``MUTATES_STATE``, that never appears
in a public summary: a method writing through ``self``/``cls`` is not a
mutation of the method's own contract (stateful controllers may keep
internal state), but it *is* a mutation of the receiver, so at
every call site it is translated by receiver kind — ``obj.m()`` where
``obj`` is a caller parameter becomes ``MUTATES_ARG`` in the caller,
where ``obj`` is a module global becomes ``MUTATES_GLOBAL``, where
``obj`` is a local it is dropped.  ``MUTATES_ARG`` crossing a call edge
is translated the same way, from the kinds of the arguments actually
passed.

Soundness model
---------------
The analysis is *sound by default*: a call it cannot resolve — a bare
callable parameter, an attribute on an object of unknown type, an
external library with no intrinsic entry — does not silently default to
pure.  It marks the caller **unproven**, and unprovenness propagates to
callers exactly like an effect.  The purity rules refuse to certify
unproven functions; the two sanctioned trust boundaries are

* an ``@effects(...)`` declaration (:mod:`repro.effects`): the function
  exports exactly its declared set and is proven by fiat — and RL304
  polices the declaration against the inference in both directions;
* the spec-keyed intrinsic table below, which pins the seed-lineage
  constructors ``repro.determinism:derive_seed`` / ``derive_rng`` as
  PURE.  They *do* read ``os.environ`` and append to a module-level
  ledger — but only under ``REPRO_SANITIZE=1``, a diagnostic side
  channel owned by the RL2xx family and the runtime sanitizer; treating
  the sanctioned seed-derivation path as RNG/IO here would poison every
  seeded worker in the repo and drown the real findings.

Witnesses
---------
Every effect (and the unproven flag) remembers the *first* origin that
introduced it: either a local AST site (``("local", line, detail)``) or
a call edge (``("call", line, callee_spec, callee_effect)``).  Because
an effect is only ever acquired from a callee that already holds it,
following origins always terminates at a local witness, even through
mutual recursion — that is the chain ``explain`` prints.

Layering: this module sits next to the engine and imports nothing from
``tools.repro_lint.checkers`` (the RL3xx checkers import *it*), and it
must not import :mod:`repro` — the CLI runs without ``PYTHONPATH=src``,
so :data:`EFFECT_NAMES` is duplicated here and pinned to the runtime
copy by a test.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

__all__ = [
    "EFFECT_NAMES",
    "PUBLIC_EFFECTS",
    "MUTATES_STATE",
    "SPEC_EFFECT_OVERRIDES",
    "CallGraph",
    "CallSite",
    "FunctionNode",
    "ParallelSite",
    "WitnessStep",
    "build_graph",
    "effect_summary",
    "graph_for_contexts",
    "module_key",
]

#: must mirror ``repro.effects.EFFECT_NAMES`` (asserted by the test suite)
EFFECT_NAMES: tuple[str, ...] = (
    "READS_CONFIG",
    "READS_ENV",
    "RNG",
    "TIME",
    "MUTATES_ARG",
    "MUTATES_GLOBAL",
    "IO",
)

READS_CONFIG, READS_ENV, RNG, TIME, MUTATES_ARG, MUTATES_GLOBAL, IO = EFFECT_NAMES

#: internal pseudo-effect: mutates *internal state* of an object
#: reachable from self or an argument (caches, counters, EWMAs:
#: stateful controllers may keep internal state).  Translated
#: at call edges: it hardens to MUTATES_GLOBAL when the receiver is a
#: module-level singleton, keeps propagating through param/self
#: receivers, and is dropped for locally-constructed objects.  Never
#: part of a public summary.
MUTATES_STATE = "MUTATES_STATE"

PUBLIC_EFFECTS = frozenset(EFFECT_NAMES)
PURE: frozenset[str] = frozenset()

_ENV = frozenset({READS_ENV})
_RNG = frozenset({RNG})
_TIME = frozenset({TIME})
_IO = frozenset({IO})

#: spec-keyed trust boundaries (see module docstring for the rationale)
SPEC_EFFECT_OVERRIDES: dict[str, frozenset[str]] = {
    "repro.determinism:derive_seed": PURE,
    "repro.determinism:derive_rng": PURE,
    "repro.determinism:sanitize_enabled": _ENV,
    # parallel_map is effect-transparent infrastructure: the *task's*
    # effects flow through the explicit task edge recorded at every
    # call site, and the pool management itself (process spawn, pickle
    # round-trip) is guaranteed not to change results — sharded builds
    # are bit-identical to serial ones by contract, and CI diffs them.
    # Treating pool plumbing as IO would mark every fan-out caller IO
    # and bury real task effects.
    "repro.core.parallel:parallel_map": PURE,
}

# --------------------------------------------------------------------------
# intrinsic effect tables for external (non-project) callables
# --------------------------------------------------------------------------

#: exact dotted names (checked before the prefix table)
_INTRINSIC_EXACT: dict[str, frozenset[str]] = {
    "os.getenv": _ENV,
    "os.putenv": frozenset({MUTATES_GLOBAL}),
    "os.cpu_count": _ENV,
    "os.getcwd": _ENV,
    "os.getpid": _ENV,
    "os.uname": _ENV,
    "os.urandom": _RNG,
    "os.environ.get": _ENV,
    "os.environ.keys": _ENV,
    "os.environ.items": _ENV,
    "os.fspath": PURE,
    "sys.exit": _IO,
    "sys.getsizeof": PURE,
    "sys.intern": PURE,
    "time.sleep": _TIME,
    "json.dump": _IO,
    "json.load": _IO,
    "pickle.dump": _IO,
    "pickle.load": _IO,
    "numpy.save": _IO,
    "numpy.savez": _IO,
    "numpy.savez_compressed": _IO,
    "numpy.load": _IO,
    "numpy.savetxt": _IO,
    "numpy.loadtxt": _IO,
    "numpy.memmap": _IO,
    "uuid.uuid1": _RNG | _TIME,
    "uuid.uuid4": _RNG,
    "warnings.warn": _IO,
    "platform.machine": _ENV,
    "platform.python_version": _ENV,
    "platform.node": _ENV,
    "platform.system": _ENV,
}

#: dotted-prefix table, longest match wins ("numpy.random." beats "numpy.")
_INTRINSIC_PREFIX: tuple[tuple[str, frozenset[str]], ...] = (
    ("os.path.", PURE),  # lexical path algebra; FS-touching entries below
    ("os.environ", _ENV),
    ("os.", _IO),
    ("sys.", _ENV),
    ("time.", _TIME),
    ("datetime.", _TIME),  # only reached for now()/today()-style reads
    ("random.", _RNG),
    ("secrets.", _RNG),
    ("numpy.random.", _RNG),
    ("numpy.testing.", PURE),
    ("numpy.", PURE),
    ("math.", PURE),
    ("cmath.", PURE),
    ("statistics.", PURE),
    ("itertools.", PURE),
    ("functools.", PURE),
    ("operator.", PURE),
    ("collections.", PURE),
    ("dataclasses.", PURE),
    ("enum.", PURE),
    ("typing.", PURE),
    ("abc.", PURE),
    ("copy.", PURE),
    ("json.", PURE),
    ("pickle.", PURE),
    ("hashlib.", PURE),
    ("hmac.", PURE),
    ("base64.", PURE),
    ("binascii.", PURE),
    ("struct.", PURE),
    ("zlib.", PURE),
    ("re.", PURE),
    ("string.", PURE),
    ("textwrap.", PURE),
    ("unicodedata.", PURE),
    ("heapq.", PURE),  # arg mutation handled via _FIRST_ARG_MUTATORS
    ("bisect.", PURE),
    ("array.", PURE),
    ("fnmatch.", PURE),
    ("difflib.", PURE),
    ("ast.", PURE),
    ("inspect.", PURE),
    ("contextlib.", PURE),
    ("argparse.", PURE),
    ("pytest.", PURE),
    ("hypothesis.", PURE),
    ("warnings.", PURE),
    ("logging.", _IO),
    ("io.", PURE),
    ("subprocess.", _IO),
    ("shutil.", _IO),
    ("socket.", _IO),
    ("requests.", _IO),
    ("urllib.", _IO),
    ("http.", _IO),
    ("tempfile.", _IO),
    ("glob.", _IO),
    ("pathlib.", PURE),  # Path() construction; FS methods via leaf table
    ("csv.", PURE),
    ("concurrent.", _IO),
    ("multiprocessing.", _IO),
    ("threading.", _IO),
    ("queue.", PURE),
    ("traceback.", PURE),
    ("importlib.", _IO),
    ("atexit.", frozenset({MUTATES_GLOBAL})),
    ("signal.", frozenset({MUTATES_GLOBAL})),
)

#: external callables that mutate their first positional argument
#: (translated by the argument's root kind, like MUTATES_ARG edges)
_FIRST_ARG_MUTATORS = {
    "heapq.heappush",
    "heapq.heappop",
    "heapq.heapify",
    "heapq.heappushpop",
    "heapq.heapreplace",
    "bisect.insort",
    "bisect.insort_left",
    "bisect.insort_right",
    "random.shuffle",
    "numpy.copyto",
    "numpy.put",
    "numpy.place",
    "numpy.fill_diagonal",
    "setattr",
    "delattr",
}

#: RNG constructors that are deterministic when given an explicit seed;
#: only the *unseeded* form draws OS entropy (the RL2xx rules police
#: where the seed itself comes from)
_SEEDED_RNG_CTORS = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "random.Random",
}

#: call leaves that return an RNG object: a name a scope binds to one
#: must not appear in a ``parallel_map`` call, or every worker replays
#: the same pickled stream
_RNG_BINDERS = frozenset({"default_rng", "Random", "RandomState", "derive_rng"})

#: simulated-state names a ``partial`` must not bind into a parallel task
_STATE_NAMES = frozenset(
    {"sim", "simulator", "server", "servers", "pfs", "client", "clients"}
)

_IO_BUILTINS = {"print", "open", "input", "breakpoint", "__import__"}

_PURE_BUILTINS = {
    "abs", "aiter", "all", "any", "anext", "ascii", "bin", "bool",
    "bytearray", "bytes", "callable", "chr", "classmethod", "complex",
    "dict", "divmod", "enumerate", "filter", "float", "format",
    "frozenset", "getattr", "hasattr", "hash", "hex", "id", "int",
    "isinstance", "issubclass", "iter", "len", "list", "map", "max",
    "memoryview", "min", "next", "object", "oct", "ord", "pow",
    "property", "range", "repr", "reversed", "round", "set", "slice",
    "sorted", "staticmethod", "str", "sum", "super", "tuple", "type",
    "vars", "zip",
    # exception constructors
    "ArithmeticError", "AssertionError", "AttributeError",
    "BaseException", "BlockingIOError", "BrokenPipeError",
    "BufferError", "ConnectionError", "DeprecationWarning", "EOFError",
    "Exception", "FileExistsError", "FileNotFoundError",
    "FloatingPointError", "FutureWarning", "GeneratorExit",
    "ImportError", "IndentationError", "IndexError", "InterruptedError",
    "IsADirectoryError", "KeyError", "KeyboardInterrupt", "LookupError",
    "MemoryError", "ModuleNotFoundError", "NameError",
    "NotADirectoryError", "NotImplementedError", "OSError",
    "OverflowError", "PendingDeprecationWarning", "PermissionError",
    "ProcessLookupError", "RecursionError", "ReferenceError",
    "ResourceWarning", "RuntimeError", "RuntimeWarning",
    "StopAsyncIteration", "StopIteration", "SyntaxError", "SystemError",
    "SystemExit", "TabError", "TimeoutError", "TypeError",
    "UnboundLocalError", "UnicodeDecodeError", "UnicodeEncodeError",
    "UnicodeError", "UserWarning", "ValueError", "Warning",
    "ZeroDivisionError",
}

#: leaf method names that do I/O regardless of receiver type
_IO_LEAF_METHODS = {
    "write", "writelines", "flush", "fileno", "writerow", "writerows",
    "write_text", "write_bytes", "read_text", "read_bytes", "mkdir",
    "rmdir", "unlink", "touch", "rename", "hardlink_to", "symlink_to",
    "savefig", "to_csv", "iterdir", "rglob", "is_file", "is_dir",
    "exists", "stat", "samefile", "communicate", "send", "recv",
    "connect", "listen", "accept", "bind", "close", "seek", "tell",
    "truncate", "read", "readinto", "readline", "readlines", "glob",
    "open", "print_help", "print_usage",
}

#: leaf method names that mutate their receiver in place (builtin
#: containers, ndarrays, and ``numpy.random.Generator`` draws — a draw
#: advances the generator's state, so drawing from a *passed-in* rng is
#: an argument mutation; rngs built locally via ``derive_rng`` are not)
_MUTATOR_LEAF_METHODS = {
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "update", "add", "discard", "setdefault", "popitem",
    "fill", "partition_inplace", "put", "itemset", "resize",
    "appendleft", "extendleft", "popleft", "rotate", "move_to_end",
    "integers", "random", "shuffle", "permutation", "permuted",
    "choice", "normal", "uniform", "standard_normal", "exponential",
    "poisson", "binomial", "geometric", "lognormal", "bytes_",
    "getrandbits", "randint", "randrange", "sample", "gauss",
}

#: leaf method names assumed pure on *unknown* receivers (known project
#: receivers resolve to real method nodes first and never reach this
#: table); generous on purpose — every name here is a read-only method
#: of str/bytes/dict/list/set/tuple/ndarray/namedtuple in practice
_PURE_LEAF_METHODS = {
    "get", "keys", "values", "items", "copy", "count", "index",
    "join", "split", "rsplit", "splitlines", "strip", "lstrip",
    "rstrip", "startswith", "endswith", "replace", "format",
    "format_map", "lower", "upper", "title", "capitalize", "casefold",
    "center", "ljust", "rjust", "zfill", "encode", "decode", "hexdigest",
    "hex", "isdigit", "isalpha", "isalnum", "isspace",
    "isupper", "islower", "isidentifier", "partition", "rpartition",
    "find", "rfind", "expandtabs", "removeprefix", "removesuffix",
    "astype", "tolist", "tobytes", "item", "sum", "mean", "std", "var",
    "min", "max", "argmin", "argmax", "argsort", "searchsorted",
    "nonzero", "any", "all", "cumsum", "cumprod", "prod", "dot",
    "reshape", "ravel", "flatten", "squeeze", "transpose", "swapaxes",
    "repeat", "take", "clip", "round", "view", "byteswap", "newbyteorder",
    "difference", "union", "intersection", "symmetric_difference",
    "issubset", "issuperset", "isdisjoint", "most_common",
    "as_integer_ratio", "bit_length", "to_bytes", "from_bytes", "getvalue",
    "is_integer", "conjugate", "total_seconds", "isoformat", "spawn",
    "maketrans", "translate", "fromkeys", "mro", "name", "value",
    # re.Pattern / re.Match
    "match", "search", "fullmatch", "findall", "finditer", "sub",
    "subn", "group", "groups", "groupdict", "start", "end", "span",
    # struct.Struct
    "pack", "pack_into", "unpack", "unpack_from", "iter_unpack",
    # pathlib lexical (non-FS) algebra
    "with_suffix", "with_name", "with_stem", "joinpath", "as_posix",
    "relative_to", "is_absolute",
    # argparse builders (parse_args on an explicit argv list is pure;
    # reading sys.argv is caught separately as READS_ENV)
    "add_argument", "add_argument_group", "add_subparsers", "add_parser",
    "add_mutually_exclusive_group", "set_defaults", "parse_args",
    "parse_known_args", "format_help",
}

_SRC_ROOT = "src"


def effect_summary(effects: Iterable[str]) -> str:
    """Canonical rendering: ``"PURE"`` or effects in report order."""
    public = [e for e in EFFECT_NAMES if e in set(effects)]
    return ", ".join(public) if public else "PURE"


def module_key(posix_path: str) -> str:
    """Dotted module key for any path: ``src/repro/x.py`` → ``repro.x``,
    ``tests/tools/test_x.py`` → ``tests.tools.test_x``."""
    parts = posix_path.split("/")
    if "src" in parts:
        idx = len(parts) - 1 - parts[::-1].index("src")
        mod_parts = parts[idx + 1 :]
    else:
        mod_parts = [p for p in parts if p not in (".", "")]
    if not mod_parts or not mod_parts[-1].endswith(".py"):
        return ""
    mod_parts = list(mod_parts)
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


def _root_name(node: ast.expr) -> str | None:
    """Leftmost name under attribute/subscript/starred wrapping."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


# --------------------------------------------------------------------------
# graph data model
# --------------------------------------------------------------------------


@dataclass
class CallSite:
    """A resolved project-internal call edge."""

    line: int
    col: int
    callee: str  # spec of the resolved target
    text: str  # short rendering for messages
    #: root kinds of the arguments passed: "param" | "global" | "self" | "local"
    arg_kinds: tuple[str, ...] = ()
    #: leftmost root name of each argument (aligned with ``arg_kinds``)
    arg_roots: tuple[str | None, ...] = ()
    #: keyword name per argument (None for positional; aligned)
    kw_names: tuple[str | None, ...] = ()
    #: root kind of the method receiver, if this was an attribute call
    receiver_kind: str | None = None
    #: root name of the method receiver
    receiver_root: str | None = None
    #: True when this edge is a constructor call (fresh receiver)
    is_ctor: bool = False
    #: True when ``*args``/``**kwargs`` defeat positional mapping
    varargs: bool = False


@dataclass
class ParallelSite:
    """One ``parallel_map(task, ...)`` occurrence."""

    caller: str
    path: str
    line: int
    col: int
    task: str | None  # resolved task spec, or None when dynamic
    text: str
    is_test: bool
    #: what the call sends across the process boundary unsafely, as
    #: ``(kind, name, line, col)`` with kind "lambda", "nested",
    #: "method", "dynamic" (the task is not a module-level function),
    #: "rng" (an RNG-bound name in any argument) or "state" (simulated
    #: state bound by ``partial``)
    boundary: tuple[tuple[str, str, int, int], ...] = ()


@dataclass
class FunctionNode:
    """One function in the graph, with its evolving effect summary."""

    spec: str
    module: str
    qualname: str
    name: str
    path: str
    line: int
    col: int
    is_test: bool
    class_name: str | None = None
    params: tuple[str, ...] = ()
    #: ``@effects(...)`` declaration, if present
    declared: frozenset[str] | None = None
    declared_line: int = 0
    declared_literal: bool = True
    calls: list[CallSite] = field(default_factory=list)
    effects: set[str] = field(default_factory=set)
    #: parameter names this function is known to mutate (refines
    #: MUTATES_ARG translation at call sites; empty = unknown, callers
    #: fall back to the coarse all-arguments union)
    mutated_params: set[str] = field(default_factory=set)
    #: effect -> ("local", line, detail) | ("call", line, callee, callee_effect)
    origins: dict[str, tuple] = field(default_factory=dict)
    unresolved: list[tuple[int, str]] = field(default_factory=list)
    unproven: bool = False
    unproven_origin: tuple | None = None

    def add_local(self, effect: str, line: int, detail: str) -> None:
        if effect not in self.effects:
            self.effects.add(effect)
            self.origins[effect] = ("local", line, detail)

    def public_effects(self) -> frozenset[str]:
        return frozenset(self.effects) & PUBLIC_EFFECTS


@dataclass
class ClassInfo:
    name: str
    module: str
    line: int
    #: base-class expressions as dotted text, resolved lazily
    bases: tuple[str, ...] = ()
    methods: dict[str, str] = field(default_factory=dict)  # name -> spec
    #: instance-attribute types: attr -> dotted class text (module-local)
    attr_types: dict[str, str] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.module}:{self.name}"


@dataclass
class ModuleInfo:
    name: str
    path: str
    is_test: bool
    #: local alias -> dotted module ("np" -> "numpy", "flat" -> "repro.pfs.flat")
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: local name -> (source module, attr) from ``from X import y [as z]``
    imported_names: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: top-level function name -> spec
    functions: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: names bound at module top level (mutation targets -> MUTATES_GLOBAL)
    globals: set[str] = field(default_factory=set)
    #: module-level singletons: name -> dotted class text (``_LEDGER = Ledger()``)
    global_types: dict[str, str] = field(default_factory=dict)
    config_direct: dict[str, str] = field(default_factory=dict)
    config_modules: set[str] = field(default_factory=set)


def _resolve_relative(base_module: str, is_package: bool, level: int,
                      target: str | None) -> str:
    """Absolute dotted module for a (possibly relative) import."""
    if level == 0:
        return target or ""
    parts = base_module.split(".") if base_module else []
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop:
        parts = parts[: len(parts) - drop] if drop <= len(parts) else []
    if target:
        parts = parts + target.split(".")
    return ".".join(parts)


def _parse_effects_decorator(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> tuple[frozenset[str] | None, int, bool]:
    """The ``@effects(...)`` declaration on ``fn``: (set, line, literal)."""
    for dec in fn.decorator_list:
        if not isinstance(dec, ast.Call):
            continue
        chain = _attr_chain(dec.func)
        if not chain or chain[-1] != "effects":
            continue
        names: set[str] = set()
        literal = not dec.keywords
        for arg in dec.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                names.add(arg.value)
            else:
                literal = False
        return frozenset(names), dec.lineno, literal
    return None, 0, True


# --------------------------------------------------------------------------
# graph construction
# --------------------------------------------------------------------------


@dataclass
class _Scope:
    """Everything name resolution knows inside one function body."""

    module: ModuleInfo
    class_info: ClassInfo | None = None
    self_name: str | None = None
    params: frozenset[str] = frozenset()
    #: nested defs / named lambdas visible here (own + enclosing)
    local_funcs: dict[str, str] = field(default_factory=dict)
    #: plain ``x = <callable expr>`` aliases, resolved lazily
    alias_exprs: dict[str, ast.expr] = field(default_factory=dict)
    #: locals with a statically known project class: name -> class key
    local_types: dict[str, str] = field(default_factory=dict)
    #: function-level ``import x as y``
    local_module_aliases: dict[str, str] = field(default_factory=dict)
    #: function-level ``from x import y``
    local_imported: dict[str, tuple[str, str]] = field(default_factory=dict)
    declared_globals: frozenset[str] = frozenset()
    #: names bound to an RNG object (``x = default_rng(...)``)
    rng_names: set[str] = field(default_factory=set)

    def kind_of(self, name: str | None) -> str:
        if name is None:
            return "local"
        if name == self.self_name:
            return "self"
        if name in self.params:
            return "param"
        mod = self.module
        if (
            name in self.declared_globals
            or name in mod.globals
            or name in mod.functions
            or name in mod.classes
            or name in mod.imported_names
            or name in mod.module_aliases
        ):
            return "global"
        return "local"


@dataclass
class _ScanUnit:
    node: FunctionNode
    #: a module stands for its top-level code, scanned for
    #: ``parallel_map`` sites only
    fn: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda | ast.Module
    scope: _Scope


def _leaf(expr: ast.expr) -> str | None:
    chain = _attr_chain(expr)
    return chain[-1] if chain else None


def _rng_target(item: ast.AST) -> str | None:
    """The name ``item`` binds to an RNG object, if it is
    ``name = default_rng(...)`` (or another :data:`_RNG_BINDERS` call)."""
    if (
        isinstance(item, ast.Assign)
        and len(item.targets) == 1
        and isinstance(item.targets[0], ast.Name)
        and isinstance(item.value, ast.Call)
        and _leaf(item.value.func) in _RNG_BINDERS
    ):
        return item.targets[0].id
    return None


def _call_text(call: ast.Call) -> str:
    chain = _attr_chain(call.func)
    if chain:
        return ".".join(chain) + "()"
    if isinstance(call.func, ast.Call):
        return "(...)()"
    if isinstance(call.func, ast.Lambda):
        return "<lambda>()"
    return "<dynamic>()"


def _annotation_text(node: ast.expr | None) -> str | None:
    """Best-effort dotted class name out of an annotation expression."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip()
    if isinstance(node, (ast.Name, ast.Attribute)):
        chain = _attr_chain(node)
        return ".".join(chain) if chain else None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            if isinstance(side, ast.Constant) and side.value is None:
                continue
            return _annotation_text(side)
    return None


class _GraphBuilder:
    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.nodes: dict[str, FunctionNode] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.parallel_sites: list[ParallelSite] = []
        #: non-test method specs grouped by name, for duck-typed joins
        self.methods_by_name: dict[str, list[str]] = {}
        self._pending: list[_ScanUnit] = []
        self._disk_attempted: set[str] = set()

    # -- module loading ----------------------------------------------------

    def add_module(
        self,
        tree: ast.Module,
        posix_path: str,
        display_path: str,
        is_test: bool,
    ) -> None:
        name = module_key(posix_path)
        if not name or name in self.modules:
            return
        mod = ModuleInfo(name=name, path=display_path, is_test=is_test)
        self.modules[name] = mod
        is_package = posix_path.endswith("/__init__.py")
        for stmt in self._module_stmts(tree.body):
            self._collect_stmt(mod, stmt, is_package)
        self._collect_config_aliases(mod, tree)
        top = FunctionNode(
            spec=f"{name}:<module>", module=name, qualname="<module>",
            name="<module>", path=display_path, line=1, col=0, is_test=is_test,
        )
        self._pending.append(_ScanUnit(node=top, fn=tree, scope=_Scope(module=mod)))

    @staticmethod
    def _module_stmts(body: list[ast.stmt]) -> Iterator[ast.stmt]:
        """Top-level statements, looking through If/Try guards
        (``if TYPE_CHECKING:``, optional-dependency imports)."""
        stack = list(reversed(body))
        while stack:
            stmt = stack.pop()
            yield stmt
            if isinstance(stmt, (ast.If, ast.Try)):
                inner: list[ast.stmt] = list(stmt.body)
                for attr in ("orelse", "finalbody"):
                    inner.extend(getattr(stmt, attr, []))
                for handler in getattr(stmt, "handlers", []):
                    inner.extend(handler.body)
                stack.extend(reversed(inner))

    def _collect_stmt(
        self, mod: ModuleInfo, stmt: ast.stmt, is_package: bool
    ) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    mod.module_aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    mod.module_aliases[root] = root
        elif isinstance(stmt, ast.ImportFrom):
            source = _resolve_relative(
                mod.name, is_package, stmt.level, stmt.module
            )
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                mod.imported_names[alias.asname or alias.name] = (
                    source,
                    alias.name,
                )
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node = self._make_node(mod, stmt, qualname=stmt.name, class_info=None)
            mod.functions[stmt.name] = node.spec
        elif isinstance(stmt, ast.ClassDef):
            self._collect_class(mod, stmt)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    mod.globals.add(target.id)
                    value = getattr(stmt, "value", None)
                    if isinstance(value, ast.Call):
                        chain = _attr_chain(value.func)
                        if chain:
                            mod.global_types.setdefault(
                                target.id, ".".join(chain)
                            )
                elif isinstance(target, ast.Tuple):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            mod.globals.add(elt.id)

    def _collect_class(self, mod: ModuleInfo, stmt: ast.ClassDef) -> None:
        bases = []
        for base in stmt.bases:
            chain = _attr_chain(base)
            if chain:
                bases.append(".".join(chain))
        info = ClassInfo(
            name=stmt.name, module=mod.name, line=stmt.lineno,
            bases=tuple(bases),
        )
        mod.classes[stmt.name] = info
        self.classes[info.key] = info
        for member in stmt.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                node = self._make_node(
                    mod, member,
                    qualname=f"{stmt.name}.{member.name}", class_info=info,
                )
                info.methods[member.name] = node.spec
                if not mod.is_test and not member.name.startswith("__"):
                    self.methods_by_name.setdefault(member.name, []).append(
                        node.spec
                    )
                if member.name == "__init__":
                    self._collect_attr_types(info, member)
            elif isinstance(member, ast.AnnAssign) and isinstance(
                member.target, ast.Name
            ):
                text = _annotation_text(member.annotation)
                if text:
                    info.attr_types[member.target.id] = text

    @staticmethod
    def _collect_attr_types(
        info: ClassInfo, init: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        for node in ast.walk(init):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                text = _annotation_text(node.annotation)
                if (
                    text
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    info.attr_types.setdefault(target.attr, text)
                    continue
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and isinstance(value, ast.Call)
            ):
                continue
            chain = _attr_chain(value.func)
            if chain:
                info.attr_types.setdefault(target.attr, ".".join(chain))

    @staticmethod
    def _collect_config_aliases(mod: ModuleInfo, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                is_config = (node.module or "").split(".")[-1:] == ["config"] and (
                    node.level > 0 or (node.module or "").startswith("repro")
                )
                if is_config:
                    for alias in node.names:
                        mod.config_direct[alias.asname or alias.name] = alias.name
                elif node.module in ("repro", None) or node.level > 0:
                    for alias in node.names:
                        if alias.name == "config":
                            mod.config_modules.add(alias.asname or "config")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro.config" and alias.asname:
                        mod.config_modules.add(alias.asname)

    def _make_node(
        self,
        mod: ModuleInfo,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        class_info: ClassInfo | None,
        enclosing: _Scope | None = None,
    ) -> FunctionNode:
        declared, dline, literal = _parse_effects_decorator(fn)
        args = fn.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        self_name = None
        if class_info is not None and enclosing is None and names and names[0] in (
            "self", "cls",
        ):
            self_name = names[0]
            names = names[1:]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        node = FunctionNode(
            spec=f"{mod.name}:{qualname}",
            module=mod.name,
            qualname=qualname,
            name=fn.name,
            path=mod.path,
            line=fn.lineno,
            col=fn.col_offset,
            is_test=mod.is_test,
            class_name=class_info.name if class_info else None,
            params=tuple(names),
            declared=declared,
            declared_line=dline,
            declared_literal=literal,
        )
        self.nodes[node.spec] = node
        scope = _Scope(
            module=mod,
            class_info=class_info,
            self_name=self_name,
            params=frozenset(names),
        )
        if enclosing is not None:
            scope.local_funcs.update(enclosing.local_funcs)
            scope.local_types.update(enclosing.local_types)
            scope.local_module_aliases.update(enclosing.local_module_aliases)
            scope.local_imported.update(enclosing.local_imported)
        self._pending.append(_ScanUnit(node=node, fn=fn, scope=scope))
        return node

    def _make_lambda_node(
        self, mod: ModuleInfo, fn: ast.Lambda, parent: FunctionNode,
        scope: _Scope,
    ) -> FunctionNode:
        qualname = f"{parent.qualname}.<locals>.<lambda@{fn.lineno}>"
        args = fn.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        node = FunctionNode(
            spec=f"{mod.name}:{qualname}",
            module=mod.name,
            qualname=qualname,
            name="<lambda>",
            path=mod.path,
            line=fn.lineno,
            col=fn.col_offset,
            is_test=mod.is_test,
            params=tuple(names),
        )
        self.nodes[node.spec] = node
        sub = _Scope(
            module=mod,
            class_info=scope.class_info,
            self_name=scope.self_name,
            params=frozenset(names),
            local_funcs=dict(scope.local_funcs),
            local_types=dict(scope.local_types),
            local_module_aliases=dict(scope.local_module_aliases),
            local_imported=dict(scope.local_imported),
        )
        self._pending.append(_ScanUnit(node=node, fn=fn, scope=sub))
        return node

    def _is_project(self, module: str) -> bool:
        return (
            module in self.modules
            or module == "repro"
            or module.startswith("repro.")
            or module.startswith("tests.")
            or module.startswith("tools.")
        )

    def _ensure_module(self, dotted: str) -> ModuleInfo | None:
        mod = self.modules.get(dotted)
        if mod is not None:
            return mod
        if dotted in self._disk_attempted:
            return None
        self._disk_attempted.add(dotted)
        rel = dotted.replace(".", "/")
        candidates = [f"src/{rel}.py", f"src/{rel}/__init__.py"]
        if not dotted.startswith("repro"):
            candidates += [f"{rel}.py", f"{rel}/__init__.py"]
        for candidate in candidates:
            if not os.path.isfile(candidate):
                continue
            try:
                with open(candidate, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=candidate)
            except (OSError, SyntaxError):
                return None
            self.add_module(tree, candidate, candidate, is_test=False)
            return self.modules.get(module_key(candidate))
        return None

    # -- class/method resolution ------------------------------------------

    def _resolve_class_text(
        self, text: str | None, mod: ModuleInfo, depth: int = 0
    ) -> ClassInfo | None:
        if not text or depth > 8:
            return None
        parts = text.split(".")
        head = parts[0]
        if len(parts) == 1:
            if head in mod.classes:
                return mod.classes[head]
            imp = mod.imported_names.get(head)
            if imp:
                return self._resolve_imported_class(imp[0], imp[1], depth)
            return None
        alias = mod.module_aliases.get(head)
        if alias is not None:
            target = self._ensure_module(".".join([alias] + parts[1:-1]))
            if target is not None:
                return self._resolve_class_text(parts[-1], target, depth + 1)
        imp = mod.imported_names.get(head)
        if imp and len(parts) == 2:
            source, attr = imp
            target = self._ensure_module(f"{source}.{attr}")
            if target is not None:
                return self._resolve_class_text(parts[1], target, depth + 1)
        return None

    def _resolve_imported_class(
        self, source: str, attr: str, depth: int
    ) -> ClassInfo | None:
        if depth > 8 or not self._is_project(source):
            return None
        mod = self._ensure_module(source)
        if mod is None:
            return None
        if attr in mod.classes:
            return mod.classes[attr]
        imp = mod.imported_names.get(attr)
        if imp:
            return self._resolve_imported_class(imp[0], imp[1], depth + 1)
        return None

    def _resolve_method(
        self, info: ClassInfo | None, name: str, depth: int = 0
    ) -> str | None:
        if info is None or depth > 8:
            return None
        spec = info.methods.get(name)
        if spec is not None:
            return spec
        mod = self.modules.get(info.module)
        if mod is None:
            return None
        for base in info.bases:
            found = self._resolve_method(
                self._resolve_class_text(base, mod, depth + 1), name, depth + 1
            )
            if found is not None:
                return found
        return None

    # -- callable resolution ----------------------------------------------

    def _intrinsic(self, dotted: str) -> tuple[frozenset[str], bool] | None:
        """(effects, mutates_first_arg) for an external dotted callable."""
        mutates = dotted in _FIRST_ARG_MUTATORS
        exact = _INTRINSIC_EXACT.get(dotted)
        if exact is not None:
            return exact, mutates
        best: tuple[str, frozenset[str]] | None = None
        for prefix, effs in _INTRINSIC_PREFIX:
            if dotted.startswith(prefix) or dotted == prefix.rstrip("."):
                if best is None or len(prefix) > len(best[0]):
                    best = (prefix, effs)
        if best is not None:
            return best[1], mutates
        if mutates:
            return PURE, True
        return None

    def _dotted(self, chain: list[str], scope: _Scope) -> str | None:
        """Dotted external name for an attribute chain, alias-resolved."""
        head = chain[0]
        target = scope.local_module_aliases.get(head)
        if target is None:
            target = scope.module.module_aliases.get(head)
        if target is not None:
            return ".".join([target] + chain[1:])
        imp = scope.module.imported_names.get(head)
        if imp and not self._is_project(imp[0]):
            return ".".join([imp[0], imp[1]] + chain[1:])
        return None

    def _resolve_project_dotted(
        self, dotted: str, depth: int = 0
    ) -> tuple | None:
        """Resolve ``repro.x.y.f`` / ``repro.x.y.C`` / ``...C.m`` to a target."""
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            mod = self._ensure_module(".".join(parts[:split]))
            if mod is None:
                continue
            rest = parts[split:]
            return self._resolve_in_module(mod, rest, depth)
        return None

    def _resolve_in_module(
        self, mod: ModuleInfo, rest: list[str], depth: int = 0
    ) -> tuple | None:
        if not rest or depth > 8:
            return None
        head = rest[0]
        if len(rest) == 1:
            if head in mod.functions:
                return ("node", mod.functions[head])
            if head in mod.classes:
                return ("ctor", mod.classes[head].key)
            imp = mod.imported_names.get(head)
            if imp:
                return self._resolve_imported(imp[0], imp[1], depth + 1)
            sub = self._ensure_module(f"{mod.name}.{head}")
            if sub is not None:
                return ("module", sub.name)
            return None
        if head in mod.classes and len(rest) == 2:
            spec = self._resolve_method(mod.classes[head], rest[1])
            return ("node", spec) if spec else None
        imp = mod.imported_names.get(head)
        if imp and len(rest) == 2:
            info = self._resolve_imported_class(imp[0], imp[1], depth + 1)
            spec = self._resolve_method(info, rest[1])
            return ("node", spec) if spec else None
        sub = self._ensure_module(f"{mod.name}.{head}")
        if sub is not None:
            return self._resolve_in_module(sub, rest[1:], depth + 1)
        return None

    def _resolve_imported(
        self, source: str, attr: str, depth: int = 0
    ) -> tuple | None:
        if depth > 8:
            return None
        if not self._is_project(source):
            hit = self._intrinsic(f"{source}.{attr}")
            if hit is not None:
                effects, mutates = hit
                return ("intrinsic", effects, mutates, f"{source}.{attr}")
            return None
        mod = self._ensure_module(source)
        if mod is None:
            return None
        return self._resolve_in_module(mod, [attr], depth + 1)

    def resolve_callable(
        self, expr: ast.expr, scope: _Scope, depth: int = 0
    ) -> tuple | None:
        """Resolve a callable expression.

        Returns one of ``("node", spec)``, ``("ctor", class_key)``,
        ``("intrinsic", effects, mutates_first, dotted)``, ``("pure",)``,
        ``("module", dotted)``, or ``None`` (unresolved).
        """
        if depth > 8:
            return None
        if isinstance(expr, ast.Name):
            return self._resolve_name(expr.id, scope, depth)
        if isinstance(expr, ast.Attribute):
            chain = _attr_chain(expr)
            if chain:
                return self._resolve_attr(chain, scope, depth)
            # method on an anonymous receiver (call result, subscript,
            # comprehension): only the leaf name is knowable — try the
            # intrinsic leaf tables, then the project-wide duck join
            hit = self._leaf_by_name(expr.attr, "local")
            if hit is not None:
                return hit
            if expr.attr in self.methods_by_name:
                return ("group", expr.attr)
            return None
        if isinstance(expr, ast.Call):
            # functools.partial(f, ...) — resolve the wrapped callable
            inner = self.resolve_callable(expr.func, scope, depth + 1)
            is_partial = False
            chain = _attr_chain(expr.func)
            if chain and chain[-1] == "partial":
                is_partial = True
            if inner is not None and inner[0] == "intrinsic" and inner[3] in (
                "functools.partial",
            ):
                is_partial = True
            if is_partial and expr.args:
                return self.resolve_callable(expr.args[0], scope, depth + 1)
            return None
        return None

    def _resolve_name(self, name: str, scope: _Scope, depth: int) -> tuple | None:
        if name == scope.self_name and scope.class_info is not None:
            return ("ctor", scope.class_info.key)  # cls(...) in classmethods
        if name in scope.local_funcs:
            return ("node", scope.local_funcs[name])
        alias = scope.alias_exprs.get(name)
        if alias is not None:
            return self.resolve_callable(alias, scope, depth + 1)
        local_imp = scope.local_imported.get(name)
        if local_imp is not None:
            return self._resolve_imported(local_imp[0], local_imp[1], depth + 1)
        mod = scope.module
        if name in mod.functions:
            return ("node", mod.functions[name])
        if name in mod.classes:
            return ("ctor", mod.classes[name].key)
        imp = mod.imported_names.get(name)
        if imp is not None:
            return self._resolve_imported(imp[0], imp[1], depth + 1)
        if name in mod.module_aliases or name in scope.local_module_aliases:
            return None  # calling a module object
        if name in _IO_BUILTINS:
            return ("intrinsic", _IO, False, name)
        if name in _FIRST_ARG_MUTATORS:
            return ("intrinsic", PURE, True, name)
        if name in _PURE_BUILTINS:
            return ("pure",)
        return None

    def _resolve_attr(
        self, chain: list[str], scope: _Scope, depth: int
    ) -> tuple | None:
        head, leaf = chain[0], chain[-1]
        # self.attr...method() through instance-attribute types
        if head == scope.self_name and scope.class_info is not None:
            hit = self._resolve_typed_chain(scope.class_info, chain[1:], scope)
            if hit is not None:
                return hit
            return self._unknown_receiver(chain, scope)
        # typed local: t.method(), t.attr.method()
        if head in scope.local_types:
            info = self.classes.get(scope.local_types[head])
            if info is not None:
                hit = self._resolve_typed_chain(info, chain[1:], scope)
                if hit is not None:
                    return hit
        # module-level singleton: _LEDGER.record()
        if head in scope.module.global_types:
            info = self._resolve_class_text(
                scope.module.global_types[head], scope.module
            )
            if info is not None:
                hit = self._resolve_typed_chain(info, chain[1:], scope)
                if hit is not None:
                    return hit
        # module alias chains: np.argsort, flat.translate_many, os.environ.get
        dotted = self._dotted(chain, scope)
        if dotted is not None:
            root = dotted.split(".")[0]
            if self._is_project(root):
                hit = self._resolve_project_dotted(dotted, depth)
                if hit is not None and hit[0] != "module":
                    return hit
                return None
            hit = self._intrinsic(dotted)
            if hit is not None:
                return ("intrinsic", hit[0], hit[1], dotted)
            return None
        # ClassName.method(...) via import or local class
        info: ClassInfo | None = None
        if head in scope.module.classes:
            info = scope.module.classes[head]
        else:
            imp = scope.module.imported_names.get(head)
            if imp is not None:
                if not self._is_project(imp[0]):
                    return self._resolve_attr_external(imp, chain, depth)
                info = self._resolve_imported_class(imp[0], imp[1], depth + 1)
        if info is not None and len(chain) == 2:
            spec = self._resolve_method(info, leaf)
            if spec is not None:
                return ("node", spec)
        return self._unknown_receiver(chain, scope)

    def _unknown_receiver(self, chain: list[str], scope: _Scope) -> tuple | None:
        """Receiver type unknown: leaf tables first, then the duck join —
        if the method name is defined by project classes (and only then),
        the call joins the effects of *every* project method of that
        name, which over-approximates any project-internal dispatch."""
        hit = self._leaf_fallback(chain, scope)
        if hit is not None:
            return hit
        if chain[-1] in self.methods_by_name:
            return ("group", chain[-1])
        return None

    def _resolve_attr_external(
        self, imp: tuple[str, str], chain: list[str], depth: int
    ) -> tuple | None:
        dotted = ".".join([imp[0], imp[1]] + chain[1:])
        hit = self._intrinsic(dotted)
        if hit is not None:
            return ("intrinsic", hit[0], hit[1], dotted)
        return None

    def _resolve_typed_chain(
        self, info: ClassInfo, rest: list[str], scope: _Scope
    ) -> tuple | None:
        """Walk ``attr.attr...method`` links through declared attr types."""
        current: ClassInfo | None = info
        for mid in rest[:-1]:
            if current is None:
                return None
            mod = self.modules.get(current.module)
            text = current.attr_types.get(mid)
            if mod is None or text is None:
                return None
            current = self._resolve_class_text(text, mod)
        if current is None or not rest:
            return None
        spec = self._resolve_method(current, rest[-1])
        if spec is not None:
            return ("node", spec)
        return None

    def _leaf_fallback(self, chain: list[str], scope: _Scope) -> tuple | None:
        return self._leaf_by_name(chain[-1], scope.kind_of(chain[0]))

    def _leaf_by_name(self, leaf: str, receiver_kind: str) -> tuple | None:
        if leaf == "__setattr__":
            # object.__setattr__(self, ...) — frozen-dataclass init idiom
            return ("intrinsic", PURE, True, "object.__setattr__")
        if leaf in _IO_LEAF_METHODS:
            return ("intrinsic", _IO, False, f"<receiver>.{leaf}")
        if leaf in _MUTATOR_LEAF_METHODS:
            return ("recvmut", receiver_kind, leaf)
        if leaf in _PURE_LEAF_METHODS:
            return ("pure",)
        return None

    # -- function body scanning -------------------------------------------

    def scan_all(self) -> None:
        i = 0
        while i < len(self._pending):
            self._scan(self._pending[i])
            i += 1

    def _scan(self, unit: _ScanUnit) -> None:
        node, fn, scope = unit.node, unit.fn, unit.scope
        if isinstance(fn, ast.Module):
            self._scan_module_sites(node, fn, scope)
            return
        mod = scope.module
        body: list[ast.stmt]
        if isinstance(fn, ast.Lambda):
            body = [ast.Expr(value=fn.body)]
        else:
            body = fn.body
        self._prepass(node, body, scope)
        # annotated params contribute local types
        if not isinstance(fn, ast.Lambda):
            args = fn.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                text = _annotation_text(arg.annotation)
                info = self._resolve_class_text(text, mod)
                if info is not None:
                    scope.local_types.setdefault(arg.arg, info.key)
        stack: list[ast.AST] = list(reversed(body))
        while stack:
            item = stack.pop()
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # own node, pre-registered
            if isinstance(item, ast.Lambda):
                child = self._make_lambda_node(mod, item, node, scope)
                # inline lambdas are almost always invoked by the callee
                # they are passed to (sort keys, small tasks) — connect
                # conservatively so their effects surface in the caller
                node.calls.append(
                    CallSite(
                        line=item.lineno, col=item.col_offset,
                        callee=child.spec, text="<lambda>",
                    )
                )
                continue
            self._scan_node(node, item, scope)
            stack.extend(reversed(list(ast.iter_child_nodes(item))))
        node.unproven = bool(node.unresolved)
        if node.unresolved:
            line, text = node.unresolved[0]
            node.unproven_origin = ("local", line, text)

    def _scan_module_sites(
        self, node: FunctionNode, tree: ast.Module, scope: _Scope
    ) -> None:
        """Record the ``parallel_map`` sites of top-level code, which
        belongs to no function node; nothing else in it is scanned."""
        calls: list[ast.Call] = []
        stack: list[ast.AST] = list(tree.body)
        while stack:
            item = stack.pop()
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            rng = _rng_target(item)
            if rng is not None:
                scope.rng_names.add(rng)
            elif isinstance(item, ast.Call) and _leaf(item.func) == "parallel_map":
                calls.append(item)
            stack.extend(ast.iter_child_nodes(item))
        for call in calls:
            self._record_parallel_site(node, call, scope)

    def _prepass(
        self, node: FunctionNode, body: list[ast.stmt], scope: _Scope
    ) -> None:
        """Register nested defs, aliases, declared globals, local types."""
        mod = scope.module
        declared_globals: set[str] = set()
        stack: list[ast.AST] = list(reversed(body))
        while stack:
            item = stack.pop()
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child = self._make_node(
                    mod, item,
                    qualname=f"{node.qualname}.<locals>.{item.name}",
                    class_info=scope.class_info,
                    enclosing=scope,
                )
                scope.local_funcs[item.name] = child.spec
                continue
            if isinstance(item, ast.Lambda):
                continue
            if isinstance(item, ast.Global):
                declared_globals.update(item.names)
            elif isinstance(item, ast.Assign) and len(item.targets) == 1:
                target = item.targets[0]
                rng = _rng_target(item)
                if rng is not None:
                    scope.rng_names.add(rng)
                if isinstance(target, ast.Name):
                    value = item.value
                    if isinstance(value, ast.Lambda):
                        child = self._make_lambda_node(mod, value, node, scope)
                        scope.local_funcs[target.id] = child.spec
                    elif isinstance(value, (ast.Name, ast.Attribute, ast.Call)):
                        scope.alias_exprs[target.id] = value
                        if isinstance(value, ast.Call):
                            hit = self.resolve_callable(value.func, scope)
                            if hit is not None and hit[0] == "ctor":
                                scope.local_types[target.id] = hit[1]
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                info = self._resolve_class_text(
                    _annotation_text(item.annotation), mod
                )
                if info is not None:
                    scope.local_types[item.target.id] = info.key
            stack.extend(ast.iter_child_nodes(item))
        scope.declared_globals = frozenset(declared_globals)

    def _scan_node(self, node: FunctionNode, item: ast.AST, scope: _Scope) -> None:
        if isinstance(item, (ast.Import, ast.ImportFrom)):
            node.add_local(
                IO, item.lineno,
                "function-level import (sys.modules mutation + first-call I/O)",
            )
            if isinstance(item, ast.Import):
                for alias in item.names:
                    if alias.asname:
                        scope.local_module_aliases[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        scope.local_module_aliases[root] = root
            else:
                source = _resolve_relative(
                    scope.module.name,
                    scope.module.path.endswith("__init__.py"),
                    item.level,
                    item.module,
                )
                for alias in item.names:
                    if alias.name != "*":
                        scope.local_imported[alias.asname or alias.name] = (
                            source, alias.name,
                        )
        elif isinstance(item, ast.Global):
            node.add_local(MUTATES_GLOBAL, item.lineno, "`global` statement")
        elif isinstance(item, ast.Nonlocal):
            # writes the *enclosing function's* locals — closure state,
            # not module state; MUTATES_STATE is stripped from public
            # summaries so the defining parent stays clean
            node.add_local(
                MUTATES_STATE, item.lineno, "`nonlocal` statement (closure state)"
            )
        elif isinstance(item, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                list(item.targets) if isinstance(item, ast.Assign)
                else [item.target]
            )
            self._scan_stores(node, targets, scope)
        elif isinstance(item, ast.Delete):
            self._scan_stores(node, list(item.targets), scope)
        elif isinstance(item, ast.Call):
            self._scan_call(node, item, scope)
        elif isinstance(item, ast.Attribute):
            self._scan_attribute(node, item, scope)
        elif isinstance(item, ast.Name):
            if (
                isinstance(item.ctx, ast.Load)
                and item.id in scope.module.config_direct
            ):
                node.add_local(
                    READS_CONFIG, item.lineno,
                    f"reads repro.config.{scope.module.config_direct[item.id]}",
                )

    def _scan_stores(
        self, node: FunctionNode, targets: list[ast.expr], scope: _Scope
    ) -> None:
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
                continue
            if isinstance(target, ast.Name):
                if target.id in scope.declared_globals:
                    node.add_local(
                        MUTATES_GLOBAL, target.lineno,
                        f"assigns module global `{target.id}`",
                    )
                continue
            if not isinstance(target, (ast.Attribute, ast.Subscript, ast.Starred)):
                continue
            root = _root_name(target)
            kind = scope.kind_of(root)
            if kind == "param":
                node.add_local(
                    MUTATES_ARG, target.lineno,
                    f"writes into argument `{root}`",
                )
            elif kind == "global":
                node.add_local(
                    MUTATES_GLOBAL, target.lineno,
                    f"writes module-level state `{root}`",
                )
            elif kind == "self":
                node.add_local(
                    MUTATES_STATE, target.lineno,
                    f"writes `{root}` state",
                )

    def _scan_attribute(
        self, node: FunctionNode, item: ast.Attribute, scope: _Scope
    ) -> None:
        chain = _attr_chain(item)
        if not chain:
            return
        dotted = self._dotted(chain, scope)
        if dotted is not None:
            if dotted.startswith("os.environ"):
                node.add_local(READS_ENV, item.lineno, "reads os.environ")
                return
            if dotted.startswith("sys.argv"):
                node.add_local(READS_ENV, item.lineno, "reads sys.argv")
                return
        mod = scope.module
        if len(chain) >= 2 and (
            chain[0] in mod.config_modules
            or ".".join(chain[:-1]) in mod.config_modules
            or ".".join(chain[:-1]) == "repro.config"
        ):
            node.add_local(
                READS_CONFIG, item.lineno, f"reads repro.config.{chain[-1]}"
            )

    def _scan_call(self, node: FunctionNode, call: ast.Call, scope: _Scope) -> None:
        chain = _attr_chain(call.func)
        leaf = chain[-1] if chain else None
        if leaf == "parallel_map":
            self._record_parallel_site(node, call, scope)
        args = list(call.args) + [kw.value for kw in call.keywords]
        arg_kinds = tuple(scope.kind_of(_root_name(a)) for a in args)
        arg_roots = tuple(_root_name(a) for a in args)
        kw_names = tuple(
            [None] * len(call.args) + [kw.arg for kw in call.keywords]
        )
        varargs = any(isinstance(a, ast.Starred) for a in call.args) or any(
            kw.arg is None for kw in call.keywords
        )
        is_attr = isinstance(call.func, ast.Attribute) and bool(chain)
        receiver_kind = scope.kind_of(chain[0]) if is_attr else None
        receiver_root = chain[0] if is_attr else None
        text = _call_text(call)
        hit = self.resolve_callable(call.func, scope)
        if hit is None:
            node.unresolved.append((call.lineno, f"unresolved call {text}"))
            return
        kind = hit[0]
        if kind == "pure":
            return
        if kind == "module":
            node.unresolved.append((call.lineno, f"call of module {hit[1]}"))
            return
        if kind == "recvmut":
            self._apply_receiver_mutation(
                node, call.lineno, hit[1], hit[2], root=receiver_root
            )
            return
        if kind == "intrinsic":
            _, effects, mutates_first, dotted = hit
            if dotted in _SEEDED_RNG_CTORS and (call.args or call.keywords):
                effects = effects - {RNG}
            for effect in effects:
                node.add_local(effect, call.lineno, f"calls {dotted}()")
            if mutates_first and args:
                first_root = _root_name(args[0])
                self._apply_receiver_mutation(
                    node, call.lineno, scope.kind_of(first_root), dotted,
                    root=first_root,
                )
            return
        if kind == "ctor":
            init = self._resolve_method(self.classes.get(hit[1]), "__init__")
            if init is not None:
                node.calls.append(
                    CallSite(
                        line=call.lineno, col=call.col_offset, callee=init,
                        text=text, arg_kinds=arg_kinds, arg_roots=arg_roots,
                        kw_names=kw_names, is_ctor=True, varargs=varargs,
                    )
                )
            # no project __init__ anywhere on the MRO: plain field
            # assignment (dataclasses, NamedTuple, Exception) — pure
            return
        if kind == "group":
            node.calls.append(
                CallSite(
                    line=call.lineno, col=call.col_offset,
                    callee=f"~{hit[1]}", text=text, arg_kinds=arg_kinds,
                    arg_roots=arg_roots, kw_names=kw_names,
                    receiver_kind=receiver_kind, receiver_root=receiver_root,
                    varargs=varargs,
                )
            )
            return
        # kind == "node"
        node.calls.append(
            CallSite(
                line=call.lineno, col=call.col_offset, callee=hit[1],
                text=text, arg_kinds=arg_kinds, arg_roots=arg_roots,
                kw_names=kw_names, receiver_kind=receiver_kind,
                receiver_root=receiver_root, varargs=varargs,
            )
        )

    def _apply_receiver_mutation(
        self, node: FunctionNode, line: int, kind: str, what: str,
        root: str | None = None,
    ) -> None:
        if kind == "param":
            node.add_local(
                MUTATES_ARG, line, f"mutates an argument via `{what}`"
            )
            if root is not None:
                node.mutated_params.add(root)
        elif kind == "global":
            node.add_local(
                MUTATES_GLOBAL, line, f"mutates module-level state via `{what}`"
            )
        elif kind == "self":
            node.add_local(MUTATES_STATE, line, f"mutates self state via `{what}`")

    def _record_parallel_site(
        self, node: FunctionNode, call: ast.Call, scope: _Scope
    ) -> None:
        task_expr: ast.expr | None = None
        if call.args:
            task_expr = call.args[0]
        else:
            for kw in call.keywords:
                if kw.arg == "fn":
                    task_expr = kw.value
                    break
        task_spec: str | None = None
        text = "<dynamic>"
        boundary: list[tuple[str, str, int, int]] = []
        if task_expr is not None:
            chain = _attr_chain(task_expr)
            text = ".".join(chain) if chain else (
                "<lambda>" if isinstance(task_expr, ast.Lambda) else "<dynamic>"
            )
            hit = self.resolve_callable(task_expr, scope)
            if hit is not None and hit[0] == "node":
                task_spec = hit[1]
            elif isinstance(task_expr, ast.Lambda):
                child = self._make_lambda_node(
                    scope.module, task_expr, node, scope
                )
                task_spec = child.spec
            boundary = self._task_boundary(task_expr, task_spec, scope)
        if scope.rng_names:
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Name) and sub.id in scope.rng_names:
                        boundary.append(
                            ("rng", sub.id, sub.lineno, sub.col_offset)
                        )
        self.parallel_sites.append(
            ParallelSite(
                caller=node.spec, path=node.path, line=call.lineno,
                col=call.col_offset, task=task_spec, text=text,
                is_test=node.is_test, boundary=tuple(boundary),
            )
        )
        if task_spec is not None:
            # the task runs with elements of the mapped iterable; kinds
            # of the remaining arguments stand in for its inputs
            rest = list(call.args[1:]) + [kw.value for kw in call.keywords]
            node.calls.append(
                CallSite(
                    line=call.lineno, col=call.col_offset, callee=task_spec,
                    text=f"parallel_map({text})",
                    arg_kinds=tuple(
                        scope.kind_of(_root_name(a)) for a in rest
                    ),
                    varargs=True,
                )
            )

    def _task_boundary(
        self, expr: ast.expr, task_spec: str | None, scope: _Scope
    ) -> list[tuple[str, str, int, int]]:
        """Unwrap ``partial``, then require a module-level function: a
        lambda, a nested def, a bound method or any other expression is
        a finding, and so is simulated state bound by ``partial``.  A
        bare name that is no nested def (a parameter forwarding its
        caller's task) and a module attribute (``math.sqrt``) pass."""
        found: list[tuple[str, str, int, int]] = []
        while (
            isinstance(expr, ast.Call)
            and _leaf(expr.func) == "partial"
            and expr.args
        ):
            for bound in expr.args[1:] + [kw.value for kw in expr.keywords]:
                if isinstance(bound, ast.Name) and bound.id.lower() in _STATE_NAMES:
                    found.append(
                        ("state", bound.id, bound.lineno, bound.col_offset)
                    )
            expr = expr.args[0]
        kind = ""
        if isinstance(expr, ast.Lambda):
            kind = "lambda"
        elif isinstance(expr, ast.Name):
            if task_spec is not None and ".<locals>." in task_spec:
                kind = "nested"
        elif isinstance(expr, ast.Attribute):
            head = _attr_chain(expr)[:1]
            if not head or not (
                head[0] in scope.module.module_aliases
                or head[0] in scope.local_module_aliases
            ):
                kind = "method"
        else:
            kind = "dynamic"
        if kind:
            name = ".".join(_attr_chain(expr))
            found.append((kind, name, expr.lineno, expr.col_offset))
        return found

    # -- fixpoint ----------------------------------------------------------

    def _site_targets(self, site: CallSite) -> list[FunctionNode]:
        if site.callee.startswith("~"):
            members = self.methods_by_name.get(site.callee[1:], [])
            return [self.nodes[m] for m in members if m in self.nodes]
        callee = self.nodes.get(site.callee)
        return [callee] if callee is not None else []

    def propagate(self) -> None:
        changed = True
        while changed:
            changed = False
            for node in self.nodes.values():
                for site in node.calls:
                    for callee in self._site_targets(site):
                        effects, callee_unproven = _exported(callee)
                        for effect in effects:
                            translated, roots = _translate(
                                effect, site, callee
                            )
                            for out in translated:
                                if out not in node.effects:
                                    node.effects.add(out)
                                    node.origins[out] = (
                                        "call", site.line, callee.spec, effect,
                                    )
                                    changed = True
                            for root in roots:
                                if root not in node.mutated_params:
                                    node.mutated_params.add(root)
                                    changed = True
                        if callee_unproven and not node.unproven:
                            node.unproven = True
                            node.unproven_origin = (
                                "call", site.line, callee.spec,
                            )
                            changed = True


def _exported(node: FunctionNode) -> tuple[set[str], bool]:
    """What callers of ``node`` see: (effects, unproven)."""
    override = SPEC_EFFECT_OVERRIDES.get(node.spec)
    if override is not None:
        return set(override), False
    if node.declared is not None:
        # declarations are trust boundaries, but internal-state writes
        # still translate at call sites (they are not declarable)
        return set(node.declared) | (node.effects & {MUTATES_STATE}), False
    return node.effects, node.unproven


def _kind_to_effect(kind: str | None, root: str | None) -> tuple[str | None, str | None]:
    """Map an argument's root kind to the caller-side mutation effect."""
    if kind == "param":
        return MUTATES_ARG, root
    if kind == "global":
        return MUTATES_GLOBAL, None
    if kind == "self":
        return MUTATES_STATE, None
    return None, None


def _translate(
    effect: str, site: CallSite, callee: FunctionNode | None = None
) -> tuple[set[str], set[str]]:
    """Translate one exported callee effect across ``site``.

    Returns ``(caller effects, caller params now known to be mutated)``.
    """
    if effect == MUTATES_ARG:
        mparams = callee.mutated_params if callee is not None else set()
        if mparams and not site.varargs:
            # precise mode: we know *which* callee parameters mutate, so
            # judge only the arguments actually bound to them (a module
            # constant passed alongside a scratch rng must not harden
            # the whole call to MUTATES_GLOBAL)
            offset = 1 if callee.class_name is not None else 0
            n_pos = sum(1 for kw in site.kw_names if kw is None)
            out: set[str] = set()
            roots: set[str] = set()
            for pname in mparams:
                if offset and callee.params and pname == callee.params[0]:
                    if site.is_ctor:
                        continue  # fresh receiver, invisible to caller
                    eff, root = _kind_to_effect(
                        site.receiver_kind, site.receiver_root
                    )
                else:
                    idx = None
                    for i, kw in enumerate(site.kw_names):
                        if kw == pname:
                            idx = i
                            break
                    if idx is None and pname in callee.params:
                        pos = callee.params.index(pname) - offset
                        if 0 <= pos < n_pos:
                            idx = pos
                    if idx is None or idx >= len(site.arg_kinds):
                        # bound to its default: mutation of a shared
                        # default object — rare enough to concede
                        continue
                    eff, root = _kind_to_effect(
                        site.arg_kinds[idx], site.arg_roots[idx]
                    )
                if eff is not None:
                    out.add(eff)
                    if root is not None:
                        roots.add(root)
            return out, roots
        # unknown which parameters mutate: coarse all-arguments union
        kinds = set(site.arg_kinds)
        out = set()
        if "param" in kinds:
            out.add(MUTATES_ARG)
        if "global" in kinds:
            out.add(MUTATES_GLOBAL)
        if "self" in kinds:
            out.add(MUTATES_STATE)
        return out, set()
    if effect == MUTATES_STATE:
        if site.is_ctor:
            # the receiver is freshly constructed in the caller: its
            # internal-state writes are invisible outside the ctor
            return set(), set()
        if site.receiver_kind is not None:
            kinds = {site.receiver_kind}
        else:
            kinds = set(site.arg_kinds)
        out = set()
        if "global" in kinds:
            out.add(MUTATES_GLOBAL)
        if "param" in kinds or "self" in kinds:
            out.add(MUTATES_STATE)
        return out, set()
    return {effect}, set()


# --------------------------------------------------------------------------
# public API
# --------------------------------------------------------------------------


@dataclass
class WitnessStep:
    spec: str
    path: str
    line: int
    note: str


class CallGraph:
    """The built graph: query effect summaries and witness chains."""

    def __init__(
        self,
        nodes: dict[str, FunctionNode],
        modules: dict[str, ModuleInfo],
        parallel_sites: list[ParallelSite],
    ) -> None:
        self.nodes = nodes
        self.modules = modules
        self.parallel_sites = parallel_sites

    def node(self, spec: str) -> FunctionNode | None:
        return self.nodes.get(spec)

    def inferred(self, spec: str) -> frozenset[str] | None:
        node = self.nodes.get(spec)
        return node.public_effects() if node is not None else None

    def exported(self, spec: str) -> frozenset[str] | None:
        node = self.nodes.get(spec)
        if node is None:
            return None
        effects, _ = _exported(node)
        return frozenset(effects) & PUBLIC_EFFECTS

    def exported_unproven(self, spec: str) -> bool:
        node = self.nodes.get(spec)
        if node is None:
            return True
        return _exported(node)[1]

    def is_unproven(self, spec: str) -> bool:
        node = self.nodes.get(spec)
        return True if node is None else node.unproven

    def witness_chain(self, spec: str, effect: str) -> list[WitnessStep]:
        """The call chain from ``spec`` down to a local witness of ``effect``."""
        steps: list[WitnessStep] = []
        seen: set[tuple[str, str]] = set()
        current, eff = spec, effect
        while True:
            node = self.nodes.get(current)
            if node is None:
                break
            origin = node.origins.get(eff)
            if origin is None:
                note = (
                    f"declared @effects({eff})" if node.declared is not None
                    else f"intrinsic {eff}"
                )
                steps.append(
                    WitnessStep(current, node.path, node.line, note)
                )
                break
            if origin[0] == "local":
                steps.append(
                    WitnessStep(current, node.path, origin[1], origin[2])
                )
                break
            _, line, callee, callee_eff = origin
            steps.append(
                WitnessStep(
                    current, node.path, line,
                    f"calls {callee} [{callee_eff}]",
                )
            )
            if (callee, callee_eff) in seen:
                break
            seen.add((callee, callee_eff))
            current, eff = callee, callee_eff
        return steps

    def unproven_chain(self, spec: str) -> list[WitnessStep]:
        steps: list[WitnessStep] = []
        seen: set[str] = set()
        current = spec
        while True:
            node = self.nodes.get(current)
            if node is None or node.unproven_origin is None:
                break
            origin = node.unproven_origin
            if origin[0] == "local":
                steps.append(
                    WitnessStep(current, node.path, origin[1], origin[2])
                )
                break
            _, line, callee = origin
            steps.append(
                WitnessStep(current, node.path, line, f"calls {callee}")
            )
            if callee in seen:
                break
            seen.add(callee)
            current = callee
        return steps

    def explain(self, spec: str) -> str:
        """Human-readable summary + witness chains for one function."""
        node = self.nodes.get(spec)
        if node is None:
            known = ", ".join(sorted(self.nodes)[:8])
            return (
                f"no such function: {spec}\n"
                f"(specs look like repro.core.cost:storage_cost; "
                f"e.g. {known}, ...)"
            )
        lines = [f"{spec}  ({node.path}:{node.line})"]
        if node.declared is not None:
            lines.append(f"  declared: {effect_summary(node.declared)}")
        lines.append(f"  inferred: {effect_summary(node.effects)}")
        if node.effects & {MUTATES_STATE}:
            lines.append(
                "  (also mutates internal object state — benign controller "
                "state, translated per receiver/args at call sites)"
            )
        lines.append(
            "  status:   UNPROVEN (unresolved calls in closure)"
            if node.unproven else "  status:   proven"
        )
        for effect in EFFECT_NAMES:
            if effect not in node.effects:
                continue
            lines.append(f"  {effect}:")
            for step in self.witness_chain(spec, effect):
                lines.append(f"    {step.path}:{step.line}  {step.note}")
        if node.unproven:
            lines.append("  unproven via:")
            for step in self.unproven_chain(spec):
                lines.append(f"    {step.path}:{step.line}  {step.note}")
        return "\n".join(lines)


def build_graph(
    entries: Iterable[tuple[ast.Module, str, str, bool]],
) -> CallGraph:
    """Build the graph from ``(tree, posix_path, display_path, is_test)``
    entries; referenced ``repro.*`` modules not in ``entries`` are loaded
    from ``src/`` on disk so partial runs stay sound."""
    builder = _GraphBuilder()
    for tree, posix_path, display_path, is_test in entries:
        builder.add_module(tree, posix_path, display_path, is_test)
    builder.scan_all()
    builder.propagate()
    return CallGraph(builder.nodes, builder.modules, builder.parallel_sites)


_GRAPH_CACHE: tuple[tuple[int, ...], CallGraph] | None = None


def graph_for_contexts(ctxs: Sequence) -> CallGraph:
    """Memoized build over engine ``FileContext`` objects.

    The engine hands the *same* context objects to every project
    checker, so one lint run builds the graph exactly once no matter
    how many RL3xx rules are registered.
    """
    global _GRAPH_CACHE
    # hold strong references to the trees: an id()-only key would go
    # stale when a freed tree's address is reused by the next parse
    # (exactly what back-to-back lint_source calls do)
    trees = tuple(ctx.tree for ctx in ctxs)
    if (
        _GRAPH_CACHE is not None
        and len(_GRAPH_CACHE[0]) == len(trees)
        and all(a is b for a, b in zip(_GRAPH_CACHE[0], trees))
    ):
        return _GRAPH_CACHE[1]
    graph = build_graph(
        (ctx.tree, ctx.posix_path, ctx.display_path, ctx.is_test)
        for ctx in ctxs
    )
    _GRAPH_CACHE = (trees, graph)
    return graph


def graph_for_spec(spec: str) -> tuple[CallGraph, str | None]:
    """Build a graph rooted at the module of ``spec`` (CLI explain mode).

    Returns ``(graph, error)``; ``error`` is set when the module file
    cannot be found.
    """
    module = spec.partition(":")[0]
    rel = module.replace(".", "/")
    for candidate in (
        f"src/{rel}.py", f"src/{rel}/__init__.py",
        f"{rel}.py", f"{rel}/__init__.py",
    ):
        if os.path.isfile(candidate):
            try:
                with open(candidate, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=candidate)
            except (OSError, SyntaxError) as exc:
                return CallGraph({}, {}, []), f"cannot parse {candidate}: {exc}"
            graph = build_graph([(tree, candidate, candidate, False)])
            return graph, None
    return (
        CallGraph({}, {}, []),
        f"cannot locate module {module!r} (looked under src/ and cwd)",
    )
