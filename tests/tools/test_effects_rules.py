"""RL3xx effect-system suite: call-graph edge cases, rule drills,
explain-mode witnesses, and the rule catalogue.

The call-graph tests pin the analyzer behaviours the rules lean on
(fixpoint over mutual recursion, sound unproven default for dynamic
calls, indirection through decorators/partial/lambda, seeded-ctor RNG
stripping).  The drills are seeded mutations: each plants exactly the
defect its rule exists to catch and asserts the rule fires — mirroring
the true positives the pre-fix tree contained (function-level imports
reaching IO, parallel tasks with undeclared effects).
"""

import ast

from tools.repro_lint import lint_source
from tools.repro_lint.callgraph import (
    EFFECT_NAMES,
    MUTATES_STATE,
    RNG,
    TIME,
    build_graph,
)
from tools.repro_lint.cli import main as cli_main
from tools.repro_lint.registry import all_checkers

MOD = "repro.online.example"
PATH = "src/repro/online/example.py"


def graph_of(source, path=PATH):
    return build_graph([(ast.parse(source), path, path, False)])


def rules_of(source, path, select):
    diags = lint_source(source, path, checkers=all_checkers(select))
    return sorted({d.rule for d in diags})


class TestCallGraphEdgeCases:
    def test_mutual_recursion_reaches_fixpoint(self):
        graph = graph_of(
            """
import os
def even(n):
    return n == 0 or odd(n - 1)
def odd(n):
    if n == 0:
        os.environ.get("X")
        return False
    return even(n - 1)
"""
        )
        assert graph.inferred(f"{MOD}:even") == {"READS_ENV"}
        assert graph.inferred(f"{MOD}:odd") == {"READS_ENV"}
        assert not graph.is_unproven(f"{MOD}:even")

    def test_unresolved_dynamic_call_is_sound_default(self):
        graph = graph_of(
            """
def dispatch(table, key):
    return table[key]()
def caller(table):
    return dispatch(table, "a")
"""
        )
        # no effect can be *proven*, so none is claimed — but the node
        # is marked unproven, and the rules treat unproven as a finding
        assert graph.inferred(f"{MOD}:caller") == frozenset()
        assert graph.is_unproven(f"{MOD}:caller")
        assert graph.unproven_chain(f"{MOD}:caller")

    def test_decorated_method_edges_resolve(self):
        graph = graph_of(
            """
import functools
import time
class Clock:
    @functools.lru_cache
    def now(self):
        return time.time()
    def stamp(self):
        return self.now()
"""
        )
        assert graph.inferred(f"{MOD}:Clock.stamp") == {TIME}

    def test_partial_and_lambda_indirection(self):
        graph = graph_of(
            """
import functools
import os
def leak(prefix):
    return prefix + os.environ.get("X", "")
def build():
    f = functools.partial(leak, "p")
    return f()
def lam():
    g = lambda: leak("q")
    return g()
"""
        )
        assert graph.inferred(f"{MOD}:build") == {"READS_ENV"}
        assert graph.inferred(f"{MOD}:lam") == {"READS_ENV"}

    def test_seeded_rng_ctor_is_not_entropy(self):
        graph = graph_of(
            """
import numpy as np
def seeded():
    return np.random.default_rng(7).random()
def unseeded():
    return np.random.default_rng().random()
"""
        )
        assert RNG not in graph.inferred(f"{MOD}:seeded")
        assert RNG in graph.inferred(f"{MOD}:unseeded")

    def test_per_parameter_mutation_tracking(self):
        graph = graph_of(
            """
CONSTANT = (1, 2)
def mutate(acc, bounds):
    acc.append(bounds[0])
def touches_local_only(items):
    acc = []
    mutate(acc, CONSTANT)
    return acc
def touches_argument(out):
    mutate(out, CONSTANT)
"""
        )
        # the mutation lands on a caller local -> invisible outside;
        # passing the module constant as `bounds` must NOT smear
        # MUTATES_ARG onto it (per-parameter binding, not a union)
        assert graph.inferred(f"{MOD}:touches_local_only") == frozenset()
        assert "MUTATES_ARG" in graph.inferred(f"{MOD}:touches_argument")

    def test_internal_state_is_not_a_public_effect(self):
        graph = graph_of(
            """
class Cache:
    def __init__(self):
        self._hits = 0
    def get(self, key):
        self._hits += 1
        return key
"""
        )
        inferred = graph.inferred(f"{MOD}:Cache.get")
        assert inferred <= {MUTATES_STATE}

    def test_effect_names_match_runtime_contract(self):
        # the analyzer's lattice and the @effects runtime validator
        # must accept exactly the same vocabulary
        from repro.effects import EFFECT_NAMES as runtime_names

        assert tuple(EFFECT_NAMES) == tuple(runtime_names)


class TestRuleDrills:
    def test_rl301_time_in_gate_module(self):
        source = """
import time
def decide(x):
    return helper(x)
def helper(x):
    return time.monotonic() + x
"""
        assert rules_of(source, "src/repro/online/gate.py", ["RL301"]) == [
            "RL301"
        ]

    def test_rl301_clean_gate_module(self):
        source = """
def decide(x):
    return helper(x)
def helper(x):
    return x + 1
"""
        assert rules_of(source, "src/repro/online/gate.py", ["RL301"]) == []

    def test_rl302_global_mutation_under_task(self):
        source = """
from repro.core.parallel import parallel_map
_CACHE = {}
def task(item):
    _CACHE[item] = 1
    return item
def run(items):
    return parallel_map(task, items)
"""
        assert rules_of(source, PATH, ["RL302"]) == ["RL302"]

    def test_rl302_declared_io_is_sanctioned(self):
        source = """
from repro.core.parallel import parallel_map
from repro.effects import effects
@effects("IO")
def task(item):
    with open(item) as handle:
        return handle.read()
def run(items):
    return parallel_map(task, items)
"""
        assert rules_of(source, PATH, ["RL302"]) == []

    def test_rl302_undeclared_io_is_flagged(self):
        source = """
from repro.core.parallel import parallel_map
def task(item):
    with open(item) as handle:
        return handle.read()
def run(items):
    return parallel_map(task, items)
"""
        assert rules_of(source, PATH, ["RL302"]) == ["RL302"]

    def test_rl302_computed_task_flagged(self):
        source = """
from repro.core.parallel import parallel_map
def run(tasks, items):
    return parallel_map(tasks[0], items)
"""
        assert rules_of(source, PATH, ["RL302"]) == ["RL302"]

    def test_rl302_rng_captured_in_lambda_is_named(self):
        # the lambda alone fires too; the captured rng is its own finding
        source = """
from repro.determinism import SeedDomain, derive_rng
from repro.core.parallel import parallel_map
def run(items, work):
    rng = derive_rng(SeedDomain.FAULTS, 0, base=1)
    return parallel_map(lambda it: work(it, rng), items)
"""
        diags = lint_source(source, PATH, checkers=all_checkers(["RL302"]))
        named = [(d.line, d.col) for d in diags if "RNG object `rng`" in d.message]
        assert named == [(6, 44)]

    def test_rl303_env_under_digest(self):
        source = """
import os
def digest(payload):
    return str(sorted(payload)) + os.environ.get("HOME", "")
"""
        assert rules_of(source, PATH, ["RL303"]) == ["RL303"]

    def test_rl303_clean_digest(self):
        source = """
import hashlib
def digest(payload):
    return hashlib.sha256(repr(sorted(payload)).encode()).hexdigest()
"""
        assert rules_of(source, PATH, ["RL303"]) == []

    def test_rl304_mismatch_and_stale(self):
        source = """
import os
from repro.effects import effects
@effects("READS_CONFIG")
def reads_env_instead():
    return os.environ.get("X")
@effects("IO")
def actually_pure(x):
    return x + 1
"""
        diags = lint_source(source, PATH, checkers=all_checkers(["RL304"]))
        messages = sorted(d.message for d in diags)
        assert len(messages) == 3  # missing READS_ENV + 2 stale declarations
        assert any("infers READS_ENV" in m for m in messages)
        assert any(
            "declares READS_CONFIG" in m and "stale" in m for m in messages
        )
        assert any("declares IO" in m and "stale" in m for m in messages)

    def test_rl304_honest_declaration_clean(self):
        source = """
import os
from repro.effects import effects
@effects("READS_ENV")
def honest():
    return os.environ.get("X")
"""
        assert rules_of(source, PATH, ["RL304"]) == []

    def test_rl305_twin_excess_effect(self):
        source = """
import os
from repro.twins import twin_of
def slow(items):
    return sorted(items)
@twin_of("repro.online.example:slow")
def slow_flat(items):
    os.environ.get("X")
    return sorted(items)
"""
        assert rules_of(source, PATH, ["RL305"]) == ["RL305"]

    def test_rl305_effect_equivalent_twin_clean(self):
        source = """
from repro.twins import twin_of
def slow(items):
    return sorted(items)
@twin_of("repro.online.example:slow")
def slow_flat(items):
    return sorted(items)
"""
        assert rules_of(source, PATH, ["RL305"]) == []

    def test_suppression_comment_wins(self):
        source = """
import os
def digest(payload):  # repro-lint: disable=RL303
    return str(payload) + os.environ.get("HOME", "")
"""
        assert rules_of(source, PATH, ["RL303"]) == []


class TestExplainMode:
    def test_multi_hop_witness_chain(self):
        graph = graph_of(
            """
import time
def a():
    return b()
def b():
    return c()
def c():
    return time.time()
"""
        )
        chain = graph.witness_chain(f"{MOD}:a", TIME)
        assert [step.spec for step in chain] == [
            f"{MOD}:a",
            f"{MOD}:b",
            f"{MOD}:c",
        ]
        text = graph.explain(f"{MOD}:a")
        assert "inferred: TIME" in text
        assert "time.time()" in text

    def test_cli_explain_real_task(self, capsys):
        assert cli_main(["effects", "repro.harness.experiment:_scheme_task"]) == 0
        out = capsys.readouterr().out
        assert "declared:" in out
        assert "READS_CONFIG" in out and "IO" in out

    def test_cli_explain_rejects_bad_spec(self, capsys):
        assert cli_main(["effects", "no-colon-here"]) == 2
        assert cli_main(["effects", "repro.nosuch.module:f"]) == 2


class TestRuleCatalogue:
    def test_list_rules_pins_the_catalogue(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        by_id = {}
        for line in lines:
            rule_id, rest = line.split(None, 1)
            by_id[rule_id] = line
        # ids are unique, sorted, and every family is present
        assert sorted(by_id) == [line.split(None, 1)[0] for line in lines]
        for rule_id in ("RL001", "RL101", "RL201", "RL211"):
            assert rule_id in by_id
        for rule_id, module in [
            ("RL301", "effects"),
            ("RL302", "effects"),
            ("RL303", "effects"),
            ("RL304", "effects"),
            ("RL305", "effects"),
        ]:
            line = by_id[rule_id]
            assert f"[checkers.{module}]" in line
            assert ":" in line.split("]", 1)[1]  # summary text present

    def test_every_registered_rule_is_listed(self, capsys):
        cli_main(["--list-rules"])
        listed = {
            line.split(None, 1)[0]
            for line in capsys.readouterr().out.strip().splitlines()
        }
        registered = {checker.rule for checker in all_checkers()}
        assert listed == registered
