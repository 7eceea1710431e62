"""repro-lint checker suite: positive/negative fixtures per rule,
suppressions, CLI exit codes, and a clean-tree gate.

Each rule gets at least one minimal source that MUST trigger it and one
that MUST NOT; the fixtures mirror the true positives the pre-fix
codebase contained (aal.py's inline seed, placer.py's raw ``64 * 1024``
and lazy import, test_parallel.py's lambda, features.py's ``== 0.0``).
"""

import json
import subprocess
import sys
from pathlib import Path

from tools.repro_lint import lint_source
from tools.repro_lint.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[2]

SRC = "src/repro/online/example.py"  # in RL001 scope (online/) and src scope
CORE = "src/repro/core/example.py"  # src scope, not RL001 scope
COST = "src/repro/core/cost_model.py"  # RL301 scope
TEST = "tests/core/test_example.py"  # test scope


def rules_of(source, path):
    return sorted({d.rule for d in lint_source(source, path)})


# -- RL001 determinism ----------------------------------------------------


class TestRL001:
    def test_wall_clock_flagged(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert "RL001" in rules_of(src, SRC)

    def test_datetime_now_flagged(self):
        src = (
            "from datetime import datetime\n\n"
            "def f():\n    return datetime.now()\n"
        )
        assert "RL001" in rules_of(src, SRC)

    def test_unseeded_rng_flagged(self):
        src = "import numpy as np\n\nrng = np.random.default_rng()\n"
        assert "RL001" in rules_of(src, SRC)

    def test_inline_literal_seed_flagged(self):
        # the pre-fix aal.py pattern
        src = "import numpy as np\n\nrng = np.random.default_rng(0)\n"
        assert "RL001" in rules_of(src, SRC)

    def test_legacy_global_np_random_flagged(self):
        src = "import numpy as np\n\nx = np.random.randint(0, 10)\n"
        assert "RL001" in rules_of(src, SRC)

    def test_global_random_module_flagged(self):
        src = "import random\n\nx = random.random()\n"
        assert "RL001" in rules_of(src, SRC)

    def test_named_seed_ok(self):
        src = (
            "import numpy as np\n"
            "from repro.config import DEFAULT_SAMPLE_SEED\n\n"
            "rng = np.random.default_rng(DEFAULT_SAMPLE_SEED)\n"
        )
        assert "RL001" not in rules_of(src, SRC)

    def test_out_of_scope_dirs_ignored(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert "RL001" not in rules_of(src, CORE)
        assert "RL001" not in rules_of(src, "tests/online/test_x.py")


# -- RL002 units discipline -----------------------------------------------


class TestRL002:
    def test_raw_stripe_default_flagged(self):
        # the pre-fix placer.py pattern
        src = "def f(original_stripe: int = 64 * 1024) -> int:\n    return 0\n"
        assert "RL002" in rules_of(src, CORE)

    def test_raw_literal_in_sizes_tuple_flagged(self):
        # the pre-fix pattern of a device-probe sizes default
        src = "def f(sizes=(4096, 16384)):\n    return sizes\n"
        assert "RL002" in rules_of(src, CORE)

    def test_keyword_argument_flagged(self):
        src = "g = object()\nx = g(stripe=65536)\n"
        assert "RL002" in rules_of(src, CORE)

    def test_units_constant_ok(self):
        src = (
            "from repro.units import KiB\n\n"
            "def f(original_stripe: int = 64 * KiB) -> int:\n    return 0\n"
        )
        assert "RL002" not in rules_of(src, CORE)

    def test_non_byte_names_ok(self):
        # counts that merely look power-of-two-ish must not be flagged
        src = "max_eval_requests = 4096\ncache_capacity = 4096\n"
        assert "RL002" not in rules_of(src, CORE)

    def test_unit_suffix_mixing_flagged(self):
        src = "def f(total_bytes: int, quota_kb: int) -> int:\n"
        src += "    return total_bytes + quota_kb\n"
        assert "RL002" in rules_of(src, CORE)

    def test_same_suffix_ok(self):
        src = "def f(a_bytes: int, b_bytes: int) -> int:\n"
        src += "    return a_bytes + b_bytes\n"
        assert "RL002" not in rules_of(src, CORE)

    def test_tests_exempt(self):
        src = "def f(original_stripe: int = 64 * 1024) -> int:\n    return 0\n"
        assert "RL002" not in rules_of(src, TEST)


# -- RL302 task boundary (the fixtures of the deleted RL003) --------------


class TestRL003:
    """Only module-level callables enter ``parallel_map``; RL302's
    boundary check took these over from RL003."""

    def test_lambda_flagged(self):
        src = "from repro.core.parallel import parallel_map\n\n"
        src += "r = parallel_map(lambda x: x, [1])\n"
        assert "RL302" in rules_of(src, SRC)

    def test_nested_function_flagged(self):
        src = (
            "from repro.core.parallel import parallel_map\n\n"
            "def outer(k):\n"
            "    def inner(x):\n"
            "        return x + k\n"
            "    return parallel_map(inner, [1])\n"
        )
        assert "RL302" in rules_of(src, SRC)

    def test_bound_method_flagged(self):
        src = (
            "from repro.core.parallel import parallel_map\n\n"
            "def run(sim):\n"
            "    return parallel_map(sim.step, [1])\n"
        )
        assert "RL302" in rules_of(src, SRC)

    def test_module_level_function_ok(self):
        src = (
            "from repro.core.parallel import parallel_map\n\n"
            "def work(x):\n"
            "    return x + 1\n\n"
            "def run():\n"
            "    return parallel_map(work, [1])\n"
        )
        assert "RL302" not in rules_of(src, SRC)

    def test_module_attribute_ok(self):
        src = (
            "import math\n"
            "from repro.core.parallel import parallel_map\n\n"
            "r = parallel_map(math.sqrt, [1.0])\n"
        )
        assert "RL302" not in rules_of(src, SRC)

    def test_partial_binding_simulator_flagged(self):
        src = (
            "from functools import partial\n"
            "from repro.core.parallel import parallel_map\n\n"
            "def work(simulator, x):\n"
            "    return x\n\n"
            "def run(simulator):\n"
            "    return parallel_map(partial(work, simulator), [1])\n"
        )
        assert "RL302" in rules_of(src, SRC)

    def test_applies_in_tests_too(self):
        src = "from repro.core.parallel import parallel_map\n\n"
        src += "r = parallel_map(lambda x: x, [1])\n"
        assert "RL302" in rules_of(src, TEST)


# -- RL301 Eq. 2 purity (the fixtures of the deleted RL004) ---------------


class TestRL004:
    """Single-function purity defects, which RL301 finds transitively."""

    def test_argument_attribute_write_flagged(self):
        src = "def f(plan):\n    plan.cost = 1.0\n"
        assert "RL301" in rules_of(src, COST)

    def test_argument_item_write_flagged(self):
        src = "def f(table):\n    table['k'] = 1\n"
        assert "RL301" in rules_of(src, COST)

    def test_global_statement_flagged(self):
        src = "_N = 0\n\ndef f():\n    global _N\n    _N += 1\n"
        assert "RL301" in rules_of(src, COST)

    def test_io_call_flagged(self):
        src = "def f(x):\n    print(x)\n    return x\n"
        assert "RL301" in rules_of(src, COST)

    def test_function_level_import_flagged(self):
        # the pre-fix placer.py pattern
        src = "def f(spec):\n    from .params import CostModelParams\n    return 0\n"
        assert "RL301" in rules_of(src, "src/repro/core/placer.py")

    def test_mutator_on_argument_flagged(self):
        src = "def f(rows):\n    rows.append(1)\n    return rows\n"
        assert "RL301" in rules_of(src, COST)

    def test_pure_function_ok(self):
        src = (
            "def f(params, x):\n"
            "    local = [x]\n"
            "    local.append(2 * x)\n"
            "    return sum(local) * params.t\n"
        )
        assert "RL301" not in rules_of(src, COST)

    def test_self_state_ok(self):
        # stateful controllers may keep internal state
        src = (
            "class Gate:\n"
            "    def evaluate(self, plan):\n"
            "        self.evaluations = getattr(self, 'evaluations', 0) + 1\n"
            "        return plan\n"
        )
        assert "RL301" not in rules_of(src, "src/repro/online/gate.py")

    def test_out_of_scope_module_ignored(self):
        src = "def f(plan):\n    plan.cost = 1.0\n"
        assert "RL301" not in rules_of(src, "src/repro/pfs/storage.py")


# -- RL005 float equality -------------------------------------------------


class TestRL005:
    def test_float_literal_eq_flagged(self):
        # the pre-fix features.py pattern
        src = "def f(spread):\n    spread[spread == 0.0] = 1.0\n    return spread\n"
        assert "RL005" in rules_of(src, CORE)

    def test_float_literal_noteq_flagged(self):
        src = "def f(x):\n    return x != 1.5\n"
        assert "RL005" in rules_of(src, CORE)

    def test_int_roundtrip_flagged(self):
        # the pre-fix units.py pattern
        src = "def f(value):\n    return value == int(value)\n"
        assert "RL005" in rules_of(src, CORE)

    def test_division_result_eq_flagged(self):
        src = "def f(a, b, c):\n    return a / b == c\n"
        assert "RL005" in rules_of(src, CORE)

    def test_int_comparison_ok(self):
        src = "def f(n):\n    return n == 0\n"
        assert "RL005" not in rules_of(src, CORE)

    def test_ordering_comparison_ok(self):
        src = "def f(x):\n    return x > 0.0\n"
        assert "RL005" not in rules_of(src, CORE)

    def test_tests_exempt(self):
        src = "def f(x):\n    return x == 0.0\n"
        assert "RL005" not in rules_of(src, TEST)


# -- RL101..RL104 twin contracts -------------------------------------------


def twin_fixture(ref_params, twin_params, deco_args="", body="    return 0\n"):
    """One module holding a reference def and its decorated twin."""
    return (
        "from repro.contracts import twin_of\n\n"
        f"def base({ref_params}):\n{body}\n"
        f"@twin_of('repro.core.example:base'{deco_args})\n"
        f"def base_many({twin_params}):\n{body}"
    )


class TestRL101:
    def test_matching_signatures_clean(self):
        src = twin_fixture("a, b", "a, b")
        assert "RL101" not in rules_of(src, CORE)

    def test_reference_param_missing_on_twin(self):
        src = twin_fixture("a, b", "a")
        assert "RL101" in rules_of(src, CORE)

    def test_param_map_rename_accepted(self):
        src = twin_fixture("a, offset", "a, offsets", ", param_map={'offset': 'offsets'}")
        assert "RL101" not in rules_of(src, CORE)

    def test_param_map_key_typo_flagged(self):
        src = twin_fixture("a, offset", "a, offsets", ", param_map={'offzet': 'offsets'}")
        assert "RL101" in rules_of(src, CORE)

    def test_param_map_value_typo_flagged(self):
        src = twin_fixture("a, offset", "a, offset", ", param_map={'offset': 'offzets'}")
        assert "RL101" in rules_of(src, CORE)

    def test_unsupported_param_accepted(self):
        src = twin_fixture("a, hook", "a", ", unsupported=('hook',)")
        assert "RL101" not in rules_of(src, CORE)

    def test_unsupported_but_present_flagged(self):
        src = twin_fixture("a, hook", "a, hook", ", unsupported=('hook',)")
        assert "RL101" in rules_of(src, CORE)

    def test_unsupported_unknown_param_flagged(self):
        src = twin_fixture("a", "a", ", unsupported=('ghost',)")
        assert "RL101" in rules_of(src, CORE)

    def test_undeclared_twin_extra_flagged(self):
        src = twin_fixture("a", "a, now")
        assert "RL101" in rules_of(src, CORE)

    def test_twin_only_extra_accepted(self):
        src = twin_fixture("a", "a, now", ", twin_only=('now',)")
        assert "RL101" not in rules_of(src, CORE)

    def test_twin_only_unknown_param_flagged(self):
        src = twin_fixture("a", "a", ", twin_only=('now',)")
        assert "RL101" in rules_of(src, CORE)

    def test_method_self_is_not_a_parameter(self):
        src = (
            "from repro.contracts import twin_of\n\n"
            "class T:\n"
            "    def base(self, a):\n"
            "        return a\n\n"
            "    @twin_of('repro.core.example:T.base')\n"
            "    def base_many(self, a):\n"
            "        return a\n"
        )
        assert "RL101" not in rules_of(src, CORE)


class TestRL102:
    CONFIG = "from repro.config import DEFAULT_SAMPLE_SEED\n"

    def twin_reads(self, deco_args=""):
        return (
            self.CONFIG + "from repro.contracts import twin_of\n\n"
            "def base(x):\n    return x\n\n"
            f"@twin_of('repro.core.example:base'{deco_args})\n"
            "def base_many(x):\n    return x + DEFAULT_SAMPLE_SEED\n"
        )

    def test_twin_only_config_read_flagged(self):
        assert "RL102" in rules_of(self.twin_reads(), CORE)

    def test_fallback_flag_declares_the_asymmetry(self):
        src = self.twin_reads(", fallback_flags=('DEFAULT_SAMPLE_SEED',)")
        assert "RL102" not in rules_of(src, CORE)

    def test_reference_only_config_read_flagged(self):
        src = (
            self.CONFIG + "from repro.contracts import twin_of\n\n"
            "def base(x):\n    return x + DEFAULT_SAMPLE_SEED\n\n"
            "@twin_of('repro.core.example:base')\n"
            "def base_many(x):\n    return x\n"
        )
        assert "RL102" in rules_of(src, CORE)

    def test_symmetric_reads_clean(self):
        src = (
            self.CONFIG + "from repro.contracts import twin_of\n\n"
            "def base(x):\n    return x + DEFAULT_SAMPLE_SEED\n\n"
            "@twin_of('repro.core.example:base')\n"
            "def base_many(x):\n    return x + DEFAULT_SAMPLE_SEED\n"
        )
        assert "RL102" not in rules_of(src, CORE)


class TestRL103:
    def test_unregistered_fast_path_name_flagged(self):
        for name in ("replay_flat", "search_grid", "map_many", "batch_costs"):
            src = f"def {name}(x):\n    return x\n"
            assert "RL103" in rules_of(src, CORE), name

    def test_registered_twin_exempt(self):
        src = twin_fixture("a", "a")
        assert "RL103" not in rules_of(src, CORE)

    def test_contract_reference_exempt(self):
        src = (
            "from repro.contracts import twin_of\n\n"
            "def batch_costs(a):\n    return a\n\n"
            "@twin_of('repro.core.example:batch_costs')\n"
            "def batch_costs_grid(a):\n    return a\n"
        )
        assert "RL103" not in rules_of(src, CORE)

    def test_nested_defs_exempt(self):
        src = (
            "def search(h):\n"
            "    def evaluate_grid(x):\n"
            "        return x + h\n"
            "    return evaluate_grid(1)\n"
        )
        assert "RL103" not in rules_of(src, CORE)

    def test_tests_exempt(self):
        src = "def run_many(x):\n    return x\n"
        assert "RL103" not in rules_of(src, TEST)

    def test_plain_names_ignored(self):
        src = "def translate(x):\n    return x\n\ndef flatten(x):\n    return x\n"
        assert "RL103" not in rules_of(src, CORE)


class TestRL104:
    def test_non_literal_reference_flagged(self):
        src = (
            "from repro.contracts import twin_of\n\n"
            "REF = 'repro.core.example:base'\n\n"
            "def base(a):\n    return a\n\n"
            "@twin_of(REF)\n"
            "def base_many(a):\n    return a\n"
        )
        assert "RL104" in rules_of(src, CORE)

    def test_malformed_spec_flagged(self):
        src = (
            "from repro.contracts import twin_of\n\n"
            "@twin_of('repro.core.example.base')\n"
            "def base_many(a):\n    return a\n"
        )
        assert "RL104" in rules_of(src, CORE)

    def test_unknown_kind_flagged(self):
        src = twin_fixture("a", "a", ", kind='roughly_equal'")
        assert "RL104" in rules_of(src, CORE)

    def test_unresolvable_reference_flagged(self):
        src = (
            "from repro.contracts import twin_of\n\n"
            "@twin_of('repro.core.example:ghost')\n"
            "def base_many(a):\n    return a\n"
        )
        assert "RL104" in rules_of(src, CORE)

    def test_cross_module_reference_resolves_from_disk(self):
        """Single-file runs (pre-commit) resolve references by parsing
        the referenced module under src/ on disk."""
        src = (
            "from repro.contracts import twin_of\n\n"
            "@twin_of('repro.simulate.resources:FIFOResource.schedule',\n"
            "         twin_only=('now',))\n"
            "def schedule_flat(duration, not_before=0.0, tag=None, now=0.0):\n"
            "    return now\n"
        )
        assert "RL104" not in rules_of(src, CORE)

    def test_well_formed_contract_clean(self):
        src = twin_fixture("a", "a", ", kind='reduction'")
        assert "RL104" not in rules_of(src, CORE)


# -- suppressions ----------------------------------------------------------


class TestSuppressions:
    def test_same_line_suppression(self):
        src = "import time\n\n"
        src += "def f():\n"
        src += "    return time.time()  # repro-lint: disable=RL001\n"
        assert rules_of(src, SRC) == []

    def test_suppression_is_rule_specific(self):
        src = "import time\n\n"
        src += "def f():\n"
        src += "    return time.time()  # repro-lint: disable=RL005\n"
        assert "RL001" in rules_of(src, SRC)

    def test_suppression_is_line_specific(self):
        src = (
            "import time\n"
            "# repro-lint: disable=RL001\n\n"
            "def f():\n"
            "    return time.time()\n"
        )
        assert "RL001" in rules_of(src, SRC)

    def test_file_wide_suppression(self):
        src = (
            "# repro-lint: disable-file=RL001\n"
            "import time\n\n"
            "def f():\n"
            "    return time.time()\n"
        )
        assert rules_of(src, SRC) == []

    def test_multiple_rules_one_comment(self):
        src = (
            "import time\n\n"
            "def f(x):\n"
            "    return time.time() == 0.0  "
            "# repro-lint: disable=RL001,RL005\n"
        )
        assert rules_of(src, SRC) == []

    def test_marker_inside_string_is_not_a_suppression(self):
        src = (
            "import time\n\n"
            "def f():\n"
            '    s = "# repro-lint: disable=RL001"\n'
            "    return time.time(), s\n"
        )
        assert "RL001" in rules_of(src, SRC)


class TestSuppressionLogicalLines:
    """A disable comment inside an open logical line covers the whole
    statement's physical span (multi-line calls, decorated defs)."""

    def test_comment_after_diagnostic_line_in_same_statement(self):
        src = (
            "import time\n\n"
            "x = time.time(\n"
            ")  # repro-lint: disable=RL001\n"
        )
        assert "RL001" not in rules_of(src, SRC)

    def test_comment_before_diagnostic_line_in_same_statement(self):
        src = (
            "import time\n\n"
            "x = [\n"
            "    # repro-lint: disable=RL001\n"
            "    time.time(),\n"
            "]\n"
        )
        assert "RL001" not in rules_of(src, SRC)

    def test_span_ends_with_the_statement(self):
        # the suppression must not leak past the closing bracket
        src = (
            "import time\n\n"
            "x = time.time(\n"
            ")  # repro-lint: disable=RL001\n"
            "y = time.time()\n"
        )
        assert "RL001" in rules_of(src, SRC)

    def test_multiline_decorator_suppresses_contract_rule(self):
        # RL101 anchors at the decorator call; the comment sits on a
        # later physical line of the same (decorator) logical line
        src = (
            "from repro.contracts import twin_of\n\n"
            "def base(a, b):\n"
            "    return 0\n\n"
            "@twin_of(\n"
            "    'repro.core.example:base',  # repro-lint: disable=RL101\n"
            ")\n"
            "def base_many(a):\n"
            "    return 0\n"
        )
        assert "RL101" not in rules_of(src, CORE)

    def test_decorator_suppression_does_not_cover_the_def(self):
        # the decorator and the def are separate logical lines
        src = (
            "@staticmethod  # repro-lint: disable=RL103\n"
            "def lonely_many(x):\n"
            "    return x\n"
        )
        assert "RL103" in rules_of(src, CORE)

    def test_def_line_suppression_covers_multiline_signature(self):
        src = (
            "def lonely_many(\n"
            "    x,  # repro-lint: disable=RL103\n"
            "    y,\n"
            "):\n"
            "    return x + y\n"
        )
        assert "RL103" not in rules_of(src, CORE)


# -- engine / CLI ----------------------------------------------------------


class TestEngine:
    def test_syntax_error_reported_not_raised(self):
        diags = lint_source("def f(:\n", SRC)
        assert [d.rule for d in diags] == ["RL000"]

    def test_diagnostics_sorted_and_located(self):
        src = "import time\n\nx = time.time()\ny = time.time()\n"
        diags = lint_source(src, SRC)
        assert [d.line for d in diags] == [3, 4]
        assert all(d.path == SRC for d in diags)

    def test_render_format(self):
        diag = lint_source("x = time.time()\nimport time\n", SRC)[0]
        text = diag.render()
        assert text.startswith(f"{SRC}:1:")
        assert "RL001" in text


class TestCLI:
    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert cli_main([str(clean)]) == 0
        assert capsys.readouterr().out == ""

    def test_exit_one_with_findings(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "online" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\nx = time.time()\n")
        assert cli_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RL001" in out

    def test_exit_two_on_missing_path(self, tmp_path):
        assert cli_main([str(tmp_path / "nope")]) == 2

    def test_exit_two_on_unknown_rule(self, tmp_path):
        f = tmp_path / "x.py"
        f.write_text("x = 1\n")
        assert cli_main(["--select", "RL999", str(f)]) == 2

    def test_select_restricts_rules(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "online" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\nx = time.time()\ny = 1.0 == 2.0\n")
        assert cli_main(["--select", "RL001", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RL001" in out
        assert "RL005" not in out

    def test_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = {line.split(None, 1)[0] for line in out.strip().splitlines()}
        assert listed == {
            "RL001", "RL002", "RL005",
            "RL101", "RL102", "RL103", "RL104",
            "RL201", "RL202",
            "RL211", "RL212", "RL213",
            "RL301", "RL302", "RL303", "RL304", "RL305",
        }
        # folded into RL301 and RL302
        assert not listed & {"RL003", "RL004", "RL203"}

    def bad_file(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "online" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\nx = time.time()\n")
        return bad

    def test_json_format(self, tmp_path, capsys):
        bad = self.bad_file(tmp_path)
        assert cli_main(["--format", "json", str(bad)]) == 1
        findings = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in findings] == ["RL001"]
        assert findings[0]["line"] == 3
        assert findings[0]["path"].endswith("bad.py")

    def test_sarif_format_to_output_file(self, tmp_path, capsys):
        bad = self.bad_file(tmp_path)
        out_file = tmp_path / "lint.sarif"
        assert cli_main(
            ["--format", "sarif", "--output", str(out_file), str(bad)]
        ) == 1
        assert capsys.readouterr().out == ""
        doc = json.loads(out_file.read_text())
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert {r["id"] for r in run["tool"]["driver"]["rules"]} >= {
            "RL001", "RL101", "RL104",
        }
        result = run["results"][0]
        assert result["ruleId"] == "RL001"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 3
        assert region["startColumn"] >= 1  # SARIF columns are 1-based

    def test_sarif_written_even_when_clean(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        out_file = tmp_path / "lint.sarif"
        assert cli_main(
            ["--format", "sarif", "--output", str(out_file), str(clean)]
        ) == 0
        assert json.loads(out_file.read_text())["runs"][0]["results"] == []


class TestOverlappingPaths:
    """Overlapping or differently spelled CLI paths must not duplicate
    diagnostics: files are normalized and deduplicated before analysis."""

    def make_tree(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "online" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\nx = time.time()\n")
        return bad

    def count_findings(self, argv, capsys):
        code = cli_main(["--format", "json", *argv])
        assert code == 1
        return len(json.loads(capsys.readouterr().out))

    def test_nested_directories(self, tmp_path, capsys):
        bad = self.make_tree(tmp_path)
        argv = [str(tmp_path / "src"), str(bad.parent)]
        assert self.count_findings(argv, capsys) == 1

    def test_directory_and_file(self, tmp_path, capsys):
        bad = self.make_tree(tmp_path)
        assert self.count_findings([str(tmp_path), str(bad)], capsys) == 1

    def test_same_path_twice(self, tmp_path, capsys):
        bad = self.make_tree(tmp_path)
        assert self.count_findings([str(bad), str(bad)], capsys) == 1

    def test_dot_spelled_duplicate(self, tmp_path, capsys):
        bad = self.make_tree(tmp_path)
        dotted = str(tmp_path / "." / "src")
        assert self.count_findings([str(tmp_path / "src"), dotted], capsys) == 1


class TestSeededMutation:
    """The acceptance drill: growing a twin-only kwarg or config branch
    must flip the lint from clean to failing."""

    PAIR = (
        "from repro.config import DEFAULT_SAMPLE_SEED\n"
        "from repro.contracts import twin_of\n\n"
        "def base(a, b):\n"
        "    return a + b\n\n"
        "@twin_of('repro.core.example:base')\n"
        "def base_many(a, b):\n"
        "    return a + b\n"
    )

    def write(self, tmp_path, source):
        mod = tmp_path / "src" / "repro" / "core" / "example.py"
        mod.parent.mkdir(parents=True, exist_ok=True)
        mod.write_text(source)
        return mod

    def test_clean_pair_passes(self, tmp_path):
        mod = self.write(tmp_path, self.PAIR)
        assert cli_main([str(mod)]) == 0

    def test_twin_kwarg_mutation_fails(self, tmp_path, capsys):
        mutated = self.PAIR.replace("def base_many(a, b):", "def base_many(a, b, fancy=False):")
        mod = self.write(tmp_path, mutated)
        assert cli_main([str(mod)]) == 1
        assert "RL101" in capsys.readouterr().out

    def test_twin_config_branch_mutation_fails(self, tmp_path, capsys):
        mutated = self.PAIR.replace(
            "def base_many(a, b):\n    return a + b",
            "def base_many(a, b):\n    return a + b + DEFAULT_SAMPLE_SEED",
        )
        mod = self.write(tmp_path, mutated)
        assert cli_main([str(mod)]) == 1
        assert "RL102" in capsys.readouterr().out


class TestRepositoryIsClean:
    """The acceptance gate: the shipped tree has zero findings."""

    def test_module_invocation_exits_zero(self):
        result = subprocess.run(
            [sys.executable, "-m", "tools.repro_lint", "src", "tests"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr


# -- RL201 seed derivation ------------------------------------------------

FAULTS = "src/repro/faults/example.py"  # seeded-subsystem scope for RL2xx


class TestRL201:
    def test_list_seeding_flagged(self):
        # the pre-registry faults/arrivals pattern
        src = (
            "import numpy as np\n\n"
            "def f(seed, k):\n"
            "    return np.random.default_rng([seed, k])\n"
        )
        assert "RL201" in rules_of(src, FAULTS)

    def test_named_scalar_seed_flagged(self):
        # passes RL001 (auditable) but still bypasses the registry
        src = (
            "import numpy as np\n"
            "from repro.config import DEFAULT_SAMPLE_SEED\n\n"
            "rng = np.random.default_rng(DEFAULT_SAMPLE_SEED)\n"
        )
        assert "RL201" in rules_of(src, FAULTS)

    def test_derive_rng_ok(self):
        src = (
            "from repro.determinism import SeedDomain, derive_rng\n\n"
            "def f(i, seed):\n"
            "    return derive_rng(SeedDomain.FAULTS, i, base=seed)\n"
        )
        assert "RL201" not in rules_of(src, FAULTS)

    def test_default_rng_of_derive_seed_ok(self):
        src = (
            "import numpy as np\n"
            "from repro.determinism import SeedDomain, derive_seed\n\n"
            "def f(i):\n"
            "    return np.random.default_rng("
            "derive_seed(SeedDomain.FAULTS, i))\n"
        )
        assert "RL201" not in rules_of(src, FAULTS)

    def test_core_and_tests_out_of_scope(self):
        src = "import numpy as np\n\nrng = np.random.default_rng(seed)\n"
        assert "RL201" not in rules_of(src, CORE)
        assert "RL201" not in rules_of(src, "tests/faults/test_x.py")

    def test_suppression(self):
        src = (
            "import numpy as np\n\n"
            "rng = np.random.default_rng(seed)"
            "  # repro-lint: disable=RL201,RL001\n"
        )
        assert "RL201" not in rules_of(src, FAULTS)


# -- RL202 lineage aliasing -----------------------------------------------


class TestRL202:
    def test_two_sites_same_domain_and_arity_flagged(self):
        src = (
            "from repro.determinism import SeedDomain, derive_rng, derive_seed\n\n"
            "def a(i):\n"
            "    return derive_rng(SeedDomain.FAULTS, i, base=1)\n\n"
            "def b(j):\n"
            "    return derive_seed(SeedDomain.FAULTS, j, base=2)\n"
        )
        assert "RL202" in rules_of(src, FAULTS)

    def test_distinct_arity_ok(self):
        src = (
            "from repro.determinism import SeedDomain, derive_rng\n\n"
            "def a(i):\n"
            "    return derive_rng(SeedDomain.FAULTS, i, base=1)\n\n"
            "def b():\n"
            "    return derive_rng(SeedDomain.FAULTS, base=2)\n"
        )
        assert "RL202" not in rules_of(src, FAULTS)

    def test_distinct_domains_ok(self):
        src = (
            "from repro.determinism import SeedDomain, derive_rng\n\n"
            "def a(i):\n"
            "    return derive_rng(SeedDomain.FAULTS, i)\n\n"
            "def b(j):\n"
            "    return derive_rng(SeedDomain.ARRIVALS, j)\n"
        )
        assert "RL202" not in rules_of(src, FAULTS)

    def test_duplicate_enum_tag_flagged(self):
        src = (
            "import enum\n\n"
            "class SeedDomain(enum.Enum):\n"
            "    FAULTS = \"faults\"\n"
            "    CHAOS = \"faults\"\n"
        )
        assert "RL202" in rules_of(src, "src/repro/determinism.py")


# -- RL302 RNG across the task boundary (the fixtures of the deleted RL203)


class TestRL203:
    """An RNG object must not reach a ``parallel_map`` call; RL302's
    boundary check took these over from RL203."""

    def test_rng_captured_in_lambda_flagged(self):
        src = (
            "from repro.determinism import SeedDomain, derive_rng\n"
            "from repro.core.parallel import parallel_map\n\n"
            "def run(items, work):\n"
            "    rng = derive_rng(SeedDomain.FAULTS, 0, base=1)\n"
            "    return parallel_map(lambda it: work(it, rng), items)\n"
        )
        assert "RL302" in rules_of(src, CORE)

    def test_rng_as_direct_argument_flagged(self):
        src = (
            "import numpy as np\n"
            "from functools import partial\n"
            "from repro.core.parallel import parallel_map\n\n"
            "def run(items, work, seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return parallel_map(partial(work, rng), items)\n"
        )
        assert "RL302" in rules_of(src, CORE)

    def test_worker_side_derivation_ok(self):
        src = (
            "from repro.core.parallel import parallel_map\n\n"
            "def run(specs, work):\n"
            "    return parallel_map(work, specs)\n"
        )
        assert "RL302" not in rules_of(src, CORE)

    def test_rng_outside_call_ok(self):
        src = (
            "from repro.determinism import SeedDomain, derive_rng\n"
            "from repro.core.parallel import parallel_map\n\n"
            "def run(specs, work):\n"
            "    rng = derive_rng(SeedDomain.FAULTS, 0)\n"
            "    out = parallel_map(work, specs)\n"
            "    return [o + rng.random() for o in out]\n"
        )
        assert "RL302" not in rules_of(src, CORE)


# -- RL211 set iteration order --------------------------------------------


class TestRL211:
    DIGEST_FN = (
        "import hashlib\n\n"
        "def digest(names):\n"
        "    uniq = set(names)\n"
        "    h = hashlib.sha256()\n"
        "    for n in {LOOP}:\n"
        "        h.update(n.encode())\n"
        "    return h.hexdigest()\n"
    )

    def test_unsorted_set_into_digest_flagged(self):
        src = self.DIGEST_FN.replace("{LOOP}", "uniq")
        assert "RL211" in rules_of(src, CORE)

    def test_sorted_set_ok(self):
        src = self.DIGEST_FN.replace("{LOOP}", "sorted(uniq)")
        assert "RL211" not in rules_of(src, CORE)

    def test_set_literal_in_comprehension_flagged(self):
        src = (
            "from repro.determinism import SeedDomain, derive_seed\n\n"
            "def seeds(a, b):\n"
            "    return [derive_seed(SeedDomain.FAULTS, x)"
            " for x in {a, b}]\n"
        )
        assert "RL211" in rules_of(src, CORE)

    def test_function_without_markers_not_flagged(self):
        src = (
            "def count(names):\n"
            "    total = 0\n"
            "    for n in set(names):\n"
            "        total += 1\n"
            "    return total\n"
        )
        assert "RL211" not in rules_of(src, CORE)

    def test_list_iteration_ok(self):
        src = (
            "import hashlib\n\n"
            "def digest(names):\n"
            "    h = hashlib.sha256()\n"
            "    for n in names:\n"
            "        h.update(n.encode())\n"
            "    return h.hexdigest()\n"
        )
        assert "RL211" not in rules_of(src, CORE)


# -- RL212 directory listing order ----------------------------------------


class TestRL212:
    def test_bare_listdir_flagged(self):
        src = (
            "import os\n\n"
            "def load(d):\n"
            "    return [open(f) for f in os.listdir(d)]\n"
        )
        assert "RL212" in rules_of(src, CORE)

    def test_glob_flagged(self):
        src = (
            "import glob\n\n"
            "def load(pattern):\n"
            "    return glob.glob(pattern)\n"
        )
        assert "RL212" in rules_of(src, CORE)

    def test_path_iterdir_flagged(self):
        src = (
            "def load(root):\n"
            "    return list(root.iterdir())\n"
        )
        assert "RL212" in rules_of(src, CORE)

    def test_sorted_listing_ok(self):
        src = (
            "import glob\n"
            "import os\n\n"
            "def load(d, pattern, root):\n"
            "    a = sorted(os.listdir(d))\n"
            "    b = sorted(glob.glob(pattern))\n"
            "    c = sorted(p for p in root.iterdir())\n"
            "    return a, b, c\n"
        )
        assert "RL212" not in rules_of(src, CORE)

    def test_tests_out_of_scope(self):
        src = "import os\n\nfiles = os.listdir('.')\n"
        assert "RL212" not in rules_of(src, TEST)


# -- RL213 accumulation order ---------------------------------------------


class TestRL213:
    def test_sum_over_parallel_map_name_flagged(self):
        src = (
            "from repro.core.parallel import parallel_map\n\n"
            "def total(items, work):\n"
            "    parts = parallel_map(work, items)\n"
            "    return sum(parts)\n"
        )
        assert "RL213" in rules_of(src, CORE)

    def test_sum_over_parallel_map_call_flagged(self):
        src = (
            "from repro.core.parallel import parallel_map\n\n"
            "def total(items, work):\n"
            "    return sum(parallel_map(work, items))\n"
        )
        assert "RL213" in rules_of(src, CORE)

    def test_fsum_ok(self):
        src = (
            "from math import fsum\n"
            "from repro.core.parallel import parallel_map\n\n"
            "def total(items, work):\n"
            "    parts = parallel_map(work, items)\n"
            "    return fsum(parts)\n"
        )
        assert "RL213" not in rules_of(src, CORE)

    def test_sum_over_plain_list_ok(self):
        src = (
            "def total(values):\n"
            "    return sum(values)\n"
        )
        assert "RL213" not in rules_of(src, CORE)

    def test_suppressed_documented_guarantee_ok(self):
        src = (
            "from repro.core.parallel import parallel_map\n\n"
            "def total(items, work):\n"
            "    parts = parallel_map(work, items)\n"
            "    # submission order is preserved; values are ints\n"
            "    return sum(parts)  # repro-lint: disable=RL213\n"
        )
        assert "RL213" not in rules_of(src, CORE)


# -- seeded-mutation drills for the RL2xx family --------------------------


class TestSeedLineageMutation:
    """The acceptance drill: introducing a colliding domain tag or
    pickling an rng into parallel_map must flip the lint to failing."""

    ENUM = (
        "import enum\n\n"
        "class SeedDomain(enum.Enum):\n"
        "    SAMPLE = \"sample\"\n"
        "    FAULTS = \"faults\"\n"
    )

    def write(self, tmp_path, source, rel="src/repro/determinism.py"):
        mod = tmp_path / rel
        mod.parent.mkdir(parents=True, exist_ok=True)
        mod.write_text(source)
        return mod

    def test_clean_enum_passes(self, tmp_path):
        mod = self.write(tmp_path, self.ENUM)
        assert cli_main([str(mod)]) == 0

    def test_colliding_tag_mutation_fails(self, tmp_path, capsys):
        mutated = self.ENUM + "    CHAOS = \"faults\"\n"
        mod = self.write(tmp_path, mutated)
        assert cli_main([str(mod)]) == 1
        assert "RL202" in capsys.readouterr().out

    def test_rng_pickled_into_parallel_map_fails(self, tmp_path, capsys):
        src = (
            "from functools import partial\n"
            "from repro.determinism import SeedDomain, derive_rng\n"
            "from repro.core.parallel import parallel_map\n\n"
            "def work(rng, item):\n"
            "    return item + rng.random()\n\n"
            "def run(items):\n"
            "    rng = derive_rng(SeedDomain.SAMPLE, base=0)\n"
            "    return parallel_map(partial(work, rng), items)\n"
        )
        mod = self.write(tmp_path, src, rel="src/repro/core/example.py")
        assert cli_main([str(mod)]) == 1
        assert "RL302" in capsys.readouterr().out


# -- sanitize-report ------------------------------------------------------


class TestSanitizeReport:
    def ledger(self, entries):
        return {"version": 1, "entries": entries}

    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    ENTRY = {"seed": 11, "derivations": 1, "draws": 4}

    def test_equivalent_ledgers_pass(self, tmp_path, capsys):
        a = self.write(
            tmp_path, "a.json", self.ledger({"faults|1|0": dict(self.ENTRY)})
        )
        # derivation counts may legitimately differ (workers re-derive)
        b_entry = dict(self.ENTRY, derivations=3)
        b = self.write(
            tmp_path, "b.json", self.ledger({"faults|1|0": b_entry})
        )
        assert cli_main(["sanitize-report", a, b]) == 0
        assert "OK" in capsys.readouterr().out

    def test_draw_divergence_fails(self, tmp_path, capsys):
        a = self.write(
            tmp_path, "a.json", self.ledger({"faults|1|0": dict(self.ENTRY)})
        )
        b_entry = dict(self.ENTRY, draws=5)
        b = self.write(
            tmp_path, "b.json", self.ledger({"faults|1|0": b_entry})
        )
        assert cli_main(["sanitize-report", a, b]) == 1
        assert "draws" in capsys.readouterr().out

    def test_missing_lineage_fails(self, tmp_path, capsys):
        a = self.write(
            tmp_path,
            "a.json",
            self.ledger(
                {
                    "faults|1|0": dict(self.ENTRY),
                    "faults|1|1": dict(self.ENTRY, seed=12),
                }
            ),
        )
        b = self.write(
            tmp_path, "b.json", self.ledger({"faults|1|0": dict(self.ENTRY)})
        )
        assert cli_main(["sanitize-report", a, b]) == 1
        assert "only in A" in capsys.readouterr().out

    def test_seed_collision_fails(self, tmp_path, capsys):
        entries = {
            "faults|1|0": dict(self.ENTRY),
            "arrivals|1|0": dict(self.ENTRY),  # same seed, distinct lineage
        }
        a = self.write(tmp_path, "a.json", self.ledger(entries))
        b = self.write(tmp_path, "b.json", self.ledger(entries))
        assert cli_main(["sanitize-report", a, b]) == 1
        assert "collision" in capsys.readouterr().out

    def test_bad_file_is_usage_error(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", {"version": 2})
        b = self.write(
            tmp_path, "b.json", self.ledger({"faults|1|0": dict(self.ENTRY)})
        )
        assert cli_main(["sanitize-report", a, b]) == 2

    def test_missing_path_is_usage_error(self, tmp_path):
        b = self.write(
            tmp_path, "b.json", self.ledger({"faults|1|0": dict(self.ENTRY)})
        )
        assert cli_main(
            ["sanitize-report", str(tmp_path / "absent.json"), b]
        ) == 2
