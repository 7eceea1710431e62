"""The twin registry, the static scanner, and the generated suites all
have to agree — these tests pin the three views of the contracts to
each other so none can drift silently.
"""

import ast
import os
import subprocess
import sys

import pytest

from repro import contracts
from tools.repro_lint.checkers import twin_contracts as tc
from tools.repro_lint.gen_twin_tests import generated_modules, slug_of

from . import _harnesses

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
CONTRACTS_DIR = os.path.join(REPO_ROOT, "tests", "contracts")


def static_twin_sites():
    """Every ``@twin_of`` site found by scanning ``src/`` with the
    RL1xx extractor (no imports involved)."""
    sites = {}
    for dirpath, _, filenames in os.walk(os.path.join(REPO_ROOT, "src")):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            posix = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
            for info in tc.extract_functions(tree, posix, posix, False):
                if info.contract is not None:
                    sites[info.spec] = info
    return sites


class TestRegistrySync:
    def test_static_scan_matches_runtime_registry(self):
        """A @twin_of site in a module missing from TWIN_MODULES would
        register statically but not at runtime — fail loudly instead."""
        contracts.load_all()
        runtime = {c.twin for c in contracts.iter_contracts()}
        static = set(static_twin_sites())
        assert static == runtime

    def test_twin_modules_all_register_contracts(self):
        contracts.load_all()
        modules_with_contracts = {
            c.twin.split(":")[0] for c in contracts.iter_contracts()
        }
        assert modules_with_contracts == set(contracts.TWIN_MODULES)

    def test_registry_covers_at_least_four_pairs(self):
        contracts.load_all()
        assert len(list(contracts.iter_contracts())) >= 4

    def test_static_kinds_match_runtime(self):
        contracts.load_all()
        static = static_twin_sites()
        for contract in contracts.iter_contracts():
            parsed = static[contract.twin].contract
            assert parsed.reference == contract.reference
            assert parsed.kind == contract.kind
            assert tuple(parsed.unsupported) == contract.unsupported
            assert tuple(parsed.twin_only) == contract.twin_only
            assert dict(parsed.param_map) == dict(contract.param_map)
            assert tuple(parsed.fallback_flags) == contract.fallback_flags

    def test_checker_kinds_mirror_contracts_module(self):
        assert tc._TWIN_KINDS == contracts.TWIN_KINDS


class TestHarnessCoverage:
    def test_every_contract_names_a_known_harness(self):
        contracts.load_all()
        for contract in contracts.iter_contracts():
            assert contract.harness, f"{contract.twin} declares no harness"
            assert contract.harness in _harnesses.HARNESSES

    def test_every_harness_serves_a_contract(self):
        """A recipe no contract names is dead code that every other
        check here still passes."""
        contracts.load_all()
        named = {contract.harness for contract in contracts.iter_contracts()}
        assert set(_harnesses.HARNESSES) <= named, sorted(
            set(_harnesses.HARNESSES) - named
        )

    def test_build_twin_test_returns_callable(self):
        contracts.load_all()
        for contract in contracts.iter_contracts():
            assert callable(_harnesses.build_twin_test(contract.twin))

    def test_unknown_harness_is_a_loud_error(self):
        contracts.load_all()
        twin = next(iter(contracts.iter_contracts())).twin
        contract = contracts.get_contract(twin)
        broken = type(contract)(
            reference=contract.reference,
            twin="repro.pfs.flat:made_up_twin",
            harness="no_such_harness",
        )
        contracts._REGISTRY[broken.twin] = broken
        try:
            with pytest.raises(KeyError):
                _harnesses.build_twin_test(broken.twin)
        finally:
            del contracts._REGISTRY[broken.twin]


class TestGeneratedSuitesFresh:
    def test_committed_modules_match_generator(self):
        """The staleness gate, as a test: regenerating must be a no-op."""
        wanted = generated_modules()
        committed = {
            name: open(os.path.join(CONTRACTS_DIR, name), encoding="utf-8").read()
            for name in os.listdir(CONTRACTS_DIR)
            if name.startswith("test_twin_") and name.endswith(".py")
        }
        assert sorted(committed) == sorted(wanted)
        for name in wanted:
            assert committed[name] == wanted[name], f"{name} is stale"

    def test_check_subcommand_reports_clean(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.repro_lint", "gen-twin-tests", "--check"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_check_subcommand_flags_staleness(self, tmp_path):
        stale_dir = tmp_path / "contracts"
        stale_dir.mkdir()
        (stale_dir / "test_twin_pfs_flat_replay_flat.py").write_text("# stale\n")
        (stale_dir / "test_twin_orphan_pair.py").write_text("# orphan\n")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "tools.repro_lint",
                "gen-twin-tests",
                "--check",
                "--dir",
                str(stale_dir),
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "STALE" in proc.stdout
        assert "ORPHAN" in proc.stdout
        assert "MISSING" in proc.stdout

    def test_slugs_are_unique(self):
        contracts.load_all()
        slugs = [slug_of(c.twin) for c in contracts.iter_contracts()]
        assert len(slugs) == len(set(slugs))
