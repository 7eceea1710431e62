"""The seed-lineage registry and runtime sanitizer.

``repro.determinism`` is the root of every reproducibility guarantee:
each stream is derived from a ``(domain, base, indices)`` lineage via
SHA-256, so distinct lineages can never alias the way the old
``default_rng([seed, k])`` list-seeding could.  These tests pin:

* injectivity of :func:`derive_seed` (hypothesis property),
* reproducibility of :func:`derive_rng` and its equivalence to
  ``default_rng(derive_seed(...))``,
* the sanitizer ledger (recording, draw counting, worker merge,
  JSON round-trip through the ``sanitize-report`` loader),
* ledger equivalence of serial and sharded ``parallel_map`` runs,
* the serve digest itself — pinned, because this PR moved every seeded
  subsystem from list-seeding onto the registry, which *changed the
  streams* (and therefore all digests) once; the pin keeps them from
  ever drifting silently again.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.determinism import (
    Ledger,
    SeedDomain,
    derive_rng,
    derive_seed,
    ledger,
    reset_ledger,
    sanitize_enabled,
    write_ledger,
)
from tools.repro_lint.sanitize import compare_ledgers, load_ledger

lineages = st.tuples(
    st.sampled_from(list(SeedDomain)),
    st.lists(st.integers(min_value=0, max_value=2**31), max_size=3),
    st.integers(min_value=0, max_value=2**31),
)


class TestDeriveSeed:
    def test_deterministic(self):
        a = derive_seed(SeedDomain.FAULTS, 3, base=17)
        b = derive_seed(SeedDomain.FAULTS, 3, base=17)
        assert a == b

    def test_64_bit_range(self):
        seed = derive_seed(SeedDomain.SAMPLE, base=0)
        assert 0 <= seed < 2**64

    @given(a=lineages, b=lineages)
    @settings(max_examples=200, deadline=None)
    def test_injective(self, a, b):
        """Distinct lineages -> distinct seeds (the RL202 guarantee)."""
        seed_a = derive_seed(a[0], *a[1], base=a[2])
        seed_b = derive_seed(b[0], *b[1], base=b[2])
        if (a[0], tuple(a[1]), a[2]) == (b[0], tuple(b[1]), b[2]):
            assert seed_a == seed_b
        else:
            assert seed_a != seed_b

    def test_index_order_matters(self):
        assert derive_seed(SeedDomain.FAULTS, 1, 2) != derive_seed(
            SeedDomain.FAULTS, 2, 1
        )

    def test_no_prefix_aliasing(self):
        """The failure mode of the old list-seeding: ``[1, 23]`` vs
        ``[12, 3]`` style prefix overlap must not collide."""
        assert derive_seed(SeedDomain.FAULTS, 1, base=23) != derive_seed(
            SeedDomain.FAULTS, 12, base=3
        )

    def test_domains_never_share_streams(self):
        assert derive_seed(SeedDomain.SAMPLE, base=7) != derive_seed(
            SeedDomain.FAULTS, base=7
        )


class TestDeriveRng:
    def test_reproducible(self):
        a = derive_rng(SeedDomain.ARRIVALS, 5, base=1).random(8)
        b = derive_rng(SeedDomain.ARRIVALS, 5, base=1).random(8)
        assert np.array_equal(a, b)

    def test_equivalent_to_default_rng_of_derived_seed(self):
        seed = derive_seed(SeedDomain.ARRIVALS, 5, base=1)
        direct = np.random.default_rng(seed).random(8)
        derived = derive_rng(SeedDomain.ARRIVALS, 5, base=1).random(8)
        assert np.array_equal(direct, derived)

    def test_sanitize_off_returns_plain_generator(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize_enabled()
        rng = derive_rng(SeedDomain.SAMPLE, base=0)
        assert isinstance(rng, np.random.Generator)


class TestLedger:
    def test_record_and_snapshot(self):
        led = Ledger()
        led.record("faults", (0,), 1, 111)
        led.record("faults", (0,), 1, 111)
        led.record("faults", (1,), 1, 222)
        snap = led.snapshot()
        assert snap["faults|1|0"] == {
            "seed": 111, "derivations": 2, "draws": 0,
        }
        assert len(led) == 2

    def test_count_draw(self):
        led = Ledger()
        led.record("faults", (0,), 1, 111)
        led.count_draw("faults|1|0")
        led.count_draw("faults|1|0")
        assert led.snapshot()["faults|1|0"]["draws"] == 2

    def test_merge_sums_counts(self):
        led = Ledger()
        led.record("faults", (0,), 1, 111)
        led.merge(
            {
                "faults|1|0": {"seed": 111, "derivations": 2, "draws": 3},
                "faults|1|1": {"seed": 222, "derivations": 1, "draws": 4},
            }
        )
        snap = led.snapshot()
        assert snap["faults|1|0"] == {
            "seed": 111, "derivations": 3, "draws": 3,
        }
        assert snap["faults|1|1"]["draws"] == 4

    def test_collisions(self):
        led = Ledger()
        led.record("faults", (0,), 1, 999)
        led.record("arrivals", (0,), 1, 999)
        assert led.collisions() == [("arrivals|1|0", "faults|1|0")]


class TestSanitizer:
    @pytest.fixture(autouse=True)
    def _armed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        reset_ledger()
        yield
        reset_ledger()

    def test_derivations_recorded(self):
        derive_seed(SeedDomain.FAULTS, 7, base=3)
        snap = ledger().snapshot()
        assert snap["faults|3|7"]["derivations"] == 1

    def test_draws_counted_per_lineage(self):
        rng = derive_rng(SeedDomain.FAULTS, 7, base=3)
        rng.random()
        rng.integers(10)
        rng.normal()
        assert ledger().snapshot()["faults|3|7"]["draws"] == 3

    def test_traced_generator_draws_match_plain(self, monkeypatch):
        traced = derive_rng(SeedDomain.SAMPLE, base=5)
        monkeypatch.delenv("REPRO_SANITIZE")
        plain = derive_rng(SeedDomain.SAMPLE, base=5)
        assert np.array_equal(traced.random(16), plain.random(16))

    def test_write_ledger_roundtrips_through_report_loader(self, tmp_path):
        rng = derive_rng(SeedDomain.ARRIVALS, 2, base=9)
        rng.random()
        path = tmp_path / "ledger.json"
        write_ledger(str(path))
        loaded = load_ledger(str(path))
        assert loaded == ledger().snapshot()
        assert compare_ledgers(loaded, ledger().snapshot()) == []

    def test_written_ledger_is_valid_sorted_json(self, tmp_path):
        derive_seed(SeedDomain.FAULTS, 1)
        derive_seed(SeedDomain.ARRIVALS, 1)
        path = tmp_path / "ledger.json"
        write_ledger(str(path))
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert list(doc["entries"]) == sorted(doc["entries"])

    @pytest.mark.parametrize("armed", ["0", "1"])
    def test_switch_read_once_per_derivation(self, monkeypatch, armed):
        """``derive_rng`` reads ``REPRO_SANITIZE`` once, and records the
        lineage once, armed or not."""
        import repro.determinism as determinism

        monkeypatch.setenv("REPRO_SANITIZE", armed)
        reads = []
        switch = determinism.sanitize_enabled

        def counting():
            reads.append(1)
            return switch()

        monkeypatch.setattr(determinism, "sanitize_enabled", counting)
        derive_rng(SeedDomain.ARRIVALS, 3, base=1).random()
        derive_rng(SeedDomain.ARRIVALS, 4, base=1)
        assert len(reads) == 2
        want = {
            "arrivals|1|3": {"derivations": 1, "draws": 1},
            "arrivals|1|4": {"derivations": 1, "draws": 0},
        }
        got = {
            key: {k: entry[k] for k in ("derivations", "draws")}
            for key, entry in ledger().snapshot().items()
        }
        assert got == (want if armed == "1" else {})


def _draw_three(spec):
    """Module-level worker (picklable): derive and consume a stream."""
    domain, index, base = spec
    rng = derive_rng(SeedDomain[domain], index, base=base)
    return float(rng.random()) + float(rng.random()) + float(rng.random())


class TestParallelLedgerMerge:
    @pytest.fixture(autouse=True)
    def _armed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        reset_ledger()
        yield
        reset_ledger()

    SPECS = [("FAULTS", i, 42) for i in range(4)]

    def test_serial_and_sharded_ledgers_equivalent(self):
        from repro.core.parallel import parallel_map

        serial_results = parallel_map(_draw_three, self.SPECS, n_jobs=1)
        serial_snap = ledger().snapshot()
        reset_ledger()
        sharded_results = parallel_map(_draw_three, self.SPECS, n_jobs=2)
        sharded_snap = ledger().snapshot()
        assert serial_results == sharded_results
        assert compare_ledgers(serial_snap, sharded_snap) == []
        assert serial_snap.keys() == sharded_snap.keys()
        for key in serial_snap:
            assert serial_snap[key]["draws"] == sharded_snap[key]["draws"]


class TestSanitizedServe:
    """A small fleet served under the sanitizer at one and two jobs.

    Each tenant class is generated once per ``build_tenants`` call, in
    the coordinator: the hot class's IOR generator derives and draws
    its slot shuffle exactly once, and the ledgers of both job counts
    agree.  A worker generating its own class trace would show up as
    extra IOR derivations and draws in the merged ledger.
    """

    @pytest.fixture(autouse=True)
    def _armed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        reset_ledger()
        yield
        reset_ledger()

    def test_jobs_agree_and_each_class_is_generated_once(self, monkeypatch):
        from collections import Counter

        from repro.cluster import ClusterSpec
        from repro.tenancy import serve_scenario
        from repro.workloads import CheckpointWorkload, IORWorkload

        calls: Counter[str] = Counter()

        def counting(cls, name):
            original = getattr(cls, name)

            def counted(self, *args):
                calls[cls.__name__] += 1
                return original(self, *args)

            return counted

        for cls in (IORWorkload, CheckpointWorkload):
            for name in ("trace", "columnar"):
                monkeypatch.setattr(cls, name, counting(cls, name))

        digests, ledgers = [], []
        for n_jobs in (1, 2):
            reset_ledger()
            calls.clear()
            report = serve_scenario(
                spec=ClusterSpec(num_hservers=2, num_sservers=2),
                tenants=8,
                max_active=4,
                n_jobs=n_jobs,
            )
            assert {t.klass for t in report.tenants} == {"hot", "tail"}
            assert calls == {"IORWorkload": 1, "CheckpointWorkload": 1}
            digests.append(report.digest())
            ledgers.append(ledger().snapshot())
        assert digests[0] == digests[1]
        assert compare_ledgers(*ledgers, "jobs1", "jobs2") == []
        ior = f"{SeedDomain.IOR.value}|0"
        for snapshot in ledgers:
            assert snapshot[ior]["derivations"] == 1
            assert snapshot[ior]["draws"] == 1


class TestServeDigestPinned:
    """Regression pin for the registry migration (this PR).

    Moving faults/workloads/arrivals/aal off ``default_rng([seed, k])``
    list-seeding onto ``derive_seed`` changed every derived stream, so
    serve digests changed exactly once, in this PR.  This pin is the
    new baseline: any future change to the derivation (domain tags,
    hashing, index encoding) must update it *consciously*.
    """

    PINNED = "cacf89c47fa3bfb5fb85244a6481d4d5a5d03a3b6305ac57ac606ef96d075f0f"

    def test_small_serve_digest(self):
        from repro.cluster import ClusterSpec
        from repro.tenancy import serve_scenario

        report = serve_scenario(
            spec=ClusterSpec(num_hservers=2, num_sservers=2),
            tenants=8,
            max_active=4,
            n_jobs=1,
        )
        assert report.digest() == self.PINNED


class TestServeFleetDigestsPinned:
    """Full-size fleets on the default cluster, serially.

    The 8-tenant pin above runs a 2+2 cluster; these run the standard
    ``make_tenants`` mix at 64, 250 and 1,000 tenants, so a change to
    how the fleet is built, merged or replayed at scale must move them
    consciously.  The 250-tenant digest equals the end-to-end
    benchmark's ``serve-250`` pin.
    """

    #: tenants -> (max_active, digest)
    PINNED = {
        64: (16, "a0365985d7d34bdbb5dadbbdbe7ed02d85ec6695e17109ee2d9c434134c32989"),
        250: (64, "6649798da160cba4fd9d0e4fa7b4d612ab488f91039c12fd19276d2a750ffab6"),
        1000: (64, "6d8aec0d6cd0c66d89d1d98e6568c793211bfc9df7d3d13a037e9322b95cad28"),
    }

    @pytest.mark.parametrize("tenants", sorted(PINNED))
    def test_fleet_digest(self, tenants):
        from repro.cluster import ClusterSpec
        from repro.tenancy import serve_scenario

        max_active, pinned = self.PINNED[tenants]
        report = serve_scenario(
            ClusterSpec(), tenants=tenants, max_active=max_active, n_jobs=1
        )
        assert report.digest() == pinned


class TestChaosDigestPinned:
    """Regression pin for the chaos harness.

    Every replay takes the columnar trace, so this digest is also what
    the record-path replay produced before it was deleted; it must only
    ever move consciously.
    """

    PINNED = "3bb060489f6176a5076ed506efbb49cb85eb6fc19f8bb7dc79b3a55424c9a77c"
    #: the straggler-aware schemes, whose dispatch feeds on completion
    #: times; computed on the event engine
    PINNED_SAW = "4e63b490e292e7adf5056c03c07be8da5344f2d897975322738f8ecdb78ca9d1"

    def test_small_chaos_digest(self):
        from repro.harness.chaos import chaos_experiment

        report = chaos_experiment(intensities=(0.5,), schemes=("DEF", "MHA"))
        assert report.digest() == self.PINNED

    def test_small_chaos_digest_straggler_aware(self):
        from repro.harness.chaos import chaos_experiment

        report = chaos_experiment(intensities=(0.5,), schemes=("SAW", "MHA+SAW"))
        assert report.digest() == self.PINNED_SAW


class TestReplayLongDigestPinned:
    """The end-to-end benchmark's ``replay-long`` run at seed 0.

    An IOR profile (32 ranks, 16+64 KiB requests, 32 MiB) tiled 20
    times, passes alternating write and read, replayed by DEF, MHA and
    MHA+SAW under slowdown and scrub faults with latencies kept.  The
    digest hashes each run's metrics as the benchmark's check does, so
    it equals the benchmark's ``replay-long`` pin; the MHA+SAW view's
    redirect counters and its redirect table, entry by entry, are
    pinned beside it.
    """

    PINNED = "6aa0e0ad46aa45b21b83df8817f14fc8c221889ed4f651eeebc5cfeeeb878a74"
    PINNED_DRT = "0ee9a5b87a264d5f336ae8b3537a8f4b29c6e67e8bc13b825bfcda660c036703"
    PASSES = 20

    @staticmethod
    def _hash_metrics(hasher, m):
        hasher.update(
            f"{m.makespan!r}|{m.total_bytes}|{m.requests}|{m.read_bytes}|"
            f"{m.write_bytes}|{[repr(b) for b in m.per_server_busy]}|"
            f"{m.per_server_bytes}\n".encode()
        )
        hasher.update(np.asarray(m.latencies, dtype=np.float64).tobytes())
        hasher.update(np.asarray(m.latency_ranks, dtype=np.int64).tobytes())

    def test_replay_long_digest(self):
        import hashlib

        from repro.cluster import ClusterSpec
        from repro.config import DEFAULT_FAULT_SEED
        from repro.harness.chaos import chaos_fault_plan
        from repro.pfs.replay import run_workload
        from repro.schemes.registry import make_scheme
        from repro.tracing.columnar import OP_NAMES, ColumnarTrace
        from repro.units import KiB, MiB
        from repro.workloads.base import PHASE_GAP
        from repro.workloads.ior import IORWorkload

        spec = ClusterSpec()
        profile = IORWorkload(
            num_processes=32,
            request_sizes=[16 * KiB, 64 * KiB],
            total_size=32 * MiB,
            seed=0,
        ).columnar("write")
        base = profile.data
        period = float(base["timestamp"].max()) + PHASE_GAP
        tiles = []
        for p in range(self.PASSES):
            tile = base.copy()
            tile["op"] = OP_NAMES.index("write" if p % 2 == 0 else "read")
            tile["timestamp"] += p * period
            tiles.append(tile)
        replay = ColumnarTrace(np.concatenate(tiles), profile.interned_files)
        plan = chaos_fault_plan(spec, 0.5, seed=DEFAULT_FAULT_SEED)
        hasher = hashlib.sha256()
        for name in ("DEF", "MHA", "MHA+SAW"):
            view = make_scheme(name).build(spec, profile)
            metrics = run_workload(
                spec, view, replay, fault_plan=plan, keep_latencies=True
            )
            assert metrics.requests == len(replay)
            hasher.update(name.encode())
            self._hash_metrics(hasher, metrics)
        # the last view is MHA+SAW's
        assert view.replicated_bytes == 11_730_944
        assert view.redirected_fragments == 2_348
        assert hasher.hexdigest() == self.PINNED
        entries = list(view._drt)
        assert len(entries) == 2_348
        table = "".join(
            f"{e.o_file},{e.o_offset},{e.length},{e.r_file},{e.r_offset}\n"
            for e in entries
        )
        assert hashlib.sha256(table.encode()).hexdigest() == self.PINNED_DRT
