"""Central seed lineage: every RNG stream is derived, never improvised.

The reproduction's headline guarantees — bit-identical sharded vs
serial builds, flat vs event replay, double-run ``serve``/``chaos``
digests — all reduce to one discipline: every random stream must be
(a) derived from a *named* root seed, (b) independent of every other
stream, and (c) re-derivable inside any worker process from a plain
picklable spec.  Before this module, each subsystem improvised its own
derivation (``default_rng([seed, index])`` list-seeding in ``faults/``,
``workloads/arrivals.py``, …), and nothing prevented two subsystems
from landing on the same lineage.

:func:`derive_seed` replaces the ad-hoc derivations with one collision-
free construction: a SHA-256 over the :class:`SeedDomain` tag, the
root ``base`` seed, and the integer ``indices``.  Distinct
``(domain, base, indices)`` tuples map to distinct 64-bit seeds unless
SHA-256 itself collides, so streams from different domains (or
different indices within one domain) can never alias the way two
``[seed, k]`` lists with an overlapping prefix could.
:func:`derive_rng` is the companion constructor — the only sanctioned
way to build a generator in the seeded subsystems, enforced statically
by repro-lint's RL201.

Runtime sanitizer
-----------------

``REPRO_SANITIZE=1`` arms a recording hook: every :func:`derive_seed`
call appends its lineage to a process-local :class:`Ledger`, and every
generator built by :func:`derive_rng` counts its draws against that
lineage.  :func:`repro.core.parallel.parallel_map` merges worker
ledgers back into the parent, so a sharded run's ledger is comparable
to a serial run's.  ``REPRO_SANITIZE_OUT=<path>`` writes the ledger as
JSON at interpreter exit; ``python -m tools.repro_lint sanitize-report
a.json b.json`` diffs two ledgers and fails on any lineage collision or
draw-count divergence — the dynamic complement to RL201/RL202's
conservative static proof.
"""

from __future__ import annotations

import atexit
import enum
import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from typing import Any, cast

import numpy as np

__all__ = [
    "Ledger",
    "LedgerEntry",
    "SANITIZE_ENV_VAR",
    "SANITIZE_OUT_ENV_VAR",
    "SeedDomain",
    "derive_rng",
    "derive_seed",
    "ledger",
    "reset_ledger",
    "sanitize_enabled",
    "write_ledger",
]

#: set to ``1`` to record seed lineages and draw counts
SANITIZE_ENV_VAR = "REPRO_SANITIZE"
#: path the armed ledger is written to at interpreter exit
SANITIZE_OUT_ENV_VAR = "REPRO_SANITIZE_OUT"


class SeedDomain(enum.Enum):
    """One tag per independent family of RNG consumers.

    The tag string is hashed into every seed the domain derives, so two
    domains can never produce overlapping streams.  Tags are frozen
    vocabulary: renaming one changes every stream it feeds (and every
    digest downstream), so add new domains instead of repurposing old
    ones, and give every *call site* its own ``(domain, index-arity)``
    lineage — repro-lint's RL202 rejects two call sites sharing one.
    """

    #: trace subsampling in the planning pipeline (AAL stripe search)
    SAMPLE = "sample"
    #: fault-plan compilation; index = model position in the plan
    FAULTS = "faults"
    #: tenant Poisson arrival rewrites; index = tenant/stream id
    ARRIVALS = "arrivals"
    #: IOR request-slot shuffling
    IOR = "workload.ior"
    #: Cholesky panel-size schedule
    CHOLESKY = "workload.cholesky"


def derive_seed(domain: SeedDomain, *indices: int, base: int = 0) -> int:
    """A 64-bit seed, unique per ``(domain, base, indices)`` lineage.

    SHA-256 over the domain tag, the root ``base`` seed, and the
    indices, each length-delimited so ``(1, 23)`` and ``(12, 3)`` can
    never serialize alike.  Collision-free by construction: distinct
    lineages produce distinct seeds up to SHA-256 collisions.
    """
    return _derive_seed(domain, indices, base, sanitize_enabled())


def _derive_seed(
    domain: SeedDomain, indices: tuple[int, ...], base: int, sanitize: bool
) -> int:
    """:func:`derive_seed`, recording the lineage when ``sanitize``."""
    hasher = hashlib.sha256()
    payload = "|".join([domain.value, str(int(base)), *map(str, map(int, indices))])
    hasher.update(payload.encode("ascii"))
    seed = int.from_bytes(hasher.digest()[:8], "big")
    if sanitize:
        _LEDGER.record(domain.value, tuple(int(i) for i in indices), int(base), seed)
    return seed


def derive_rng(
    domain: SeedDomain, *indices: int, base: int = 0
) -> np.random.Generator:
    """The sanctioned generator constructor for seeded subsystems.

    Equivalent to ``np.random.default_rng(derive_seed(...))``; under
    ``REPRO_SANITIZE=1`` the generator is wrapped so every draw is
    counted against its lineage in the process ledger.
    """
    sanitize = sanitize_enabled()
    rng = np.random.default_rng(_derive_seed(domain, indices, base, sanitize))
    if sanitize:
        key = _lineage_key(
            domain.value, tuple(int(i) for i in indices), int(base)
        )
        return cast(np.random.Generator, _TracingGenerator(rng, key))
    return rng


def sanitize_enabled() -> bool:
    """Whether the recording hook is armed (``REPRO_SANITIZE=1``)."""
    return os.environ.get(SANITIZE_ENV_VAR, "").strip() == "1"


# -- the ledger -----------------------------------------------------------


def _lineage_key(domain: str, indices: tuple[int, ...], base: int) -> str:
    return "|".join([domain, str(base), *map(str, indices)])


@dataclass
class LedgerEntry:
    """One lineage's record: the derived seed and its draw traffic."""

    seed: int
    #: times the lineage was derived (re-derivation in workers is normal)
    derivations: int = 0
    #: generator method calls charged to this lineage
    draws: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "seed": self.seed,
            "derivations": self.derivations,
            "draws": self.draws,
        }


class Ledger:
    """Thread-safe map of lineage key -> :class:`LedgerEntry`."""

    def __init__(self) -> None:
        self._entries: dict[str, LedgerEntry] = {}
        self._lock = threading.Lock()

    def record(
        self, domain: str, indices: tuple[int, ...], base: int, seed: int
    ) -> None:
        key = _lineage_key(domain, indices, base)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = LedgerEntry(seed=seed)
            entry.derivations += 1

    def count_draw(self, key: str) -> None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                entry.draws += 1

    def merge(self, entries: dict[str, dict[str, int]]) -> None:
        """Fold a worker's serialized ledger into this one."""
        with self._lock:
            for key, payload in entries.items():
                entry = self._entries.get(key)
                if entry is None:
                    self._entries[key] = LedgerEntry(
                        seed=int(payload["seed"]),
                        derivations=int(payload.get("derivations", 0)),
                        draws=int(payload.get("draws", 0)),
                    )
                else:
                    entry.derivations += int(payload.get("derivations", 0))
                    entry.draws += int(payload.get("draws", 0))

    def snapshot(self) -> dict[str, dict[str, int]]:
        """A JSON-ready copy of every entry, keys sorted."""
        with self._lock:
            return {
                key: self._entries[key].to_dict()
                for key in sorted(self._entries)
            }

    def collisions(self) -> list[tuple[str, str]]:
        """Pairs of distinct lineages that derived the same seed."""
        with self._lock:
            by_seed: dict[int, str] = {}
            found: list[tuple[str, str]] = []
            for key in sorted(self._entries):
                seed = self._entries[key].seed
                if seed in by_seed:
                    found.append((by_seed[seed], key))
                else:
                    by_seed[seed] = key
            return found

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_LEDGER = Ledger()


def ledger() -> Ledger:
    """The process-local ledger (shared by workers' merge-backs)."""
    return _LEDGER


def reset_ledger() -> None:
    """Drop every recorded lineage (tests; per-item worker capture)."""
    _LEDGER.clear()


def write_ledger(path: str) -> None:
    """Serialize the ledger to ``path`` as JSON (sorted, stable)."""
    payload = {
        "version": 1,
        "entries": _LEDGER.snapshot(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


@dataclass
class _TracingGenerator:
    """Draw-counting proxy around ``np.random.Generator``.

    Forwards every attribute; callable attributes (the draw methods)
    are wrapped to charge one draw per call to the lineage key.  Only
    constructed under ``REPRO_SANITIZE=1``, so the seeded subsystems
    pay nothing in normal runs.
    """

    _rng: np.random.Generator
    _key: str = field(default="")

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._rng, name)
        if callable(attr):
            def traced(*args: Any, **kwargs: Any) -> Any:
                _LEDGER.count_draw(self._key)
                return attr(*args, **kwargs)

            return traced
        return attr


def _flush_at_exit() -> None:  # pragma: no cover - exercised via subprocess
    out = os.environ.get(SANITIZE_OUT_ENV_VAR, "").strip()
    if sanitize_enabled() and out:
        write_ledger(out)


atexit.register(_flush_at_exit)
