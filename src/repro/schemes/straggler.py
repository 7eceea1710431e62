"""Straggler-aware dispatch: a client-side competitor/composition scheme.

The paper's schemes assume servers are only *statically* heterogeneous
(HDD vs SSD); the straggler literature (Tavakoli/Dai/Chen, PAPERS.md)
adds the dynamic case — servers that are temporarily slow (GC pauses,
scrubs, rebuilds, write cliffs).  :class:`StragglerAwareScheme` wraps
any base scheme (DEF by default, MHA for the composed ``MHA+SAW``
variant) with a client-side dispatcher that:

* maintains a per-server **latency EWMA** (:class:`LatencyEWMA`) fed by
  completion-time observations (the ``observe_latency`` hook the event
  replay engine wires through ``HybridPFS.issue`` — a dispatcher only
  ever learns from sub-requests that already finished);
* classifies a server as a **straggler** when its estimate exceeds
  ``threshold`` × the median estimate across sampled servers;
* **redirects writes** away from stragglers into per-target overflow
  objects, bounded by a byte budget (the "bounded replication" knob:
  the redirected extent's authoritative replica lives on the chosen
  healthy server; a :class:`~repro.core.drt.DRT` records the move so
  later reads and re-writes are steered to it);
* **reorders sub-request dispatch** slowest-server-first.  The replay
  client issues a request's sub-requests at one simulated instant, so
  this ordering cannot change finish times here (simultaneous issue
  already subsumes the overlap benefit reordering buys a serial
  client); it is kept as an explicit, observable dispatch policy — the
  completion list and event order follow it.

Both replay engines drive the view.  Its mapping depends on latency
observations accumulated during the replay, so neither may map a
request before it issues; the flat kernel premaps every request once
through :meth:`StragglerAwareView.merged_runs` and re-checks each at
issue time with :meth:`StragglerAwareView.dispatch_runs`.  That keeps
the premapped runs while no redirect covers the request, and serves a
covered request from a memo of covered extents: redirects are only
ever added and never overlap, so an extent's mapping stays the same
while the number of redirects overlapping it does.  Writes that could
be redirected take the event engine's path,
:meth:`StragglerAwareView.dispatch_request`, which refreshes the memo
entry of each extent it redirects.
"""

from __future__ import annotations

import math
from bisect import insort
from numbers import Integral
from typing import Sequence

import numpy as np

from ..cluster import ClusterSpec
from ..contracts import twin_of
from ..core.drt import DRT, DRTEntry
from ..exceptions import ConfigurationError
from ..layouts.base import SubRequest
from ..layouts.batch import (
    MergedRuns,
    in_request_order,
    merge_fragments,
    runs_from_fragments,
)
from ..tracing.record import Trace
from .base import Scheme
from .catalog import make_scheme

__all__ = [
    "DEFAULT_EWMA_ALPHA",
    "DEFAULT_MIN_SAMPLES",
    "DEFAULT_REPLICATION_FRACTION",
    "DEFAULT_STRAGGLER_THRESHOLD",
    "LatencyEWMA",
    "StragglerAwareScheme",
    "StragglerAwareView",
]

#: EWMA smoothing weight for new latency observations
DEFAULT_EWMA_ALPHA = 0.3
#: straggler test: estimate > threshold * median(estimates)
DEFAULT_STRAGGLER_THRESHOLD = 1.5
#: observations a server needs before it can be classified at all
DEFAULT_MIN_SAMPLES = 4
#: default write-redirection budget, as a fraction of the trace's bytes
DEFAULT_REPLICATION_FRACTION = 0.5

#: overflow objects are named per target server and can never collide
#: with application file names (the replay namespace has no "~" files)
_OVERFLOW_PREFIX = "~saw"


def _check_ewma(alpha: float, half_life: float | None) -> None:
    """The EWMA settings: ``alpha`` in (0, 1], ``half_life`` ``None`` or
    finite and positive."""
    if not 0 < alpha <= 1:
        raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
    if half_life is not None and not 0 < half_life < math.inf:
        raise ConfigurationError(
            f"half_life must be None or finite and > 0, got {half_life}"
        )


def _check_classifier(threshold: float, min_samples: int) -> None:
    """The straggler test's settings: ``threshold`` finite and >= 1,
    ``min_samples`` an int >= 1 (NaN or infinite thresholds would
    silently classify nothing)."""
    if not 1 <= threshold < math.inf:
        raise ConfigurationError(
            f"threshold must be finite and >= 1, got {threshold}"
        )
    _check_min_samples(min_samples)


def _check_min_samples(min_samples: int) -> None:
    """``min_samples`` must be an int >= 1."""
    # bool is an int subclass; reject it
    if (
        isinstance(min_samples, bool)
        or not isinstance(min_samples, Integral)
        or min_samples < 1
    ):
        raise ConfigurationError(
            f"min_samples must be an int >= 1, got {min_samples!r}"
        )


class LatencyEWMA:
    """Per-server latency estimates: EWMA update plus staleness decay.

    ``observe`` folds a new sample in with weight ``alpha`` (the first
    sample initializes the mean).  ``estimate`` optionally decays the
    stored mean toward zero with half-life ``half_life`` seconds of
    *silence* — a server nobody has heard from recently drifts back
    toward "presumed healthy" and gets retried, which is what lets the
    dispatcher notice a straggler recovering.  ``half_life=None``
    disables decay.  :meth:`sampled` lists the servers with at least
    ``min_samples`` observations.
    """

    def __init__(
        self,
        num_servers: int,
        alpha: float = DEFAULT_EWMA_ALPHA,
        half_life: float | None = None,
        min_samples: int = 1,
    ) -> None:
        if num_servers <= 0:
            raise ConfigurationError("num_servers must be > 0")
        _check_ewma(alpha, half_life)
        _check_min_samples(min_samples)
        self.alpha = alpha
        self.half_life = half_life
        self.min_samples = min_samples
        self._mean = [0.0] * num_servers
        self._count = [0] * num_servers
        self._stamp = [0.0] * num_servers
        # counts only grow, so a server joins once, when its count
        # reaches min_samples
        self._sampled: list[int] = []

    def __len__(self) -> int:
        return len(self._mean)

    def observe(self, server: int, latency: float, now: float) -> None:
        """Fold one completed sub-request's latency into the estimate."""
        if self._count[server] == 0:
            self._mean[server] = latency
        else:
            self._mean[server] += self.alpha * (latency - self._mean[server])
        self._count[server] += 1
        if self._count[server] == self.min_samples:
            insort(self._sampled, server)
        if now > self._stamp[server]:
            self._stamp[server] = now

    def count(self, server: int) -> int:
        """Observations folded into ``server``'s estimate so far."""
        return self._count[server]

    def sampled(self) -> list[int]:
        """The servers with at least ``min_samples`` observations, in
        index order (the list itself: do not modify it)."""
        return self._sampled

    def estimate(self, server: int, now: float) -> float:
        """The (possibly decayed) latency estimate at time ``now``."""
        mean = self._mean[server]
        if self.half_life is None:
            return mean
        age = now - self._stamp[server]
        if age <= 0:
            return mean
        return mean * 0.5 ** (age / self.half_life)

    def estimates(self, now: float) -> list[float]:
        """All per-server estimates at time ``now``."""
        return [self.estimate(server, now) for server in range(len(self._mean))]


class StragglerAwareView:
    """Runtime dispatcher wrapping a base scheme's file view.

    See the module docstring for the policy.  The view exposes the
    protocols the replay engines probe for:

    * ``map_request`` — read-semantics mapping (follow existing
      redirects, never create new ones); this is also what external
      tools resolving the view see.  ``merged_runs`` is its batch form,
      the flat kernel's premap;
    * ``dispatch_request(op, file, offset, length)`` — the op-aware
      path the event replay uses: writes may be redirected away from
      stragglers, and the returned runs are pre-merged and ordered
      slowest-server-first (dispatch order).  ``dispatch_runs`` is the
      flat kernel's form, which reuses a premapped request's runs;
    * ``observe_latency(server, latency, finish)`` — completion-time
      feedback updating the EWMAs.
    """

    def __init__(
        self,
        inner,
        num_servers: int,
        *,
        replication_budget: int,
        alpha: float = DEFAULT_EWMA_ALPHA,
        half_life: float | None = None,
        threshold: float = DEFAULT_STRAGGLER_THRESHOLD,
        min_samples: int = DEFAULT_MIN_SAMPLES,
    ) -> None:
        _check_classifier(threshold, min_samples)
        if replication_budget < 0:
            raise ConfigurationError("replication_budget must be >= 0")
        self.inner = inner
        self.ewma = LatencyEWMA(
            num_servers, alpha=alpha, half_life=half_life, min_samples=min_samples
        )
        self.threshold = threshold
        self.replication_budget = int(replication_budget)
        #: bytes redirected so far (never exceeds the budget)
        self.replicated_bytes = 0
        #: count of redirected stripe fragments
        self.redirected_fragments = 0
        self._num_servers = num_servers
        self._drt = DRT()
        self._overflow_server: dict[str, int] = {}
        self._overflow_cursor: dict[str, int] = {}
        # covered extents: (file, offset, length) -> (redirects
        # overlapping the extent, its read-semantics merged runs, its
        # base-view fragments)
        self._covered: dict[
            tuple[str, int, int], tuple[int, list[SubRequest], list[SubRequest]]
        ] = {}
        # latest completion time observed — "now" for estimate decay
        self._now = 0.0

    @property
    def min_samples(self) -> int:
        """Observations a server needs before it can be classified."""
        return self.ewma.min_samples

    # -- feedback --------------------------------------------------------

    def observe_latency(self, server: int, latency: float, finish: float) -> None:
        """Completion-time hook wired through ``HybridPFS.issue``."""
        if finish > self._now:
            self._now = finish
        self.ewma.observe(server, latency, finish)

    # -- classification --------------------------------------------------

    def stragglers(self) -> set[int]:
        """Servers currently classified as stragglers.

        A server qualifies once it has ``min_samples`` observations and
        its estimate exceeds ``threshold`` × the median estimate over
        all sampled servers (at least two servers must be sampled — a
        lone estimate has nothing to be slow *relative to*).
        """
        return self._stragglers_in(self.ewma.sampled())

    def _stragglers_in(self, servers: Sequence[int]) -> set[int]:
        """The stragglers among ``servers``: only those are tested
        against the cut, ``threshold`` × the sampled median."""
        ewma = self.ewma
        sampled = ewma.sampled()
        if len(sampled) < 2:
            return set()
        now = self._now
        estimate = ewma.estimate
        median = sorted([estimate(s, now) for s in sampled])[(len(sampled) - 1) // 2]
        if median <= 0:
            return set()
        cut = self.threshold * median
        return {
            s
            for s in servers
            if ewma.count(s) >= ewma.min_samples and estimate(s, now) > cut
        }

    def _pick_target(self, stragglers: set[int]) -> int | None:
        """The healthy server with the lowest estimate (ties: lowest
        index); ``None`` when every server is straggling."""
        best: int | None = None
        best_estimate = 0.0
        for server in range(self._num_servers):
            if server in stragglers:
                continue
            estimate = self.ewma.estimate(server, self._now)
            if best is None or estimate < best_estimate:
                best = server
                best_estimate = estimate
        return best

    # -- mapping ---------------------------------------------------------

    def _overflow_fragment(self, piece) -> SubRequest:
        return SubRequest(
            server=self._overflow_server[piece.file],
            obj=piece.file,
            offset=piece.offset,
            length=piece.length,
            logical_offset=piece.logical_offset,
        )

    def _map(
        self, file: str, offset: int, length: int
    ) -> tuple[list[SubRequest], list[int]]:
        """Translate a request through the redirect table and map the
        pieces no redirect covers through the base view.

        Returns the fragments and the positions of the base view's
        among them, the only ones a write may redirect.
        """
        fragments: list[SubRequest] = []
        base: list[int] = []
        for piece in self._drt.translate(file, offset, length):
            if piece.mapped:
                fragments.append(self._overflow_fragment(piece))
            else:
                mapped = self.inner.map_request(file, piece.offset, piece.length)
                base.extend(range(len(fragments), len(fragments) + len(mapped)))
                fragments.extend(mapped)
        return fragments, base

    def map_request(self, file: str, offset: int, length: int) -> list[SubRequest]:
        """Read-semantics mapping: steer through existing redirects,
        fall through to the base scheme elsewhere; never redirects."""
        return self._map(file, offset, length)[0]

    @twin_of(
        "repro.schemes.straggler:StragglerAwareView.map_request",
        kind="reduction",
        param_map={"offset": "offsets", "length": "lengths"},
        harness="saw_runs",
    )
    def merged_runs(
        self, file: str, offsets: Sequence[int], lengths: Sequence[int]
    ) -> MergedRuns:
        """Batch :meth:`map_request` for one file, as merged runs.

        Requests no redirect covers go through the base view's batch
        mapper in one call; the others take :meth:`map_request`.
        """
        batch = self.inner.merged_runs
        off = np.asarray(offsets, dtype=np.int64).reshape(-1)
        lng = np.asarray(lengths, dtype=np.int64).reshape(-1)
        covered: list[int] = []
        if len(self._drt):
            overlaps = self._drt.overlaps
            covered = [
                k
                for k, (o, n) in enumerate(zip(off.tolist(), lng.tolist()))
                if overlaps(file, o, n)
            ]
        if not covered:
            return batch(file, off, lng)
        keep = np.ones(off.size, dtype=bool)
        keep[covered] = False
        items = np.flatnonzero(keep)
        uncovered = batch(file, off[items], lng[items])
        redirected = MergedRuns.concat(
            [
                runs_from_fragments(self.map_request(file, int(off[k]), int(lng[k])))
                for k in covered
            ]
        )
        return in_request_order([uncovered, redirected], [items, covered])

    def _redirect(self, file: str, frag: SubRequest, target: int) -> SubRequest:
        """Move one write fragment to ``target``'s overflow object and
        record the relocation in the DRT."""
        obj = f"{_OVERFLOW_PREFIX}{target}"
        cursor = self._overflow_cursor.get(obj, 0)
        self._drt.add(
            DRTEntry(
                o_file=file,
                o_offset=frag.logical_offset,
                length=frag.length,
                r_file=obj,
                r_offset=cursor,
            )
        )
        self._overflow_server[obj] = target
        self._overflow_cursor[obj] = cursor + frag.length
        self.replicated_bytes += frag.length
        self.redirected_fragments += 1
        return SubRequest(
            server=target,
            obj=obj,
            offset=cursor,
            length=frag.length,
            logical_offset=frag.logical_offset,
        )

    def dispatch_request(
        self, op: str, file: str, offset: int, length: int
    ) -> list[SubRequest]:
        """Op-aware dispatch: merged runs, slowest-server-first.

        Writes targeting a straggler are redirected to the healthiest
        server while the replication budget lasts; reads (and writes
        of already-redirected extents) are steered through the DRT.
        """
        fragments, base = self._map(file, offset, length)
        moved = False
        left: list[SubRequest] = []
        if op == "write":
            stragglers = self.stragglers()
            target = self._pick_target(stragglers) if stragglers else None
            if target is not None:
                for j in base:
                    frag = fragments[j]
                    if (
                        frag.server in stragglers
                        and self.replication_budget - self.replicated_bytes
                        >= frag.length
                    ):
                        fragments[j] = self._redirect(file, frag, target)
                        moved = True
                    else:
                        left.append(frag)
        merged = merge_fragments(fragments)
        if moved:  # the extent's new mapping: refresh its memo entry
            covering = self._drt.overlaps(file, offset, length)
            self._covered[(file, offset, length)] = (covering, merged, left)
        return self._ordered(merged)

    def _covered_runs(
        self, op: str, file: str, offset: int, length: int, covering: int
    ) -> list[SubRequest]:
        """:meth:`dispatch_request` for a request that ``covering``
        redirects overlap, served from the memo of covered extents.

        An entry, keyed by ``(file, offset, length)``, holds the
        extent's read-semantics merged runs and its base-view
        fragments, tagged with the overlap count it was built at.
        Redirects are only ever added and never overlap, so the
        extent's mapping changes exactly when that count does, and a
        stale entry is rebuilt; :meth:`dispatch_request` stores the
        entry of an extent it redirects.  Reads take the memoized runs,
        and so do writes none of whose base fragments can be redirected
        now: there is no healthy target, none sits on a straggler, or
        the budget left is below each one's length.  A write that will
        redirect goes through :meth:`dispatch_request`.
        """
        key = (file, offset, length)
        memo = self._covered.get(key)
        if memo is None or memo[0] != covering:
            fragments, base = self._map(file, offset, length)
            memo = (
                covering,
                merge_fragments(fragments),
                [fragments[j] for j in base],
            )
            self._covered[key] = memo
        _, merged, base = memo
        if op == "write" and self.replicated_bytes < self.replication_budget:
            left = self.replication_budget - self.replicated_bytes
            stragglers = self.stragglers()
            if (
                any(f.server in stragglers and f.length <= left for f in base)
                and self._pick_target(stragglers) is not None
            ):
                return self.dispatch_request(op, file, offset, length)
        return self._ordered(merged)

    @twin_of(
        "repro.schemes.straggler:StragglerAwareView.dispatch_request",
        twin_only=("premapped", "item"),
        harness="saw_dispatch",
    )
    def dispatch_runs(
        self,
        op: str,
        file: str,
        offset: int,
        length: int,
        premapped: MergedRuns,
        item: int,
    ) -> tuple[list[int], list[int]]:
        """:meth:`dispatch_request` for a request already mapped, as
        the two columns a run's service time depends on.

        ``premapped`` is the batch :meth:`merged_runs` mapped and
        ``item`` the request's index in it; its runs stay valid while
        no redirect covers the request.  Returns the runs to submit as
        ``(servers, lengths)`` columns, in dispatch order.  A request
        that a redirect covers now takes its runs from the memo of
        covered extents (see :meth:`_covered_runs`), and a write with a
        run on a straggler while budget remains goes through
        :meth:`dispatch_request`; only memo misses and that fallback
        build :class:`SubRequest` objects.
        """
        lo = premapped.starts[item]
        hi = premapped.starts[item + 1]
        servers = premapped.servers
        covering = self._drt.overlaps(file, offset, length)
        if covering:
            return _server_lengths(
                self._covered_runs(op, file, offset, length, covering)
            )
        if (
            op == "write"
            and self.replicated_bytes < self.replication_budget
            and self._stragglers_in(servers[lo:hi])
        ):
            return _server_lengths(self.dispatch_request(op, file, offset, length))
        lengths = premapped.lengths
        if hi - lo == 1:
            return [servers[lo]], [lengths[lo]]
        now = self._now
        estimate = self.ewma.estimate
        if hi - lo == 2:
            # what the stable sort below does to two runs
            if estimate(servers[lo + 1], now) > estimate(servers[lo], now):
                return [servers[lo + 1], servers[lo]], [lengths[lo + 1], lengths[lo]]
            return servers[lo:hi], lengths[lo:hi]
        # stable, like :meth:`_ordered`
        order = sorted(range(lo, hi), key=lambda j: -estimate(servers[j], now))
        return [servers[j] for j in order], [lengths[j] for j in order]

    def _ordered(self, merged: list[SubRequest]) -> list[SubRequest]:
        """Dispatch order: slowest estimated server first (stable, so
        equal-estimate runs keep the merge's logical order)."""
        if len(merged) < 2:
            return merged
        now = self._now
        estimate = self.ewma.estimate
        return sorted(merged, key=lambda f: -estimate(f.server, now))


def _server_lengths(runs: list[SubRequest]) -> tuple[list[int], list[int]]:
    """Runs as :meth:`StragglerAwareView.dispatch_runs` columns."""
    return [run.server for run in runs], [run.length for run in runs]


class StragglerAwareScheme(Scheme):
    """Wrap a base scheme with the straggler-aware dispatcher.

    ``base`` names any registered scheme ("DEF" by default; "MHA"
    composes the dispatcher with the migratory layout — the registry's
    ``MHA+SAW``).  The replication budget is
    ``replication_fraction`` × the profile trace's total bytes.
    """

    name = "SAW"

    def __init__(
        self,
        base: str = "DEF",
        *,
        alpha: float = DEFAULT_EWMA_ALPHA,
        half_life: float | None = None,
        threshold: float = DEFAULT_STRAGGLER_THRESHOLD,
        min_samples: int = DEFAULT_MIN_SAMPLES,
        replication_fraction: float = DEFAULT_REPLICATION_FRACTION,
        base_kwargs: dict | None = None,
    ) -> None:
        _check_ewma(alpha, half_life)
        _check_classifier(threshold, min_samples)
        if not 0 <= replication_fraction < math.inf:
            raise ConfigurationError(
                "replication_fraction must be finite and >= 0, "
                f"got {replication_fraction}"
            )
        self.base = base
        self.alpha = alpha
        self.half_life = half_life
        self.threshold = threshold
        self.min_samples = min_samples
        self.replication_fraction = replication_fraction
        self.base_kwargs = dict(base_kwargs or {})
        upper = base.upper()
        if upper != "DEF":
            self.name = f"{upper}+SAW"

    def build(self, spec: ClusterSpec, trace: Trace) -> StragglerAwareView:
        inner = make_scheme(self.base, **self.base_kwargs).build(spec, trace)
        budget = int(self.replication_fraction * trace.total_bytes())
        return StragglerAwareView(
            inner,
            spec.num_servers,
            replication_budget=budget,
            alpha=self.alpha,
            half_life=self.half_life,
            threshold=self.threshold,
            min_samples=self.min_samples,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(base={self.base!r})"
