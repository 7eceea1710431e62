"""Straggler-aware dispatch: a client-side competitor/composition scheme.

The paper's schemes assume servers are only *statically* heterogeneous
(HDD vs SSD); the straggler literature (Tavakoli/Dai/Chen, PAPERS.md)
adds the dynamic case — servers that are temporarily slow (GC pauses,
scrubs, rebuilds, write cliffs).  :class:`StragglerAwareScheme` wraps
any base scheme (DEF by default, MHA for the composed ``MHA+SAW``
variant) with a client-side dispatcher that:

* maintains a per-server **latency EWMA** (:class:`LatencyEWMA`) fed by
  completion-time observations (the ``observe_latency`` hook, the
  EWMA's own ``observe``, which the event replay engine wires through
  ``HybridPFS.issue`` and the flat kernel calls per run — a dispatcher
  only ever learns from sub-requests that already finished);
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
issue time with :meth:`StragglerAwareView.dispatch_runs`, on plain int
columns.  The premap registers each distinct extent with the number of
redirects overlapping it, and every redirect keeps those counts
current, so a dispatch learns whether a redirect covers its request
from one lookup.  An uncovered request keeps its premapped runs; a
covered one is served from a memo of covered extents: redirects are
only ever added and never overlap, so an extent's mapping stays the
same while its count does.  A write that redirects maps its fragments
as columns, records each move with :meth:`~repro.core.drt.DRT.insert`
and stores its extent's memo entry.  The event engine's path,
:meth:`StragglerAwareView.dispatch_request`, works on
:class:`~repro.layouts.base.SubRequest` objects and is the reference
the flat form is tested against.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

from ..cluster import ClusterSpec
from ..contracts import twin_of
from ..core.drt import DRT
from ..core.redirector import distinct_extents
from ..exceptions import ConfigurationError, LayoutError
from ..layouts.base import FragmentColumns, SubRequest
from ..layouts.batch import (
    MergedRuns,
    in_request_order,
    merge_columns,
    merge_fragments,
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
        #: the latest observation time, "now" for estimate decay
        self.now = 0.0

    def __len__(self) -> int:
        return len(self._mean)

    def observe(self, server: int, latency: float, now: float) -> None:
        """Fold one completed sub-request's latency into the estimate."""
        count = self._count[server]
        if count == 0:
            self._mean[server] = latency
        else:
            self._mean[server] += self.alpha * (latency - self._mean[server])
        self._count[server] = count = count + 1
        if count == self.min_samples:
            insort(self._sampled, server)
        if now > self._stamp[server]:
            self._stamp[server] = now
            # no stamp is later than ``self.now``
            if now > self.now:
                self.now = now

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
        """All per-server estimates at time ``now``: without decay, the
        means themselves (the list itself: do not modify it)."""
        if self.half_life is None:
            return self._mean
        return [self.estimate(server, now) for server in range(len(self._mean))]


#: a request's extent, ``(file, offset, length)``
_Key = tuple[str, int, int]
#: a covered extent's memo entry: the redirects overlapping it when
#: built, its merged runs' servers and lengths, and its base-view
#: fragments' servers and lengths
_Memo = tuple[int, list[int], list[int], list[int], list[int]]


class _Extents:
    """One file's premapped extents of positive length whose lengths
    have one bit length, sorted: their keys, starts and ends, and the
    longest one's length.

    A redirect at ``offset`` walks the extents starting after ``offset
    - longest`` (:meth:`StragglerAwareView._redirect`).  The longest is
    under twice the shortest, so those the walk visits without
    overlapping the redirect start within one shortest length of each
    other and overlap one another: at most one when the file's requests
    do not overlap, however long its extents of other lengths are.
    """

    __slots__ = ("keys", "starts", "ends", "longest")

    def __init__(self, keys: list[_Key]) -> None:
        self.keys = keys
        self.starts = [offset for _, offset, _ in keys]
        self.ends = [offset + length for _, offset, length in keys]
        self.longest = max(length for _, _, length in keys)


class StragglerAwareView:
    """Runtime dispatcher wrapping a base scheme's file view.

    See the module docstring for the policy.  ``inner`` is a view with
    ``fragment_columns`` and ``merged_runs``
    (:class:`~repro.schemes.base.LayoutView`, the MHA
    :class:`~repro.core.redirector.Redirector`, or another
    straggler-aware view).  The view exposes the protocols the replay
    engines probe for:

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
        # premapped extents: the redirects overlapping each, kept
        # current at every redirect, and per file those of positive
        # length by bit length and offset, for the update
        self._counts: dict[_Key, int] = {}
        self._premapped: dict[str, dict[int, _Extents]] = {}
        # covered extents, see :meth:`_memo`
        self._covered: dict[_Key, _Memo] = {}

    @property
    def min_samples(self) -> int:
        """Observations a server needs before it can be classified."""
        return self.ewma.min_samples

    # -- feedback --------------------------------------------------------

    @property
    def observe_latency(self) -> Callable[[int, float, float], None]:
        """Completion-time hook ``(server, latency, finish)``, wired
        through ``HybridPFS.issue`` and the flat kernel: the EWMA's
        :meth:`LatencyEWMA.observe` itself, whose latest ``finish`` is
        the view's "now" for estimate decay."""
        return self.ewma.observe

    # -- classification --------------------------------------------------

    def stragglers(self) -> set[int]:
        """Servers currently classified as stragglers.

        A server qualifies once it has ``min_samples`` observations and
        its estimate exceeds ``threshold`` × the median estimate over
        all sampled servers (at least two servers must be sampled — a
        lone estimate has nothing to be slow *relative to*).
        """
        estimates, cut = self._cut()
        if cut is None:
            return set()
        return {s for s in self.ewma.sampled() if estimates[s] > cut}

    def _straggles(self, servers: Sequence[int]) -> bool:
        """Whether any of ``servers`` is a straggler: only those are
        tested against the cut."""
        estimates, cut = self._cut()
        if cut is not None:
            ewma = self.ewma
            for s in servers:
                if estimates[s] > cut and ewma.count(s) >= ewma.min_samples:
                    return True
        return False

    def _cut(self) -> tuple[list[float], float | None]:
        """The current estimates and the straggler cut, ``threshold`` ×
        the sampled servers' median estimate; the cut is ``None`` while
        fewer than two servers are sampled or the median is not
        positive."""
        ewma = self.ewma
        estimates = ewma.estimates(ewma.now)
        sampled = ewma.sampled()
        n = len(sampled)
        if n < 2:
            return estimates, None
        median = sorted([estimates[s] for s in sampled])[(n - 1) // 2]
        return estimates, self.threshold * median if median > 0 else None

    def _pick_target(self, stragglers: set[int]) -> int | None:
        """The healthy server with the lowest estimate (ties: lowest
        index); ``None`` when every server is straggling."""
        estimates = self.ewma.estimates(self.ewma.now)
        best: int | None = None
        best_estimate = 0.0
        for server in range(self._num_servers):
            if server in stragglers:
                continue
            if best is None or estimates[server] < best_estimate:
                best = server
                best_estimate = estimates[server]
        return best

    # -- mapping ---------------------------------------------------------

    def _map_columns(
        self, out: FragmentColumns, file: str, offset: int, length: int
    ) -> list[int]:
        """Translate a request through the redirect table and map the
        pieces no redirect covers through the base view, appending the
        fragments to ``out``.

        Returns the positions of the base view's fragments in ``out``,
        the only ones a write may redirect.
        """
        base: list[int] = []
        for piece in self._drt.translate(file, offset, length):
            if piece.mapped:
                out.servers.append(self._overflow_server[piece.file])
                out.objs.append(piece.file)
                out.offsets.append(piece.offset)
                out.lengths.append(piece.length)
                out.logicals.append(piece.logical_offset)
            else:
                at = len(out)
                self.inner.fragment_columns(out, file, piece.offset, piece.length)
                base.extend(range(at, len(out)))
        return base

    def _map(
        self, file: str, offset: int, length: int
    ) -> tuple[list[SubRequest], list[int]]:
        """:meth:`_map_columns` as :class:`SubRequest` objects."""
        out = FragmentColumns()
        base = self._map_columns(out, file, offset, length)
        return out.subrequests(), base

    def fragment_columns(
        self, out: FragmentColumns, file: str, offset: int, length: int
    ) -> None:
        """:meth:`map_request`'s fragments, appended to ``out``."""
        self._map_columns(out, file, offset, length)

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

        Registers the batch's extents with their redirect counts (see
        :meth:`_premap`).  Requests no redirect covers go through the
        base view's batch mapper in one call; the others take their
        runs from the memo of covered extents.
        """
        off = np.asarray(offsets, dtype=np.int64).reshape(-1)
        lng = np.asarray(lengths, dtype=np.int64).reshape(-1)
        if off.shape != lng.shape:
            raise LayoutError(
                f"offsets ({off.size}) and lengths ({lng.size}) must match"
            )
        counts = self._premap(file, off, lng)
        batch = self.inner.merged_runs
        covered = np.flatnonzero(counts)
        if not covered.size:
            return batch(file, off, lng)
        items = np.flatnonzero(counts == 0)
        uncovered = batch(file, off[items], lng[items])
        redirected = []
        for o, n, c in zip(*(a[covered].tolist() for a in (off, lng, counts))):
            _, servers, lengths, _, _ = self._memo((file, o, n), c)
            redirected.append(MergedRuns(servers, lengths, [0, len(servers)]))
        parts = [uncovered, MergedRuns.concat(redirected)]
        return in_request_order(parts, [items, covered])

    def _premap(self, file: str, off: np.ndarray, lng: np.ndarray) -> np.ndarray:
        """Each request's redirect count, with its extent registered.

        Each distinct extent's count starts from
        :meth:`~repro.core.drt.DRT.overlaps` (zero while the table is
        empty); from then on :meth:`_redirect` keeps it current, which
        makes a dispatch's count an O(1) lookup.
        """
        repeats = distinct_extents(off, lng)
        o, n = (off, lng) if repeats is None else (off[repeats[0]], lng[repeats[0]])
        keys = [(file, a, b) for a, b in zip(o.tolist(), n.tolist())]
        if len(self._drt):
            counts = [self._drt.overlaps(*key) for key in keys]
        else:
            counts = [0] * len(keys)
        fresh = [key for key in keys if key[2] > 0 and key not in self._counts]
        self._counts.update(zip(keys, counts))
        if fresh:
            classes = self._premapped.setdefault(file, {})
            grouped: dict[int, list[_Key]] = {}
            for key in fresh:
                grouped.setdefault(key[2].bit_length(), []).append(key)
            for bits, group in grouped.items():
                known = classes.get(bits)
                classes[bits] = _Extents(sorted(group + (known.keys if known else [])))
        column = np.array(counts, dtype=np.int64)
        return column if repeats is None else column[repeats[1]]

    def _covering(self, key: _Key) -> int:
        """How many redirects overlap extent ``key``: its kept count
        when it is premapped."""
        count = self._counts.get(key)
        return self._drt.overlaps(*key) if count is None else count

    def _memo(self, key: _Key, covering: int) -> _Memo:
        """The memo entry of covered extent ``key``, which ``covering``
        redirects overlap.

        An entry holds the extent's read-semantics merged runs and its
        base-view fragments, as server and length columns, tagged with
        the overlap count it was built at.  Redirects are only ever
        added and never overlap, so the extent's mapping changes
        exactly when that count does, and a stale entry is rebuilt; a
        redirecting write stores its extent's entry
        (:meth:`_redirect_runs`).
        """
        memo = self._covered.get(key)
        if memo is None or memo[0] != covering:
            file, offset, length = key
            fragments = FragmentColumns()
            base = self._map_columns(fragments, file, offset, length)
            merged = merge_columns(fragments)
            memo = self._covered[key] = (
                covering,
                merged.servers,
                merged.lengths,
                [fragments.servers[j] for j in base],
                [fragments.lengths[j] for j in base],
            )
        return memo

    def _redirect(
        self, file: str, offset: int, length: int, target: int
    ) -> tuple[str, int]:
        """Move the write fragment at logical ``offset`` of ``file`` to
        ``target``'s overflow object, recording the move in the DRT and
        in the count of every premapped extent it overlaps.

        Returns the overflow object and the fragment's offset in it.
        """
        obj = f"{_OVERFLOW_PREFIX}{target}"
        cursor = self._overflow_cursor.get(obj, 0)
        self._drt.insert(file, offset, length, obj, cursor)
        self._overflow_server[obj] = target
        self._overflow_cursor[obj] = cursor + length
        self.replicated_bytes += length
        self.redirected_fragments += 1
        for extents in self._premapped.get(file, {}).values():
            # an extent ending past ``offset`` starts after
            # ``offset - longest``
            lo = bisect_right(extents.starts, offset - extents.longest)
            hi = bisect_left(extents.starts, offset + length)
            for j in range(lo, hi):
                if extents.ends[j] > offset:
                    self._counts[extents.keys[j]] += 1
        return obj, cursor

    def dispatch_request(
        self, op: str, file: str, offset: int, length: int
    ) -> list[SubRequest]:
        """Op-aware dispatch: merged runs, slowest-server-first.

        Writes targeting a straggler are redirected to the healthiest
        server while the replication budget lasts; reads (and writes
        of already-redirected extents) are steered through the DRT.
        """
        fragments, base = self._map(file, offset, length)
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
                        obj, cursor = self._redirect(
                            file, frag.logical_offset, frag.length, target
                        )
                        fragments[j] = SubRequest(
                            target, obj, cursor, frag.length, frag.logical_offset
                        )
        return self._ordered(merge_fragments(fragments))

    def _redirect_runs(self, key: _Key) -> tuple[list[int], list[int]]:
        """:meth:`dispatch_request` for a write to extent ``key``, as
        :meth:`dispatch_runs`' columns; when it redirects, it stores the
        extent's memo entry."""
        file, offset, length = key
        fragments = FragmentColumns()
        base = self._map_columns(fragments, file, offset, length)
        stragglers = self.stragglers()
        target = self._pick_target(stragglers) if stragglers else None
        servers, objs, offsets = fragments.servers, fragments.objs, fragments.offsets
        lengths = fragments.lengths
        moved = False
        left_servers: list[int] = []
        left_lengths: list[int] = []
        if target is not None:
            for j in base:
                if (
                    servers[j] in stragglers
                    and self.replication_budget - self.replicated_bytes >= lengths[j]
                ):
                    objs[j], offsets[j] = self._redirect(
                        file, fragments.logicals[j], lengths[j], target
                    )
                    servers[j] = target
                    moved = True
                else:
                    left_servers.append(servers[j])
                    left_lengths.append(lengths[j])
        merged = merge_columns(fragments)
        if moved:
            self._covered[key] = (
                self._covering(key),
                merged.servers,
                merged.lengths,
                left_servers,
                left_lengths,
            )
        estimates = self.ewma.estimates(self.ewma.now)
        return _in_dispatch_order(
            merged.servers, merged.lengths, 0, len(merged), estimates
        )

    def _covered_runs(
        self, op: str, key: _Key, covering: int
    ) -> tuple[list[int], list[int]]:
        """:meth:`dispatch_runs` for a request that ``covering``
        redirects overlap, served from the memo of covered extents
        (:meth:`_memo`).

        Reads take the memoized runs, and so do writes none of whose
        base fragments can be redirected now: there is no healthy
        target, none sits on a straggler, or the budget left is below
        each one's length.  A write that will redirect goes through
        :meth:`_redirect_runs`.
        """
        _, servers, lengths, base_servers, base_lengths = self._memo(key, covering)
        if op == "write" and self.replicated_bytes < self.replication_budget:
            left = self.replication_budget - self.replicated_bytes
            stragglers = self.stragglers()
            if (
                any(
                    s in stragglers and n <= left
                    for s, n in zip(base_servers, base_lengths)
                )
                and self._pick_target(stragglers) is not None
            ):
                return self._redirect_runs(key)
        estimates = self.ewma.estimates(self.ewma.now)
        return _in_dispatch_order(servers, lengths, 0, len(servers), estimates)

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
        no redirect covers the request, which the extent's kept count
        tells.  Returns the runs to submit as ``(servers, lengths)``
        columns, in dispatch order.  A request that a redirect covers
        takes its runs from the memo of covered extents (see
        :meth:`_covered_runs`), and a write with a run on a straggler
        while budget remains redirects through :meth:`_redirect_runs`.
        No path builds a :class:`SubRequest`.
        """
        key = (file, offset, length)
        covering = self._covering(key)
        if covering:
            return self._covered_runs(op, key, covering)
        lo = premapped.starts[item]
        hi = premapped.starts[item + 1]
        servers = premapped.servers
        if (
            op == "write"
            and self.replicated_bytes < self.replication_budget
            and self._straggles(servers[lo:hi])
        ):
            return self._redirect_runs(key)
        if hi - lo == 1:
            return [servers[lo]], [premapped.lengths[lo]]
        estimates = self.ewma.estimates(self.ewma.now)
        return _in_dispatch_order(servers, premapped.lengths, lo, hi, estimates)

    def _ordered(self, merged: list[SubRequest]) -> list[SubRequest]:
        """Dispatch order: slowest estimated server first (stable, so
        equal-estimate runs keep the merge's logical order)."""
        if len(merged) < 2:
            return merged
        estimates = self.ewma.estimates(self.ewma.now)
        return sorted(merged, key=lambda f: -estimates[f.server])


def _in_dispatch_order(
    servers: list[int], lengths: list[int], lo: int, hi: int, estimates: list[float]
) -> tuple[list[int], list[int]]:
    """Runs ``lo`` to ``hi`` in :meth:`StragglerAwareView._ordered`'s
    order, the stable sort by descending estimate, as new columns."""
    if hi - lo == 1:
        return [servers[lo]], [lengths[lo]]
    if hi - lo == 2:
        # what the stable sort does to two runs
        if estimates[servers[lo + 1]] > estimates[servers[lo]]:
            return [servers[lo + 1], servers[lo]], [lengths[lo + 1], lengths[lo]]
        return servers[lo:hi], lengths[lo:hi]
    order = sorted(range(lo, hi), key=lambda j: -estimates[servers[j]])
    return [servers[j] for j in order], [lengths[j] for j in order]


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
