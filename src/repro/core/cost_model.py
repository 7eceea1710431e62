"""The data-access cost model (Eq. 2 and its write counterpart).

For a read request ``r`` under stripe pair ``<h, s>`` the paper defines

.. math::

   T_R(r, h, s) = \\max\\{\\, p_i \\alpha_h + s_i (t + \\beta_h),\\;
                          p_j \\alpha_{sr} + s_j (t + \\beta_{sr})
                    \\mid i \\in \\mathcal{H}, j \\in \\mathcal{S} \\,\\}

where ``p_i``/``p_j`` are the numbers of processes whose sub-requests
land on server ``i``/``j`` and ``s_i``/``s_j`` the accumulated
sub-request sizes there.  Writes swap in ``α_sw``/``β_sw`` on the
SServers.  The request completes when the slowest involved server
finishes — the ``max``.

**Concurrency** (the paper's extension over HARL's model, §III-F) is
modelled two ways:

* **exact bursts** (:func:`burst_costs`, and its grid twin
  :func:`burst_costs_grid`) — requests sharing a burst id were issued
  together.  Per burst and server, ``p_i`` (the members touching the
  server) and ``s_i`` (their bytes there) are summed exactly in
  integers, Eq. 2 prices them once as ``p_i·(α + λ) + s_i·(t + β)``,
  and the burst completes at the slowest server.  This is the RSSD
  search's objective.
* **statistical bursts** (:func:`request_costs`) — a request issued in
  a burst of ``c`` similar concurrent requests shares its servers with
  its burst-mates.  HPC bursts *tile* the file — concurrent requests
  sit at distinct, size-aligned offsets — so over a striping cycle of
  ``C = M·h + N·s`` bytes the burst's ``c·l`` bytes split across
  servers proportionally to their window widths, and the number of
  burst requests whose extent crosses server ``i``'s window (each one
  a startup the server pays) is the window count
  ``c·l·ceil(w_i/l) / C``.  On each server the request itself touches,

  ``p_i = clip(c · l · ceil(w_i / l) / C,  1,  c)`` and
  ``s_i = max(bytes_i,  c · l · w_i / C)``.

  (For small stripes every burst request touches every server and
  this degenerates to ``p_i = c`` with the full burst share; for large
  stripes it credits the layout for spreading concurrent requests
  across different servers.)  The online gate prices windows of
  traffic with it.

Both reduce exactly to the paper's per-request Eq. 2: ``c = 1`` in the
statistical model, singleton bursts in the exact one.

Implementation notes: per-server byte counts come from the closed-form
extent arithmetic in :mod:`repro.layouts.extents`, so evaluating a
whole region's requests for one ``<h, s>`` candidate is a handful of
vectorized numpy operations rather than fragment enumeration.
"""

from __future__ import annotations

import numpy as np

from ..contracts import twin_of
from ..devices.base import READ, WRITE
from ..layouts.extents import per_server_bytes_batch, server_totals_grid
from .params import CostModelParams

__all__ = [
    "request_cost",
    "request_costs",
    "region_cost",
    "burst_costs",
    "burst_costs_grid",
    "BurstCostKernel",
    "burst_cost_bounds",
    "burst_bound_slack",
    "grid_chunks",
]

#: block width, in candidates, from which the grid kernel sums each
#: segment (a burst, or a burst's reads or writes) with its own
#: ``np.add.reduce`` call instead of one ``np.add.reduceat`` per
#: server.  ``reduceat`` pays per (segment, column) about what a slice
#: reduction pays per segment; the two met between 64 and 128
#: candidates on every region shape measured (2-vCPU VM, 11 to 1,541
#: requests in 5 to 73 bursts).
WIDE_BLOCK = 96

#: cap on the elements of one ``(K, block)`` grid-kernel temporary.  The
#: candidate axis is cut into blocks of ``GRID_CHUNK_ELEMS // K``
#: candidates so that one int64 temporary (256 KiB) stays in cache.
GRID_CHUNK_ELEMS = 32 * 1024


def grid_chunks(n_candidates: int, n_eval: int) -> list[slice]:
    """Slices of a grid search's candidate axis, in candidate order.

    Each slice holds few enough candidates that one ``(n_eval, chunk)``
    temporary of the grid kernels stays within :data:`GRID_CHUNK_ELEMS`
    elements.  Chunking cannot change a result: every candidate's costs
    are computed independently of its neighbours.
    """
    chunk = max(1, GRID_CHUNK_ELEMS // max(1, n_eval))
    return [slice(lo, lo + chunk) for lo in range(0, n_candidates, chunk)]


def _effective_stripes(params: CostModelParams, h: int, s: int) -> tuple[int, int]:
    """Zero out stripes of absent server classes."""
    h_eff = h if params.M > 0 else 0
    s_eff = s if params.N > 0 else 0
    return h_eff, s_eff


def request_costs(
    params: CostModelParams,
    offsets: np.ndarray,
    lengths: np.ndarray,
    is_read: np.ndarray,
    concurrency: np.ndarray,
    h: int,
    s: int,
) -> np.ndarray:
    """Per-request access costs for ``K`` requests under ``<h, s>``.

    Parameters
    ----------
    offsets, lengths:
        Integer arrays of shape ``(K,)`` — each request's ``o`` and ``l``.
    is_read:
        Boolean array of shape ``(K,)`` — the request types ``op``.
    concurrency:
        Integer array of shape ``(K,)`` — burst sizes (>= 1).
    h, s:
        Candidate stripe sizes in bytes.

    Returns the ``(K,)`` float array of :math:`T_R`/:math:`T_W` values.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    is_read = np.asarray(is_read, dtype=bool)
    concurrency = np.maximum(np.asarray(concurrency, dtype=np.int64), 1)
    h_eff, s_eff = _effective_stripes(params, h, s)

    h_bytes, s_bytes = per_server_bytes_batch(
        offsets, lengths, params.M, params.N, h_eff, s_eff
    )
    K = offsets.shape[0]
    costs = np.zeros(K, dtype=np.float64)
    conc_f = concurrency.astype(np.float64)
    # zero-length requests cost nothing; give them a harmless length of
    # 1 inside the arithmetic and mask them out at the end
    empty = lengths <= 0
    length_f = np.where(empty, 1, lengths).astype(np.float64)
    cycle = float(params.M * h_eff + params.N * s_eff)

    def class_time(
        width: int,
        own: np.ndarray,
        alpha: float | np.ndarray,
        beta: float | np.ndarray,
    ) -> np.ndarray:
        """Per-request completion bound from one server class.

        Two lower bounds are combined:

        * **own-server** — the servers this request touches must finish
          their burst load (``p`` rounded *up*: a server serves a whole
          sub-request or none, and the request tracks the most-loaded
          server it touches; the byte share inflates proportionally);
        * **burst-wide** — similar requests are issued in synchronized
          bursts, and the next burst cannot start before the slowest
          server of *this* burst drains, so whenever the burst loads a
          server of this class with at least one whole request the
          class's burst-drain time bounds the request too.  Without
          this term the search can game the summed objective with
          layouts where some requests dodge the slow servers while the
          burst still waits on them.
        """
        windows = np.ceil(width / length_f)
        p_raw = (conc_f * length_f * windows / cycle)[:, None]
        p_mean = np.clip(p_raw, 1.0, conc_f[:, None])
        p = np.ceil(p_mean - 1e-9)
        share = (conc_f * length_f * width / cycle)[:, None] * (p / p_mean)
        # a singleton "burst" has no mates: its load is exactly its own
        # bytes (keeps c == 1 identical to the paper's Eq. 2)
        share = share * (conc_f > 1)[:, None]
        involved = own > 0
        t_own = involved * (
            p * alpha + np.maximum(own, share) * (params.t + beta)
        )
        t_burst = (p_raw >= 1.0) * (conc_f > 1)[:, None] * (
            p * alpha + share * (params.t + beta)
        )
        return np.maximum(t_own, t_burst).max(axis=1)

    lam = params.net_latency
    if params.M > 0 and h_eff > 0:
        costs = np.maximum(
            costs,
            class_time(h_eff, h_bytes, params.alpha_h + lam, params.beta_h),
        )
    if params.N > 0 and s_eff > 0:
        beta = np.where(is_read, params.beta_sr, params.beta_sw)[:, None]
        alpha = np.where(is_read, params.alpha_sr, params.alpha_sw)[:, None]
        costs = np.maximum(
            costs, class_time(s_eff, s_bytes, alpha + lam, beta)
        )
    costs[empty] = 0.0
    return costs


def burst_costs(
    params: CostModelParams,
    offsets: np.ndarray,
    lengths: np.ndarray,
    is_read: np.ndarray,
    burst_ids: np.ndarray,
    h: int,
    s: int,
) -> np.ndarray:
    """Exact per-burst completion times under ``<h, s>``.

    This is the cost model evaluated against the trace's **actual**
    simultaneous request groups instead of the statistical burst
    approximation in :func:`request_costs`: requests sharing a burst id
    were issued together, so each server's time for the burst is Eq. 2
    with ``p_i`` the *counted* number of burst members touching it and
    ``s_i`` the bytes of their real extents there — and the burst
    completes at the slowest server (Eq. 2's ``max``, lifted from one
    request to one burst).  Per (burst, server) that is
    ``P·(α_h + λ) + L·(t + β_h)`` on an HServer and, on an SServer, the
    same term for the burst's reads plus the term for its writes, with
    ``α_sr``/``β_sr`` and ``α_sw``/``β_sw``.  For a trace of singleton
    bursts this is exactly Eq. 2 per request.

    Returns one completion time per distinct burst id, ordered by
    ``np.unique(burst_ids)``.

    ``P`` and ``L`` are int64 sums, exact in any order, so the costs do
    not depend on the order of requests within a burst, and
    :func:`burst_costs_grid`, which forms the same products and sums
    from the same integers, is bit-identical to this function.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    is_read = np.asarray(is_read, dtype=bool)
    burst_ids = np.asarray(burst_ids)
    h_eff, s_eff = _effective_stripes(params, h, s)
    h_bytes, s_bytes = per_server_bytes_batch(
        offsets, lengths, params.M, params.N, h_eff, s_eff
    )
    _, inverse = np.unique(burst_ids, return_inverse=True)
    B = int(inverse.max()) + 1 if inverse.size else 0
    lam = params.net_latency
    worst = np.zeros(B, dtype=np.float64)
    if B == 0:
        return worst
    # traces whose requests already arrive burst-grouped (the common
    # case after the determinator pre-sorts) skip the gather copies
    grouped = bool(np.all(inverse[:-1] <= inverse[1:]))
    order = slice(None) if grouped else np.argsort(inverse, kind="stable")
    # np.unique guarantees every id in [0, B) occurs, so each segment
    # start exists and reduceat sees B non-empty segments
    seg_starts = np.searchsorted(inverse[order], np.arange(B))

    def eq2(nbytes: np.ndarray, alpha: float, beta: float) -> np.ndarray:
        """``(B, n)`` Eq. 2 times of ``(K, n)`` per-request byte counts."""
        rows = nbytes[order]
        touches = np.add.reduceat(rows > 0, seg_starts, axis=0, dtype=np.int64)
        load = np.add.reduceat(rows, seg_starts, axis=0, dtype=np.int64)
        return touches * (alpha + lam) + load * (params.t + beta)

    if params.M > 0 and h_eff > 0:
        t_h = eq2(h_bytes, params.alpha_h, params.beta_h)
        worst = np.maximum(worst, t_h.max(axis=1))
    if params.N > 0 and s_eff > 0:
        reads = is_read[:, None]
        t_s = eq2(s_bytes * reads, params.alpha_sr, params.beta_sr) + eq2(
            s_bytes * ~reads, params.alpha_sw, params.beta_sw
        )
        worst = np.maximum(worst, t_s.max(axis=1))
    return worst


class BurstCostKernel:
    """One search's state for :func:`burst_costs_grid`.

    Built once per region, it holds the requests ordered by (burst,
    op), reads before writes, the row starts of each burst and of each
    (burst, op) segment, and the kernel's ``(K, block)`` buffers.
    :meth:`costs` scores one block of candidates in those buffers, so a
    search that scores many blocks allocates (and page-faults) its
    temporaries once.  ``chunks`` are :func:`grid_chunks`' blocks of the
    search's ``n_candidates``.
    """

    def __init__(
        self,
        params: CostModelParams,
        offsets: np.ndarray,
        lengths: np.ndarray,
        is_read: np.ndarray,
        burst_ids: np.ndarray,
        n_candidates: int,
    ) -> None:
        offsets = np.asarray(offsets, dtype=np.int64)
        # a non-positive length maps no byte, like the scalar path's zeroed rows
        lengths = np.maximum(np.asarray(lengths, dtype=np.int64), 0)
        is_read = np.asarray(is_read, dtype=bool)
        _, inverse = np.unique(np.asarray(burst_ids), return_inverse=True)
        K = offsets.shape[0]
        key = 2 * inverse + ~is_read  # reads sort before writes
        order = np.argsort(key, kind="stable")
        key = key[order]
        # only non-empty segments: reduceat gives a row, not 0, for an
        # empty one
        seg_starts = np.flatnonzero(np.diff(key, prepend=-1))
        burst_segs = np.flatnonzero(np.diff(key[seg_starts] // 2, prepend=-1))
        seg_read = key[seg_starts] % 2 == 0
        lam = params.net_latency

        self.params = params
        self.n_bursts = burst_segs.shape[0]
        self.chunks = grid_chunks(n_candidates, K)
        self.starts = offsets[order][:, None]
        self.ends = self.starts + lengths[order][:, None]
        # per server class (keyed by "is an HServer"): the row starts
        # and row ranges of its segments, which are bursts on HServers
        # and (burst, op) pairs on SServers, and Eq. 2's coefficients
        self._segments = {True: seg_starts[burst_segs], False: seg_starts}
        self._ranges = {
            hserver: list(zip(rows.tolist(), rows[1:].tolist() + [K]))
            for hserver, rows in self._segments.items()
        }
        s_alpha = np.where(seg_read, params.alpha_sr, params.alpha_sw)[:, None]
        s_beta = np.where(seg_read, params.beta_sr, params.beta_sw)[:, None]
        self._coefficients = {
            True: (params.alpha_h + lam, params.t + params.beta_h),
            False: (s_alpha + lam, params.t + s_beta),
        }
        #: each burst's first (burst, op) segment, when some burst has both
        mixed = burst_segs.shape[0] < seg_starts.shape[0]
        self._mixed = burst_segs if mixed else None
        block = min(n_candidates, self.chunks[0].stop) if self.chunks else 0
        size, segs = K * block, seg_starts.shape[0] * block
        self._ints = [np.empty(size, dtype=np.int64) for _ in range(7)]
        self._pair = np.empty(2 * size, dtype=np.int64)
        self._sums = np.empty(2 * segs, dtype=np.int64)
        self._floats = [np.empty(segs, dtype=np.float64) for _ in range(3)]
        self._out = np.empty(self.n_bursts * block, dtype=np.float64)

    def costs(self, h: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Per-burst costs of ``n`` candidates ``<h[g], s[g]>``, shape
        ``(n, B)``, with ``n`` at most one chunk.  The result is a view
        of the workspace that the next call overwrites.

        Two ``divmod`` calls give each request's whole cycles and its
        start and end residues.  Each server, in cycle order, then peels
        its window off both residues (``take = min(rest, width)``,
        ``rest -= take``), so its bytes are ``cycles·width + take_end −
        take_start``, with ``cycles·width`` formed once per server
        class.  The bytes and the touches are summed exactly per burst
        (HServer) or per (burst, op) segment (SServer), and Eq. 2 prices
        the sums once.
        """
        params = self.params
        K, n, B = self.starts.shape[0], h.shape[0], self.n_bursts
        hi, lo, rest_e, rest_s, take_e, take_s, width = (
            flat[: K * n].reshape(K, n) for flat in self._ints
        )
        pair = self._pair[: 2 * K * n].reshape(2, K, n)
        nbytes, touched = pair
        cycle = params.M * h + params.N * s
        # dead candidates (cycle == 0) have zero-width windows on every
        # server, so any positive stand-in cycle leaves their bytes at 0
        cyc = np.where(cycle > 0, cycle, 1)
        np.divmod(self.ends, cyc, out=(hi, rest_e))
        np.divmod(self.starts, cyc, out=(lo, rest_s))
        cycles = np.subtract(hi, lo, out=lo)
        worst, term, other = (
            flat[: self._segments[False].shape[0] * n].reshape(-1, n)
            for flat in self._floats
        )
        worst = worst[:B]
        worst.fill(0.0)
        # HServers, then SServers: the cycle order of the windows.  The
        # widths are written out in full, so that no operation in the
        # server loop broadcasts
        for hserver, servers, stripe, cycle_bytes in (
            (True, params.M, h, hi),
            (False, params.N, s, lo),
        ):
            if servers == 0:
                continue
            np.copyto(width, stripe)
            np.multiply(cycles, width, out=cycle_bytes)
            startup, load_time = self._coefficients[hserver]
            for _ in range(servers):
                np.minimum(rest_e, width, out=take_e)
                np.subtract(rest_e, take_e, out=rest_e)
                np.minimum(rest_s, width, out=take_s)
                np.subtract(rest_s, take_s, out=rest_s)
                np.add(cycle_bytes, take_e, out=nbytes)
                np.subtract(nbytes, take_s, out=nbytes)
                np.greater(nbytes, 0, out=touched)
                load, count = self._segment_sums(pair, hserver)
                rows = load.shape[0]
                t = np.multiply(count, startup, out=term[:rows])
                t += np.multiply(load, load_time, out=other[:rows])
                if not hserver and self._mixed is not None:
                    # a burst with both ops: its read term plus its write term
                    t = np.add.reduceat(t, self._mixed, axis=0, out=other[:B])
                np.maximum(worst, t, out=worst)
        out = self._out[: n * B].reshape(n, B)
        np.copyto(out, worst.T)
        return out

    def _segment_sums(self, pair: np.ndarray, hserver: bool) -> np.ndarray:
        """Exact int64 sums of ``pair``'s ``(2, K, n)`` bytes and touches
        over one server class's segments, shape ``(2, segments, n)``.

        ``reduceat`` costs about the same per (segment, column) as a
        slice ``reduce`` costs per segment, so blocks of at least
        :data:`WIDE_BLOCK` candidates sum one segment per call."""
        rows = self._segments[hserver]
        n = pair.shape[2]
        sums = self._sums[: 2 * rows.shape[0] * n].reshape(2, rows.shape[0], n)
        if n < WIDE_BLOCK:
            return np.add.reduceat(pair, rows, axis=1, dtype=np.int64, out=sums)
        for i, (a, b) in enumerate(self._ranges[hserver]):
            np.add.reduce(pair[:, a:b], axis=1, out=sums[:, i])
        return sums


@twin_of(
    "repro.core.cost_model:burst_costs",
    param_map={"h": "h_arr", "s": "s_arr"},
    harness="burst_costs_grid",
)
def burst_costs_grid(
    params: CostModelParams,
    offsets: np.ndarray,
    lengths: np.ndarray,
    is_read: np.ndarray,
    burst_ids: np.ndarray,
    h_arr: np.ndarray,
    s_arr: np.ndarray,
) -> np.ndarray:
    """:func:`burst_costs` evaluated for ``G`` candidate pairs at once.

    Returns shape ``(G, B)`` — row ``g`` is bit-identical to
    ``burst_costs(params, ..., h_arr[g], s_arr[g])``: both sum each
    (burst, server, op)'s touches and bytes exactly in int64 and form
    ``P·(α + λ) + L·(t + β)`` from them with the same operations, read
    term before write term.

    The kernel streams: one :class:`BurstCostKernel` scores the
    candidate axis in :func:`grid_chunks` blocks, one server at a time,
    folding each server's per-burst times into a running maximum.
    Memory is ``O(K * block + G * B)``: no ``(G, K, M + N)`` tensor
    exists, so callers pass their whole candidate grid in one call.
    """
    h_arr = np.asarray(h_arr, dtype=np.int64)
    s_arr = np.asarray(s_arr, dtype=np.int64)
    G = h_arr.shape[0]
    kernel = BurstCostKernel(params, offsets, lengths, is_read, burst_ids, G)
    worst = np.zeros((G, kernel.n_bursts), dtype=np.float64)
    if kernel.n_bursts:
        for chunk in kernel.chunks:
            worst[chunk] = kernel.costs(h_arr[chunk], s_arr[chunk])
    return worst


def burst_cost_bounds(
    params: CostModelParams,
    offsets: np.ndarray,
    lengths: np.ndarray,
    is_read: np.ndarray,
    h_arr: np.ndarray,
    s_arr: np.ndarray,
) -> np.ndarray:
    """A lower bound on each candidate's summed burst costs, shape ``(G,)``.

    :func:`burst_costs` charges burst ``b`` its slowest server,
    ``max_σ T_bσ``, where ``T_bσ`` is the burst's startups on ``σ``
    plus its bytes there times ``t + β``.  A sum of maxima is at least
    the maximum of the sums, so ``Σ_b max_σ T_bσ >= max_σ Σ_b T_bσ``,
    and ``Σ_b T_bσ`` needs only server ``σ``'s totals over the region:
    the requests that touch it and the bytes it receives.
    :func:`~repro.layouts.extents.server_totals_grid` gives both, once
    per op, and the bound is the largest of

    * HServer: ``touches·(α_h + λ) + bytes·(t + β_h)``;
    * SServer: the same terms per op, with ``α_sr``/``β_sr`` for reads
      and ``α_sw``/``β_sw`` for writes.

    The kernel's touch counts can only fall short and every startup is
    non-negative, so the bound stays below the cost.  It holds in exact
    arithmetic; :func:`burst_bound_slack` covers the rounding of both
    sides.  The constants are the ones :func:`burst_costs_grid` uses.
    Non-finite parameters give zero bounds, which rule nothing out.

    Candidates are handled in blocks of distinct cycles sized by
    :func:`grid_chunks`, so no kernel temporary exceeds
    :data:`GRID_CHUNK_ELEMS` elements.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    is_read = np.asarray(is_read, dtype=bool)
    h_arr = np.asarray(h_arr, dtype=np.int64)
    s_arr = np.asarray(s_arr, dtype=np.int64)
    M, N, lam = params.M, params.N, params.net_latency
    G = h_arr.shape[0]
    bound = np.zeros(G, dtype=np.float64)
    terms = (params.t, params.alpha_h, params.beta_h, params.alpha_sr,
             params.beta_sr, params.alpha_sw, params.beta_sw, lam)
    if G == 0 or offsets.size == 0 or not np.isfinite(terms).all():
        return bound
    ops = [
        (offsets[mask], lengths[mask], alpha + lam, params.t + beta)
        for mask, alpha, beta in (
            (is_read, params.alpha_sr, params.beta_sr),
            (~is_read, params.alpha_sw, params.beta_sw),
        )
        if mask.any()
    ]
    cycles, row = np.unique(M * h_arr + N * s_arr, return_inverse=True)
    for block in grid_chunks(cycles.shape[0], offsets.shape[0]):
        pick = np.flatnonzero((row >= block.start) & (row < block.stop))
        h_bytes = h_touches = s_time = 0
        for offs, lens, s_startup, s_load in ops:
            nbytes, touches = server_totals_grid(
                offs, lens, M, N, h_arr[pick], s_arr[pick]
            )
            h_bytes = h_bytes + nbytes[:, :M]
            h_touches = h_touches + touches[:, :M]
            s_time = s_time + (touches[:, M:] * s_startup + nbytes[:, M:] * s_load)
        h_time = (
            h_touches * (params.alpha_h + lam) + h_bytes * (params.t + params.beta_h)
        )
        bound[pick] = np.concatenate([h_time, s_time], axis=1).max(axis=1)
    return bound


def burst_bound_slack(n_requests: int, n_bursts: int) -> float:
    """Relative slack ``δ`` for comparing :func:`burst_cost_bounds` with
    summed :func:`burst_costs_grid` rows.

    If ``bound·(1 − δ)`` exceeds a computed sum ``S*``, the candidate's
    own computed sum exceeds ``S*`` by more than one rounding each way,
    so it also stays strictly above ``S*`` once both are multiplied by
    the same factor.  Derivation, with ``u = 2⁻⁵³``, every term
    non-negative, and each rounding moving a value by a factor within
    ``[1 − u, 1 + u]``:

    * a burst's cost on a server is formed from exact integer sums
      ``P`` and ``L`` (their float conversions are exact below 2⁵³):
      one rounding for each product, one for their sum, and on an
      SServer one more to add the write term to the read term, so at
      most three roundings on any term's path; the maximum over
      servers is exact.  Summing ``B`` bursts adds ``B − 1``.  The
      computed sum is at least ``(1 − u)^(B+2)`` times the exact one;
    * the bound is at most four roundings above the exact bound (the
      integer conversion, one product, two sums), and forming
      ``bound·(1 − δ)`` adds two;
    * strict separation after a common scaling costs two more.

    So ``(1 − u)^(B+3) >= (1 − δ)(1 + u)^7`` suffices.  By Bernoulli's
    inequality the left side divided by ``(1 + u)^7`` is at least
    ``1 − (B + 10)·u``, so ``δ >= (B + 10)·u`` does.  ``δ = (K + B +
    8)·2u``, kept from when a burst's cost summed one rounded product
    per request, covers that with ``(2K + B + 6)·u`` to spare.
    """
    return (n_requests + n_bursts + 8) * 2.0**-52


def request_cost(
    params: CostModelParams,
    op: str,
    offset: int,
    length: int,
    h: int,
    s: int,
    concurrency: int = 1,
) -> float:
    """Scalar convenience wrapper: the cost of one request (Eq. 2)."""
    if op not in (READ, WRITE):
        raise ValueError(f"op must be 'read' or 'write', got {op!r}")
    costs = request_costs(
        params,
        np.array([offset]),
        np.array([length]),
        np.array([op == READ]),
        np.array([concurrency]),
        h,
        s,
    )
    return float(costs[0])


def region_cost(
    params: CostModelParams,
    offsets: np.ndarray,
    lengths: np.ndarray,
    is_read: np.ndarray,
    concurrency: np.ndarray,
    h: int,
    s: int,
) -> float:
    """Total access cost of a region's requests under ``<h, s>``: the
    sum of :func:`request_costs`.  With every ``concurrency`` at 1 this
    is Algorithm 2's per-request ``Reg_cost``."""
    return float(
        request_costs(params, offsets, lengths, is_read, concurrency, h, s).sum()
    )
