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
  together; each server's time for the burst counts its real startups
  and bytes, and the burst completes at the slowest server.  This is
  the RSSD search's objective.
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
    "burst_cost_bounds",
    "burst_bound_slack",
    "grid_chunks",
]

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
    were issued together, so each server's time for the burst is
    ``p_i·(α + λ) + Σ bytes·(t + β_op)`` with ``p_i`` the *counted*
    number of burst members touching it and the byte sum taken over the
    members' real extents — and the burst completes at the slowest
    server (Eq. 2's ``max``, lifted from one request to one burst).
    For a trace of singleton bursts this is exactly Eq. 2 per request.

    Returns one completion time per distinct burst id, ordered by
    ``np.unique(burst_ids)``.

    The per-server scatter-sum is a stable sort by burst id followed by
    ``np.add.reduceat`` along the request axis — the exact accumulation
    primitive (and order) of :func:`burst_costs_grid`, which is what
    keeps the scalar and grid search engines bit-identical.
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
    # stable order by burst id; traces whose requests already arrive
    # burst-grouped (the common case after the determinator pre-sorts)
    # skip the gather copies entirely
    if np.all(inverse[:-1] <= inverse[1:]):
        sorted_already = True
        sorted_inverse = inverse
    else:
        sorted_already = False
        order = np.argsort(inverse, kind="stable")
        sorted_inverse = inverse[order]
    # np.unique guarantees every id in [0, B) occurs, so each segment
    # start exists and reduceat sees B non-empty segments
    seg_starts = np.searchsorted(sorted_inverse, np.arange(B))

    def segment_sum(vals: np.ndarray) -> np.ndarray:
        if not sorted_already:
            vals = vals[order]
        return np.add.reduceat(vals, seg_starts, axis=0)

    if params.M > 0 and h_eff > 0:
        loads = segment_sum(h_bytes * (params.t + params.beta_h))
        counts = segment_sum((h_bytes > 0).astype(np.float64))
        t_h = counts * (params.alpha_h + lam) + loads
        worst = np.maximum(worst, t_h.max(axis=1))
    if params.N > 0 and s_eff > 0:
        beta = np.where(is_read, params.beta_sr, params.beta_sw)[:, None]
        alpha = np.where(is_read, params.alpha_sr, params.alpha_sw)[:, None]
        loads = segment_sum(s_bytes * (params.t + beta))
        starts = segment_sum((s_bytes > 0) * (alpha + lam))
        t_s = starts + loads
        worst = np.maximum(worst, t_s.max(axis=1))
    return worst


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
    ``burst_costs(params, ..., h_arr[g], s_arr[g])``.

    The kernel streams.  It groups the requests by burst id once (a
    stable sort, so within a burst the requests keep their order) and
    cuts the candidate axis with :func:`grid_chunks`.  For each block it
    handles one server at a time: that server's ``(K, block)`` byte
    counts are reduced to per-burst loads and start counts with the
    same ``np.add.reduceat(..., axis=0)`` that :func:`burst_costs`
    applies to its ``(K, M)`` counts, and folded into a running
    per-burst maximum.  ``reduceat`` sums each column of a segment in
    an order fixed by the segment alone, whatever the number of
    columns, and ``max`` is exact, so the server-by-server fold gives
    the scalar path's floats.

    Memory is ``O(K * block + G * B)``: no ``(G, K, M + N)`` tensor
    exists, so callers pass their whole candidate grid in one call.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    # a non-positive length maps no byte, like the scalar path's zeroed rows
    lengths = np.maximum(np.asarray(lengths, dtype=np.int64), 0)
    is_read = np.asarray(is_read, dtype=bool)
    burst_ids = np.asarray(burst_ids)
    h_arr = np.asarray(h_arr, dtype=np.int64)
    s_arr = np.asarray(s_arr, dtype=np.int64)
    # an absent server class contributes nothing to the cycle and is
    # never looped over, so its stripes need no zeroing
    M, N = params.M, params.N

    _, inverse = np.unique(burst_ids, return_inverse=True)
    G = h_arr.shape[0]
    B = int(inverse.max()) + 1 if inverse.size else 0
    worst = np.zeros((G, B), dtype=np.float64)
    if G == 0 or B == 0:
        return worst

    # the determinator pre-sorts its requests by burst id, so this
    # gather is usually skipped
    if not np.all(inverse[:-1] <= inverse[1:]):
        order = np.argsort(inverse, kind="stable")
        inverse, offsets, lengths, is_read = (
            inverse[order], offsets[order], lengths[order], is_read[order],
        )
    # np.unique guarantees every id in [0, B) occurs, so each segment
    # start exists and reduceat sees B non-empty segments
    seg_starts = np.searchsorted(inverse, np.arange(B))
    K = offsets.shape[0]
    ends = (offsets + lengths)[:, None]
    starts = offsets[:, None]
    lam = params.net_latency
    h_load = params.t + params.beta_h
    h_startup = params.alpha_h + lam
    s_load = (params.t + np.where(is_read, params.beta_sr, params.beta_sw))[:, None]
    s_startup = (np.where(is_read, params.alpha_sr, params.alpha_sw) + lam)[:, None]

    for chunk in grid_chunks(G, K):
        h_w = h_arr[chunk][None, :]  # (1, block)
        s_w = s_arr[chunk][None, :]
        cycle = M * h_w + N * s_w
        # dead candidates (cycle == 0) have zero-width windows on every
        # server, so any positive stand-in cycle leaves their bytes at 0
        cyc = np.where(cycle > 0, cycle, 1)
        full_e, rem_e = np.divmod(ends, cyc)  # (K, block)
        full_o, rem_o = np.divmod(starts, cyc)
        cycles = full_e - full_o

        def server_bytes(start: np.ndarray, width: np.ndarray) -> np.ndarray:
            """``(K, block)`` bytes in the window ``[start, start + width)``."""
            return (
                cycles * width
                + np.clip(rem_e - start, 0, width)
                - np.clip(rem_o - start, 0, width)
            )

        block_worst = np.zeros((B, h_w.shape[1]), dtype=np.float64)
        for i in range(M):
            nbytes = server_bytes(i * h_w, h_w)
            loads = np.add.reduceat(nbytes * h_load, seg_starts, axis=0)
            counts = np.add.reduceat(
                (nbytes > 0).astype(np.float64), seg_starts, axis=0
            )
            np.maximum(block_worst, counts * h_startup + loads, out=block_worst)
        for j in range(N):
            nbytes = server_bytes(M * h_w + j * s_w, s_w)
            loads = np.add.reduceat(nbytes * s_load, seg_starts, axis=0)
            startups = np.add.reduceat((nbytes > 0) * s_startup, seg_starts, axis=0)
            np.maximum(block_worst, startups + loads, out=block_worst)
        worst[chunk] = block_worst.T
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

    * a burst's cost rounds each ``bytes·(t + β)`` product once, sums
      at most ``K`` terms and adds the startups: at most ``K + 1``
      roundings on any term's path.  Summing ``B`` bursts adds
      ``B − 1``.  The computed sum is at least ``(1 − u)^(K+B)`` times
      the exact one;
    * the bound is at most four roundings above the exact bound (the
      integer conversion, one product, two sums), and forming
      ``bound·(1 − δ)`` adds two;
    * strict separation after a common scaling costs two more.

    So ``(1 − u)^(K+B+1) >= (1 − δ)(1 + u)^7`` suffices, which holds
    for ``δ >= (K + B + 8)·u + 49u²``.  ``δ = (K + B + 8)·2u`` leaves
    ``(K + B + 8)·u`` to spare.
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
