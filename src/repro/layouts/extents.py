"""Closed-form per-server extent accounting for varied striping.

The RSSD stripe search (Algorithm 2) evaluates the cost model for
hundreds of ``<h, s>`` candidates over every request in a region.
Enumerating fragments for each combination would be quadratic in
practice, so the cost model instead uses the *closed-form* functions
here: how many bytes of a logical extent land on each server, in
O(M + N) per request with no fragment lists, and (over a grid of
stripe pairs) how many requests touch each server.

Correctness is cross-checked against the explicit fragment mapper in
property tests (``tests/layouts/test_extents.py``).
"""

from __future__ import annotations

import numpy as np

from ..contracts import twin_of

__all__ = [
    "bytes_in_window",
    "per_server_bytes",
    "per_server_bytes_batch",
    "length_bands",
    "server_totals_grid",
]


def bytes_in_window(offset: int, length: int, start: int, width: int, cycle: int) -> int:
    """Bytes of ``[offset, offset+length)`` whose position mod ``cycle``
    falls in ``[start, start+width)``.

    This counts the bytes of a logical extent that belong to one
    server's periodic stripe window.
    """
    if width <= 0 or length <= 0:
        return 0
    if cycle <= 0:
        raise ValueError(f"cycle must be > 0, got {cycle}")

    def cumulative(y: int) -> int:
        # bytes in [0, y) whose (pos mod cycle) lies in [start, start+width)
        full, rem = divmod(y, cycle)
        return full * width + min(max(rem - start, 0), width)

    return cumulative(offset + length) - cumulative(offset)


def per_server_bytes(
    offset: int, length: int, M: int, N: int, h: int, s: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bytes of an extent on each HServer and SServer under ``<h, s>``.

    Returns ``(h_bytes, s_bytes)`` with shapes ``(M,)`` and ``(N,)``.
    Servers with stripe 0 receive 0 bytes.
    """
    h_eff = h if M > 0 else 0
    s_eff = s if N > 0 else 0
    cycle = M * h_eff + N * s_eff
    h_bytes = np.zeros(M, dtype=np.int64)
    s_bytes = np.zeros(N, dtype=np.int64)
    if cycle == 0 or length <= 0:
        return h_bytes, s_bytes
    for i in range(M):
        h_bytes[i] = bytes_in_window(offset, length, i * h_eff, h_eff, cycle)
    base = M * h_eff
    for j in range(N):
        s_bytes[j] = bytes_in_window(offset, length, base + j * s_eff, s_eff, cycle)
    return h_bytes, s_bytes


def per_server_bytes_batch(
    offsets: np.ndarray, lengths: np.ndarray, M: int, N: int, h: int, s: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`per_server_bytes` over many extents.

    ``offsets`` and ``lengths`` are 1-D integer arrays of equal shape;
    the result is ``(h_bytes, s_bytes)`` with shapes ``(K, M)`` and
    ``(K, N)`` for ``K`` extents.  This is the kernel the RSSD search
    calls once per ``<h, s>`` candidate.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if offsets.shape != lengths.shape or offsets.ndim != 1:
        raise ValueError("offsets and lengths must be equal-shape 1-D arrays")
    K = offsets.shape[0]
    h_eff = h if M > 0 else 0
    s_eff = s if N > 0 else 0
    cycle = M * h_eff + N * s_eff
    h_bytes = np.zeros((K, M), dtype=np.int64)
    s_bytes = np.zeros((K, N), dtype=np.int64)
    if cycle == 0 or K == 0:
        return h_bytes, s_bytes

    ends = offsets + lengths

    def cumulative(y: np.ndarray, start: int, width: int) -> np.ndarray:
        full, rem = np.divmod(y, cycle)
        return full * width + np.clip(rem - start, 0, width)

    if h_eff > 0:
        for i in range(M):
            a = i * h_eff
            h_bytes[:, i] = cumulative(ends, a, h_eff) - cumulative(offsets, a, h_eff)
    if s_eff > 0:
        base = M * h_eff
        for j in range(N):
            a = base + j * s_eff
            s_bytes[:, j] = cumulative(ends, a, s_eff) - cumulative(offsets, a, s_eff)
    # zero out degenerate (length <= 0) rows
    empty = lengths <= 0
    if empty.any():
        h_bytes[empty] = 0
        s_bytes[empty] = 0
    return h_bytes, s_bytes


def length_bands(lengths: np.ndarray) -> np.ndarray:
    """Power-of-two band of each positive length: its bit length."""
    return np.frexp(np.asarray(lengths, dtype=np.float64))[1]


@twin_of(
    "repro.layouts.extents:per_server_bytes_batch",
    kind="reduction",
    param_map={"h": "h_arr", "s": "s_arr"},
    harness="extents_totals_grid",
)
def server_totals_grid(
    offsets: np.ndarray,
    lengths: np.ndarray,
    M: int,
    N: int,
    h_arr: np.ndarray,
    s_arr: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-server totals over all requests, for a candidate grid.

    Returns ``(nbytes, touches)``, each ``(G, M + N)`` int64 with the
    HServers first.  ``nbytes[g]`` is the byte total each server gets,
    exactly ``per_server_bytes_batch(..., h_arr[g], s_arr[g])`` summed
    over the requests.  ``touches[g]`` counts the requests with at
    least one byte on each server, as a lower bound that is exact when
    each power-of-two length band holds one length.

    No per-request count is formed.  For each distinct cycle
    ``C = M·h + N·s`` the offsets' and ends' residues mod ``C`` are
    sorted once, with prefix sums, and every window ``[a, a + w)`` is
    answered by ``searchsorted`` lookups:

    * bytes: ``w·Σ(e//C − o//C) + Σclip(r_e − a, 0, w) −
      Σclip(r_o − a, 0, w)``, each clip sum a prefix-sum difference
      between the window's edges.  A candidate's windows tile the
      cycle, so its ``S`` windows share ``S + 1`` edge lookups;
    * touches: a request of length ``L`` misses every copy of the
      window exactly when it fits inside one gap between copies,
      ``(o − a − w) mod C ≤ C − w − L``, a cyclic range of offset
      residues.  Requests are counted per band with the band's shortest
      length; shortening a request that misses keeps it missing, so the
      count can only fall.

    A non-positive length maps nothing, and a zero-width window gets no
    bytes and no touches.  Integer arithmetic throughout.  Temporaries
    are ``(U, K)`` for ``U`` distinct cycles; callers cut large grids
    into blocks of cycles.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    h_arr = np.asarray(h_arr, dtype=np.int64)
    s_arr = np.asarray(s_arr, dtype=np.int64)
    if offsets.shape != lengths.shape or offsets.ndim != 1:
        raise ValueError("offsets and lengths must be equal-shape 1-D arrays")
    if h_arr.shape != s_arr.shape or h_arr.ndim != 1:
        raise ValueError("h_arr and s_arr must be equal-shape 1-D arrays")
    G = h_arr.shape[0]
    nbytes = np.zeros((G, M + N), dtype=np.int64)
    touches = np.zeros((G, M + N), dtype=np.int64)
    mapped = lengths > 0
    offsets, lengths = offsets[mapped], lengths[mapped]
    # an absent class adds nothing to the cycle and owns no column
    cycle = M * h_arr + N * s_arr
    live = np.flatnonzero(cycle > 0)
    K = offsets.shape[0]
    if K == 0 or live.size == 0:
        return nbytes, touches

    # requests grouped by length band, each band with its member count,
    # first position and shortest length
    band_of = length_bands(lengths)
    order = np.argsort(band_of, kind="stable")
    offsets, lengths, band_of = offsets[order], lengths[order], band_of[order]
    first = np.flatnonzero(np.r_[True, band_of[1:] != band_of[:-1]])
    count = np.diff(np.r_[first, K])
    shortest = np.minimum.reduceat(lengths, first)
    band = np.repeat(np.arange(first.shape[0]), count)

    cycles, row = np.unique(cycle[live], return_inverse=True)
    U, n_bands, stride = cycles.shape[0], first.shape[0], int(cycles[-1])

    # the windows tile one cycle: server σ owns [edge_σ, edge_σ+1), from
    # edge_0 = 0 to edge_S = C, so S + 1 edges serve every lookup
    h = h_arr[live, None]
    s = s_arr[live, None]
    C = cycles[row, None]
    edge = np.concatenate([h * np.arange(M), M * h + s * np.arange(N), C], axis=1)
    start, stop = edge[:, :-1], edge[:, 1:]
    width = stop - start

    # Residues sorted within (cycle, band) and flattened under the key
    # (u·bands + b)·stride + r.  Residues lie below C <= stride, so the
    # keys keep cycles and bands apart, and one left-sided searchsorted
    # of (u·bands + b)·stride + x counts band b's residues below any x
    # in [0, C].
    seg = (np.arange(U)[:, None] * n_bands + band) * stride  # (U, K)

    def table(x):
        """The sorted keys and prefix sums of ``x``'s residues, and each
        cycle's ``Σ x // C``."""
        laps, res = np.divmod(x[None, :], cycles[:, None])  # (U, K)
        keys = np.sort(seg + res, axis=1)
        prefix = np.zeros((U, K + 1), dtype=np.int64)
        np.cumsum(keys - seg, axis=1, out=prefix[:, 1:])
        return (keys.ravel(), prefix.ravel()), laps.sum(axis=1)

    u = row[:, None]

    def below(tab, b, x):
        """Count and sum of band ``b``'s residues below ``x``, per cell."""
        keys, prefix = tab
        lo = u * K + first[b]  # flat index of the band's first residue
        at = np.searchsorted(keys, (u * n_bands + b) * stride + x)
        # row u of prefix sits u entries further on than row u of keys
        return at - lo, prefix[at + u] - prefix[lo + u]

    (ends, laps_e), (offs, laps_o) = table(offsets + lengths), table(offsets)
    got = width * (laps_e - laps_o)[row, None]  # w·Σ(e//C − o//C)
    hit = np.zeros_like(got)
    for b in range(n_bands):
        for tab, sign in ((ends, 1), (offs, -1)):
            n, total = below(tab, b, edge)
            # Σclip(r − a, 0, w) = Σ_{a <= r < a+w} (r − a) + w·#{r >= a + w}
            inside = total[:, 1:] - total[:, :-1] - start * (n[:, 1:] - n[:, :-1])
            got += sign * (inside + width * (count[b] - n[:, 1:]))
        # misses: offset residues in the cyclic range [lo, lo + gap) with
        # lo = stop mod C and gap = C − w − L + 1, none once L outgrows it
        wraps = stop == C
        n_lo = np.where(wraps, 0, n[:, 1:])  # n: the offsets' counts
        hi = np.where(wraps, 0, stop) + np.maximum(C - width - shortest[b] + 1, 0)
        over = hi > C
        n_hi, _ = below(offs, b, np.where(over, hi - C, hi))
        hit += count[b] - (n_hi + count[b] * over - n_lo)
    nbytes[live] = got
    touches[live] = hit * (width > 0)
    return nbytes, touches
