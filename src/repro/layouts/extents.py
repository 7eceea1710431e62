"""Closed-form per-server extent accounting for varied striping.

The RSSD stripe search (Algorithm 2) evaluates the cost model for
hundreds of ``<h, s>`` candidates over every request in a region.
Enumerating fragments for each combination would be quadratic in
practice, so the cost model instead uses the *closed-form* functions
here: how many bytes of a logical extent land on each server, and how
many distinct stripe windows (hence positioning startups) it touches —
in O(M + N) per request with no fragment lists.

Correctness is cross-checked against the explicit fragment mapper in
property tests (``tests/layouts/test_extents.py``).
"""

from __future__ import annotations

import numpy as np

from ..contracts import twin_of

__all__ = [
    "bytes_in_window",
    "windows_touched",
    "per_server_bytes",
    "per_server_bytes_batch",
    "max_server_bytes_grid",
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


def windows_touched(offset: int, length: int, start: int, width: int, cycle: int) -> int:
    """Number of distinct periodic windows the extent intersects.

    Window ``k`` occupies ``[k*cycle + start, k*cycle + start + width)``.
    Each touched window is one contiguous fragment on that server, i.e.
    one potential positioning startup.
    """
    if width <= 0 or length <= 0:
        return 0
    if cycle <= 0:
        raise ValueError(f"cycle must be > 0, got {cycle}")
    end = offset + length
    # Window k intersects iff  k*cycle + start < end  and
    # k*cycle + start + width > offset, i.e.
    #   k <= floor((end - start - 1) / cycle)   and
    #   k >= ceil((offset - start - width + 1) / cycle).
    k_max = (end - start - 1) // cycle
    k_lo = -((-(offset - start - width + 1)) // cycle)  # ceil division
    if k_max < k_lo:
        return 0
    return k_max - k_lo + 1


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


@twin_of(
    "repro.layouts.extents:per_server_bytes_batch",
    kind="reduction",
    param_map={"h": "h_arr", "s": "s_arr"},
    harness="extents_max_grid",
)
def max_server_bytes_grid(
    offsets: np.ndarray,
    lengths: np.ndarray,
    M: int,
    N: int,
    h_arr: np.ndarray,
    s_arr: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class *maximum* per-server byte count over a candidate grid.

    Returns ``(h_max, s_max)`` of shape ``(G, K)`` — for each candidate
    pair and request, the byte count of the most-loaded HServer and
    SServer.  Row ``g`` equals
    ``per_server_bytes_batch(..., h_arr[g], s_arr[g])[0].max(axis=1)``
    (and ``[1]`` likewise), but the per-server counts are folded into a
    running maximum, so no ``(G, K, M)`` tensor is ever materialized.
    Integer arithmetic throughout — exactly the scalar path's values.

    This is the kernel of the vectorized *batch* cost path, where the
    per-class completion bound only depends on the most-loaded server a
    request touches.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    h_arr = np.asarray(h_arr, dtype=np.int64)
    s_arr = np.asarray(s_arr, dtype=np.int64)
    if offsets.shape != lengths.shape or offsets.ndim != 1:
        raise ValueError("offsets and lengths must be equal-shape 1-D arrays")
    if h_arr.shape != s_arr.shape or h_arr.ndim != 1:
        raise ValueError("h_arr and s_arr must be equal-shape 1-D arrays")
    G, K = h_arr.shape[0], offsets.shape[0]
    h_eff = h_arr if M > 0 else np.zeros_like(h_arr)
    s_eff = s_arr if N > 0 else np.zeros_like(s_arr)
    cycle = M * h_eff + N * s_eff
    h_max = np.zeros((G, K), dtype=np.int64)
    s_max = np.zeros((G, K), dtype=np.int64)
    if G == 0 or K == 0 or not (cycle > 0).any():
        return h_max, s_max

    cyc = np.where(cycle > 0, cycle, 1)[:, None]
    full_e, rem_e = np.divmod((offsets + lengths)[None, :], cyc)
    full_o, rem_o = np.divmod(offsets[None, :], cyc)
    # degenerate (length <= 0) extents yield non-positive counts, which
    # the zero-initialized running max already clamps away

    if M > 0:
        w = h_eff[:, None]
        base = full_e * w - full_o * w
        for i in range(M):
            a = i * w
            np.maximum(
                h_max,
                base + np.clip(rem_e - a, 0, w) - np.clip(rem_o - a, 0, w),
                out=h_max,
            )
    if N > 0:
        start0 = (M * h_eff)[:, None]
        w = s_eff[:, None]
        base = full_e * w - full_o * w
        for j in range(N):
            a = start0 + j * w
            np.maximum(
                s_max,
                base + np.clip(rem_e - a, 0, w) - np.clip(rem_o - a, 0, w),
                out=s_max,
            )
    return h_max, s_max
