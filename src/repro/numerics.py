"""Tolerance-based float comparison helpers.

Costs, centroids, and timestamps go through enough floating-point
arithmetic that exact ``==`` is a latent bug: a feature spread of
``1e-17`` is "zero" for normalisation purposes, but ``spread == 0.0``
misses it and the next line divides by it.  repro-lint's RL005 rule
bans exact float equality in ``src/``; these helpers are the sanctioned
replacements.

The default absolute tolerance is deliberately generous (``1e-12``)
relative to the quantities compared here — seconds of service time and
bytes-as-floats — both of which are far above ``1e-9`` when they are
meaningfully non-zero.

:func:`unique_values` is here too: the ``np.unique`` every distinct-count
in ``src/`` calls, by a path that does not import ``numpy.ma``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ABS_TOL",
    "REL_TOL",
    "isclose",
    "near_zero",
    "replace_near_zero",
    "unique_values",
]

#: absolute tolerance for "equal" / "zero" decisions on model floats
ABS_TOL: float = 1e-12
#: relative tolerance for "equal" decisions on model floats
REL_TOL: float = 1e-9


def isclose(a: float, b: float, *, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    """Scalar tolerance comparison (wraps :func:`math.isclose`)."""
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def near_zero(values: "np.ndarray | float", *, tol: float = ABS_TOL) -> "np.ndarray":
    """Elementwise ``|x| <= tol`` mask (scalars give a 0-d array)."""
    return np.less_equal(np.abs(values), tol)


def replace_near_zero(
    values: "np.ndarray", replacement: float, *, tol: float = ABS_TOL
) -> "np.ndarray":
    """A copy of ``values`` with near-zero entries set to ``replacement``.

    The normalisation-guard idiom: ``replace_near_zero(spread, 1.0)``
    maps constant axes to a unit normaliser so they contribute zero
    distance instead of dividing by (almost) zero.
    """
    return np.where(near_zero(values, tol=tol), replacement, values)


def unique_values(values: "np.ndarray", *, axis: int | None = None) -> "np.ndarray":
    """``np.unique(values, axis=axis)``: the sorted distinct values (rows).

    A plain ``np.unique`` call asks ``np.ma.is_masked`` before trying
    its hash table, and so imports ``numpy.ma`` on its first call (with
    NumPy 2.4: 16-17 ms and 1.3 MiB, paid inside the first plan of a
    process).  Asking for the counts skips that check and takes the
    sorting path, which returns the same sorted values.
    """
    return np.unique(values, return_counts=True, axis=axis)[0]
