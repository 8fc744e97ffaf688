"""Dense real-matrix primitives: rank, RREF, projectors.

All operations are pure functions over numpy arrays.  Inputs are validated
eagerly: matrices must be 2-d, nonempty and finite, so numerical routines
never see NaN or Inf.

Rank and consistency have one rule: the pivots that :func:`_echelon` reads
from :func:`rref`, which snaps an entry to zero when it is negligible against
its own row, so no row scale moves them.  :func:`projection` and
``projection_form`` read their projector from one thin SVD of the echelon
rows, so its trace is the pivot count; no Gram matrix ``H H'`` is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_EPS = float(np.finfo(np.float64).eps)

# Zero-snap safety factor for row elimination.  Cancellation residue of a
# dependent row can exceed a bare max(m, n) * eps multiple of the row scale
# once pivot normalizations introduce non-representable fractions.
_SNAP_SAFETY = 64.0


class NumericError(RuntimeError):
    """An iterative numerical routine failed (e.g. SVD non-convergence)."""


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds shared by the rank-sensitive operations.

    ``rank_tol`` is a relative multiplier with one meaning everywhere.  In
    :func:`rref`, and so in every rank decision (:func:`rank`,
    :func:`projection`, consistency, equivalence, ``canonical_form`` and
    ``projection_form``), it snaps an entry negligible against its row.  In
    the Wald kernels of WTS and MATS, factored in ``statistics``, it drops an
    eigenvalue at most ``rank_tol`` times the largest.  ``None`` derives a
    scale-invariant default in both places.  It plays no part in the
    exactly-zero rows of ``dependence_classes`` and ``reduce_for_ats``.
    ``eq_tol`` is the relative tolerance for entrywise matrix comparisons.
    """

    rank_tol: float | None = None
    eq_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.rank_tol is not None and not (0.0 <= self.rank_tol < np.inf):
            raise ValueError(f"rank_tol must be finite and >= 0, got {self.rank_tol}")
        if not (0.0 <= self.eq_tol < np.inf):
            raise ValueError(f"eq_tol must be finite and >= 0, got {self.eq_tol}")


DEFAULT_TOLERANCE = Tolerance()


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-d float64 array, rejecting empty or non-finite data."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got array of shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    return m


def as_vector(v) -> np.ndarray:
    """Coerce input to a 1-d float64 array of finite entries."""
    x = np.asarray(v, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ValueError(f"expected a nonempty 1-d vector, got array of shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite (no NaN or Inf)")
    return x


def _pow2_scale(a: np.ndarray, axis: int | None = None):
    """A power of two near the largest ``|a|``, over all of ``a`` or along ``axis``.

    Dividing by it rounds nothing and brings the largest entry into [1, 2)
    (an all-zero input gets 0.5), so norms and sums of squares of the result
    neither overflow nor underflow, whatever the scale of ``a``.
    """
    return np.ldexp(1.0, np.frexp(np.max(np.abs(a), axis=axis))[1] - 1)


def _svd(a: np.ndarray):
    """Thin SVD of a validated matrix; singular values come sorted descending."""
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge: {exc}") from exc


def rank(a, tol: Tolerance | None = None) -> int:
    """Numerical rank: the pivot count of ``rref([a | 0])``, as for ``a theta = 0``."""
    return len(_echelon(a, 0.0, tol).pivots)


def rref(a, tol: Tolerance | None = None) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form by Gauss-Jordan elimination with partial pivoting.

    Returns ``(r, pivots)`` with the pivot columns ascending; each pivot is
    exactly 1 with exact zeros above and below it, and zero rows sort last.
    Every entry carries a bound on the magnitudes it was computed from.  With
    the multiplier ``rank_tol``, or ``64 * max(rows, cols) * eps`` by default,
    an entry is snapped to zero when negligible against the largest bound in
    its row while the row has no pivot, and against its own bound once it has:
    no row scale moves the rank, fully cancelled rows collapse to zero rows,
    and back substitution snaps no pivot.  A pivot must also beat the
    multiplier times the largest bound of a multiplier applied to its row,
    times the largest entry of its column in the pivot rows above; a smaller
    one is rounding those rows spread.  A large entry elsewhere in the row,
    such as a large right-hand side, does not raise that bound.
    """
    a = as_matrix(a)
    tol = tol or DEFAULT_TOLERANCE
    r = a.copy()
    m, n = r.shape
    rel = tol.rank_tol if tol.rank_tol is not None else _SNAP_SAFETY * max(m, n) * _EPS
    # Magnitudes each entry was computed from; per row, the largest of its multipliers'.
    bound = np.abs(r)
    carried = np.zeros(m)
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row == m:
            break
        p = row + int(np.argmax(np.abs(r[row:, col])))
        c = abs(r[p, col])
        if c <= rel * bound[p].max() or c <= rel * carried[p] * np.abs(r[:row, col]).max(initial=0.0):
            continue
        for x in (r, bound, carried):
            x[[row, p]] = x[[p, row]]
        pv = r[row, col]
        r[row] /= pv
        bound[row] /= abs(pv)
        f = r[:, col].copy()
        f[row] = 0.0
        r -= np.outer(f, r[row])
        r[:, col] = 0.0
        r[row, col] = 1.0
        mag = np.abs(r)
        np.maximum(bound, np.outer(np.abs(f), bound[row]), out=bound)
        np.maximum(bound, mag, out=bound)
        np.maximum(carried, bound[:, col], out=carried)
        settled = mag[:row] <= rel * bound[:row]
        settled[np.arange(row), pivots] = False
        r[:row][settled] = 0.0
        r[row:][mag[row:] <= rel * bound[row:].max(axis=1, keepdims=True)] = 0.0
        pivots.append(col)
        row += 1
    r[row:] = 0.0
    return r, pivots


class _Echelon(NamedTuple):
    """The nonzero ``rows`` of ``rref([h | y])`` and their ``pivots``, one per rank of ``h``.

    ``consistent``: no pivot lands in the y column, so ``h theta = y`` has a solution.
    """

    rows: np.ndarray
    pivots: list[int]
    consistent: bool


def _echelon(h, y, tol: Tolerance | None) -> _Echelon:
    """The :class:`_Echelon` of ``[h | y]``; ``y`` may be a scalar, such as 0."""
    h = as_matrix(h)
    r, pivots = rref(np.column_stack([h, np.full(h.shape[0], y)]), tol)
    return _Echelon(r[: len(pivots)], pivots, not pivots or pivots[-1] != h.shape[1])


def projection(h, tol: Tolerance | None = None) -> np.ndarray:
    """Orthogonal projector onto the row space of ``h``: ``hT (h hT)^+ h``.

    It is the ``p`` of ``projection_form`` for ``h theta = 0``, read from the
    same echelon rows, so its trace is ``rank(h, tol)``.  Any matrix with the
    same row space gives the same projector, symmetric and idempotent up to
    rounding, whatever the scale of ``h`` or of its rows.
    """
    vt = _svd(_echelon(h, 0.0, tol).rows[:, :-1])[2]
    return vt.T @ vt
