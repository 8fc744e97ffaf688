"""Dense real-matrix primitives: pseudo-inverse, rank, RREF, projectors.

All operations are pure functions over numpy arrays.  Inputs are validated
eagerly: matrices must be 2-d, nonempty and finite, so numerical routines
never see NaN or Inf.  Rank decisions are governed by a :class:`Tolerance`;
the default singular-value cutoff is ``max(rows, cols) * eps * s_max``, which
makes them invariant under rescaling of the input.

The public :func:`pinv` and :func:`projection` read the row space of their
input from one truncated thin SVD, cut where :func:`rank` cuts, so the trace
of a projector is the rank of its matrix.  Every internal pseudo-inverse is of
a symmetric Wald-type kernel ``H Sigma H'`` and uses one symmetric
eigendecomposition instead: the singular values of a symmetric matrix are the
magnitudes of its eigenvalues, so keeping the eigenpairs with ``|lambda|``
above the same cutoff makes the same rank decision at a fraction of the cost.
No Gram matrix ``H H'`` is formed, since it would square the condition number.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    ``rank_tol`` is an absolute singular-value cutoff for :func:`pinv`,
    :func:`rank`, :func:`projection` and the Wald-type kernels; ``None``
    derives the standard scale-invariant cutoff from the matrix itself.
    Inside :func:`rref`, and so in every hypothesis-level decision
    (consistency, equivalence, canonical form and ``projection_form``), it
    is a relative multiplier against each row's running magnitude.  It plays
    no part in the zero rows of ``dependence_classes`` and
    ``reduce_for_ats``, which are exactly-zero rows.  ``eq_tol`` is the
    relative tolerance for entrywise matrix comparisons.
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


def _svd(a: np.ndarray, compute_uv: bool = True):
    """Thin SVD of a validated matrix; singular values come sorted descending."""
    try:
        return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge: {exc}") from exc


def _rank_cutoff(s: np.ndarray, shape: tuple[int, int], tol: Tolerance | None) -> float:
    rank_tol = (tol or DEFAULT_TOLERANCE).rank_tol
    if rank_tol is not None:
        return rank_tol
    return max(shape) * _EPS * float(s.max(initial=0.0))


def _row_space(a: np.ndarray, tol: Tolerance | None):
    """Thin SVD ``(u, s, vt)`` of ``a`` cut to its :func:`rank` largest singular triples."""
    u, s, vt = _svd(a)
    k = int(np.count_nonzero(s > _rank_cutoff(s, a.shape, tol)))
    return u[:, :k], s[:k], vt[:k]


def pinv(a, tol: Tolerance | None = None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values at or below the rank cutoff are treated as exactly zero,
    so rank-deficient kernels invert cleanly on their range.  The result
    satisfies the four Penrose conditions up to rounding.
    """
    u, s, vt = _row_space(as_matrix(a), tol)
    return (vt.T / s) @ u.T


def _symmetric_factor(
    a: np.ndarray, tol: Tolerance | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-inverse of a symmetric matrix as its kept eigenpairs ``(lam, v)``.

    ``a^+ == v @ diag(1 / lam) @ v.T``.  Only the lower triangle of ``a`` is
    read.  An eigenpair is kept when ``|lam|`` exceeds the cutoff :func:`pinv`
    applies to the singular values, which for a symmetric matrix are exactly
    the ``|lam|``; each kept ``lam`` keeps its sign.
    """
    if a.shape == (1, 1):
        # What eigh returns for 1 x 1 input, without its LAPACK call overhead;
        # one-row hypotheses, the paper's minimal encodings, have such kernels.
        lam, v = a[0].copy(), np.ones((1, 1))
    else:
        try:
            lam, v = np.linalg.eigh(a)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"symmetric eigendecomposition did not converge: {exc}") from exc
    mag = np.abs(lam)
    keep = mag > _rank_cutoff(mag, a.shape, tol)
    return lam[keep], v[:, keep]


def _quadratic_form(lam: np.ndarray, v: np.ndarray, r: np.ndarray) -> float:
    """``r' a^+ r`` from the kept eigenpairs of ``a``: the sum of ``(v_i' r)^2 / lam_i``."""
    z = r @ v
    return float((z / lam) @ z)


def rank(a, tol: Tolerance | None = None) -> int:
    """Numerical rank: the number of singular values above the cutoff."""
    a = as_matrix(a)
    s = _svd(a, compute_uv=False)
    return int(np.count_nonzero(s > _rank_cutoff(s, a.shape, tol)))


def rref(a, tol: Tolerance | None = None) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form by Gauss-Jordan elimination with partial pivoting.

    Returns ``(r, pivots)`` where ``pivots`` lists the pivot column indices in
    ascending order.  Pivot entries are exactly 1 with exact zeros above and
    below them, and zero rows sort last.  During elimination, entries that are
    negligible relative to the largest magnitude their row has carried are
    snapped to exact zero; the relative multiplier is ``rank_tol`` when set,
    otherwise ``64 * max(rows, cols) * eps``.  Judging residue against the
    running row magnitude (not the current one) lets fully cancelled rows
    collapse to exact zero rows.
    """
    a = as_matrix(a)
    tol = tol or DEFAULT_TOLERANCE
    r = a.copy()
    m, n = r.shape
    rel = tol.rank_tol if tol.rank_tol is not None else _SNAP_SAFETY * max(m, n) * _EPS
    scale = np.max(np.abs(r), axis=1)
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row == m:
            break
        p = row + int(np.argmax(np.abs(r[row:, col])))
        if abs(r[p, col]) <= rel * scale[p]:
            continue
        if p != row:
            r[[row, p]] = r[[p, row]]
            scale[[row, p]] = scale[[p, row]]
        pv = r[row, col]
        r[row] /= pv
        scale[row] /= abs(pv)
        f = r[:, col].copy()
        f[row] = 0.0
        r -= np.outer(f, r[row])
        r[:, col] = 0.0
        r[row, col] = 1.0
        np.maximum(scale, np.abs(f) * scale[row], out=scale)
        np.maximum(scale, np.max(np.abs(r), axis=1), out=scale)
        r[np.abs(r) <= rel * scale[:, None]] = 0.0
        pivots.append(col)
        row += 1
    return r, pivots


def projection(h, tol: Tolerance | None = None) -> np.ndarray:
    """Orthogonal projector onto the row space of ``h``: ``hT (h hT)^+ h``.

    It is ``w.T @ w`` for the orthonormal row-space basis ``w`` of the SVD
    cut where :func:`rank` cuts, so its trace is ``rank(h, tol)``.  Any matrix
    with the same row space gives the same projector, symmetric and
    idempotent up to rounding, whatever the scale of ``h``.
    """
    w = _row_space(as_matrix(h), tol)[2]
    return w.T @ w
