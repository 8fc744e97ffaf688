"""Linear hypotheses ``H theta = y``: equivalence, canonical and reduced forms.

Many different matrix/vector pairs encode the same null hypothesis.  This
module decides when two encodings have identical solution sets, produces the
row-echelon canonical representative, converts to the unique projector form,
and collapses zero rows and pairwise parallel rows in the way that leaves the
ANOVA-type statistic unchanged.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    DEFAULT_TOLERANCE,
    Tolerance,
    _Echelon,
    _echelon,
    _pow2_scale,
    _svd,
    as_matrix,
    as_vector,
)


class InconsistentHypothesisError(ValueError):
    """The linear system ``H theta = y`` admits no solution."""


class EquivalenceVerdict(enum.Enum):
    """Outcome of comparing the solution sets of two linear hypotheses.

    Inconsistent systems have empty solution sets and are never reported as
    equivalent, not even to each other.
    """

    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not-equivalent"
    INCONSISTENT_LEFT = "inconsistent-left"
    INCONSISTENT_RIGHT = "inconsistent-right"
    BOTH_INCONSISTENT = "both-inconsistent"


class _Support(NamedTuple):
    """The support of ``H`` and the row-scaled ``[h | y]`` of its Wald forms.

    ``rows`` and ``cols`` index the rows and the columns of ``H`` with a
    nonzero entry; each is ``slice(None)`` when that is all of them, so that
    indexing with it copies nothing.  ``[h | y]`` is ``[H | y]`` with each row
    divided by a power of two near its largest ``|H|``, which rounds no entry
    of ``H``, or by 1 for a zero row; a ``y`` entry past the float range after
    that division is inf.
    """

    rows: slice | np.ndarray
    cols: slice | np.ndarray
    h: np.ndarray
    y: np.ndarray


def _indices(nonzero: np.ndarray) -> slice | np.ndarray:
    return slice(None) if nonzero.all() else np.flatnonzero(nonzero)


@dataclass(frozen=True, eq=False)
class LinearHypothesis:
    """A null hypothesis ``H theta = y`` with H of shape (m, d), y of length m.

    Arrays are copied and frozen at construction, so instances are immutable
    and safe to share across threads.  An all-zero H paired with a nonzero y
    is rejected: no theta can satisfy it.

    Construction also keeps what the statistics read on every call, as
    ``_support`` (see :class:`_Support`).
    """

    h: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        h = as_matrix(self.h).copy()
        y = as_vector(self.y).copy()
        if y.shape[0] != h.shape[0]:
            raise ValueError(f"y has length {y.shape[0]} but H has {h.shape[0]} rows")
        rows = h.any(axis=1)
        if not rows.any() and y.any():
            raise ValueError("all-zero H with nonzero y has no solution")
        g = np.where(rows, _pow2_scale(h, axis=1), 1.0)  # no Wald form reads a zero row's y
        with np.errstate(over="ignore"):  # the Wald forms decide what an inf y means
            h_scaled, y_scaled = h / g[:, None], y / g
        for a in (h, y, h_scaled, y_scaled):
            a.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "y", y)
        support = _Support(_indices(rows), _indices(h.any(axis=0)), h_scaled, y_scaled)
        object.__setattr__(self, "_support", support)

    @property
    def m(self) -> int:
        """Number of constraint rows."""
        return self.h.shape[0]

    @property
    def d(self) -> int:
        """Dimension of the constrained parameter vector."""
        return self.h.shape[1]


class ProjectionForm(NamedTuple):
    """Projector encoding of a hypothesis: ``p theta = y`` plus an equivalence flag."""

    p: np.ndarray
    equivalent: bool
    y: np.ndarray


@dataclass(frozen=True)
class DependenceClass:
    """Rows that are pairwise scalar multiples of one representative row.

    ``members`` holds ascending row indices; ``members[0]`` is the
    representative.  ``coefficients[j]`` is the scalar with
    ``row[members[j]] == coefficients[j] * row[members[0]]``, so
    ``coefficients[0] == 1``.
    """

    members: tuple[int, ...]
    coefficients: tuple[float, ...]

    @property
    def representative(self) -> int:
        return self.members[0]

    @property
    def weight(self) -> float:
        """Row multiplier preserving quadratic row sums: sqrt of summed squared coefficients."""
        return math.hypot(*self.coefficients)


@dataclass(frozen=True)
class DependencePartition:
    """Partition of row indices into zero rows and linear-dependence classes.

    Classes are ordered by their smallest member index; together with
    ``zero_rows`` they cover every row index exactly once.
    """

    zero_rows: tuple[int, ...]
    classes: tuple[DependenceClass, ...]


def is_consistent(hyp: LinearHypothesis, tol: Tolerance | None = None) -> bool:
    """True unless a pivot of the row-reduced ``[H | y]`` lands in the y column.

    This pivot test is the one consistency decision of every entry point;
    ``rank_tol`` is the relative snap multiplier of :func:`rref` here.
    """
    return _echelon(hyp.h, hyp.y, tol).consistent


def equivalent(
    h1: LinearHypothesis, h2: LinearHypothesis, tol: Tolerance | None = None
) -> EquivalenceVerdict:
    """Decide whether two hypotheses have identical solution sets.

    The decision compares the reduced row echelon forms of the two augmented
    systems after dropping zero rows, entrywise within ``eq_tol``.
    """
    tol = tol or DEFAULT_TOLERANCE
    if h1.d != h2.d:
        raise ValueError(f"hypotheses constrain different spaces: d={h1.d} vs d={h2.d}")
    return _compare_reduced(_echelon(h1.h, h1.y, tol), _echelon(h2.h, h2.y, tol), tol)


def _compare_reduced(a: _Echelon, b: _Echelon, tol: Tolerance) -> EquivalenceVerdict:
    """The :func:`equivalent` verdict on the echelons ``a`` (left) and ``b`` (right)."""
    if not a.consistent and not b.consistent:
        return EquivalenceVerdict.BOTH_INCONSISTENT
    if not a.consistent:
        return EquivalenceVerdict.INCONSISTENT_LEFT
    if not b.consistent:
        return EquivalenceVerdict.INCONSISTENT_RIGHT
    if a.pivots == b.pivots and np.allclose(a.rows, b.rows, rtol=tol.eq_tol, atol=tol.eq_tol):
        return EquivalenceVerdict.EQUIVALENT
    return EquivalenceVerdict.NOT_EQUIVALENT


def canonical_form(hyp: LinearHypothesis, tol: Tolerance | None = None) -> LinearHypothesis:
    """Row-echelon canonical representative of the hypothesis.

    Equivalent hypotheses share one canonical form up to ``eq_tol``, which is
    what makes it usable as a hypothesis-matrix choice for statistics that are
    not invariant under re-encoding.  The fully unconstrained hypothesis
    (all-zero H, zero y) keeps a single zero row so the result remains a
    well-formed hypothesis.
    """
    echelon = _echelon(hyp.h, hyp.y, tol)
    if not echelon.consistent:
        raise InconsistentHypothesisError("cannot canonicalize: hypothesis has no solution")
    if not echelon.pivots:
        return LinearHypothesis(np.zeros((1, hyp.d)), np.zeros(1))
    return LinearHypothesis(echelon.rows[:, :-1], echelon.rows[:, -1])


def projection_form(hyp: LinearHypothesis, tol: Tolerance | None = None) -> ProjectionForm:
    """Express the hypothesis through the unique projector onto H's row space.

    Returns ``(p, equivalent, y)`` with ``p = HT (H HT)^+ H``, computed as
    ``R^+ R`` from the echelon rows ``[R | y_R]`` of :func:`canonical_form`.
    ``R`` holds an identity in its pivot columns, so ``trace(p)`` is the
    number of pivots however the rows of H are scaled.  For a zero
    right-hand side, ``p theta = 0`` always has the original solution set.
    Otherwise the right-hand side is mapped to ``R^+ y_R == HT (H HT)^+ y``
    and the flag records whether ``p theta = y_out`` still encodes the same
    hypothesis, verified as :func:`equivalent` would rather than assumed.
    """
    tol = tol or DEFAULT_TOLERANCE
    echelon = _echelon(hyp.h, hyp.y, tol)
    if not echelon.consistent:
        raise InconsistentHypothesisError("no projection form: hypothesis has no solution")
    u, s, vt = _svd(echelon.rows[:, :-1])
    p = vt.T @ vt
    if not hyp.y.any():
        return ProjectionForm(p, True, np.zeros(hyp.d))
    y_out = vt.T @ ((u.T @ echelon.rows[:, -1]) / s)
    verdict = _compare_reduced(echelon, _echelon(p, y_out, tol), tol)
    return ProjectionForm(p, verdict is EquivalenceVerdict.EQUIVALENT, y_out)


def dependence_classes(h, tol: Tolerance | None = None) -> DependencePartition:
    """Group matrix rows into zero rows and classes of pairwise parallel rows.

    A row counts as zero only when its norm is exactly zero, the rule
    :func:`rref` applies to a single row; ``rank_tol`` plays no part here.  Two
    rows share a class when their unit-normalized forms, with sign fixed so
    the first significant component is positive, agree entrywise within
    ``eq_tol``.  Each member's coefficient relative to the class
    representative (the smallest row index) is recovered by projection.
    Both are computed from each row divided by a power of two near its
    largest entry, which rounds nothing and keeps the squares in range.
    """
    h = as_matrix(h)
    tol = tol or DEFAULT_TOLERANCE
    g = _pow2_scale(h, axis=1)
    hs = h / g[:, None]
    norms = np.linalg.norm(hs, axis=1)
    zero_rows = np.flatnonzero(norms == 0.0).tolist()
    nonzero = np.flatnonzero(norms)
    units = hs[nonzero] / norms[nonzero, None]
    lead = np.argmax(np.abs(units) > tol.eq_tol, axis=1)
    units[units[np.arange(len(nonzero)), lead] < 0] *= -1.0
    groups: list[tuple[list[int], list[float]]] = []
    reps = np.empty_like(units)  # the first len(groups) rows are the class units
    for i, u in zip(nonzero.tolist(), units):
        hits = np.max(np.abs(reps[: len(groups)] - u), axis=1) <= tol.eq_tol
        if hits.any():
            members, coeffs = groups[int(np.argmax(hits))]
            rep = members[0]
            members.append(i)
            coeffs.append(float(hs[i] @ hs[rep] / norms[rep] ** 2 * (g[i] / g[rep])))
        else:
            reps[len(groups)] = u
            groups.append(([i], [1.0]))
    return DependencePartition(
        zero_rows=tuple(zero_rows),
        classes=tuple(DependenceClass(tuple(ms), tuple(cs)) for ms, cs in groups),
    )


def reduce_for_ats(hyp: LinearHypothesis, tol: Tolerance | None = None) -> LinearHypothesis:
    """Collapse zero rows and parallel-row classes without changing the ATS.

    Each class of pairwise parallel rows is replaced by its representative row
    scaled by the square root of the summed squared class coefficients, with
    the right-hand side entry scaled identically; zero rows are dropped.  Both
    the plain and the trace-standardized ANOVA-type statistics are invariant
    under this reduction, as is the solution set.

    The output is unique for a given input matrix; two different (if
    equivalent) starting matrices may still reduce to different outputs.
    Rows parallel within ``eq_tol`` whose right-hand sides disagree are
    rejected even in a consistent system: collapsing them changes its solutions.
    """
    tol = tol or DEFAULT_TOLERANCE
    if not is_consistent(hyp, tol):
        raise InconsistentHypothesisError("cannot reduce: hypothesis has no solution")
    partition = dependence_classes(hyp.h, tol)
    for cls in partition.classes:
        rep = cls.representative
        for idx, coeff in zip(cls.members, cls.coefficients):
            expected = coeff * hyp.y[rep]
            if abs(hyp.y[idx] - expected) > tol.eq_tol * (1.0 + abs(expected)):
                raise InconsistentHypothesisError(
                    f"rows {rep} and {idx} are parallel within eq_tol but their "
                    f"right-hand sides disagree; no ATS-safe reduction exists"
                )
    if not partition.classes:
        return LinearHypothesis(np.zeros((1, hyp.d)), np.zeros(1))
    reps = [cls.representative for cls in partition.classes]
    weights = np.array([cls.weight for cls in partition.classes])
    return LinearHypothesis(weights[:, None] * hyp.h[reps], weights * hyp.y[reps])
