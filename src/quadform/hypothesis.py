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
    _svd,
    as_matrix,
    as_vector,
    rref,
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


@dataclass(frozen=True, eq=False)
class LinearHypothesis:
    """A null hypothesis ``H theta = y`` with H of shape (m, d), y of length m.

    Arrays are copied and frozen at construction, so instances are immutable
    and safe to share across threads.  An all-zero H paired with a nonzero y
    is rejected: no theta can satisfy it.
    """

    h: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        h = as_matrix(self.h).copy()
        y = as_vector(self.y).copy()
        if y.shape[0] != h.shape[0]:
            raise ValueError(f"y has length {y.shape[0]} but H has {h.shape[0]} rows")
        if not h.any() and y.any():
            raise ValueError("all-zero H with nonzero y has no solution")
        h.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        """Number of constraint rows."""
        return self.h.shape[0]

    @property
    def d(self) -> int:
        """Dimension of the constrained parameter vector."""
        return self.h.shape[1]

    def augmented(self) -> np.ndarray:
        """The m x (d + 1) block matrix ``[H | y]``."""
        return np.column_stack([self.h, self.y])


# What _reduced_augmented returns: echelon rows, pivot columns, consistency.
_Reduced = tuple[np.ndarray, list[int], bool]


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
    return _reduced_augmented(hyp, tol or DEFAULT_TOLERANCE)[2]


def _reduced_augmented(hyp: LinearHypothesis, tol: Tolerance) -> _Reduced:
    """RREF of [H | y] with zero rows dropped, plus pivots and a consistency flag.

    A pivot landing in the y column means no solution exists.
    """
    r, pivots = rref(hyp.augmented(), tol)
    consistent = not pivots or pivots[-1] != hyp.d
    return r[: len(pivots)], pivots, consistent


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
    return _compare_reduced(_reduced_augmented(h1, tol), _reduced_augmented(h2, tol), tol)


def _compare_reduced(left: _Reduced, right: _Reduced, tol: Tolerance) -> EquivalenceVerdict:
    """The :func:`equivalent` verdict on two :func:`_reduced_augmented` results."""
    (r1, p1, c1), (r2, p2, c2) = left, right
    if not c1 and not c2:
        return EquivalenceVerdict.BOTH_INCONSISTENT
    if not c1:
        return EquivalenceVerdict.INCONSISTENT_LEFT
    if not c2:
        return EquivalenceVerdict.INCONSISTENT_RIGHT
    if p1 == p2 and np.allclose(r1, r2, rtol=tol.eq_tol, atol=tol.eq_tol):
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
    tol = tol or DEFAULT_TOLERANCE
    rows, pivots, consistent = _reduced_augmented(hyp, tol)
    if not consistent:
        raise InconsistentHypothesisError("cannot canonicalize: hypothesis has no solution")
    if not pivots:
        return LinearHypothesis(np.zeros((1, hyp.d)), np.zeros(1))
    return LinearHypothesis(rows[:, :-1], rows[:, -1])


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
    rows, _, consistent = reduced = _reduced_augmented(hyp, tol)
    if not consistent:
        raise InconsistentHypothesisError("no projection form: hypothesis has no solution")
    u, s, vt = _svd(rows[:, :-1])
    p = vt.T @ vt
    if not hyp.y.any():
        return ProjectionForm(p, True, np.zeros(hyp.d))
    y_out = vt.T @ ((u.T @ rows[:, -1]) / s)
    verdict = _compare_reduced(reduced, _reduced_augmented(LinearHypothesis(p, y_out), tol), tol)
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
    g = np.ldexp(1.0, np.frexp(np.max(np.abs(h), axis=1))[1] - 1)
    hs = h / g[:, None]
    norms = np.linalg.norm(hs, axis=1)
    zero_rows: list[int] = []
    groups: list[tuple[list[int], list[float]]] = []
    units: list[np.ndarray] = []
    for i in range(h.shape[0]):
        if norms[i] == 0.0:
            zero_rows.append(i)
            continue
        u = hs[i] / norms[i]
        lead = int(np.argmax(np.abs(u) > tol.eq_tol))
        if u[lead] < 0:
            u = -u
        for ref, (members, coeffs) in zip(units, groups):
            if np.max(np.abs(u - ref)) <= tol.eq_tol:
                rep = members[0]
                members.append(i)
                coeffs.append(float(hs[i] @ hs[rep] / norms[rep] ** 2 * (g[i] / g[rep])))
                break
        else:
            units.append(u)
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
