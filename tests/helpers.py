"""Shared randomized generators and the brute-force solution-set oracle.

The oracle parametrizes each solution set independently of the library's
row-echelon path: a particular point from numpy's pseudo-inverse plus a
null-space basis from numpy's SVD, with equivalence decided by membership of
sampled points of each affine set in the other.
"""

import numpy as np

from quadform import LinearHypothesis, Tolerance

# Tolerance for randomized harnesses.  Constructed matrices (products of
# shaped factors, row mixes, appended dependent rows) have genuine singular
# values >= ~1e-2 and float-rounding noise <= ~1e-12; an absolute 1e-8 cutoff
# separates the two regimes with several orders of margin on each side, so
# rank decisions cannot flip with the draw.
HARNESS_TOL = Tolerance(rank_tol=1e-8)

ORACLE_TOL = 1e-8


def random_orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def well_conditioned(rng, n, lo=0.5, hi=2.0):
    """Random invertible n x n matrix with singular values in [lo, hi]."""
    u = random_orthogonal(rng, n)
    v = random_orthogonal(rng, n)
    return (u * rng.uniform(lo, hi, size=n)) @ v.T


def shaped_matrix(rng, m, d, r):
    """Random m x d matrix of rank r with nonzero singular values in [0.5, 2]."""
    u = random_orthogonal(rng, m)[:, :r]
    v = random_orthogonal(rng, d)[:, :r]
    return (u * rng.uniform(0.5, 2.0, size=r)) @ v.T


def nearly_parallel_columns(rng, m, d, r, gap):
    """Random m x d matrix of rank r whose column 1 is 3 * column 0 plus ``gap`` noise."""
    v = rng.standard_normal((d, r))
    v[1] = 3.0 * v[0] + gap * rng.standard_normal(r)
    return rng.standard_normal((m, r)) @ v.T


def random_spd(rng, d, lo=0.5, hi=2.0):
    """Random symmetric positive definite matrix with eigenvalues in [lo, hi]."""
    q = random_orthogonal(rng, d)
    return (q * rng.uniform(lo, hi, size=d)) @ q.T


def random_consistent_hypothesis(rng, d):
    """Random consistent hypothesis, sometimes rank-deficient."""
    m = int(rng.integers(1, d + 1))
    r = int(rng.integers(1, m + 1))
    h = shaped_matrix(rng, m, d, r)
    y = h @ rng.standard_normal(d)
    return LinearHypothesis(h, y)


def equivalent_variant(rng, hyp):
    """Re-encode a hypothesis: append dependent rows, then mix rows invertibly."""
    h, y = hyp.h, hyp.y
    extra = int(rng.integers(0, 4))
    if extra:
        a = rng.uniform(-2.0, 2.0, size=(extra, h.shape[0]))
        h = np.vstack([h, a @ h])
        y = np.concatenate([y, a @ y])
    g = well_conditioned(rng, h.shape[0])
    return LinearHypothesis(g @ h, g @ y)


def equivalent_pair(rng, d):
    base = random_consistent_hypothesis(rng, d)
    return base, equivalent_variant(rng, base)


def hypothesis_with_redundancy(rng, max_class_size=4):
    """Consistent hypothesis containing zero rows and parallel-row classes.

    Class coefficients are drawn from [-3, 3] away from zero; the right-hand
    side comes from an exact solution, so the system is consistent by
    construction.  Rows are shuffled so class members are interleaved.
    """
    d = int(rng.integers(2, 7))
    n_base = int(rng.integers(1, 4))
    base = rng.standard_normal((n_base, d))
    solution = rng.standard_normal(d)
    rows = []
    for k in range(n_base):
        for j in range(int(rng.integers(1, max_class_size + 1))):
            if j == 0:
                coeff = 1.0
            else:
                coeff = rng.uniform(-3.0, 3.0)
                while abs(coeff) < 0.1:
                    coeff = rng.uniform(-3.0, 3.0)
            rows.append(coeff * base[k])
    for _ in range(int(rng.integers(0, 3))):
        rows.append(np.zeros(d))
    h = np.array(rows)[rng.permutation(len(rows))]
    return LinearHypothesis(h, h @ solution)


def near_tolerance_system(rng, log10_offset):
    """Two random rows in R^4 plus a combination of them whose y is off by 10**log10_offset.

    The offset is relative to the combined right-hand side, with a random
    sign.  Offsets between 1e-16 and 1e-11 straddle the consistency cutoff,
    so the family holds consistent and inconsistent systems close to it.
    """
    base = rng.standard_normal((2, 4))
    coef = rng.standard_normal(2)
    y = rng.standard_normal(2)
    offset = rng.choice([-1.0, 1.0]) * 10.0**log10_offset
    h = np.vstack([base, coef @ base])
    return LinearHypothesis(h, np.append(y, (coef @ y) * (1.0 + offset)))


def _membership_bound(hyp, point):
    return ORACLE_TOL * (
        1.0
        + np.linalg.norm(hyp.h) * (1.0 + np.linalg.norm(point))
        + np.linalg.norm(hyp.y)
    )


def solves(hyp, point):
    """Membership check: does the point satisfy H point = y up to rounding?"""
    residual = float(np.max(np.abs(hyp.h @ point - hyp.y)))
    return residual <= _membership_bound(hyp, point)


def nullspace(h):
    """Orthonormal null-space basis (d x nullity) from numpy's SVD."""
    u, s, vt = np.linalg.svd(h)
    smax = float(s[0]) if s.size else 0.0
    r = int(np.sum(s > ORACLE_TOL * max(1.0, smax)))
    return vt[r:].T


class OracleSystem:
    """Pseudo-inverse parametrization of one solution set."""

    def __init__(self, hyp):
        self.hyp = hyp
        self.particular = np.linalg.pinv(hyp.h) @ hyp.y
        self.consistent = solves(hyp, self.particular)
        self.null = nullspace(hyp.h) if self.consistent else None

    def sample(self, rng):
        point = self.particular
        if self.null.shape[1]:
            point = point + self.null @ (2.0 * rng.standard_normal(self.null.shape[1]))
        return point

    def key(self):
        """Hashable fingerprint of the solution set (for bucketing only)."""
        if not self.consistent:
            return "inconsistent"
        projector = self.null @ self.null.T
        return (
            self.null.shape[1],
            np.round(self.particular, 6).tobytes(),
            np.round(projector, 6).tobytes(),
        )


def oracle_verdict(a, b, rng, samples=4):
    """Brute-force solution-set comparison of two OracleSystem values."""
    if not a.consistent and not b.consistent:
        return "both-inconsistent"
    if not a.consistent:
        return "inconsistent-left"
    if not b.consistent:
        return "inconsistent-right"
    if a.null.shape[1] != b.null.shape[1]:
        return "not-equivalent"
    for _ in range(samples):
        if not solves(b.hyp, a.sample(rng)):
            return "not-equivalent"
        if not solves(a.hyp, b.sample(rng)):
            return "not-equivalent"
    return "equivalent"
