"""Quadratic-form test statistics over linear hypotheses.

Implements the Wald-type statistic, whose value is invariant under the choice
of hypothesis matrix, the diagonal-kernel modification of it, and the
ANOVA-type statistic with its trace-standardized variant, which are not.
Also hosts the half-vectorization helpers for covariance-matrix hypotheses
and a plain sample-covariance estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypothesis import LinearHypothesis
from .linalg import _EPS, NumericError, Tolerance, _pow2_scale, as_matrix, as_vector


@dataclass(frozen=True, eq=False)
class StatisticInput:
    """Statistic vector T, its covariance, and the total sample size.

    The covariance must be symmetric positive semidefinite; both properties
    are checked once at construction (within 1e-10 relative) so that the
    statistic evaluations themselves stay cheap inside resampling loops.
    This is the library's one PSD decision, and no scale of the covariance
    changes it: its norms are taken of the covariance divided by a power of
    two.  Wald kernels built from an accepted covariance are factored as PSD.
    """

    t: np.ndarray
    sigma: np.ndarray
    n: float

    def __post_init__(self) -> None:
        t = as_vector(self.t).copy()
        sigma = _covariance(self.sigma)
        if t.shape[0] != sigma.shape[0]:
            raise ValueError(
                f"T has length {t.shape[0]} but Sigma is "
                f"{sigma.shape[0]}x{sigma.shape[1]}"
            )
        n = _sample_size(self.n)
        t.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "n", n)

    @property
    def d(self) -> int:
        return self.t.shape[0]


@dataclass(frozen=True)
class StatisticResult:
    """A computed statistic: which form, its value, and ``m_effective``.

    ``m_effective`` is the Wald kernel's rank, the test's degrees of freedom,
    for WTS and MATS, and the row count of ``H`` for ATS and ATS_s.
    """

    kind: str
    value: float
    m_effective: int


def _sample_size(n) -> float:
    value = float(n)
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"sample size must be positive and finite, got {n}")
    return value


def _check_symmetric(a: np.ndarray, message: str) -> None:
    a = a / _pow2_scale(a)
    if float(np.linalg.norm(a - a.T)) > 1e-10 * float(np.linalg.norm(a)):
        raise ValueError(message)


def _covariance(sigma) -> np.ndarray:
    """A read-only copy of ``sigma``, checked to be square, symmetric and PSD."""
    sigma = as_matrix(sigma).copy()
    if sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"covariance must be square, got shape {sigma.shape}")
    _check_symmetric(sigma, "covariance is not symmetric")
    # A Cholesky factor exists only when the smallest eigenvalue is at least
    # about -d * eps * ||sigma||, far above the -1e-10 * ||sigma|| floor, so
    # success settles acceptance; singular and indefinite cases go to eigvalsh.
    # Cholesky squares no entry of sigma, so unlike the norms it needs no scaling.
    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        scaled = sigma / _pow2_scale(sigma)
        if float(np.linalg.eigvalsh(scaled)[0]) < -1e-10 * float(np.linalg.norm(scaled)):
            raise ValueError("covariance is not positive semidefinite") from None
    sigma.flags.writeable = False
    return sigma


def _check_match(width: int, d: int) -> None:
    if width != d:
        raise ValueError(
            f"hypothesis has {width} columns but the statistic vector has length {d}"
        )


def _wald_factor(
    hyp: LinearHypothesis, sigma: np.ndarray, tol: Tolerance | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(lam, v, h, y)``: ``r' K^+ r = sum(z^2 / lam)`` for ``z = v'(h t - y)``, ``K = H S H'``.

    ``S`` is Sigma, or its diagonal as a vector for MATS.  ``[h | y]`` is each
    row of ``[H | y]`` divided by a power of two near its largest ``|H|``, which
    rounds no entry of ``H``.  ``K`` is formed and factored on the nonzero rows
    and columns of ``H`` only: a zero column multiplies nothing, and a zero row
    adds a zero row and column to ``K``, which ``K^+`` ignores.  ``(lam, v)``
    are the eigenpairs with ``lam`` above the largest ``|lam|`` times
    ``rank_tol``, or the nonzero-row count times eps by default, as ``rref``
    reads it, so neither a row scale nor a change of unit of ``t``, ``y`` and
    ``Sigma`` moves the rank or the value; a negative ``lam`` is rounding.
    ``v`` keeps all ``m`` rows, exactly zero on the others.  A ``y`` past the
    float range after the row scaling is an error unless no pair is kept.
    """
    rows, cols, h, y = hyp._support
    hs = h[rows][:, cols]
    hs_s = hs * sigma[cols] if sigma.ndim == 1 else hs @ sigma[cols][:, cols]
    k = hs_s @ hs.T
    if k.shape == (1, 1):
        # What eigh returns for 1 x 1 input, without its LAPACK call overhead;
        # one-row hypotheses, the paper's minimal encodings, have such kernels.
        lam, vs = k[0].copy(), np.ones((1, 1))
    else:
        try:
            lam, vs = np.linalg.eigh(k)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"symmetric eigendecomposition did not converge: {exc}") from exc
    rel = None if tol is None else tol.rank_tol
    if rel is None:
        rel = k.shape[0] * _EPS
    keep = lam > rel * float(np.abs(lam).max(initial=0.0))
    lam, vs = lam[keep], vs[:, keep]
    if lam.size and not np.isfinite(y).all():
        # Every kept pair meets the inf residual, as inf or as NaN where v is 0.
        raise NumericError("the Wald form overflows the float range")
    if isinstance(rows, slice):
        return lam, vs, h, y
    v = np.zeros((h.shape[0], vs.shape[1]))
    v[rows] = vs
    return lam, v, h, y


def _finish(kind: str, value: float, m: int) -> StatisticResult:
    """The result of every statistic: a finite ``value``, or :class:`NumericError`."""
    if not math.isfinite(value):  # inf, or NaN where an inf residual met a zero or an inf
        form = "ANOVA-type" if kind.startswith("ATS") else "Wald"
        raise NumericError(f"the {form} form overflows the float range")
    return StatisticResult(kind, value, m)


def _wald(kind: str, t: np.ndarray, scale: float, factor) -> StatisticResult:
    """``scale * r' K^+ r`` for ``r = h t - y``, a sum of terms ``z^2 / lam >= 0``."""
    lam, v, h, y = factor
    z = (h @ t - y) @ v  # r before v mixes the rows: a small r keeps its relative accuracy
    return _finish(kind, scale * float((z / lam) @ z), lam.shape[0])


def wts(
    hyp: LinearHypothesis, inp: StatisticInput, tol: Tolerance | None = None
) -> StatisticResult:
    """Wald-type statistic ``N * (HT - y)' (H Sigma H')^+ (HT - y)``.

    For positive definite covariance the value depends only on the solution
    set of the hypothesis, not on the concrete matrix encoding it, so any two
    equivalent systems give the same number.
    """
    _check_match(hyp.d, inp.d)
    return _wald("WTS", inp.t, inp.n, _wald_factor(hyp, inp.sigma, tol))


def mats(
    hyp: LinearHypothesis, inp: StatisticInput, tol: Tolerance | None = None
) -> StatisticResult:
    """Modified ANOVA-type statistic: the Wald form with kernel ``H diag(Sigma) H'``.

    Carries no sample-size factor.  Requires every diagonal entry of the
    covariance to be strictly positive; under that condition the value shares
    the Wald statistic's invariance under the hypothesis-matrix choice.
    """
    diag = np.diag(inp.sigma)
    if np.any(diag <= 0):
        raise ValueError("MATS requires strictly positive covariance diagonal entries")
    _check_match(hyp.d, inp.d)
    return _wald("MATS", inp.t, 1.0, _wald_factor(hyp, diag, tol))


def ats(hyp: LinearHypothesis, t, n: float) -> StatisticResult:
    """ANOVA-type statistic ``N * ||HT - y||^2``.

    Unlike the Wald form, this value changes under most re-encodings of the
    hypothesis (already rescaling a row rescales its contribution); only zero
    rows, parallel-row collapsing with the proper weight, and row permutations
    leave it alone.  See ``reduce_for_ats``.
    """
    t = as_vector(t)
    _check_match(hyp.d, t.shape[0])
    n = _sample_size(n)
    with np.errstate(over="ignore"):  # an overflow raises in _finish
        r = hyp.h @ t - hyp.y
        return _finish("ATS", n * float(r @ r), hyp.m)


def ats_standardized(hyp: LinearHypothesis, inp: StatisticInput) -> StatisticResult:
    """ANOVA-type statistic divided by ``trace(H Sigma H')``.

    Both are quadratic in ``(H, y)``, so the ratio is computed on ``H`` and
    ``y`` divided by a power of two near the largest entry of ``H``.  That
    rounds nothing, and keeps the sums of squares in range at any scale of H.
    The trace is summed over the rows and columns of H with a nonzero entry.
    The vanishing test measures Sigma on those columns by its trace, which
    squares no entry.  The residual is divided by the trace before its dot
    product, as the Wald forms divide by ``lam``, so a finite value does not
    overflow on the way.
    """
    _check_match(hyp.d, inp.d)
    rows, cols = hyp._support.rows, hyp._support.cols
    g = _pow2_scale(hyp.h)
    h, y = hyp.h / g, hyp.y / g
    hs, s = h[rows][:, cols], inp.sigma[cols][:, cols]
    denom = float(np.sum((hs @ s) * hs))
    floor = _EPS * float(np.linalg.norm(hs) ** 2) * float(np.trace(s))
    if denom <= floor:
        raise ValueError(
            "trace(H Sigma H') vanishes; the hypothesis annihilates the covariance"
        )
    with np.errstate(over="ignore"):  # an overflow raises in _finish
        r = h @ inp.t - y
        return _finish("ATS_s", inp.n * float((r / denom) @ r), hyp.m)


class WtsKernel:
    """Wald-type statistic with the kernel pseudo-inverse factored once.

    The pseudo-inverse of ``H Sigma H'`` depends only on the hypothesis and
    the covariance, so for many statistic vectors (bootstrap or permutation
    replicates) it pays to factor it once.  The constructor keeps the form
    ``(lam, v, h, y)`` of :func:`_wald_factor` that :func:`wts` computes on
    every call, not a dense m x m inverse.  The kernel is factored on the
    nonzero rows and columns of ``H``, but ``v`` keeps all ``m`` rows, so an
    evaluation costs ``m * d`` and is the same arithmetic as in :func:`wts`.
    Instances are immutable and safe to share across threads; ``evaluate``
    returns exactly what :func:`wts` returns.
    """

    def __init__(
        self, hypothesis: LinearHypothesis, sigma, n: float, tol: Tolerance | None = None
    ) -> None:
        sigma = _covariance(sigma)
        if hypothesis.d != sigma.shape[0]:
            raise ValueError(
                f"hypothesis has {hypothesis.d} columns but Sigma is "
                f"{sigma.shape[0]}x{sigma.shape[1]}"
            )
        self._n = _sample_size(n)
        self._factor = _wald_factor(hypothesis, sigma, tol)
        for a in self._factor:
            a.flags.writeable = False

    def evaluate(self, t) -> StatisticResult:
        t = as_vector(t)
        _check_match(self._factor[2].shape[1], t.shape[0])
        return _wald("WTS", t, self._n, self._factor)


def vech_upper(v) -> np.ndarray:
    """Row-wise upper-triangle vectorization of a symmetric matrix.

    For a symmetric p x p matrix returns the length p(p+1)/2 vector
    ``(v11, ..., v1p, v22, ..., v2p, ..., vpp)``.
    """
    v = as_matrix(v)
    p, q = v.shape
    if p != q:
        raise ValueError(f"vech needs a square matrix, got shape {v.shape}")
    _check_symmetric(v, "vech needs a symmetric matrix")
    return v[np.triu_indices(p)].copy()


def diag_selector(p: int) -> np.ndarray:
    """Indicator of the diagonal positions in the vech ordering: ``vech(I_p)``.

    The returned vector s of length p(p+1)/2 satisfies
    ``s @ vech_upper(V) == trace(V)`` for symmetric V.
    """
    p = int(p)
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return np.eye(p)[np.triu_indices(p)]


def sample_covariance(x) -> np.ndarray:
    """Unbiased sample covariance (divisor n - 1) of observation rows, exactly symmetric.

    Raises :class:`NumericError` when a variance overflows the float range;
    finite data whose column sums overflow are centred column by column at a
    power-of-two scale instead.
    """
    x = as_matrix(x)
    if x.shape[0] < 2:
        raise ValueError(f"need at least 2 observations, got {x.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        centered = x - x.mean(axis=0)
        # numpy forms c' c of one buffer by a symmetric rank-k update: no rounding asymmetry.
        cov = centered.T @ centered / (x.shape[0] - 1)
    # |c_jk| <= sqrt(c_jj c_kk), so finite variances make every entry finite.
    if not np.isfinite(np.diag(cov)).all():
        # A column sum can overflow although the spread is finite.  Centre each
        # column divided by 2^e_j near its largest |x|, and scale c_jk back by
        # 2^(e_j + e_k) in one step: the product 2^e_j * 2^e_k alone may overflow.
        e = np.frexp(np.max(np.abs(x), axis=0))[1] - 1
        with np.errstate(over="ignore"):
            scaled = np.ldexp(x, -e)
            centered = scaled - scaled.mean(axis=0)
            cov = np.ldexp(centered.T @ centered / (x.shape[0] - 1), e[:, None] + e)
        if not np.isfinite(np.diag(cov)).all():
            raise NumericError("the sample covariance overflows the float range")
    return cov
