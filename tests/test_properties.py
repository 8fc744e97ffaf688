"""Property-based checks of the symmetric factorization, the Wald-type forms,
the consistency decision and the projectors.

Examples are derandomized, so every run draws the same ones.  Floats inside a
matrix come from a numpy generator seeded by the drawn ``seed``; the drawn
structure (sizes, spectra, redundant rows) is what Hypothesis varies.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadform import (
    InconsistentHypothesisError,
    LinearHypothesis,
    StatisticInput,
    Tolerance,
    WtsKernel,
    canonical_form,
    is_consistent,
    mats,
    pinv,
    projection,
    projection_form,
    rank,
    wts,
)
from quadform.linalg import _rank_cutoff, _symmetric_factor

from helpers import (
    near_tolerance_system,
    random_orthogonal,
    random_spd,
    shaped_matrix,
    well_conditioned,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

seeds = st.integers(0, 2**32 - 1)

# Two bands of eigenvalue magnitudes more than 4x on either side of the
# explicit 0.2 cutoff, plus exact zeros, so that cutoff removes genuine
# eigenvalues while the 1e-8 one only removes rounding noise.
eigenvalues = st.one_of(
    st.just(0.0),
    st.floats(0.01, 0.04),
    st.floats(-0.04, -0.01),
    st.floats(1.0, 3.0),
    st.floats(-3.0, -1.0),
)
tolerances = st.sampled_from([None, Tolerance(rank_tol=1e-8), Tolerance(rank_tol=0.2)])


@PROPERTY
@given(spectrum=st.lists(eigenvalues, min_size=1, max_size=8), seed=seeds, tol=tolerances)
def test_symmetric_factor_matches_svd_pinv(spectrum, seed, tol):
    n = len(spectrum)
    q = random_orthogonal(np.random.default_rng(seed), n)
    a = (q * np.array(spectrum)) @ q.T
    a = (a + a.T) / 2.0
    s = np.linalg.svd(a, compute_uv=False)
    cutoff = _rank_cutoff(s, a.shape, tol or Tolerance())
    # A singular value within 4x of the cutoff is a near tie, which the two
    # factorizations may settle differently by rounding alone.
    assume(not np.any((s > cutoff / 4.0) & (s < 4.0 * cutoff)))

    lam, v = _symmetric_factor(a, tol)
    assert lam.size == rank(a, tol)
    ref = pinv(a, tol)
    np.testing.assert_allclose((v / lam) @ v.T, ref, atol=1e-10 * (1.0 + np.linalg.norm(ref)))


def _redundant_pair(rng, d, zero_rows, duplicates):
    """A full-row-rank hypothesis and an equivalent one with zero and repeated rows, mixed."""
    m = int(rng.integers(1, d + 1))
    h = shaped_matrix(rng, m, d, m)
    y = h @ rng.standard_normal(d)
    picks = rng.integers(0, m, size=duplicates)
    h2 = np.vstack([h, h[picks], np.zeros((zero_rows, d))])
    y2 = np.concatenate([y, y[picks], np.zeros(zero_rows)])
    g = well_conditioned(rng, h2.shape[0])
    return LinearHypothesis(h, y), LinearHypothesis(g @ h2, g @ y2)


@PROPERTY
@given(
    seed=seeds,
    d=st.integers(1, 6),
    zero_rows=st.integers(0, 3),
    duplicates=st.integers(0, 3),
)
def test_wts_and_mats_invariant_under_reencoding(seed, d, zero_rows, duplicates):
    rng = np.random.default_rng(seed)
    base, variant = _redundant_pair(rng, d, zero_rows, duplicates)
    # Off the null hypothesis, so the values are not all zero.
    t = rng.standard_normal(d)
    inp = StatisticInput(t, random_spd(rng, d), float(rng.integers(1, 50)))
    for statistic in (wts, mats):
        expected = statistic(base, inp).value
        assert statistic(variant, inp).value == pytest.approx(expected, rel=1e-8, abs=1e-10)


@PROPERTY
@given(
    seed=seeds,
    d=st.integers(1, 6),
    zero_rows=st.integers(0, 2),
    duplicates=st.integers(0, 2),
    tol=tolerances,
)
def test_kernel_evaluate_equals_wts_exactly(seed, d, zero_rows, duplicates, tol):
    rng = np.random.default_rng(seed)
    _, hyp = _redundant_pair(rng, d, zero_rows, duplicates)
    sigma = random_spd(rng, d)
    n = float(rng.integers(1, 50))
    kernel = WtsKernel(hyp, sigma, n, tol)
    for _ in range(3):
        t = rng.standard_normal(d)
        assert kernel.evaluate(t).value == wts(hyp, StatisticInput(t, sigma, n), tol).value


def _canonical_or_none(hyp):
    try:
        return canonical_form(hyp)
    except InconsistentHypothesisError:
        return None


@PROPERTY
@given(
    seed=seeds,
    log10_offset=st.floats(-17.0, -8.0),
    k=st.sampled_from([40, -40, 300, -300]),
)
def test_consistency_verdicts_unchanged_by_power_of_two_scaling(seed, log10_offset, k):
    # Offsets on both sides of the cutoff give consistent and inconsistent
    # systems close to it, where a scale-dependent decision would flip.
    hyp = near_tolerance_system(np.random.default_rng(seed), log10_offset)
    scaled = LinearHypothesis(np.ldexp(hyp.h, k), np.ldexp(hyp.y, k))
    assert is_consistent(scaled) is is_consistent(hyp)
    canon, canon_scaled = _canonical_or_none(hyp), _canonical_or_none(scaled)
    assert (canon is None) is (canon_scaled is None)
    if canon is not None:
        # Scaling by a power of two rounds nothing, and pivot normalization
        # divides it back out, so the canonical forms agree bit for bit.
        np.testing.assert_array_equal(canon_scaled.h, canon.h)
        np.testing.assert_array_equal(canon_scaled.y, canon.y)


@PROPERTY
@given(
    seed=seeds,
    d=st.integers(2, 6),
    ks=st.lists(st.integers(-60, 60), min_size=1, max_size=5),
    log10_gap=st.one_of(st.none(), st.floats(-10.0, -6.0)),
)
def test_projectors_follow_the_rank_decisions_under_row_scaling(seed, d, ks, log10_gap):
    rng = np.random.default_rng(seed)
    h = shaped_matrix(rng, len(ks), d, int(rng.integers(1, min(len(ks), d) + 1)))
    if log10_gap is not None:
        # A nearly parallel copy of row 0: H H' would square the gap.
        h = np.vstack([h, h[0] + 10.0**log10_gap * rng.standard_normal(d)])
        ks = [*ks, ks[0]]
    h = np.ldexp(h, np.array(ks)[:, None])
    hyp = LinearHypothesis(h, h @ rng.standard_normal(d))
    assert round(np.trace(projection(h))) == rank(h)
    canon = _canonical_or_none(hyp)
    if canon is None:
        with pytest.raises(InconsistentHypothesisError):
            projection_form(hyp)
        return
    form = projection_form(hyp)
    assert round(np.trace(form.p)) == canon.m
    assert form.equivalent


def test_projectors_keep_a_row_1e9_times_smaller():
    # H H' has eigenvalues 1 and 1e-18 here, the second under its rank cutoff.
    h = np.array([[1.0, 0.0, 0.0], [0.0, 1e-9, 0.0]])
    kept = np.diag([1.0, 1.0, 0.0])
    assert rank(h) == 2
    np.testing.assert_allclose(projection(h), kept, atol=1e-12)
    form = projection_form(LinearHypothesis(h, [1.0, 1e-9]))
    np.testing.assert_allclose(form.p, kept, atol=1e-12)
    assert form.equivalent
    np.testing.assert_allclose(form.y, [1.0, 1.0, 0.0], atol=1e-12)
