"""Property-based checks of the PSD factorization, the statistics, the
consistency decision, row reduction and the projectors.

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
    ats_standardized,
    canonical_form,
    dependence_classes,
    is_consistent,
    mats,
    projection,
    projection_form,
    rank,
    rref,
    wts,
)
from quadform.linalg import _pow2_scale
from quadform.statistics import _wald_factor

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
def test_psd_factor_matches_svd_pinv_of_the_psd_part(spectrum, seed, tol):
    n = len(spectrum)
    q = random_orthogonal(np.random.default_rng(seed), n)
    a = (q * np.array(spectrum)) @ q.T
    a = (a + a.T) / 2.0
    psd = (q * np.maximum(spectrum, 0.0)) @ q.T
    psd = (psd + psd.T) / 2.0
    s = np.linalg.svd(a, compute_uv=False)
    cutoff = tol.rank_tol * s[0] if tol else n * np.finfo(np.float64).eps * s[0]
    # A singular value within 4x of the cutoff is a near tie, which the two
    # factorizations may settle differently by rounding alone.
    assume(not np.any((s > cutoff / 4.0) & (s < 4.0 * cutoff)))

    lam, v, _, _ = _wald_factor(LinearHypothesis(np.eye(n), np.zeros(n)), a, tol)
    assert np.all(lam > 0.0)
    # The cutoff comes from all of a's spectrum, negative eigenvalues included.
    assert lam.size == np.linalg.matrix_rank(psd, tol=cutoff)
    u, s_psd, vt = np.linalg.svd(psd)
    keep = s_psd > cutoff
    ref = (vt[keep].T / s_psd[keep]) @ u[:, keep].T
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


def _padded_with_zeros(rng, hyp, zero_rows, zero_cols):
    """``hyp`` with exact zero rows (``y = 0``) and zero columns put in at random,
    and the new indices of its own columns."""
    m, d = hyp.h.shape
    rows = np.sort(rng.choice(m + zero_rows, m, replace=False))
    cols = np.sort(rng.choice(d + zero_cols, d, replace=False))
    h = np.zeros((m + zero_rows, d + zero_cols))
    h[np.ix_(rows, cols)] = hyp.h
    y = np.zeros(m + zero_rows)
    y[rows] = hyp.y
    return LinearHypothesis(h, y), cols


@PROPERTY
@given(
    seed=seeds,
    d=st.integers(1, 6),
    m=st.integers(1, 6),
    zero_rows=st.integers(0, 4),
    zero_cols=st.integers(0, 4),
    tol=tolerances,
)
def test_zero_rows_and_columns_of_h_change_no_statistic(seed, d, m, zero_rows, zero_cols, tol):
    # A zero column multiplies nothing, and a zero row adds a zero row and
    # column to the kernel, which its pseudo-inverse ignores: whatever Sigma
    # couples the extra columns with and whatever t holds there, the values
    # and the kernel rank stay, and the default cutoff does not move.
    rng = np.random.default_rng(seed)
    h = shaped_matrix(rng, m, d, int(rng.integers(1, min(m, d) + 1)))
    base = LinearHypothesis(h, h @ rng.standard_normal(d) + 0.1 * rng.standard_normal(m))
    padded, cols = _padded_with_zeros(rng, base, zero_rows, zero_cols)
    sigma, t, n = random_spd(rng, padded.d), rng.standard_normal(padded.d), float(rng.integers(1, 50))
    inp = StatisticInput(t, sigma, n)
    base_inp = StatisticInput(t[cols], sigma[np.ix_(cols, cols)], n)
    for statistic in (wts, mats):
        expected, got = statistic(base, base_inp, tol), statistic(padded, inp, tol)
        assert got.m_effective == expected.m_effective
        assert got.value == pytest.approx(expected.value, rel=1e-12)
    expected = ats_standardized(base, base_inp).value
    assert ats_standardized(padded, inp).value == pytest.approx(expected, rel=1e-12)
    assert WtsKernel(padded, sigma, n, tol).evaluate(t) == wts(padded, inp, tol)


@PROPERTY
@given(
    seed=seeds,
    d=st.integers(1, 6),
    ks=st.lists(st.integers(-60, 60), min_size=1, max_size=6),
    tol=tolerances,
)
def test_wald_forms_unchanged_by_power_of_two_row_scaling(seed, d, ks, tol):
    # Each row and its right-hand side scaled by 2^k, which rounds nothing:
    # the rows the kernel is formed from, and so every value, stay bit for bit.
    rng = np.random.default_rng(seed)
    h = shaped_matrix(rng, len(ks), d, int(rng.integers(1, min(len(ks), d) + 1)))
    y = h @ rng.standard_normal(d) + 0.1 * rng.standard_normal(len(ks))
    hyp = LinearHypothesis(h, y)
    scaled = LinearHypothesis(np.ldexp(h, np.array(ks)[:, None]), np.ldexp(y, ks))
    sigma = random_spd(rng, d)
    inp = StatisticInput(rng.standard_normal(d), sigma, float(rng.integers(1, 50)))
    for statistic in (wts, mats):
        assert statistic(scaled, inp, tol) == statistic(hyp, inp, tol)
    kernel = WtsKernel(scaled, sigma, inp.n, tol)
    assert kernel.evaluate(inp.t) == WtsKernel(hyp, sigma, inp.n, tol).evaluate(inp.t)


@PROPERTY
@given(
    seed=seeds,
    d=st.integers(2, 6),
    extra_rows=st.integers(0, 2),
    log10_rel=st.floats(-13.0, -10.5),
    tol=tolerances,
)
def test_wald_forms_are_nonnegative_for_accepted_slightly_indefinite_sigma(
    seed, d, extra_rows, log10_rel, tol
):
    # The smallest eigenvalue of Sigma is -10**log10_rel * ||Sigma||_F, inside
    # the 1e-10 relative slack StatisticInput allows.
    rng = np.random.default_rng(seed)
    spectrum = rng.uniform(0.5, 2.0, size=d)
    spectrum[-1] = -(10.0**log10_rel) * np.linalg.norm(spectrum[:-1])
    q = random_orthogonal(rng, d)
    sigma = (q * spectrum) @ q.T
    sigma = (sigma + sigma.T) / 2.0
    assume(np.all(np.diag(sigma) > 0))
    m = d + extra_rows
    h = shaped_matrix(rng, m, d, d)
    hyp = LinearHypothesis(h, h @ rng.standard_normal(d))
    t = rng.standard_normal(d)
    inp = StatisticInput(t, sigma, float(rng.integers(1, 50)))
    values = [
        wts(hyp, inp, tol).value,
        mats(hyp, inp, tol).value,
        WtsKernel(hyp, sigma, inp.n, tol).evaluate(t).value,
    ]
    assert all(np.isfinite(v) and v >= 0.0 for v in values)


@PROPERTY
@given(seed=seeds, d=st.integers(1, 6), m=st.integers(1, 6), j=st.integers(-300, 300))
def test_statistics_unchanged_when_t_y_and_sigma_scale_together(seed, d, m, j):
    # T and y scaled by 2^j and Sigma by 2^(2j): every form is a ratio in
    # which the scales cancel, however far they are from 1.
    rng = np.random.default_rng(seed)
    h = shaped_matrix(rng, m, d, int(rng.integers(1, min(m, d) + 1)))
    y = h @ rng.standard_normal(d) + 0.1 * rng.standard_normal(m)
    t, sigma, n = rng.standard_normal(d), random_spd(rng, d), float(rng.integers(1, 50))
    hyp, inp = LinearHypothesis(h, y), StatisticInput(t, sigma, n)
    scaled_hyp = LinearHypothesis(h, np.ldexp(y, j))
    scaled_inp = StatisticInput(np.ldexp(t, j), np.ldexp(sigma, 2 * j), n)
    for statistic in (wts, mats, ats_standardized):
        expected, got = statistic(hyp, inp), statistic(scaled_hyp, scaled_inp)
        assert got.m_effective == expected.m_effective
        assert got.value == pytest.approx(expected.value, rel=1e-12)


@PROPERTY
@given(
    seed=seeds,
    d=st.integers(1, 6),
    m=st.integers(1, 6),
    k=st.integers(-30, 30),
    tol=tolerances,
)
def test_wald_forms_unchanged_by_a_change_of_unit(seed, d, m, k, tol):
    # theta in units 2^-k: t and y scale by a = 2^k and Sigma by a^2, which
    # rounds nothing.  The kernel scales by a^2 and its cutoff with it, so the
    # rank and every value stay bit for bit, under an explicit rank_tol too.
    rng = np.random.default_rng(seed)
    h = shaped_matrix(rng, m, d, int(rng.integers(1, min(m, d) + 1)))
    y = h @ rng.standard_normal(d) + 0.1 * rng.standard_normal(m)
    t, sigma, n = rng.standard_normal(d), random_spd(rng, d), float(rng.integers(1, 50))
    hyp, inp = LinearHypothesis(h, y), StatisticInput(t, sigma, n)
    scaled_hyp = LinearHypothesis(h, np.ldexp(y, k))
    scaled_inp = StatisticInput(np.ldexp(t, k), np.ldexp(sigma, 2 * k), n)
    for statistic in (wts, mats):
        assert statistic(scaled_hyp, scaled_inp, tol) == statistic(hyp, inp, tol)
    kernel = WtsKernel(scaled_hyp, scaled_inp.sigma, n, tol)
    assert kernel.evaluate(scaled_inp.t) == WtsKernel(hyp, sigma, n, tol).evaluate(t)
    # ATS_s is a ratio of two forms quadratic in the unit, each scaled by a^2 exactly.
    assert ats_standardized(scaled_hyp, scaled_inp) == ats_standardized(hyp, inp)


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
@given(seed=seeds, d=st.integers(1, 6), ks=st.lists(st.integers(-60, 60), min_size=1, max_size=6))
def test_rref_and_canonical_form_are_idempotent_bit_for_bit(seed, d, ks):
    rng = np.random.default_rng(seed)
    h = shaped_matrix(rng, len(ks), d, int(rng.integers(1, min(len(ks), d) + 1)))
    h = np.ldexp(h, np.array(ks)[:, None])
    r, pivots = rref(h)
    r2, pivots2 = rref(r)
    assert pivots2 == pivots
    assert r2.tobytes() == r.tobytes()
    canon = canonical_form(LinearHypothesis(h, h @ rng.standard_normal(d)))
    again = canonical_form(canon)
    assert again.h.tobytes() == canon.h.tobytes()
    assert again.y.tobytes() == canon.y.tobytes()


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
    homogeneous = LinearHypothesis(h, np.zeros(h.shape[0]))
    p = projection(h)
    assert round(np.trace(p)) == rank(h) == canonical_form(homogeneous).m
    np.testing.assert_array_equal(p, projection_form(homogeneous).p)
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


def _dependence_classes_by_loop(h, eq_tol):
    """``dependence_classes`` one row and one class at a time: the reference."""
    g = _pow2_scale(h, axis=1)
    hs = h / g[:, None]
    norms = np.linalg.norm(hs, axis=1)
    zero_rows, groups, units = [], [], []
    for i in range(h.shape[0]):
        if norms[i] == 0.0:
            zero_rows.append(i)
            continue
        u = hs[i] / norms[i]
        lead = int(np.argmax(np.abs(u) > eq_tol))
        if u[lead] < 0:
            u = -u
        for ref, (members, coeffs) in zip(units, groups):
            if np.max(np.abs(u - ref)) <= eq_tol:
                rep = members[0]
                members.append(i)
                coeffs.append(float(hs[i] @ hs[rep] / norms[rep] ** 2 * (g[i] / g[rep])))
                break
        else:
            units.append(u)
            groups.append(([i], [1.0]))
    return tuple(zero_rows), [(tuple(ms), tuple(cs)) for ms, cs in groups]


@PROPERTY
@given(
    seed=seeds,
    d=st.integers(1, 6),
    classes=st.integers(1, 4),
    m=st.integers(1, 12),
    eq_tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
)
def test_dependence_classes_match_the_row_by_row_loop_exactly(seed, d, classes, m, eq_tol):
    # Parallel rows with signs and scales, exact zero rows, relative noise of
    # about eq_tol that may or may not join a row to a class, and row scales
    # of 2^+-40.
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((classes, d))
    h = base[rng.integers(classes, size=m)] * rng.choice([-3.0, -1.0, 0.5, 2.0, 1e-3], size=(m, 1))
    noise = eq_tol * rng.uniform(0.2, 5.0, size=(m, 1)) * (rng.random((m, 1)) < 0.5)
    h *= 1.0 + noise * rng.standard_normal((m, d))
    h = np.ldexp(h, rng.choice([-40, 0, 40], size=(m, 1)))
    h[rng.random(m) < 0.15] = 0.0
    partition = dependence_classes(h, Tolerance(eq_tol=eq_tol))
    zero_rows, groups = _dependence_classes_by_loop(h, eq_tol)
    assert partition.zero_rows == zero_rows
    assert [(c.members, c.coefficients) for c in partition.classes] == groups
