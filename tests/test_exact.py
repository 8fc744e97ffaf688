"""The library against exact rational reference values (``exact.py``).

The property states what the Wald forms promise on well-conditioned input:
1e-10 relative to the exact value of the float inputs they are given.  The
strict xfails are known defects; the change that mends one must flip it.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadform import (
    EquivalenceVerdict,
    LinearHypothesis,
    StatisticInput,
    WtsKernel,
    canonical_form,
    equivalent,
    is_consistent,
    mats,
    projection,
    projection_form,
    rank,
    wts,
)

import exact
from helpers import random_spd

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# t = (0.3, 0.5), Sigma = I + J/4 and n = 50: the WTS of any encoding of
# theta = 0 in R^2 is 35/3 (up to the rounding of 0.3 and 0.5).
T2 = np.array([0.3, 0.5])
SIGMA2 = np.eye(2) + 0.25


def test_the_oracle_gives_the_two_group_value():
    value = exact.wts(np.eye(2), np.zeros(2), T2, SIGMA2, 50)
    assert isinstance(value, Fraction)
    assert abs(value - Fraction(35, 3)) < Fraction(1, 10**14)
    assert exact.rank([[1.0, 2.0], [2.0, 4.0], [0.0, 1.0]]) == 2


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 6),
    m=st.integers(1, 4),
    dependent=st.integers(0, 2),
)
def test_wald_forms_match_the_exact_value(seed, d, m, dependent):
    # Small integer rows, some of them integer combinations of others, and
    # theta on a dyadic grid: H theta is exact, so the hypothesis is exactly
    # consistent and r = H (t - theta) lies in the range of the kernel.
    rng = np.random.default_rng(seed)
    base = rng.integers(-3, 4, size=(m, d)).astype(float)
    h = np.vstack([base, rng.integers(-2, 3, size=(dependent, m)) @ base])
    s = np.linalg.svd(h, compute_uv=False)
    r = exact.rank(h)
    assume(r > 0 and s[r - 1] > 1e-2 * s[0])
    y = h @ (rng.integers(-16, 17, size=d) / 8.0)
    sigma, t, n = random_spd(rng, d), rng.standard_normal(d), float(rng.integers(1, 50))
    hyp, inp = LinearHypothesis(h, y), StatisticInput(t, sigma, n)
    expected_wts = float(exact.wts(h, y, t, sigma, n))
    expected_mats = float(exact.mats(h, y, t, sigma))
    for got, expected in (
        (wts(hyp, inp), expected_wts),
        (WtsKernel(hyp, sigma, n).evaluate(t), expected_wts),
        (mats(hyp, inp), expected_mats),
    ):
        assert got.m_effective == r
        assert got.value == pytest.approx(expected, rel=1e-10, abs=0.0)


@settings(PROPERTY, max_examples=400)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 6),
    m=st.integers(1, 4),
    dependent=st.integers(0, 2),
)
def test_echelon_decisions_match_the_exact_verdicts(seed, d, m, dependent):
    # Small integer rows, some of them integer combinations of others, each
    # scaled by 2^k, and theta on a dyadic grid: H theta is exact, so y is
    # exactly consistent, and so is the verdict once the last y entry moves.
    rng = np.random.default_rng(seed)
    base = rng.integers(-3, 4, size=(m, d)).astype(float)
    k = rng.integers(-40, 41, size=m + dependent)
    h = np.ldexp(np.vstack([base, rng.integers(-2, 3, size=(dependent, m)) @ base]), k[:, None])
    assume(h.any())
    y = h @ (rng.integers(-16, 17, size=d) / 8.0)
    hyp = LinearHypothesis(h, y)
    assert rank(h) == exact.rank(h)
    assert np.trace(projection(h)) == pytest.approx(exact.rank(h), abs=1e-12)
    assert is_consistent(hyp)
    assert equivalent(hyp, canonical_form(hyp)) is EquivalenceVerdict.EQUIVALENT
    y[-1] += np.ldexp(1.0, k[-1]) / 8.0
    assert is_consistent(LinearHypothesis(h, y)) == exact.consistent(h, y)


@pytest.mark.xfail(
    strict=True,
    reason="CHANGES.md FOUND: rref judges the largest entry of a column against its own "
    "huge row and skips the column (ROADMAP item 4)",
)
def test_rank_of_a_row_whose_largest_entry_is_elsewhere():
    h = [[1.0, 1e20], [1e-5, 0.0]]
    assert rank(h) == exact.rank(h) == 2


@pytest.mark.xfail(
    strict=True,
    reason="CHANGES.md FOUND: rref skips the pivot of [[1, 1e20], [1e-5, 0]], so an "
    "invertible system reads inconsistent (ROADMAP item 4)",
)
def test_an_invertible_system_is_consistent():
    assert is_consistent(LinearHypothesis([[1.0, 1e20], [1e-5, 0.0]], [0.0, 1.0]))


@pytest.mark.xfail(
    strict=True,
    reason="CHANGES.md FOUND: projection_form maps y through an SVD whose small "
    "components are only absolutely accurate",
)
def test_projection_form_of_a_row_with_a_large_entry_is_equivalent():
    hyp = LinearHypothesis([[1.0, 1e12, 0.0], [0.0, 0.0, 1.0]], [1.0, 2.0])
    assert projection_form(hyp).equivalent


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: H Sigma H' squares the condition number of nearly parallel rows",
)
def test_wts_of_nearly_parallel_rows_matches_the_exact_value():
    h = np.array([[1.0, 0.0], [1.0, 1e-6]])
    expected = float(exact.wts(h, np.zeros(2), T2, SIGMA2, 50))
    got = wts(LinearHypothesis(h, np.zeros(2)), StatisticInput(T2, SIGMA2, 50)).value
    assert got == pytest.approx(expected, rel=1e-8, abs=0.0)
