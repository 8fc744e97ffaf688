"""Tests for the dense matrix primitives."""

import numpy as np
import pytest

from quadform import (
    LinearHypothesis,
    NumericError,
    Tolerance,
    canonical_form,
    projection,
    projection_form,
    rank,
    rref,
)
from quadform.linalg import _svd as svd
from quadform.linalg import as_matrix, as_vector

from helpers import HARNESS_TOL, nearly_parallel_columns, shaped_matrix, well_conditioned

# Three encodings of the 3-group mean-equality hypothesis; rows of the first
# satisfy row3 = row1 + row2, the second is the centering projector itself.
H_ALL_PAIRS = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, -1.0]])
CENTERING_3 = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]) / 3.0
H_ADJACENT = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])


class TestValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[1.0, np.nan]])
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[np.inf], [0.0]])
        with pytest.raises(ValueError, match="finite"):
            as_vector([1.0, np.nan])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            as_vector([[1.0], [2.0]])

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            Tolerance(rank_tol=-1.0)
        with pytest.raises(ValueError):
            Tolerance(eq_tol=-1e-3)
        assert Tolerance(rank_tol=0.0).rank_tol == 0.0


class TestSvd:
    def test_identity(self):
        _, s, _ = svd(np.eye(3))
        np.testing.assert_allclose(s, [1.0, 1.0, 1.0])

    def test_zero(self):
        _, s, _ = svd(np.zeros((2, 2)))
        np.testing.assert_allclose(s, [0.0, 0.0])

    def test_diagonal_sorted_descending(self):
        u, s, vt = svd([[3.0, 0.0], [0.0, 4.0]])
        np.testing.assert_allclose(s, [4.0, 3.0])
        np.testing.assert_allclose(u @ np.diag(s) @ vt, [[3.0, 0.0], [0.0, 4.0]], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for m, n in [(3, 5), (5, 3), (4, 4), (1, 6)]:
            a = rng.standard_normal((m, n))
            u, s, vt = svd(a)
            fro = np.linalg.norm(a)
            assert np.linalg.norm(u @ np.diag(s) @ vt - a) <= 1e-10 * fro
            k = min(m, n)
            assert np.linalg.norm(u.T @ u - np.eye(k)) <= 1e-10
            assert np.linalg.norm(vt @ vt.T - np.eye(k)) <= 1e-10
            assert np.all(np.diff(s) <= 0)


class TestRank:
    def test_examples(self):
        assert rank(np.eye(3)) == 3
        assert rank(np.ones((3, 3))) == 1
        assert rank(H_ALL_PAIRS) == 2

    def test_matches_rref_pivot_count(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            r = int(rng.integers(1, min(m, n) + 1))
            a = shaped_matrix(rng, m, n, r)
            _, pivots = rref(a, HARNESS_TOL)
            assert rank(a, HARNESS_TOL) == len(pivots) == r

    def test_matches_rref_pivot_count_on_integers_at_default_tolerance(self):
        rng = np.random.default_rng(13)
        for _ in range(120):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            a = rng.integers(-2, 3, size=(m, n)).astype(float)
            _, pivots = rref(a)
            assert rank(a) == len(pivots)


class TestRref:
    def test_identity(self):
        r, pivots = rref(np.eye(3))
        np.testing.assert_allclose(r, np.eye(3))
        assert pivots == [0, 1, 2]

    def test_dependent_rows(self):
        r, pivots = rref(H_ALL_PAIRS)
        np.testing.assert_allclose(
            r, [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [0.0, 0.0, 0.0]], atol=1e-14
        )
        assert pivots == [0, 1]
        # same row space as the input: stacking does not raise the rank
        assert rank(np.vstack([H_ALL_PAIRS, r])) == rank(H_ALL_PAIRS) == rank(r[:2])

    def test_zero_matrix(self):
        r, pivots = rref(np.zeros((2, 2)))
        np.testing.assert_allclose(r, 0.0)
        assert pivots == []

    def test_idempotent(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            a = rng.integers(-2, 3, size=(m, n)).astype(float)
            r, pivots = rref(a)
            r2, pivots2 = rref(r)
            np.testing.assert_allclose(r2, r, atol=1e-12)
            assert pivots2 == pivots

    def test_structure(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            a = rng.standard_normal((4, 5))
            if rng.random() < 0.5:
                a[3] = a[0] + a[1]
            r, pivots = rref(a, HARNESS_TOL)
            for i, col in enumerate(pivots):
                assert r[i, col] == 1.0
                column = r[:, col].copy()
                column[i] = 0.0
                assert np.all(column == 0.0)
            assert np.all(r[len(pivots):] == 0.0)

    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9])
    def test_nearly_parallel_columns_add_no_pivot(self, gap):
        # The small pivot of column 1 scales the rows above by about 1 / gap;
        # the rounding residue that leaves in later columns is not a pivot,
        # and a pivot accepted from it would snap theirs to zero.
        rng = np.random.default_rng(53)
        for r in (2, 3):
            for _ in range(20):
                h = nearly_parallel_columns(rng, 8, 6, r, gap)
                out, pivots = rref(h)
                assert len(pivots) == rank(h) == r
                assert np.all(out[np.arange(r), pivots] == 1.0)
                assert not out[r:].any()
                assert round(np.trace(projection(h))) == r

    @pytest.mark.parametrize("big, gap", [(1e3, 1e-8), (1e5, 1e-4), (1e7, 2.0)])
    def test_a_large_entry_does_not_hide_a_difference(self, big, gap):
        # Row 1 is [0, gap] after column 0, with rounding near eps * big: the
        # pivot multiplier was 1, whatever the size of the entry next to it.
        a = np.array([[1.0, big], [1.0, big + gap]])
        # Back substitution subtracts big times row 1 from row 0 and leaves
        # its pivot exactly 1.
        np.testing.assert_array_equal(rref(a)[0], np.eye(2))
        assert rank(a) == np.linalg.matrix_rank(a) == 2
        assert round(np.trace(projection(a))) == 2


class TestProjection:
    def test_paper_given_centering(self):
        np.testing.assert_allclose(projection(H_ALL_PAIRS), CENTERING_3, atol=1e-12)
        np.testing.assert_allclose(projection(H_ADJACENT), CENTERING_3, atol=1e-12)
        np.testing.assert_allclose(projection(CENTERING_3), CENTERING_3, atol=1e-12)

    def test_identity(self):
        np.testing.assert_allclose(projection(np.eye(4)), np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_extreme_scale(self, scale):
        # H H' underflows or overflows at these scales; the projector must not.
        np.testing.assert_allclose(projection(scale * H_ALL_PAIRS), CENTERING_3, atol=1e-12)

    @pytest.mark.parametrize("snap, expected", [(1e-7, 2), (1e-5, 1)], ids=["keeps", "drops"])
    def test_rank_tol_is_a_relative_snap(self, snap, expected):
        # Eliminating row 0 leaves 1e-6 in row 1, whose magnitude is about 1:
        # a snap multiplier below 1e-6 keeps it, one above drops it.
        h = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-6]])
        tol = Tolerance(rank_tol=snap)
        assert rank(h, tol) == expected
        assert round(np.trace(projection(h, tol))) == expected

    def test_sphericity_projector(self):
        # equal-variance, zero-covariance constraint in vech coordinates
        h = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        expected = 0.5 * np.array([[1.0, 0.0, -1.0], [0.0, 2.0, 0.0], [-1.0, 0.0, 1.0]])
        np.testing.assert_allclose(projection(h), expected, atol=1e-12)
        np.testing.assert_allclose(projection(expected), expected, atol=1e-12)

    def test_symmetric_idempotent(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            m = int(rng.integers(1, 7))
            d = int(rng.integers(1, 7))
            r = int(rng.integers(1, min(m, d) + 1))
            p = projection(shaped_matrix(rng, m, d, r), HARNESS_TOL)
            assert np.linalg.norm(p - p.T) <= 1e-10
            assert np.linalg.norm(p @ p - p) <= 1e-9

    def test_invariant_under_row_operations(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            m = int(rng.integers(1, d + 1))
            r = int(rng.integers(1, m + 1))
            h = shaped_matrix(rng, m, d, r)
            g = well_conditioned(rng, m)
            p1 = projection(h, HARNESS_TOL)
            p2 = projection(g @ h, HARNESS_TOL)
            assert np.linalg.norm(p1 - p2) <= 1e-9


@pytest.mark.parametrize(
    "h",
    [[[1.0, 0.0], [0.0, 1e-20]], [[1.0, 0.0, 0.0], [0.0, 2.0**-70, 0.0]]],
    ids=["1e-20", "2^-70"],
)
def test_rank_and_projection_keep_a_tiny_row_as_canonical_form_does(h):
    # A singular-value cutoff global to the matrix, as numpy's, drops the
    # second row; the echelon snap judges it against its own magnitude.
    h = np.array(h)
    hyp = LinearHypothesis(h, np.zeros(2))
    assert rank(h) == 2 == canonical_form(hyp).m
    np.testing.assert_array_equal(projection(h), projection_form(hyp).p)


def test_svd_failure_is_numeric_error():
    # NumericError is the contract for solver non-convergence; it must be a
    # distinct type so callers can map it to a different exit path.
    assert issubclass(NumericError, RuntimeError)
    assert not issubclass(NumericError, ValueError)
