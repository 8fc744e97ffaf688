"""Tests for the dense matrix primitives."""

import numpy as np
import pytest

from quadform import NumericError, Tolerance, pinv, projection, rank, rref
from quadform.linalg import _svd as svd
from quadform.linalg import as_matrix, as_vector

from helpers import HARNESS_TOL, shaped_matrix, well_conditioned

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


class TestPinv:
    def test_identity(self):
        np.testing.assert_allclose(pinv(np.eye(4)), np.eye(4), atol=1e-12)

    def test_zero_matrix_transposed_shape(self):
        out = pinv(np.zeros((2, 3)))
        assert out.shape == (3, 2)
        np.testing.assert_allclose(out, 0.0)

    def test_rank_one_diagonal(self):
        np.testing.assert_allclose(
            pinv([[2.0, 0.0], [0.0, 0.0]]), [[0.5, 0.0], [0.0, 0.0]], atol=1e-14
        )

    @pytest.mark.parametrize("shape", [(2, 2), (5, 3), (8, 13), (20, 50), (50, 50)])
    def test_penrose_conditions(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = rng.standard_normal(shape)
        # include a rank-deficient case built from thin factors
        if shape == (50, 50):
            a = rng.standard_normal((50, 10)) @ rng.standard_normal((10, 50))
        ap = pinv(a)
        budget = 1e-9 * (1.0 + np.linalg.norm(a))
        assert np.linalg.norm(a @ ap @ a - a) <= budget
        assert np.linalg.norm(ap @ a @ ap - ap) <= budget
        assert np.linalg.norm((a @ ap).T - a @ ap) <= budget
        assert np.linalg.norm((ap @ a).T - ap @ a) <= budget

    def test_explicit_cutoff_drops_small_singular_values(self):
        a = np.diag([1.0, 1e-12])
        np.testing.assert_allclose(
            pinv(a, Tolerance(rank_tol=1e-6)), np.diag([1.0, 0.0]), atol=1e-14
        )


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

    @pytest.mark.parametrize(
        "cutoff, expected", [(1e-6, [1.0, 1.0]), (1e-5, [1.0, 0.0])], ids=["keeps", "drops"]
    )
    def test_absolute_cutoff_applies_to_the_singular_values(self, cutoff, expected):
        # h has singular values 3 and 3e-6, straddled by the two cutoffs.
        h = np.diag([3.0, 3e-6])
        tol = Tolerance(rank_tol=cutoff)
        p = projection(h, tol)
        np.testing.assert_allclose(p, np.diag(expected), atol=1e-12)
        assert round(np.trace(p)) == rank(h, tol)

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


def test_svd_failure_is_numeric_error():
    # NumericError is the contract for solver non-convergence; it must be a
    # distinct type so callers can map it to a different exit path.
    assert issubclass(NumericError, RuntimeError)
    assert not issubclass(NumericError, ValueError)
