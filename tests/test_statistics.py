"""Tests for the quadratic-form statistics and vectorization helpers."""

import numpy as np
import pytest

from quadform import (
    EquivalenceVerdict,
    LinearHypothesis,
    NumericError,
    StatisticInput,
    Tolerance,
    WtsKernel,
    ats,
    ats_standardized,
    diag_selector,
    equivalent,
    mats,
    reduce_for_ats,
    sample_covariance,
    vech_upper,
    wts,
)
from quadform.bench import build_setting_a, build_setting_b

from helpers import HARNESS_TOL, equivalent_pair, random_orthogonal, random_spd

SPHERICITY = 0.5 * np.array([[1.0, 0.0, -1.0], [0.0, 2.0, 0.0], [-1.0, 0.0, 1.0]])


def wts_direct(h, y, t, sigma, n):
    """Straight formula evaluation with numpy's own pseudo-inverse."""
    r = h @ t - y
    return n * float(r @ np.linalg.pinv(h @ sigma @ h.T) @ r)


def _with_smallest_eigenvalue(relative):
    """Symmetric 4x4 matrix whose smallest eigenvalue is ``relative * ||Sigma||_F``."""
    q = random_orthogonal(np.random.default_rng(31), 4)
    spectrum = np.array([1.0, 2.0, 3.0, 0.0])
    spectrum[3] = relative * np.linalg.norm(spectrum)
    sigma = (q * spectrum) @ q.T
    return (sigma + sigma.T) / 2.0


class TestStatisticInput:
    def test_rejects_asymmetric_sigma(self):
        with pytest.raises(ValueError, match="symmetric"):
            StatisticInput([1.0, 2.0], [[1.0, 0.5], [0.2, 1.0]], 3)

    def test_rejects_indefinite_sigma(self):
        with pytest.raises(ValueError, match="semidefinite"):
            StatisticInput([1.0, 2.0], [[1.0, 2.0], [2.0, 1.0]], 3)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            StatisticInput([1.0, 2.0, 3.0], np.eye(2), 3)

    def test_rejects_bad_sample_size(self):
        with pytest.raises(ValueError, match="sample size"):
            StatisticInput([1.0], [[1.0]], 0)
        with pytest.raises(ValueError, match="sample size"):
            StatisticInput([1.0], [[1.0]], -2)

    def test_rejects_non_square_sigma(self):
        with pytest.raises(ValueError, match="square"):
            StatisticInput([1.0, 2.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 3)

    def test_psd_boundary_accepted(self):
        StatisticInput([1.0, 2.0], np.zeros((2, 2)), 1)
        StatisticInput([1.0, 2.0], np.ones((2, 2)), 1)

    @pytest.mark.parametrize(
        "sigma, accepted",
        [
            (np.ones((3, 3)), True),
            (np.zeros((3, 3)), True),
            (np.eye(3), True),
            (_with_smallest_eigenvalue(1e-12), True),
            (_with_smallest_eigenvalue(-1e-12), True),
            (_with_smallest_eigenvalue(-1e-8), False),
            (np.array([[1.0, 2.0], [2.0, 1.0]]), False),
        ],
    )
    def test_psd_verdict_matches_eigenvalue_reference(self, sigma, accepted):
        # The eigenvalue test alone, as applied before Cholesky was tried first.
        reference = np.linalg.eigvalsh(sigma)[0] >= -1e-10 * np.linalg.norm(sigma)
        assert reference == accepted
        try:
            StatisticInput(np.zeros(sigma.shape[0]), sigma, 1)
        except ValueError as exc:
            assert "semidefinite" in str(exc)
            verdict = False
        else:
            verdict = True
        assert verdict == accepted

    @pytest.mark.parametrize(
        "sigma, message",
        [
            (1e160 * np.array([[1.0, 2.0], [2.0, 1.0]]), "semidefinite"),
            (1e160 * np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
            (1e-170 * np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
            (1e160 * np.array([[2.0, 1.0], [1.0, 2.0]]), None),
            (1e-160 * np.array([[2.0, 1.0], [1.0, 2.0]]), None),
        ],
        ids=[
            "indefinite-1e160", "asymmetric-1e160", "asymmetric-1e-170", "psd-1e160", "psd-1e-160"
        ],
    )
    def test_verdict_does_not_depend_on_the_scale(self, sigma, message):
        if message is None:
            StatisticInput(np.zeros(2), sigma, 1)
        else:
            with pytest.raises(ValueError, match=message):
                StatisticInput(np.zeros(2), sigma, 1)


class TestWts:
    def test_identity_hypothesis_is_zero(self):
        t = np.array([0.3, -1.2, 4.0])
        hyp = LinearHypothesis(np.eye(3), t)
        inp = StatisticInput(t, random_spd(np.random.default_rng(1), 3), 10)
        assert wts(hyp, inp).value == 0.0

    def test_scalar_pair(self):
        inp = StatisticInput([3.0], [[1.0]], 4)
        doubled = LinearHypothesis([[2.0]], [0.0])
        plain = LinearHypothesis([[1.0]], [0.0])
        assert wts(doubled, inp).value == pytest.approx(36.0, rel=1e-12)
        assert wts(plain, inp).value == pytest.approx(36.0, rel=1e-12)

    def test_three_group_encodings_agree(self):
        h_all = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, -1.0]])
        h_proj = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]) / 3
        h_adjacent = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        rng = np.random.default_rng(2)
        for _ in range(10):
            sigma = random_spd(rng, 3)
            t = rng.standard_normal(3)
            inp = StatisticInput(t, sigma, 5)
            values = [
                wts(LinearHypothesis(h, np.zeros(h.shape[0])), inp).value
                for h in (h_all, h_proj, h_adjacent)
            ]
            reference = wts_direct(h_all, np.zeros(3), t, sigma, 5)
            for v in values:
                assert v == pytest.approx(reference, rel=1e-10)

    def test_invariance_under_reencoding(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            d = int(rng.integers(2, 9))
            h1, h2 = equivalent_pair(rng, d)
            inp = StatisticInput(rng.standard_normal(d), random_spd(rng, d), 7)
            v1 = wts(h1, inp, HARNESS_TOL).value
            v2 = wts(h2, inp, HARNESS_TOL).value
            assert abs(v1 - v2) <= 1e-8 * (1.0 + abs(v1))

    def test_scale_free(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            hyp = LinearHypothesis(rng.standard_normal((d - 1, d)), rng.standard_normal(d - 1))
            scale = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
            scaled = LinearHypothesis(scale * hyp.h, scale * hyp.y)
            inp = StatisticInput(rng.standard_normal(d), random_spd(rng, d), 3)
            v1 = wts(hyp, inp).value
            v2 = wts(scaled, inp).value
            assert abs(v1 - v2) <= 1e-9 * max(abs(v1), 1.0)

    @pytest.mark.parametrize("rank_tol", [None, 1e-8, 0.2])
    def test_an_explicit_rank_tol_is_relative_at_every_unit(self, rank_tol):
        # theta in units 2^-k scales t by 2^k and Sigma by 4^k; the kernel's
        # eigenvalues, 1.5 and 1 times 4^k, must both be kept at every k.
        hyp = LinearHypothesis(np.eye(2), np.zeros(2))
        t, sigma, tol = np.array([0.3, 0.5]), np.eye(2) + 0.25, Tolerance(rank_tol=rank_tol)
        for k in range(-30, 31):
            result = wts(hyp, StatisticInput(np.ldexp(t, k), np.ldexp(sigma, 2 * k), 50), tol)
            assert result.m_effective == 2
            assert result.value == pytest.approx(35.0 / 3.0, rel=1e-14)

    def test_dimension_mismatch(self):
        hyp = LinearHypothesis(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError, match="columns"):
            wts(hyp, StatisticInput([1.0, 2.0], np.eye(2), 1))

    @pytest.mark.parametrize("smallest", [-1e-11, -5e-11, -1e-12])
    def test_accepted_slightly_negative_sigma_drops_the_rounding_direction(self, smallest):
        # StatisticInput accepts these; the negative eigenvalue is rounding, so
        # the kernel's second direction is dropped rather than divided by.
        sigma = np.diag([1.0, smallest])
        hyp = LinearHypothesis(np.eye(2), np.zeros(2))
        t = np.array([0.3, 0.5])
        value = wts(hyp, StatisticInput(t, sigma, 10)).value
        assert value == pytest.approx(0.9, rel=1e-15)
        assert WtsKernel(hyp, sigma, 10).evaluate(t).value == value


class TestMats:
    def test_identity_hypothesis_is_zero(self):
        t = np.array([1.0, 2.0])
        assert mats(LinearHypothesis(np.eye(2), t), StatisticInput(t, np.eye(2), 9)).value == 0.0

    def test_frozen_two_dimensional(self):
        hyp = LinearHypothesis(np.eye(2), np.zeros(2))
        inp = StatisticInput([1.0, 2.0], [[4.0, 1.0], [1.0, 9.0]], 11)
        # kernel keeps only the diagonal (4, 9); no sample-size factor
        assert mats(hyp, inp).value == pytest.approx(1.0 / 4.0 + 4.0 / 9.0, rel=1e-14)

    def test_invariance_for_equivalent_pair(self):
        h1 = LinearHypothesis(np.eye(3), [1.0, 0.0, 1.0])
        h2 = LinearHypothesis(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, -1.0]], [1.0, 0.0, 0.0]
        )
        rng = np.random.default_rng(7)
        for _ in range(10):
            inp = StatisticInput(rng.standard_normal(3), random_spd(rng, 3), 2)
            v1 = mats(h1, inp).value
            v2 = mats(h2, inp).value
            assert v1 == pytest.approx(v2, rel=1e-10)

    def test_invariance_under_reencoding(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            d = int(rng.integers(2, 9))
            h1, h2 = equivalent_pair(rng, d)
            inp = StatisticInput(rng.standard_normal(d), random_spd(rng, d), 2)
            v1 = mats(h1, inp, HARNESS_TOL).value
            v2 = mats(h2, inp, HARNESS_TOL).value
            assert abs(v1 - v2) <= 1e-8 * (1.0 + abs(v1))

    def test_zero_diagonal_rejected(self):
        inp = StatisticInput([1.0, 2.0], [[1.0, 0.0], [0.0, 0.0]], 1)
        with pytest.raises(ValueError, match="diagonal"):
            mats(LinearHypothesis(np.eye(2), np.zeros(2)), inp)


class TestWaldRowScale:
    """Wald kernels are formed from rows divided by powers of two."""

    @pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-9, 1e-12, 1e-310, 5e-324])
    def test_a_small_row_keeps_its_degree_of_freedom(self, eps):
        # H Sigma H' has eigenvalues near 1 and eps**2; unscaled, the second
        # fell under the rank cutoff from eps = 1e-8 on (WTS 3.6, MATS 0.072).
        # The subnormal rows are divided by their own subnormal scale too.
        inp = StatisticInput([0.3, 0.5, -0.2], np.eye(3) + np.ones((3, 3)) / 4.0, 50)
        hyp = LinearHypothesis([[1.0, 0.0, 0.0], [0.0, eps, 0.0]], np.zeros(2))
        for statistic, unit_value in ((wts, 35.0 / 3.0), (mats, 0.272)):
            result = statistic(hyp, inp)
            assert result.value == pytest.approx(unit_value, rel=1e-12)
            assert result.m_effective == 2

    @pytest.mark.parametrize("k", [1e-170, 1e-310, 1e160])
    def test_extreme_scale_of_the_whole_h(self, k):
        # Unscaled, H Sigma H' underflowed to zero (value 0.0) or overflowed.
        # 1e-310 is subnormal, and so is its row scale; dividing by it rounds nothing.
        hyp = LinearHypothesis(k * np.eye(2), np.zeros(2))
        inp = StatisticInput([1.0, 2.0], np.eye(2), 1)
        values = [
            wts(hyp, inp).value,
            mats(hyp, inp).value,
            WtsKernel(hyp, np.eye(2), 1).evaluate([1.0, 2.0]).value,
        ]
        assert values == pytest.approx([5.0] * 3, rel=1e-14)

    def test_a_right_hand_side_overflowing_its_row_scale_is_an_error(self, recwarn):
        # y / g = 1e10 / 2**-997 is past the float range; the exact zeros of v
        # would turn that inf into a NaN statistic, which rejects nothing.
        hyp = LinearHypothesis([[1e-300, 0.0], [0.0, 1.0]], [1e10, 0.0])
        inp = StatisticInput([1.0, 2.0], np.eye(2), 1)
        for statistic in (
            lambda: wts(hyp, inp),
            lambda: mats(hyp, inp),
            lambda: WtsKernel(hyp, np.eye(2), 1).evaluate([1.0, 2.0]),
        ):
            with pytest.raises(NumericError, match="overflows"):
                statistic()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_an_overflow_that_meets_no_zero_is_an_error_too(self, recwarn):
        # With Sigma = I + J/4 no entry of the WTS kernel's v is zero, so the
        # inf residual stays inf; an inf statistic is no more a value than NaN.
        hyp = LinearHypothesis([[1e-300, 0.0], [0.0, 1.0]], [1e10, 0.0])
        sigma = np.eye(2) + np.ones((2, 2)) / 4.0
        inp = StatisticInput([1.0, 2.0], sigma, 1)
        for statistic in (
            lambda: wts(hyp, inp),
            lambda: mats(hyp, inp),
            lambda: WtsKernel(hyp, sigma, 1).evaluate([1.0, 2.0]),
        ):
            with pytest.raises(NumericError, match="overflows"):
                statistic()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("y1", [1e307, 1e308])
    def test_the_right_hand_side_of_a_zero_row_decides_nothing(self, y1):
        # K^+ ignores a zero row.  Its y was divided by the all-zero row's scale
        # 0.5, so 1e308 became inf, met the zeros of v and read as an overflow.
        hyp = LinearHypothesis([[1.0, 0.0], [0.0, 0.0]], [0.0, y1])
        inp = StatisticInput([1.0, 2.0], np.eye(2), 1)
        results = [wts(hyp, inp), mats(hyp, inp), WtsKernel(hyp, np.eye(2), 1).evaluate(inp.t)]
        assert [(r.value, r.m_effective) for r in results] == [(1.0, 1)] * 3

    def test_a_value_past_the_float_range_is_an_error(self):
        # r is finite, but z^2 / lam is not; numpy warns of the overflow first.
        hyp = LinearHypothesis(np.eye(2), np.zeros(2))
        inp = StatisticInput([1e300, 1.0], np.eye(2), 1)
        for statistic in (
            lambda: wts(hyp, inp),
            lambda: mats(hyp, inp),
            lambda: WtsKernel(hyp, np.eye(2), 1).evaluate(inp.t),
        ):
            with pytest.warns(RuntimeWarning, match="overflow"):
                with pytest.raises(NumericError, match="Wald form overflows"):
                    statistic()

    @pytest.mark.parametrize("setting", ["A", "B"])
    def test_an_exact_tiny_residual_survives_the_redundant_rows(self, setting):
        # t is dyadic, so every row's residual is exactly 2**-30; v'H and v'y
        # rounded apart would lose about five digits of it.
        full, minimal = build_setting_a(50) if setting == "A" else build_setting_b(27, 54.0)
        h, gamma = minimal.h[0], minimal.y[0]
        t = np.random.default_rng(30).integers(-4096, 4096, h.shape[0]) / 1024.0
        t[0] = 0.0
        t[0] = (gamma - h @ t + 2.0**-30) / h[0]
        sigma = np.eye(h.shape[0]) + 1.0
        expected = 3 * 2.0**-60 / float(h @ sigma @ h)
        for hyp in (full, minimal):
            kernel = WtsKernel(hyp, sigma, 3)
            values = [wts(hyp, StatisticInput(t, sigma, 3)).value, kernel.evaluate(t).value]
            assert values == pytest.approx([expected] * 2, rel=1e-12, abs=0.0)

    def test_degrees_of_freedom_of_setting_a(self):
        full, minimal = build_setting_a(200)
        sigma = np.eye(400) + np.ones((400, 400))
        inp = StatisticInput(np.random.default_rng(37).standard_normal(400), sigma, 800)
        for hyp in (full, minimal):
            assert wts(hyp, inp).m_effective == 1
            assert mats(hyp, inp).m_effective == 1
        assert ats(full, inp.t, inp.n).m_effective == 400
        assert ats_standardized(full, inp).m_effective == 400


class TestAts:
    def test_identity_hypothesis_is_zero(self):
        t = np.array([2.0, -1.0])
        assert ats(LinearHypothesis(np.eye(2), t), t, 5).value == 0.0

    def test_row_scaling_changes_the_value(self):
        # equivalent hypotheses, factor-4 difference in the statistic
        plain = LinearHypothesis([[1.0]], [0.0])
        doubled = LinearHypothesis([[2.0]], [0.0])
        assert equivalent(plain, doubled) is EquivalenceVerdict.EQUIVALENT
        v1 = ats(plain, [1.0], 1).value
        v2 = ats(doubled, [1.0], 1).value
        assert v1 == pytest.approx(1.0) and v2 == pytest.approx(4.0)
        assert v2 / v1 >= 2.0

    def test_reduction_invariance_on_sphericity(self):
        hyp = LinearHypothesis(SPHERICITY, np.zeros(3))
        reduced = reduce_for_ats(hyp)
        rng = np.random.default_rng(13)
        for _ in range(10):
            t = rng.standard_normal(3)
            v1 = ats(hyp, t, 4).value
            v2 = ats(reduced, t, 4).value
            assert v1 == pytest.approx(v2, rel=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            m = int(rng.integers(1, 5))
            h = rng.standard_normal((m, d))
            y = rng.standard_normal(m)
            t = rng.standard_normal(d)
            order = rng.permutation(m)
            v1 = ats(LinearHypothesis(h, y), t, 3).value
            v2 = ats(LinearHypothesis(h[order], y[order]), t, 3).value
            assert v1 == pytest.approx(v2, rel=1e-12)

    def test_a_value_past_the_float_range_is_an_error_without_a_warning(self):
        # The pytest configuration turns a RuntimeWarning into a failure.
        with pytest.raises(NumericError, match="ANOVA-type form overflows"):
            ats(LinearHypothesis(np.eye(2), np.zeros(2)), [1e300, 1.0], 1)

    def test_bad_sample_size(self):
        with pytest.raises(ValueError, match="sample size"):
            ats(LinearHypothesis(np.eye(2), np.zeros(2)), [1.0, 2.0], 0)


class TestAtsStandardized:
    def test_identity_hypothesis_is_zero(self):
        t = np.array([1.0, 1.0])
        inp = StatisticInput(t, np.eye(2), 3)
        assert ats_standardized(LinearHypothesis(np.eye(2), t), inp).value == 0.0

    def test_scalar_example(self):
        hyp = LinearHypothesis([[1.0]], [0.0])
        inp = StatisticInput([2.0], [[4.0]], 1)
        assert ats_standardized(hyp, inp).value == pytest.approx(1.0, rel=1e-14)

    def test_reduction_invariance_and_trace_identity(self):
        hyp = LinearHypothesis(SPHERICITY, np.zeros(3))
        reduced = reduce_for_ats(hyp)
        rng = np.random.default_rng(19)
        for _ in range(10):
            sigma = random_spd(rng, 3)
            inp = StatisticInput(rng.standard_normal(3), sigma, 6)
            v1 = ats_standardized(hyp, inp).value
            v2 = ats_standardized(reduced, inp).value
            assert v1 == pytest.approx(v2, rel=1e-10)
            tr1 = np.trace(hyp.h @ sigma @ hyp.h.T)
            tr2 = np.trace(reduced.h @ sigma @ reduced.h.T)
            assert tr1 == pytest.approx(tr2, rel=1e-10)

    @pytest.mark.parametrize("k", [1e-170, 1e-160, 1e150, 1e160])
    def test_scale_of_h_cancels(self, k):
        h = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        # N ||H t||^2 / trace(H Sigma H') = 34 * 5 / 25
        inp = StatisticInput([1.0, 2.0, 3.0], np.diag([5.0, 20.0, 9.0]), 34)
        base = ats_standardized(LinearHypothesis(h, np.zeros(2)), inp).value
        scaled = ats_standardized(LinearHypothesis(k * h, np.zeros(2)), inp).value
        assert base == pytest.approx(6.8, rel=1e-15)
        assert scaled == pytest.approx(base, rel=1e-14)

    def test_a_value_past_the_float_range_is_an_error_without_a_warning(self):
        inp = StatisticInput([1e300, 1.0], np.eye(2), 1)
        with pytest.raises(NumericError, match="ANOVA-type form overflows"):
            ats_standardized(LinearHypothesis(np.eye(2), np.zeros(2)), inp)

    def test_a_finite_value_whose_sum_of_squares_overflows(self):
        # ||r||^2 = 5e10 * 2^1000 is past the float range; the trace 2^1001 brings
        # the value back to 10 * 5e10 / 2 = 2.5e11.  Dividing r first keeps it finite.
        t = np.ldexp([1e5, 2e5], 500)
        inp = StatisticInput(t, np.ldexp(np.eye(2), 1000), 10)
        value = ats_standardized(LinearHypothesis(np.eye(2), np.zeros(2)), inp).value
        assert value == pytest.approx(2.5e11, rel=1e-12)

    def test_a_covariance_near_the_float_range(self):
        # trace(H Sigma H') = 3.4e308 overflowed, and the inf trace met an inf
        # vanishing floor.  The value 2.5 / 1.7e308 is subnormal.
        inp = StatisticInput([1.0, 2.0], 1.7e308 * np.eye(2), 1)
        value = ats_standardized(LinearHypothesis(np.eye(2), np.zeros(2)), inp).value
        assert value == pytest.approx(2.5 / 1.7e308, rel=1e-12, abs=0.0)

    def test_vanishing_trace_rejected(self):
        # H hits only the zero block of the covariance
        sigma = np.diag([0.0, 1.0])
        inp = StatisticInput([1.0, 2.0], sigma, 1)
        with pytest.raises(ValueError, match="annihilates"):
            ats_standardized(LinearHypothesis([[1.0, 0.0]], [0.0]), inp)


class TestSupportOfH:
    """Wald kernels and the ATS_s trace are formed on the nonzero rows and columns of H."""

    def test_all_zero_h_gives_zero_with_no_degree_of_freedom(self):
        hyp = LinearHypothesis(np.zeros((3, 4)), np.zeros(3))
        sigma = random_spd(np.random.default_rng(43), 4)
        t = np.array([1.0, -2.0, 0.5, 3.0])
        inp = StatisticInput(t, sigma, 7)
        for result in (wts(hyp, inp), mats(hyp, inp), WtsKernel(hyp, sigma, 7).evaluate(t)):
            assert (result.value, result.m_effective) == (0.0, 0)
        with pytest.raises(ValueError, match="annihilates"):
            ats_standardized(hyp, inp)

    def test_setting_a_values_are_pinned_bit_for_bit(self):
        # Setting A has no zero row or column, so its values are those of the
        # full-width kernels, recorded before kernels were formed on the support.
        full, minimal = build_setting_a(50)
        sigma = np.eye(100) + 1.0
        t = np.random.default_rng(14).standard_normal(100)
        inp = StatisticInput(t, sigma, 100)
        for hyp, wts_hex, mats_hex in (
            (full, "0x1.ab8c7b9a7afe5p+7", "0x1.11a196c94479dp+0"),
            (minimal, "0x1.ab8c7b9a7afe2p+7", "0x1.11a196c94479bp+0"),
        ):
            assert wts(hyp, inp).value == float.fromhex(wts_hex)
            assert mats(hyp, inp).value == float.fromhex(mats_hex)
            assert WtsKernel(hyp, sigma, 100).evaluate(t).value == float.fromhex(wts_hex)


class TestWtsKernel:
    def test_matches_one_shot_formula_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            m = int(rng.integers(1, d + 1))
            hyp = LinearHypothesis(rng.standard_normal((m, d)), rng.standard_normal(m))
            sigma = random_spd(rng, d)
            kernel = WtsKernel(hyp, sigma, 5)
            for _ in range(3):
                t = rng.standard_normal(d)
                assert kernel.evaluate(t).value == wts(hyp, StatisticInput(t, sigma, 5)).value

    def test_evaluate_checks_vector_length(self):
        kernel = WtsKernel(LinearHypothesis(np.eye(2), np.zeros(2)), np.eye(2), 1)
        with pytest.raises(
            ValueError, match="hypothesis has 2 columns but the statistic vector has length 3"
        ):
            kernel.evaluate(np.ones(3))

    def test_kernel_of_rank_zero(self):
        # H annihilates the singular Sigma = J: no pair is kept, and the form
        # still has the hypothesis's width.
        hyp = LinearHypothesis([[1.0, -1.0]], [0.0])
        sigma = np.ones((2, 2))
        kernel = WtsKernel(hyp, sigma, 5)
        for result in (wts(hyp, StatisticInput([1.0, 2.0], sigma, 5)), kernel.evaluate([1.0, 2.0])):
            assert (result.value, result.m_effective) == (0.0, 0)
        with pytest.raises(
            ValueError, match="hypothesis has 2 columns but the statistic vector has length 3"
        ):
            kernel.evaluate(np.ones(3))

    def test_validates_inputs(self):
        hyp = LinearHypothesis(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="columns"):
            WtsKernel(hyp, np.eye(3), 1)
        with pytest.raises(ValueError, match="sample size"):
            WtsKernel(hyp, np.eye(2), 0)


class TestVech:
    def test_two_by_two(self):
        np.testing.assert_allclose(vech_upper([[1.0, 2.0], [2.0, 3.0]]), [1.0, 2.0, 3.0])

    def test_identity(self):
        np.testing.assert_allclose(vech_upper(np.eye(3)), [1, 0, 0, 1, 0, 1])

    def test_identity_hypothesis_rhs(self):
        # vech of the 2x2 identity is the right-hand side for "V = I"
        np.testing.assert_allclose(vech_upper(np.eye(2)), [1.0, 0.0, 1.0])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            vech_upper([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="square"):
            vech_upper(np.ones((2, 3)))


class TestDiagSelector:
    def test_small_cases(self):
        np.testing.assert_allclose(diag_selector(2), [1.0, 0.0, 1.0])
        np.testing.assert_allclose(diag_selector(3), [1, 0, 0, 1, 0, 1])

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_selects_trace_of_identity(self, p):
        assert diag_selector(p) @ vech_upper(np.eye(p)) == p

    @pytest.mark.parametrize("p", [2, 4, 7])
    def test_selects_trace_of_random_symmetric(self, p):
        rng = np.random.default_rng(p)
        a = rng.standard_normal((p, p))
        v = (a + a.T) / 2
        assert diag_selector(p) @ vech_upper(v) == pytest.approx(np.trace(v), rel=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            diag_selector(0)


class TestSampleCovariance:
    def test_identical_observations(self):
        np.testing.assert_allclose(sample_covariance([[1.0, 2.0], [1.0, 2.0]]), np.zeros((2, 2)))

    def test_scalar_pair(self):
        np.testing.assert_allclose(sample_covariance([[0.0], [2.0]]), [[2.0]])

    def test_two_points(self):
        np.testing.assert_allclose(
            sample_covariance([[1.0, 0.0], [0.0, 1.0]]), [[0.5, -0.5], [-0.5, 0.5]]
        )

    def test_rejects_single_observation(self):
        with pytest.raises(ValueError, match="2 observations"):
            sample_covariance([[1.0, 2.0]])

    def test_matches_numpy(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((40, 3))
        np.testing.assert_allclose(sample_covariance(x), np.cov(x, rowvar=False), atol=1e-12)

    def test_an_overflowing_variance_is_a_numeric_error(self, recwarn):
        # The data are finite; their variance, 1e400, is not.
        with pytest.raises(NumericError, match="overflows"):
            sample_covariance([[1e200, 0.0], [-1e200, 1.0], [0.0, 2.0]])
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_a_column_sum_that_overflows_leaves_a_finite_covariance(self, recwarn):
        # The first column sums to inf; its spread, and every variance, is finite.
        s = sample_covariance([[1e308, 1.0], [1e308, 2.0]])
        np.testing.assert_array_equal(s, [[0.0, 0.0], [0.0, 0.5]])
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_is_a_value_error(self, bad):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            sample_covariance([[1.0, bad], [0.0, 1.0]])

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_exactly_symmetric(self, layout):
        x = np.random.default_rng(41).standard_normal((90, 37)) * np.logspace(-3, 3, 37)
        x = {"C": x, "F": np.asfortranarray(x), "strided": x[::2, ::3]}[layout]
        s = sample_covariance(x)
        assert np.array_equal(s, s.T)
