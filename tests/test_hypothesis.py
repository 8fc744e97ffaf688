"""Tests for hypothesis equivalence, canonicalization and reduction."""

import numpy as np
import pytest

from quadform import (
    EquivalenceVerdict,
    InconsistentHypothesisError,
    LinearHypothesis,
    Tolerance,
    ats,
    canonical_form,
    dependence_classes,
    equivalent,
    is_consistent,
    projection_form,
    rank,
    reduce_for_ats,
)

from helpers import (
    HARNESS_TOL,
    OracleSystem,
    equivalent_pair,
    hypothesis_with_redundancy,
    near_tolerance_system,
    oracle_verdict,
    random_consistent_hypothesis,
)

CENTERING_3 = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]) / 3.0
SPHERICITY = 0.5 * np.array([[1.0, 0.0, -1.0], [0.0, 2.0, 0.0], [-1.0, 0.0, 1.0]])
DIAGONALITY = np.diag([0.0, 1.0, 0.0])


class TestConstruction:
    def test_valid(self):
        hyp = LinearHypothesis(np.eye(3), [0.5, 0.5, 0.5])
        assert hyp.m == 3 and hyp.d == 3

    def test_trivial_all_zero_is_valid(self):
        hyp = LinearHypothesis(np.zeros((3, 3)), np.zeros(3))
        assert is_consistent(hyp)

    def test_zero_matrix_nonzero_rhs_rejected(self):
        with pytest.raises(ValueError, match="no solution"):
            LinearHypothesis(np.zeros((3, 3)), [1.0, 0.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            LinearHypothesis(np.eye(3), [1.0, 2.0])

    def test_immutable(self):
        hyp = LinearHypothesis(np.eye(2), [1.0, 2.0])
        with pytest.raises(ValueError):
            hyp.h[0, 0] = 5.0


class TestConsistency:
    def test_unique_solution(self):
        assert is_consistent(LinearHypothesis(np.eye(2), [1.0, 2.0]))

    def test_contradictory_rows(self):
        assert not is_consistent(LinearHypothesis([[1.0, 1.0], [1.0, 1.0]], [0.0, 1.0]))

    def test_mean_equality_system(self):
        h = [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, -1.0]]
        assert is_consistent(LinearHypothesis(h, np.zeros(3)))

    def test_one_verdict_at_every_entry_point_near_the_cutoff(self):
        # A redundant row whose right-hand side is off by 1e-16 to 1e-11
        # relative sits right at the consistency cutoff; every entry point
        # must still reach the same verdict on it.
        def accepts(entry_point, hyp):
            try:
                entry_point(hyp)
            except InconsistentHypothesisError:
                return False
            return True

        rng = np.random.default_rng(0)
        verdicts = []
        for _ in range(600):
            hyp = near_tolerance_system(rng, rng.uniform(-16.0, -11.0))
            verdict = is_consistent(hyp)
            assert accepts(canonical_form, hyp) is verdict
            assert accepts(reduce_for_ats, hyp) is verdict
            assert accepts(projection_form, hyp) is verdict
            verdicts.append(verdict)
        # The family straddles the cutoff, so both verdicts occur.
        assert 0 < sum(verdicts) < len(verdicts)


class TestEquivalent:
    def test_identity_covariance_pair(self):
        # two encodings of "the 2x2 covariance matrix is the identity"
        h1 = LinearHypothesis(np.eye(3), [1.0, 0.0, 1.0])
        h2 = LinearHypothesis(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, -1.0]], [1.0, 0.0, 0.0]
        )
        assert equivalent(h1, h2) is EquivalenceVerdict.EQUIVALENT

    def test_relative_effect_pair(self):
        h1 = LinearHypothesis(np.eye(3), [0.5, 0.5, 0.5])
        h2 = LinearHypothesis(
            [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]], [0.0, 0.0, 0.5]
        )
        assert equivalent(h1, h2) is EquivalenceVerdict.EQUIVALENT

    def test_different_solution_points(self):
        h1 = LinearHypothesis(np.eye(2), [0.0, 0.0])
        h2 = LinearHypothesis(np.eye(2), [0.0, 1.0])
        assert equivalent(h1, h2) is EquivalenceVerdict.NOT_EQUIVALENT

    def test_inconsistent_statuses(self):
        good = LinearHypothesis(np.eye(2), [1.0, 0.0])
        bad = LinearHypothesis([[1.0, 1.0], [1.0, 1.0]], [0.0, 1.0])
        assert equivalent(bad, good) is EquivalenceVerdict.INCONSISTENT_LEFT
        assert equivalent(good, bad) is EquivalenceVerdict.INCONSISTENT_RIGHT
        assert equivalent(bad, bad) is EquivalenceVerdict.BOTH_INCONSISTENT

    def test_dimension_mismatch(self):
        h1 = LinearHypothesis(np.eye(2), [0.0, 0.0])
        h2 = LinearHypothesis(np.eye(3), [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="d=2 vs d=3"):
            equivalent(h1, h2)

    def test_trivial_hypotheses_are_equivalent(self):
        h1 = LinearHypothesis(np.zeros((1, 3)), [0.0])
        h2 = LinearHypothesis(np.zeros((2, 3)), [0.0, 0.0])
        assert equivalent(h1, h2) is EquivalenceVerdict.EQUIVALENT

    def test_agrees_with_membership_oracle_on_integer_systems(self):
        rng = np.random.default_rng(101)
        systems = []
        for _ in range(300):
            d = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            h = rng.integers(-1, 2, size=(m, d)).astype(float)
            y = rng.integers(0, 2, size=m).astype(float)
            try:
                systems.append((d, LinearHypothesis(h, y)))
            except ValueError:
                continue  # all-zero H with nonzero y cannot be constructed
        checked = 0
        for i in range(len(systems) - 1):
            d1, h1 = systems[i]
            for d2, h2 in systems[i + 1 : i + 6]:
                if d1 != d2:
                    continue
                expected = oracle_verdict(OracleSystem(h1), OracleSystem(h2), rng)
                assert equivalent(h1, h2).value == expected
                checked += 1
        assert checked > 100


class TestCanonicalForm:
    def test_dependent_row_system(self):
        hyp = LinearHypothesis(
            [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, -1.0]], np.zeros(3)
        )
        out = canonical_form(hyp)
        np.testing.assert_allclose(out.h, [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]], atol=1e-14)
        np.testing.assert_allclose(out.y, [0.0, 0.0], atol=1e-14)

    def test_already_canonical(self):
        hyp = LinearHypothesis(np.eye(3), [1.0, 0.0, 1.0])
        out = canonical_form(hyp)
        np.testing.assert_allclose(out.h, np.eye(3))
        np.testing.assert_allclose(out.y, [1.0, 0.0, 1.0])

    def test_equivalent_encodings_share_canonical_form(self):
        h2 = LinearHypothesis(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, -1.0]], [1.0, 0.0, 0.0]
        )
        out = canonical_form(h2)
        np.testing.assert_allclose(out.h, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(out.y, [1.0, 0.0, 1.0], atol=1e-12)

    def test_inconsistent_rejected(self):
        bad = LinearHypothesis([[1.0, 1.0], [1.0, 1.0]], [0.0, 1.0])
        with pytest.raises(InconsistentHypothesisError):
            canonical_form(bad)

    def test_trivial_hypothesis(self):
        out = canonical_form(LinearHypothesis(np.zeros((2, 3)), np.zeros(2)))
        np.testing.assert_allclose(out.h, np.zeros((1, 3)))
        np.testing.assert_allclose(out.y, [0.0])

    def test_class_function_on_random_equivalent_pairs(self):
        rng = np.random.default_rng(103)
        for _ in range(80):
            d = int(rng.integers(2, 7))
            h1, h2 = equivalent_pair(rng, d)
            c1 = canonical_form(h1, HARNESS_TOL)
            c2 = canonical_form(h2, HARNESS_TOL)
            assert c1.h.shape == c2.h.shape
            np.testing.assert_allclose(c1.h, c2.h, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(c1.y, c2.y, rtol=1e-9, atol=1e-9)


class TestProjectionForm:
    def test_zero_rhs_gives_equivalent_projector(self):
        hyp = LinearHypothesis([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]], np.zeros(2))
        form = projection_form(hyp)
        np.testing.assert_allclose(form.p, CENTERING_3, atol=1e-12)
        assert form.equivalent
        np.testing.assert_allclose(form.y, np.zeros(3))

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_extreme_scale(self, scale):
        h = scale * np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        theta = np.array([1.0, 2.0, 3.0])
        form = projection_form(LinearHypothesis(h, h @ theta))
        np.testing.assert_allclose(form.p, CENTERING_3, atol=1e-12)
        assert form.equivalent
        np.testing.assert_allclose(form.y, CENTERING_3 @ theta, atol=1e-12)

    def test_identity_any_rhs(self):
        hyp = LinearHypothesis(np.eye(3), [1.0, -2.0, 0.5])
        form = projection_form(hyp)
        np.testing.assert_allclose(form.p, np.eye(3), atol=1e-12)
        assert form.equivalent
        np.testing.assert_allclose(form.y, [1.0, -2.0, 0.5], atol=1e-12)

    def test_diagonality_constraint(self):
        hyp = LinearHypothesis([[0.0, 1.0, 0.0]], [0.0])
        form = projection_form(hyp)
        np.testing.assert_allclose(form.p, DIAGONALITY, atol=1e-12)
        assert form.equivalent

    def test_inconsistent_rejected(self):
        bad = LinearHypothesis([[1.0, 1.0], [1.0, 1.0]], [0.0, 1.0])
        with pytest.raises(InconsistentHypothesisError):
            projection_form(bad)

    def test_unconstrained_hypothesis_gives_zero_projector(self):
        form = projection_form(LinearHypothesis(np.zeros((2, 3)), np.zeros(2)))
        np.testing.assert_array_equal(form.p, np.zeros((3, 3)))
        assert form.equivalent
        np.testing.assert_array_equal(form.y, np.zeros(3))

    def test_projector_with_unchanged_rhs_breaks_the_hypothesis(self):
        # Frozen counterexample: replacing H by its projector while keeping
        # the original nonzero right-hand side changes the solution set.
        # Here H = 2*I has projector I, so "P theta = y" asks theta = (2, 2)
        # while "H theta = y" asks theta = (1, 1).
        hyp = LinearHypothesis(2.0 * np.eye(2), [2.0, 2.0])
        form = projection_form(hyp)
        naive = LinearHypothesis(form.p, hyp.y)
        assert equivalent(hyp, naive) is EquivalenceVerdict.NOT_EQUIVALENT
        # the mapped right-hand side repairs it
        assert form.equivalent
        np.testing.assert_allclose(form.y, [1.0, 1.0], atol=1e-12)

    def test_mapped_rhs_always_preserves_the_hypothesis(self):
        # For any consistent system, the projector paired with the mapped
        # right-hand side HT (H HT)^+ y has the original solution set: the
        # flag is computed, not assumed, and must come back true.
        rng = np.random.default_rng(107)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            hyp = random_consistent_hypothesis(rng, d)
            assert projection_form(hyp, HARNESS_TOL).equivalent


class TestDependenceClasses:
    def test_sphericity_matrix(self):
        part = dependence_classes(SPHERICITY)
        assert part.zero_rows == ()
        assert len(part.classes) == 2
        first, second = part.classes
        assert first.members == (0, 2)
        np.testing.assert_allclose(first.coefficients, [1.0, -1.0], atol=1e-12)
        assert second.members == (1,)
        np.testing.assert_allclose(second.coefficients, [1.0])
        # coefficients reconstruct each member row from the representative
        for cls in part.classes:
            rep = SPHERICITY[cls.representative]
            for idx, coeff in zip(cls.members, cls.coefficients):
                np.testing.assert_allclose(SPHERICITY[idx], coeff * rep, atol=1e-12)

    def test_diagonality_matrix(self):
        part = dependence_classes(DIAGONALITY)
        assert part.zero_rows == (0, 2)
        assert len(part.classes) == 1
        assert part.classes[0].members == (1,)

    def test_identity_all_singletons(self):
        part = dependence_classes(np.eye(3))
        assert part.zero_rows == ()
        assert [c.members for c in part.classes] == [(0,), (1,), (2,)]

    def test_partition_covers_all_rows(self):
        rng = np.random.default_rng(109)
        for _ in range(40):
            m = int(rng.integers(1, 8))
            d = int(rng.integers(1, 6))
            h = rng.standard_normal((m, d))
            for i in range(m):
                if rng.random() < 0.3:
                    h[i] = 0.0
                elif i and rng.random() < 0.4:
                    h[i] = rng.uniform(0.25, 3.0) * rng.choice([-1, 1]) * h[0]
            part = dependence_classes(h)
            seen = sorted(part.zero_rows + tuple(i for c in part.classes for i in c.members))
            assert seen == list(range(m))
            mins = [c.representative for c in part.classes]
            assert mins == sorted(mins)


class TestReduceForAts:
    def test_sphericity_fixture(self):
        hyp = LinearHypothesis(SPHERICITY, np.zeros(3))
        out = reduce_for_ats(hyp)
        root_half = np.sqrt(2.0) / 2.0
        np.testing.assert_allclose(
            out.h, [[root_half, 0.0, -root_half], [0.0, 1.0, 0.0]], atol=1e-12
        )
        np.testing.assert_allclose(out.y, [0.0, 0.0])

    def test_diagonality_drops_zero_rows(self):
        hyp = LinearHypothesis(DIAGONALITY, np.zeros(3))
        out = reduce_for_ats(hyp)
        np.testing.assert_allclose(out.h, [[0.0, 1.0, 0.0]])
        np.testing.assert_allclose(out.y, [0.0])

    def test_independent_rows_unchanged(self):
        hyp = LinearHypothesis([[1.0, 0.0], [0.0, 2.0]], [1.0, 4.0])
        out = reduce_for_ats(hyp)
        np.testing.assert_allclose(out.h, hyp.h)
        np.testing.assert_allclose(out.y, hyp.y)

    def test_idempotent_and_clean(self):
        rng = np.random.default_rng(113)
        for _ in range(40):
            hyp = hypothesis_with_redundancy(rng)
            once = reduce_for_ats(hyp, HARNESS_TOL)
            part = dependence_classes(once.h, HARNESS_TOL)
            if once.h.any():
                assert part.zero_rows == ()
            assert all(len(c.members) == 1 for c in part.classes)
            twice = reduce_for_ats(once, HARNESS_TOL)
            np.testing.assert_allclose(twice.h, once.h, atol=1e-12)
            np.testing.assert_allclose(twice.y, once.y, atol=1e-12)

    def test_preserves_solution_set(self):
        rng = np.random.default_rng(127)
        for _ in range(40):
            hyp = hypothesis_with_redundancy(rng)
            out = reduce_for_ats(hyp, HARNESS_TOL)
            assert equivalent(hyp, out, HARNESS_TOL) is EquivalenceVerdict.EQUIVALENT

    def test_inconsistent_rejected(self):
        bad = LinearHypothesis([[1.0, 1.0], [2.0, 2.0]], [1.0, 5.0])
        with pytest.raises(InconsistentHypothesisError):
            reduce_for_ats(bad)

    def test_rows_parallel_within_eq_tol_with_disagreeing_rhs(self):
        # The two rows differ by 1e-10 in one entry: independent for the
        # consistency test, so the system has solutions, but parallel within
        # eq_tol, so collapsing them would change the solution set.
        h = np.array([[1.0, 2.0, 3.0, 4.0], [1.0 + 1e-10, 2.0, 3.0, 4.0]])
        hyp = LinearHypothesis(h, [0.0, 1.0])
        assert is_consistent(hyp)
        with pytest.raises(InconsistentHypothesisError, match="parallel within eq_tol") as info:
            reduce_for_ats(hyp)
        assert "no solution" not in str(info.value)

    def test_trivial_hypothesis(self):
        out = reduce_for_ats(LinearHypothesis(np.zeros((2, 2)), np.zeros(2)))
        np.testing.assert_allclose(out.h, np.zeros((1, 2)))

    @pytest.mark.parametrize(
        "h, y, t, tol",
        [
            # A row far below the largest one is small, not zero.
            ([[1.0, 0.0], [0.0, 1e-20]], [0.0, 0.0], [0.0, 1e20], None),
            # An explicit rank_tol above every row norm drops no row either.
            (1e-9 * np.eye(2), [1e-9, 0.0], [0.0, 0.0], Tolerance(rank_tol=1e-8)),
            # Squared entries of these rows underflow or overflow.
            ([[1e-170, 0.0], [0.0, 1.0]], [0.0, 0.0], [1e170, 0.0], None),
            ([[1e160, 2e160], [2e160, 4e160]], [0.0, 0.0], [1e-160, 0.0], None),
            # The class coefficient 1e160 overflows when squared.
            ([[1e-100, 0.0], [1e60, 0.0]], [0.0, 0.0], [1e-60, 0.0], None),
        ],
        ids=[
            "small-row",
            "rank-tol-above-norms",
            "underflowing-row",
            "overflowing-rows",
            "overflowing-coefficient",
        ],
    )
    def test_only_exactly_zero_rows_are_dropped(self, h, y, t, tol):
        hyp = LinearHypothesis(h, y)
        out = reduce_for_ats(hyp, tol)
        assert dependence_classes(hyp.h, tol).zero_rows == ()
        assert equivalent(hyp, out, tol) is EquivalenceVerdict.EQUIVALENT
        np.testing.assert_allclose(ats(out, t, 10).value, ats(hyp, t, 10).value, rtol=1e-12)


def test_projector_fixtures_are_rank_deficient():
    assert rank(SPHERICITY) == 2
    assert rank(DIAGONALITY) == 1
