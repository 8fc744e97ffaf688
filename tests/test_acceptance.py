"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
The benchmark criterion times 5000 Wald-statistic evaluations at dimensions
up to d = 200 and takes a few minutes; everything else finishes in seconds.
"""

import contextlib
import itertools
import time

import numpy as np
import pytest

from quadform import (
    BenchConfig,
    EquivalenceVerdict,
    LinearHypothesis,
    ats,
    ats_standardized,
    canonical_form,
    diag_selector,
    equivalent,
    mats,
    projection,
    rank,
    reduce_for_ats,
    run_benchmark,
    vech_upper,
    wts,
)
from quadform import StatisticInput
from quadform.bench import build_setting_b

from helpers import (
    HARNESS_TOL,
    OracleSystem,
    equivalent_pair,
    hypothesis_with_redundancy,
    oracle_verdict,
    random_spd,
)


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


@pytest.fixture(scope="module")
def randomized_pairs():
    """220 equivalent-hypothesis pairs with positive definite covariances."""
    rng = np.random.default_rng(20260810)
    pairs = []
    for _ in range(220):
        d = int(rng.integers(2, 9))
        h1, h2 = equivalent_pair(rng, d)
        inp = StatisticInput(
            rng.standard_normal(d), random_spd(rng, d), float(rng.integers(1, 50))
        )
        pairs.append((h1, h2, inp))
    return pairs


def test_criterion_1_wts_invariance(randomized_pairs):
    with criterion(1, "WTS invariance across 220 equivalent-hypothesis pairs"):
        start = time.perf_counter()
        worst = 0.0
        for h1, h2, inp in randomized_pairs:
            v1 = wts(h1, inp, HARNESS_TOL).value
            v2 = wts(h2, inp, HARNESS_TOL).value
            worst = max(worst, abs(v1 - v2) / (1.0 + abs(v1)))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-8, f"max relative WTS discrepancy {worst:.3e}"
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"


def test_criterion_1_degrees_of_freedom(randomized_pairs):
    with criterion(1, "WTS and MATS degrees of freedom equal rank(H) on the same pairs"):
        for h1, h2, inp in randomized_pairs:
            for hyp in (h1, h2):
                expected = rank(hyp.h, HARNESS_TOL)
                assert canonical_form(hyp, HARNESS_TOL).m == expected
                for tol in (HARNESS_TOL, None):
                    assert wts(hyp, inp, tol).m_effective == expected
                    assert mats(hyp, inp, tol).m_effective == expected


def test_criterion_2_projection_uniqueness(randomized_pairs):
    with criterion(2, "projector uniqueness on the same pairs plus the 3-group fixtures"):
        worst = 0.0
        for h1, h2, _ in randomized_pairs:
            p1 = projection(h1.h, HARNESS_TOL)
            p2 = projection(h2.h, HARNESS_TOL)
            worst = max(
                worst, np.linalg.norm(p1 - p2) / (1.0 + np.linalg.norm(p1))
            )
        assert worst <= 1e-8, f"max projector discrepancy {worst:.3e}"
        centering = np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]]) / 3.0
        encodings = [
            np.array([[1.0, -1, 0], [0, 1, -1], [1, 0, -1]]),
            centering,
            np.array([[1.0, -1, 0], [0, 1, -1]]),
        ]
        for h in encodings:
            np.testing.assert_allclose(projection(h), centering, atol=1e-12)


def test_criterion_3_mats_invariance(randomized_pairs):
    with criterion(3, "MATS invariance on the same harness"):
        worst = 0.0
        for h1, h2, inp in randomized_pairs:
            assert np.all(np.diag(inp.sigma) > 0)
            v1 = mats(h1, inp, HARNESS_TOL).value
            v2 = mats(h2, inp, HARNESS_TOL).value
            worst = max(worst, abs(v1 - v2) / (1.0 + abs(v1)))
        assert worst <= 1e-8, f"max relative MATS discrepancy {worst:.3e}"


def test_criterion_4_ats_reduction():
    with criterion(4, "ATS reduction: value, standardized value and trace identities"):
        rng = np.random.default_rng(404)
        for _ in range(150):
            hyp = hypothesis_with_redundancy(rng, max_class_size=4)
            reduced = reduce_for_ats(hyp, HARNESS_TOL)
            sigma = random_spd(rng, hyp.d)
            t = rng.standard_normal(hyp.d)
            n = float(rng.integers(1, 20))
            v1 = ats(hyp, t, n).value
            v2 = ats(reduced, t, n).value
            assert abs(v1 - v2) <= 1e-10 * max(abs(v1), abs(v2), 1e-30)
            inp = StatisticInput(t, sigma, n)
            s1 = ats_standardized(hyp, inp).value
            s2 = ats_standardized(reduced, inp).value
            assert abs(s1 - s2) <= 1e-10 * max(abs(s1), abs(s2), 1e-30)
            tr1 = float(np.trace(hyp.h @ sigma @ hyp.h.T))
            tr2 = float(np.trace(reduced.h @ sigma @ reduced.h.T))
            assert abs(tr1 - tr2) <= 1e-10 * max(abs(tr1), abs(tr2))
        sphericity = 0.5 * np.array([[1.0, 0, -1], [0, 2, 0], [-1, 0, 1]])
        fixture = reduce_for_ats(LinearHypothesis(sphericity, np.zeros(3)))
        root_half = np.sqrt(2.0) / 2.0
        np.testing.assert_allclose(
            fixture.h, [[root_half, 0.0, -root_half], [0.0, 1.0, 0.0]], atol=1e-12
        )
        np.testing.assert_allclose(fixture.y, np.zeros(2), atol=1e-12)


def test_criterion_5_ats_non_invariance_witness():
    with criterion(5, "row rescaling changes the ATS by a factor >= 2"):
        plain = LinearHypothesis([[1.0]], [0.0])
        doubled = LinearHypothesis([[2.0]], [0.0])
        assert equivalent(plain, doubled) is EquivalenceVerdict.EQUIVALENT
        v1 = ats(plain, [1.0], 1).value
        v2 = ats(doubled, [1.0], 1).value
        assert v2 >= 2.0 * v1, f"witness ratio {v2 / v1:.2f} below 2"


def _grid_systems():
    """Small integer systems: exhaustive except the 3x3 corner, which is sampled.

    Entries come from {-1, 0, 1} and right-hand sides from {0, 1}.  The
    exhaustive slices are d in {1, 2} with m in {1, 2, 3} and d = 3 with m in
    {1, 2}; the d = 3, m = 3 slice (157464 systems) is sampled with a fixed
    seed so the whole check stays inside the runtime budget.  Systems with an
    all-zero matrix and a nonzero right-hand side are skipped: construction
    rejects them, so they can never reach the equivalence decision.
    """
    systems = []
    for d, m_list in ((1, (1, 2, 3)), (2, (1, 2, 3)), (3, (1, 2))):
        for m in m_list:
            for entries in itertools.product((-1.0, 0.0, 1.0), repeat=m * d):
                h = np.array(entries).reshape(m, d)
                for y in itertools.product((0.0, 1.0), repeat=m):
                    try:
                        systems.append((d, LinearHypothesis(h, np.array(y))))
                    except ValueError:
                        pass
    rng = np.random.default_rng(614)
    for _ in range(4000):
        h = rng.integers(-1, 2, size=(3, 3)).astype(float)
        y = rng.integers(0, 2, size=3).astype(float)
        try:
            systems.append((3, LinearHypothesis(h, y)))
        except ValueError:
            pass
    return systems


def test_criterion_6_equivalence_oracle_grid():
    with criterion(6, "equivalence verdicts agree 100% with the membership oracle"):
        start = time.perf_counter()
        systems = _grid_systems()
        oracles = [OracleSystem(hyp) for _, hyp in systems]
        rng = np.random.default_rng(616)

        # Bucket systems by oracle fingerprint, then pair: chains inside each
        # bucket cover every system at least once, bucket representatives hit
        # the not-equivalent verdicts, and random same-dimension pairs add
        # unstructured coverage.
        buckets = {}
        for idx, ((d, _hyp), oracle) in enumerate(zip(systems, oracles)):
            buckets.setdefault((d, oracle.key()), []).append(idx)
        pairs = []
        reps = {}
        for (d, _key), members in buckets.items():
            pairs.extend(zip(members, members[1:]))
            reps.setdefault(d, []).append(members[0])
        for rep_list in reps.values():
            pairs.extend(zip(rep_list, rep_list[1:]))
        by_d = {}
        for idx, (d, _hyp) in enumerate(systems):
            by_d.setdefault(d, []).append(idx)
        for idxs in by_d.values():
            picks = rng.choice(idxs, size=(2000, 2))
            pairs.extend((int(a), int(b)) for a, b in picks)

        seen = set()
        for a, b in pairs:
            expected = oracle_verdict(oracles[a], oracles[b], rng)
            got = equivalent(systems[a][1], systems[b][1]).value
            assert got == expected, (
                f"verdict mismatch: impl {got!r} vs oracle {expected!r} for "
                f"H1={systems[a][1].h.tolist()}, y1={systems[a][1].y.tolist()}, "
                f"H2={systems[b][1].h.tolist()}, y2={systems[b][1].y.tolist()}"
            )
            seen.add(got)
        elapsed = time.perf_counter() - start
        assert seen == {
            "equivalent",
            "not-equivalent",
            "inconsistent-left",
            "inconsistent-right",
            "both-inconsistent",
        }
        assert len(pairs) > 15000
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_7_benchmark_direction_and_magnitude():
    with criterion(7, "minimal-matrix timing is <= 5% of the full-matrix timing"):
        start = time.perf_counter()
        cfg = BenchConfig(setting="A", dims=(50, 100, 200), replications=5000, seed=7)
        report = run_benchmark(cfg)
        by = {(r.dimension, r.matrix_variant): r for r in report.rows}
        full_costs = []
        for d in (50, 100, 200):
            full = by[(d, "full")]
            minimal = by[(d, "minimal")]
            ratio = minimal.total_seconds / full.total_seconds
            assert ratio <= 0.05, f"d={d}: minimal/full time ratio {ratio:.3f} above 5%"
            diff = abs(full.statistic_checksum - minimal.statistic_checksum)
            scale = max(abs(full.statistic_checksum), abs(minimal.statistic_checksum))
            assert diff <= 1e-6 * scale
            full_costs.append(full.per_eval_microseconds)
        # harness sanity: the full-variant cost grows with the dimension
        assert full_costs == sorted(full_costs)
        elapsed = time.perf_counter() - start
        assert elapsed <= 900.0, f"runtime {elapsed:.0f}s exceeds the 15-minute budget"


def test_criterion_8_setting_b_construction():
    with criterion(8, "trace-hypothesis builder equivalence and diagonal selector"):
        for p in range(2, 11):
            full, minimal = build_setting_b(p, gamma=2.0 * p)
            assert equivalent(full, minimal) is EquivalenceVerdict.EQUIVALENT
        rng = np.random.default_rng(808)
        for p in (2, 3, 5, 8):
            a = rng.standard_normal((p, p))
            v = (a + a.T) / 2.0
            lhs = float(diag_selector(p) @ vech_upper(v))
            trace = float(np.trace(v))
            assert abs(lhs - trace) <= 1e-12 * max(1.0, abs(trace))


def test_criterion_9_benchmark_determinism():
    with criterion(9, "identical seeds give identical benchmark checksums"):
        cfg = BenchConfig(setting="A", dims=(3, 5), replications=50, seed=99)
        first = run_benchmark(cfg)
        second = run_benchmark(cfg)
        for a, b in zip(first.rows, second.rows):
            assert a.statistic_checksum == b.statistic_checksum
        cfg_b = BenchConfig(setting="B", dims=(2, 3), replications=50, seed=99)
        for a, b in zip(run_benchmark(cfg_b).rows, run_benchmark(cfg_b).rows):
            assert a.statistic_checksum == b.statistic_checksum
