"""Tests for the timing harness: data generation, builders, reports."""

import numpy as np
import pytest

from quadform import (
    BenchConfig,
    EquivalenceVerdict,
    NumericError,
    emit_report,
    equivalent,
    rank,
    run_benchmark,
    sample_covariance,
)
from quadform.bench import (
    BenchReport,
    BenchRow,
    _check_variant_agreement,
    build_setting_a,
    build_setting_b,
    sample_compound_symmetry_normal,
)


class TestSampler:
    def test_deterministic_given_seed(self):
        a = sample_compound_symmetry_normal(4, np.zeros(4), np.random.default_rng(42))
        b = sample_compound_symmetry_normal(4, np.zeros(4), np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_mean_shift(self):
        rng = np.random.default_rng(1)
        n = 200_000
        draws = np.array(
            [sample_compound_symmetry_normal(3, np.ones(3), rng) for _ in range(n)]
        )
        # per-coordinate variance is 2, so the standard error of the mean
        # is sqrt(2/n); stay within three of them
        se = np.sqrt(2.0 / n)
        np.testing.assert_allclose(draws.mean(axis=0), np.ones(3), atol=3 * se)

    def test_empirical_covariance_is_compound_symmetry(self):
        rng = np.random.default_rng(2)
        draws = np.array(
            [sample_compound_symmetry_normal(3, np.zeros(3), rng) for _ in range(200_000)]
        )
        target = np.eye(3) + np.ones((3, 3))
        np.testing.assert_allclose(sample_covariance(draws), target, atol=0.05)

    def test_validation(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="dim"):
            sample_compound_symmetry_normal(0, np.zeros(0), rng)
        with pytest.raises(ValueError, match="length"):
            sample_compound_symmetry_normal(3, np.zeros(2), rng)


class TestSettingA:
    def test_d1_matrices(self):
        full, minimal = build_setting_a(1)
        np.testing.assert_allclose(full.h, [[0.5, -0.5], [-0.5, 0.5]])
        np.testing.assert_allclose(full.y, np.zeros(2))
        np.testing.assert_allclose(minimal.h, [[1.0, -1.0]])
        np.testing.assert_allclose(minimal.y, [0.0])

    def test_d2_block_structure(self):
        full, minimal = build_setting_a(2)
        j2 = np.ones((2, 2))
        expected = np.block([[0.5 * j2, -0.5 * j2], [-0.5 * j2, 0.5 * j2]])
        np.testing.assert_allclose(full.h, expected)
        np.testing.assert_allclose(minimal.h, [[1.0, 1.0, -1.0, -1.0]])

    @pytest.mark.parametrize("d", [1, 2, 5, 9])
    def test_rank_one_and_equivalent(self, d):
        full, minimal = build_setting_a(d)
        assert rank(full.h) == 1 == rank(minimal.h)
        assert equivalent(full, minimal) is EquivalenceVerdict.EQUIVALENT

    def test_validation(self):
        with pytest.raises(ValueError, match="d must be >= 1"):
            build_setting_a(0)


class TestSettingB:
    def test_p2_matrices(self):
        gamma = 4.0
        full, minimal = build_setting_b(2, gamma)
        np.testing.assert_allclose(minimal.h, [[1.0, 0.0, 1.0]])
        np.testing.assert_allclose(minimal.y, [gamma])
        np.testing.assert_allclose(
            full.h, [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]]
        )
        np.testing.assert_allclose(full.y, [gamma, 0.0, gamma])

    @pytest.mark.parametrize("p,d", [(5, 15), (10, 55), (15, 120), (20, 210), (25, 325), (30, 465)])
    def test_dimension_mapping(self, p, d):
        full, minimal = build_setting_b(p, 2.0 * p)
        assert full.h.shape == (d, d)
        assert minimal.h.shape == (1, d)

    @pytest.mark.parametrize("p", [1, 2, 3, 6])
    def test_rank_one_and_equivalent(self, p):
        full, minimal = build_setting_b(p, 7.5)
        assert rank(full.h) == 1
        assert equivalent(full, minimal) is EquivalenceVerdict.EQUIVALENT


class TestBenchConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="setting"):
            BenchConfig(setting="C", dims=(2,))
        with pytest.raises(ValueError, match="nonempty"):
            BenchConfig(setting="A", dims=())
        with pytest.raises(ValueError, match="positive"):
            BenchConfig(setting="A", dims=(0,))
        with pytest.raises(ValueError, match="replications"):
            BenchConfig(setting="A", dims=(2,), replications=0)

    def test_dims_coerced_to_tuple(self):
        cfg = BenchConfig(setting="A", dims=[2, 3])
        assert cfg.dims == (2, 3)


class TestRunBenchmark:
    def test_report_structure_and_agreement(self):
        cfg = BenchConfig(setting="A", dims=(2, 3), replications=25, seed=9)
        report = run_benchmark(cfg)
        assert report.generator == "PCG64"
        assert report.seed == 9
        assert len(report.rows) == 4
        for row in report.rows:
            assert row.matrix_variant in ("full", "minimal")
            assert row.total_seconds > 0
            assert row.per_eval_microseconds == pytest.approx(
                1e6 * row.total_seconds / 25, rel=1e-9
            )
        by = {(r.dimension, r.matrix_variant): r.statistic_checksum for r in report.rows}
        for d in (2, 3):
            full, minimal = by[(d, "full")], by[(d, "minimal")]
            assert abs(full - minimal) <= 1e-6 * max(abs(full), abs(minimal))

    def test_disagreeing_variant_checksums_are_a_numeric_error(self):
        full = BenchRow("A", 3, "full", 1.0, 10.0, 2.0)
        minimal = BenchRow("A", 3, "minimal", 0.1, 1.0, 2.0 * (1.0 + 1e-5))
        with pytest.raises(NumericError, match="checksums disagree"):
            _check_variant_agreement([full, minimal])

    def test_setting_b_reports_vech_dimension(self):
        cfg = BenchConfig(setting="B", dims=(2, 3), replications=10, seed=1)
        report = run_benchmark(cfg)
        assert sorted({r.dimension for r in report.rows}) == [3, 6]

    def test_deterministic_checksums(self):
        cfg = BenchConfig(setting="B", dims=(2, 4), replications=10, seed=77)
        first = run_benchmark(cfg)
        second = run_benchmark(cfg)
        for a, b in zip(first.rows, second.rows):
            assert a.statistic_checksum == b.statistic_checksum

    def test_different_seeds_give_different_data(self):
        base = BenchConfig(setting="A", dims=(3,), replications=5, seed=1)
        other = BenchConfig(setting="A", dims=(3,), replications=5, seed=2)
        a = run_benchmark(base).rows[0].statistic_checksum
        b = run_benchmark(other).rows[0].statistic_checksum
        assert a != b

    def test_precompute_matches_default_checksums(self):
        plain = run_benchmark(BenchConfig(setting="A", dims=(3,), replications=12, seed=5))
        cached = run_benchmark(
            BenchConfig(setting="A", dims=(3,), replications=12, seed=5, precompute=True)
        )
        for a, b in zip(plain.rows, cached.rows):
            assert a.statistic_checksum == pytest.approx(b.statistic_checksum, rel=1e-10)

    def test_minimal_is_faster_at_d5(self):
        cfg = BenchConfig(setting="A", dims=(5,), replications=5000, seed=3)
        report = run_benchmark(cfg)
        by = {r.matrix_variant: r.total_seconds for r in report.rows}
        assert by["minimal"] < by["full"]


class TestEmitReport:
    def _report(self):
        rows = (
            BenchRow("A", 5, "full", 0.9, 180.0, 12.5),
            BenchRow("A", 5, "minimal", 0.7, 140.0, 12.5),
            BenchRow("A", 10, "full", 1.4, 280.0, 30.25),
            BenchRow("A", 10, "minimal", 0.8, 160.0, 30.25),
        )
        return BenchReport("PCG64", 42, rows)

    def test_csv_has_six_fields_per_row(self):
        text = emit_report(self._report(), "csv")
        lines = text.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].split(",") == ["A", "5", "full", "0.900000", "180.000", "12.5"]
        for line in lines:
            assert len(line.split(",")) == 6

    def test_single_row_csv(self):
        report = BenchReport("PCG64", 0, (BenchRow("B", 15, "minimal", 0.5, 100.0, 3.0),))
        lines = emit_report(report, "csv").strip().splitlines()
        assert len(lines) == 1
        assert len(lines[0].split(",")) == 6

    def test_markdown_layout(self):
        text = emit_report(self._report(), "markdown")
        assert "| d | 5 | 10 |" in text
        assert any(line.startswith("| full |") for line in text.splitlines())
        assert any(line.startswith("| minimal |") for line in text.splitlines())
        assert "seed 42" in text

    def test_markdown_full_grid_header(self):
        rows = tuple(
            BenchRow("A", d, variant, 1.0, 1.0, 1.0)
            for d in (5, 10, 20, 50, 100, 200)
            for variant in ("full", "minimal")
        )
        text = emit_report(BenchReport("PCG64", 0, rows), "markdown")
        assert "| d | 5 | 10 | 20 | 50 | 100 | 200 |" in text

    def test_markdown_lists_every_variant_in_first_seen_order(self):
        rows = self._report().rows + (BenchRow("A", 5, "projector", 0.5, 100.0, 12.5),)
        text = emit_report(BenchReport("PCG64", 42, rows), "markdown")
        lines = text.splitlines()
        variant_lines = [line for line in lines if line.startswith("| ") and not line.startswith("| d ")]
        assert variant_lines == [
            "| full | 0.900 | 1.400 |",
            "| minimal | 0.700 | 0.800 |",
            "| projector | 0.500 |  |",
        ]

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            emit_report(BenchReport("PCG64", 0, ()), "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            emit_report(self._report(), "yaml")
