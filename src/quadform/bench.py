"""Timing harness comparing competing hypothesis-matrix formulations.

Two simulation settings, each with a large redundant hypothesis matrix and a
minimal single-row one encoding the same hypothesis: equality of two group
mean averages over repeated measures (setting A), and a covariance-trace
target expressed in half-vectorized coordinates (setting B).  The harness
draws one data vector per configuration, fixes the covariance at the known
generating one, and times thousands of Wald-statistic evaluations per matrix
variant on a monotonic clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .hypothesis import LinearHypothesis
from .linalg import NumericError, as_vector
from .statistics import StatisticInput, WtsKernel, diag_selector, wts

GENERATOR_NAME = "PCG64"

_WARMUP_EVALS = 100


@dataclass(frozen=True)
class BenchConfig:
    """Benchmark run description.

    ``dims`` holds per-group dimensions d for setting A and matrix dimensions
    p for setting B (the statistic then lives in p(p+1)/2 coordinates).
    ``gamma`` is the finite setting-B trace target; ``None`` selects ``2p``, the
    trace of the compound-symmetry covariance used to generate the data.
    With ``precompute`` the kernel pseudo-inverse is factored once per variant
    instead of being recomputed on every evaluation.
    """

    setting: str
    dims: tuple[int, ...]
    replications: int = 5000
    seed: int = 0
    gamma: float | None = None
    precompute: bool = False

    def __post_init__(self) -> None:
        if self.setting not in ("A", "B"):
            raise ValueError(f"setting must be 'A' or 'B', got {self.setting!r}")
        dims = tuple(int(d) for d in self.dims)
        if not dims:
            raise ValueError("dims must be nonempty")
        if any(d < 1 for d in dims):
            raise ValueError(f"dims must be positive, got {dims}")
        if int(self.replications) < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.gamma is not None and not np.isfinite(float(self.gamma)):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class BenchRow:
    """One timed configuration: (setting, dimension, variant) with totals."""

    setting: str
    dimension: int
    matrix_variant: str
    total_seconds: float
    per_eval_microseconds: float
    statistic_checksum: float


@dataclass(frozen=True)
class BenchReport:
    """Benchmark output: PRNG identity, seed, and one row per timed variant."""

    generator: str
    seed: int
    rows: tuple[BenchRow, ...]


def sample_compound_symmetry_normal(
    dim: int, mean, rng: np.random.Generator
) -> np.ndarray:
    """One multivariate normal draw with covariance ``I + 1 1'``.

    Built as ``mean + Z + z * 1`` with Z a dim-vector of independent unit
    normals and z one further unit normal, drawn in that order, so the
    covariance is exactly compound symmetry with unit off-diagonal entries.
    """
    dim = int(dim)
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    mean = as_vector(mean)
    if mean.shape[0] != dim:
        raise ValueError(f"mean has length {mean.shape[0]}, expected {dim}")
    z_vec = rng.standard_normal(dim)
    z_common = rng.standard_normal()
    return mean + z_vec + z_common


def build_setting_a(d: int) -> tuple[LinearHypothesis, LinearHypothesis]:
    """Hypotheses of equal group mean averages for two groups of d measures.

    Returns ``(full, minimal)``: the 2d x 2d block form ``(I2 - J2/2) (x) Jd``
    with zero right-hand side, and the single row ``(1, ..., 1, -1, ..., -1)``
    with scalar zero.  Both have rank one and identical solution sets.
    """
    d = int(d)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    half_centering = np.eye(2) - np.full((2, 2), 0.5)
    full = LinearHypothesis(np.kron(half_centering, np.ones((d, d))), np.zeros(2 * d))
    minimal = LinearHypothesis(
        np.concatenate([np.ones(d), -np.ones(d)])[None, :], np.zeros(1)
    )
    return full, minimal


def build_setting_b(p: int, gamma: float) -> tuple[LinearHypothesis, LinearHypothesis]:
    """Covariance-trace hypotheses ``trace(V) = gamma`` in vech coordinates.

    With s the diagonal selector, returns ``(full, minimal)``: the outer
    product ``s s'`` with right-hand side ``gamma * s``, and the single row
    ``s'`` with scalar gamma.  The outer-product form needs ``gamma * s`` on
    the right (not a constant vector): row i of ``s s' vech(V)`` equals
    ``s_i * trace(V)``, which is zero off the selector's support, so a
    constant right-hand side would make the system unsolvable there.
    """
    gamma = float(gamma)
    selector = diag_selector(p)
    full = LinearHypothesis(np.outer(selector, selector), gamma * selector)
    minimal = LinearHypothesis(selector[None, :], np.array([gamma]))
    return full, minimal


def run_benchmark(cfg: BenchConfig) -> BenchReport:
    """Time repeated Wald-statistic evaluation for both matrix variants.

    Per dimension, one data vector is drawn from the compound-symmetry normal
    model (setting A: dimension 2d, zero mean; setting B: dimension
    p(p+1)/2, unit mean), the statistic vector is the data itself with sample
    size 1, and the covariance is fixed at the known generating one.  Each
    dimension gets an independent child stream of the seeded generator.

    Each variant runs a warm-up batch of 100 evaluations that is excluded
    from the totals, then ``cfg.replications`` strictly sequential timed
    evaluations.  By default every evaluation recomputes the kernel
    pseudo-inverse; with ``cfg.precompute`` the kernel is factored once
    inside the timed region and reused.

    The reported dimension is the hypothesis-matrix width driver: d for
    setting A, p(p+1)/2 for setting B.  The two variants of one configuration
    must produce value checksums agreeing within 1e-6 relative; a mismatch
    raises :class:`NumericError` because the timing comparison would be
    meaningless.
    """
    rows: list[BenchRow] = []
    streams = np.random.SeedSequence(cfg.seed).spawn(len(cfg.dims))
    for dim, stream in zip(cfg.dims, streams):
        rng = np.random.default_rng(stream)
        if cfg.setting == "A":
            space = 2 * dim
            mean = np.zeros(space)
            report_dim = dim
            full, minimal = build_setting_a(dim)
        else:
            space = dim * (dim + 1) // 2
            mean = np.ones(space)
            report_dim = space
            gamma = cfg.gamma if cfg.gamma is not None else 2.0 * dim
            full, minimal = build_setting_b(dim, gamma)
        sigma = np.eye(space) + np.ones((space, space))
        data = sample_compound_symmetry_normal(space, mean, rng)
        inp = StatisticInput(data, sigma, n=1.0)
        pair: list[BenchRow] = []
        for variant, hyp in (("full", full), ("minimal", minimal)):
            total, checksum = _time_variant(hyp, inp, cfg)
            pair.append(
                BenchRow(
                    setting=cfg.setting,
                    dimension=report_dim,
                    matrix_variant=variant,
                    total_seconds=total,
                    per_eval_microseconds=1e6 * total / cfg.replications,
                    statistic_checksum=checksum,
                )
            )
        _check_variant_agreement(pair)
        rows.extend(pair)
    return BenchReport(GENERATOR_NAME, cfg.seed, tuple(rows))


def _time_variant(
    hyp: LinearHypothesis, inp: StatisticInput, cfg: BenchConfig
) -> tuple[float, float]:
    def evaluator():
        if cfg.precompute:
            return partial(WtsKernel(hyp, inp.sigma, inp.n).evaluate, inp.t)
        return partial(wts, hyp, inp)

    warm = evaluator()
    for _ in range(_WARMUP_EVALS):
        warm()
    start = time.perf_counter()
    evaluate = evaluator()  # a precomputed kernel is built inside the timed region
    checksum = 0.0
    for _ in range(cfg.replications):
        checksum += evaluate().value
    total = time.perf_counter() - start
    return total, checksum


def _check_variant_agreement(pair: list[BenchRow]) -> None:
    a, b = pair
    diff = abs(a.statistic_checksum - b.statistic_checksum)
    denom = max(abs(a.statistic_checksum), abs(b.statistic_checksum), 1e-300)
    if diff > 1e-6 * denom:
        raise NumericError(
            f"variant checksums disagree for setting {a.setting}, dimension "
            f"{a.dimension}: {a.statistic_checksum!r} vs {b.statistic_checksum!r}; "
            f"the timing comparison is invalid"
        )


def emit_report(report: BenchReport, fmt: str = "markdown") -> str:
    """Render a benchmark report as ``csv`` rows or a ``markdown`` timing table.

    The csv format has one line per (setting, dimension, variant) with six
    fields: setting, dimension, variant, total seconds, microseconds per
    evaluation, and the value checksum.  The markdown format has one table
    per setting: dimensions as columns, variants as rows in first-seen order.
    """
    if not report.rows:
        raise ValueError("empty benchmark report")
    if fmt == "csv":
        lines = [
            f"{r.setting},{r.dimension},{r.matrix_variant},"
            f"{r.total_seconds:.6f},{r.per_eval_microseconds:.3f},"
            f"{r.statistic_checksum!r}"
            for r in report.rows
        ]
        return "\n".join(lines) + "\n"
    if fmt != "markdown":
        raise ValueError(f"unknown report format {fmt!r}")
    out = [
        f"Wald-statistic timing (generator {report.generator}, seed {report.seed})"
    ]
    for setting in dict.fromkeys(r.setting for r in report.rows):
        setting_rows = [r for r in report.rows if r.setting == setting]
        dims = list(dict.fromkeys(r.dimension for r in setting_rows))
        cells = {
            (r.dimension, r.matrix_variant): f"{r.total_seconds:.3f}"
            for r in setting_rows
        }
        out.append("")
        out.append(f"Setting {setting}, total seconds:")
        header = ["d"] + [str(d) for d in dims]
        out.append("| " + " | ".join(header) + " |")
        out.append("|" + "---|" * len(header))
        for variant in dict.fromkeys(r.matrix_variant for r in report.rows):
            row = [variant] + [cells.get((d, variant), "") for d in dims]
            out.append("| " + " | ".join(row) + " |")
    return "\n".join(out) + "\n"
