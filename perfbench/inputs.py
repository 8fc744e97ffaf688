"""Seeded inputs owned by the benchmark.

Every workload input (hypothesis encodings, data, replicate streams, CSV
files) is generated here with plain numpy, so a change to the library under
test cannot change what a workload measures.  ``selfcheck.py`` asserts that
the encodings agree with the library's ``build_setting_a`` and
``build_setting_b`` while those exist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Independent child streams of one seed.  Both bootstrap workloads use the
# same data and resampling streams, so they see identical replicates.
_STREAMS = {
    "a_data": 0,
    "b_data": 1,
    "a_boot": 2,
    "b_boot": 3,
    "kr_a": 4,
    "kr_b": 5,
    "cli_data": 6,
    "cli_dense": 7,
}


def stream(seed: int, name: str) -> np.random.Generator:
    """The named child stream of ``seed``; the same pair always gives the same draws."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_STREAMS[name],)))


@dataclass(frozen=True)
class Encoding:
    """One encoding ``h theta = y`` of a hypothesis, as plain arrays."""

    h: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class Setting:
    """A redundant and the minimal one-row encoding of the same hypothesis."""

    name: str
    full: Encoding
    minimal: Encoding
    mean: np.ndarray

    @property
    def dim(self) -> int:
        return self.full.h.shape[1]


def diag_selector(p: int) -> np.ndarray:
    """Indicator of the diagonal positions in row-wise upper-triangle vech order."""
    out = np.zeros(p * (p + 1) // 2)
    idx = 0
    for i in range(p):
        out[idx] = 1.0
        idx += p - i
    return out


def setting_a(d: int) -> Setting:
    """Equal mean averages of two groups of d repeated measures (2d coordinates).

    Full: the 2d x 2d block matrix ``(I2 - J2/2) (x) Jd``; minimal: the row
    ``(1, ..., 1, -1, ..., -1)``.  Both right-hand sides are zero.
    """
    half_centering = np.eye(2) - np.full((2, 2), 0.5)
    full = Encoding(np.kron(half_centering, np.ones((d, d))), np.zeros(2 * d))
    minimal = Encoding(np.concatenate([np.ones(d), -np.ones(d)])[None, :], np.zeros(1))
    return Setting(f"A(d={d})", full, minimal, np.zeros(2 * d))


def setting_b(p: int) -> Setting:
    """Covariance-trace target ``trace(V) = 2p`` in vech coordinates (p(p+1)/2 of them).

    Full: the outer product ``s s'`` with right-hand side ``2p s``; minimal:
    the row ``s'`` with scalar ``2p``, where s is the diagonal selector.
    """
    gamma = 2.0 * p
    s = diag_selector(p)
    full = Encoding(np.outer(s, s), gamma * s)
    minimal = Encoding(s[None, :], np.array([gamma]))
    return Setting(f"B(p={p})", full, minimal, np.ones(s.shape[0]))


def compound_symmetry_rows(rng: np.random.Generator, rows: int, mean: np.ndarray) -> np.ndarray:
    """``rows`` draws from N(mean, I + 11').

    Row i is ``mean + z_i + c_i`` with z_i a vector of unit normals and c_i
    one further unit normal, drawn in that order row after row.
    """
    dim = mean.shape[0]
    z = rng.standard_normal((rows, dim + 1))
    return mean + z[:, :dim] + z[:, dim:]


def compound_symmetry_sigma(dim: int) -> np.ndarray:
    return np.eye(dim) + np.ones((dim, dim))


def sample_covariance(x: np.ndarray) -> np.ndarray:
    """Unbiased sample covariance of observation rows, symmetrized exactly."""
    c = np.cov(x, rowvar=False)
    return (c + c.T) / 2.0


def dense_redundant(rng: np.random.Generator, classes: int, copies: int, d: int) -> Encoding:
    """A consistent dense hypothesis whose rows are scalar multiples of ``classes`` base rows.

    Each base row appears ``copies`` times with coefficients of magnitude in
    [0.5, 3], shuffled, so the rank is ``classes`` while the row count is
    ``classes * copies``.
    """
    base = rng.standard_normal((classes, d))
    theta = rng.standard_normal(d)
    coeff = rng.uniform(0.5, 3.0, size=(classes, copies)) * rng.choice([-1.0, 1.0], size=(classes, copies))
    coeff[:, 0] = 1.0
    h = (coeff[:, :, None] * base[:, None, :]).reshape(classes * copies, d)
    h = h[rng.permutation(h.shape[0])]
    return Encoding(h, h @ theta)


def format_csv(matrix: np.ndarray) -> str:
    """Headerless CSV with 17 significant digits, which round-trips float64 exactly."""
    return "\n".join(",".join(f"{x:.17g}" for x in row) for row in matrix) + "\n"


def parse_csv(text: str) -> np.ndarray:
    """Parse headerless CSV rows into a 2-d float array."""
    rows = [[float(tok) for tok in line.split(",")] for line in text.splitlines() if line.strip()]
    return np.array(rows, dtype=np.float64)


def write_csv(path, array: np.ndarray) -> None:
    """Write a matrix, or a vector as a single column."""
    matrix = array[:, None] if array.ndim == 1 else array
    with open(path, "w", newline="") as fh:
        fh.write(format_csv(matrix))


def read_csv(path) -> np.ndarray:
    with open(path) as fh:
        return parse_csv(fh.read())


def checksum(*arrays: np.ndarray) -> float:
    """Order-sensitive checksum of arrays, identical for identical inputs."""
    total = 0.0
    for k, a in enumerate(arrays, start=1):
        flat = np.ravel(a)
        total += k * float(flat @ np.cos(np.arange(flat.size)))
    return total
