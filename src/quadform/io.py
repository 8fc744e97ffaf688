"""CSV exchange format for matrices and vectors.

One matrix row per line, comma-separated decimal floats, no header; vectors
are single-column files.  Writing uses 17 significant digits, so a write/read
round trip reproduces every float64 entry exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import as_matrix, as_vector


def read_matrix_csv(path) -> np.ndarray:
    """Parse a matrix from a CSV file, naming the offending line on bad input."""
    rows: list[tuple[int, list[float]]] = []
    # Bytes that are not UTF-8 decode to U+FFFD, which then reads as a non-numeric entry.
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                row = [float(tok) for tok in text.split(",")]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric entry") from None
            if not all(math.isfinite(v) for v in row):
                raise ValueError(f"{path}: line {lineno}: non-finite entry")
            rows.append((lineno, row))
    if not rows:
        raise ValueError(f"{path}: no matrix rows found")
    width = len(rows[0][1])
    for lineno, row in rows:
        if len(row) != width:
            raise ValueError(
                f"{path}: line {lineno}: expected {width} entries, found {len(row)}"
            )
    return as_matrix([row for _, row in rows])


def read_vector_csv(path) -> np.ndarray:
    """Parse a single-column CSV file as a vector."""
    m = read_matrix_csv(path)
    if m.shape[1] != 1:
        raise ValueError(
            f"{path}: expected a single-column vector file, found {m.shape[1]} columns"
        )
    return m[:, 0]


def format_matrix_csv(matrix) -> str:
    """Render a matrix in the CSV exchange format."""
    matrix = as_matrix(matrix)
    return "\n".join(",".join(f"{x:.17g}" for x in row) for row in matrix) + "\n"


def write_matrix_csv(matrix, path) -> None:
    """Write a matrix as CSV; the serialization round-trips float64 exactly."""
    with open(path, "w", newline="") as fh:
        fh.write(format_matrix_csv(matrix))


def write_vector_csv(vector, path) -> None:
    """Write a vector as a single-column CSV file."""
    write_matrix_csv(as_vector(vector)[:, None], path)
