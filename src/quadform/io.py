"""CSV exchange format for matrices and vectors.

One matrix row per line, comma-separated decimal floats as numpy parses them,
no header, no comments and no quotes; vectors are single-column files.  Blank
lines are skipped and whitespace around a line or a token is ignored.  The
values of a file come from one C-level ``np.loadtxt`` parse; only a file that
parse rejects is read again, line by line, to name the first offending line.

Writing uses 17 significant digits, one ``%``-format string per call applied
to each row, so a write/read round trip reproduces every float64 entry exactly.
"""

from __future__ import annotations

from typing import NoReturn

import numpy as np

from .linalg import as_matrix, as_vector


def _parse(rows: list[str]) -> np.ndarray:
    """The one value-producing parse: non-blank stripped lines to a 2-d float64 array."""
    return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)


def read_matrix_csv(path) -> np.ndarray:
    """Parse a matrix from a CSV file, naming the offending line on bad input."""
    # Bytes that are not UTF-8 decode to U+FFFD, which then reads as a non-numeric entry.
    # Universal newlines turn "\r\n" and "\r" into "\n", so every line ending splits here.
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = [line.strip() for line in fh.read().split("\n")]
    rows = [text for text in lines if text]
    try:
        matrix = _parse(rows) if rows else None
    except ValueError:
        matrix = None
    if matrix is None or not np.isfinite(matrix).all():
        _raise_first_fault(path, lines)
    return matrix


def _raise_first_fault(path, lines: list[str]) -> NoReturn:
    """Name the first bad line: entries in line order first, then row widths."""
    widths: list[tuple[int, int]] = []
    for lineno, text in enumerate(lines, start=1):
        if not text:
            continue
        try:
            row = _parse([text])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric entry") from None
        if not np.isfinite(row).all():
            raise ValueError(f"{path}: line {lineno}: non-finite entry")
        widths.append((lineno, row.shape[1]))
    if not widths:
        raise ValueError(f"{path}: no matrix rows found")
    width = widths[0][1]
    for lineno, found in widths:
        if found != width:
            raise ValueError(f"{path}: line {lineno}: expected {width} entries, found {found}")
    raise ValueError(f"{path}: not a matrix of decimal floats")


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
    row = ",".join(["%.17g"] * matrix.shape[1])
    return "\n".join([row % tuple(values) for values in matrix.tolist()]) + "\n"


def write_matrix_csv(matrix, path) -> None:
    """Write a matrix as CSV; the serialization round-trips float64 exactly."""
    with open(path, "w", newline="") as fh:
        fh.write(format_matrix_csv(matrix))


def write_vector_csv(vector, path) -> None:
    """Write a vector as a single-column CSV file."""
    write_matrix_csv(as_vector(vector)[:, None], path)
