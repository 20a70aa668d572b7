"""Matrix Market I/O for square real matrices (array and coordinate formats).

Only the real, general-symmetry flavor is supported: complex files are
rejected explicitly, and symmetric/skew storage is out of scope.  Parse
failures carry the 1-based line number of the offending line.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .core import _checked, as_matrix
from .errors import MatrixMarketError

__all__ = ["format_matrix_market", "matrix_digest", "read_matrix_market", "write_matrix_market"]

_BANNER = "%%MatrixMarket"


def matrix_digest(A) -> str:
    """Content hash of a matrix: sha256 over the shape and raw entry bytes."""
    A = _checked(A)
    h = hashlib.sha256(f"{A.shape[0]}:".encode("ascii"))
    h.update(A)  # _checked returns C-ordered arrays, hashed in place, uncopied
    return "sha256:" + h.hexdigest()


def _parse_int(tok, lineno):
    try:
        return int(tok)
    except ValueError:
        raise MatrixMarketError(f"expected an integer, got {tok!r}", line=lineno) from None


def _parse_real(tok, lineno):
    try:
        return float(tok)
    except ValueError:
        raise MatrixMarketError(f"expected a real number, got {tok!r}", line=lineno) from None


def read_matrix_market(path) -> np.ndarray:
    """Read a square dense matrix from a Matrix Market file.

    After the banner, a line is data unless it is blank or its first
    non-blank character is ``%``; the first data line is the size line.
    Coordinate entries are placed at their (1-based) positions with every
    unlisted entry zero; a position listed twice is rejected at its second
    line.  Non-square sizes, orders below 1 and complex fields are rejected.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixMarketError("empty file", line=1)

    banner = lines[0].split()
    if len(banner) != 5 or banner[0] != _BANNER or banner[1].lower() != "matrix":
        raise MatrixMarketError("missing or malformed MatrixMarket banner", line=1)
    layout, field, symmetry = (tok.lower() for tok in banner[2:])
    if layout not in ("array", "coordinate"):
        raise MatrixMarketError(f"unsupported layout {layout!r}", line=1)
    if field == "complex":
        raise MatrixMarketError("complex field is unsupported; this toolkit is real-valued", line=1)
    if field not in ("real", "integer"):
        raise MatrixMarketError(f"unsupported field {field!r}", line=1)
    if symmetry != "general":
        raise MatrixMarketError(f"unsupported symmetry {symmetry!r}; only general storage", line=1)

    data = [(lineno, tokens) for lineno, text in enumerate(lines[1:], start=2)
            if (tokens := text.split()) and not tokens[0].startswith("%")]
    if not data:
        raise MatrixMarketError("missing size line", line=len(lines))
    (size_line, size_tokens), entries = data[0], data[1:]
    count, word = (2, "two") if layout == "array" else (3, "three")
    if len(size_tokens) != count:
        raise MatrixMarketError(f"{layout} size line needs exactly {word} integers", line=size_line)
    size = [_parse_int(tok, size_line) for tok in size_tokens]
    n = size[0]
    if size[1] != n:
        raise MatrixMarketError(f"matrix is not square: {n} x {size[1]}", line=size_line)
    if n < 1:
        raise MatrixMarketError(f"matrix order must be at least 1, got {n}", line=size_line)

    if layout == "array":
        values = [_parse_real(tok, lineno) for lineno, tokens in entries for tok in tokens]
        if len(values) != n * n:
            raise MatrixMarketError(f"expected {n * n} values, found {len(values)}", line=len(lines))
        # Array format lists entries column-major.
        return as_matrix(np.array(values, dtype=float).reshape((n, n)).T)

    A = np.zeros((n, n))
    first = {}  # (i, j) -> the line that gave it
    for lineno, tokens in entries:
        if len(tokens) != 3:
            raise MatrixMarketError("coordinate entries need 'row col value'", line=lineno)
        i, j = _parse_int(tokens[0], lineno), _parse_int(tokens[1], lineno)
        v = _parse_real(tokens[2], lineno)
        if not (1 <= i <= n and 1 <= j <= n):
            raise MatrixMarketError(f"entry ({i}, {j}) outside the matrix", line=lineno)
        if (i, j) in first:
            raise MatrixMarketError(f"entry ({i}, {j}) repeats line {first[i, j]}", line=lineno)
        first[i, j] = lineno
        A[i - 1, j - 1] = v
    if len(entries) != size[2]:
        raise MatrixMarketError(f"expected {size[2]} entries, found {len(entries)}", line=len(lines))
    return as_matrix(A)


def format_matrix_market(A, comment=None) -> str:
    """Render a matrix in array format with full round-trip precision."""
    A = _checked(A)
    n = A.shape[0]
    lines = [f"{_BANNER} matrix array real general"]
    if comment:
        for row in str(comment).splitlines():
            lines.append(f"% {row}")
    lines.append(f"{n} {n}")
    for j in range(n):  # column-major per the format
        for i in range(n):
            lines.append(repr(float(A[i, j])))
    return "\n".join(lines) + "\n"


def write_matrix_market(path, A, comment=None) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_matrix_market(A, comment))
