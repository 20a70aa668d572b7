"""Dense matrix validation, row-sum functionals, and the dominance partition.

Everything downstream consumes these pieces: the restricted row sum
``row_sum``, its damped counterpart ``damped_row_sum`` (each off-diagonal
modulus weighted by the neighbour's dominance ratio R_j/|a_jj|), and the exact
split of the row indices into the non-dominant set ``n1`` and the strictly
dominant set ``n2``.

All indices in this API are 0-based.  The command-line layer converts to
1-based for reports.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import SingularDiagonalError, ValidationError

__all__ = [
    "IndexPartition",
    "as_index_set",
    "as_matrix",
    "comparison_matrix",
    "damped_row_sum",
    "dominance_partition",
    "row_sum",
]

# The analysis memo: validated small matrices and their partitions, keyed by
# their exact bytes, so a matrix analysed again (the criterion-7 sweep calls
# ``schur_complement`` about 22 times on one A, then partitions each
# complement) is neither copied, checked nor partitioned again.
MEMO_MAX_ORDER = 32  # largest order kept (measured, 2-CPU VM): a repeated partition costs 8 us
                     # instead of 25 at order 32, but 25 instead of 28 at order 64, where the
                     # bytes key makes a first call 24 us slower
MEMO_ENTRIES = 8     # ensemble-audit's hit share is 79% with 1 entry, 97.1% with 2 and 97.6%
                     # from 4 on; 8 entries of order 32 hold at most 128 KiB of matrices and moduli


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def _analysis(key, n):
    """The validated matrix with C-order float64 bytes ``key``, and its partition.

    The matrix is a view of ``key`` itself, a ``bytes`` buffer, so it can
    never be made writable and always matches its key.  Non-finite entries
    raise ``ValidationError``, and ``lru_cache`` stores no exception.
    """
    A = _finite(np.frombuffer(key, dtype=np.float64).reshape(n, n))
    return A, _build_partition(A)


def _finite(arr):
    """``arr`` made read-only, or ValidationError if any entry is not finite."""
    if not np.isfinite(arr).all():
        raise ValidationError("matrix entries must be finite")
    arr.setflags(write=False)
    return arr


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a validated square float64 matrix.

    Rejects complex input (the bound machinery is real-valued), non-square
    shapes, and non-finite entries.  Returns a read-only copy so results that
    hold references to it stay immutable.  Up to order ``MEMO_MAX_ORDER`` the
    copy is shared: input with exactly the bytes of a recently validated
    matrix gets that matrix back, unchecked and uncopied.
    """
    arr = np.asarray(a)
    if np.iscomplexobj(arr):
        raise ValidationError("complex matrices are not supported")
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    if n <= MEMO_MAX_ORDER:
        return _analysis(arr.tobytes(), n)[0]
    return _finite(arr.copy())


def as_index_set(indices, n, *, allow_empty=False, name="index set") -> tuple[int, ...]:
    """Normalize an iterable of row indices to a strictly increasing tuple."""
    raw = [int(i) for i in indices]
    if len(set(raw)) != len(raw):
        raise ValidationError(f"{name} contains duplicate indices")
    idx = tuple(sorted(raw))
    if not idx:
        if allow_empty:
            return idx
        raise ValidationError(f"{name} must not be empty")
    if idx[0] < 0 or idx[-1] >= n:
        raise ValidationError(f"{name} has indices outside 0..{n - 1}")
    return idx


@dataclass(frozen=True)
class IndexPartition:
    """Exact dominant/non-dominant row split with cached row functionals.

    This is the one analysis of a matrix that every bound reads from.
    ``off`` holds the moduli |a_ij| with a zeroed diagonal and ``diag`` the
    moduli |a_ii|; all four arrays are read-only.  ``row_sums[i]`` is R_i,
    the full off-diagonal absolute row sum, and ``p_values[i]`` is
    P_i = R^{n1}_i + Q^{n2}_i: full weight for columns in the non-dominant
    set, damped weight R_j/|a_jj| for columns in the dominant set.
    Membership is decided by the exact comparison |a_ii| <= R_i, with no
    tolerance.
    """

    n1: tuple[int, ...]
    n2: tuple[int, ...]
    row_sums: np.ndarray
    p_values: np.ndarray
    off: np.ndarray
    diag: np.ndarray

    @property
    def n(self) -> int:
        return len(self.row_sums)


def row_sum(A, i, subset=None) -> float:
    """Restricted absolute row sum R^S_i: sum of |a_ij| over j in S, j != i.

    ``subset=None`` means the full index range, giving R_i.
    """
    A = as_matrix(A)
    n = A.shape[0]
    if not 0 <= int(i) < n:
        raise ValidationError(f"row index {i} outside 0..{n - 1}")
    i = int(i)
    if subset is None:
        cols = range(n)
    else:
        cols = as_index_set(subset, n, allow_empty=True, name="subset")
    return float(sum(abs(A[i, j]) for j in cols if j != i))


def damped_row_sum(A, i, subset) -> float:
    """Damped restricted row sum Q^S_i: sum of |a_ij| * R_j / |a_jj| over j in S, j != i.

    Every j in the subset (other than i) must have a nonzero diagonal.
    """
    A = as_matrix(A)
    n = A.shape[0]
    if not 0 <= int(i) < n:
        raise ValidationError(f"row index {i} outside 0..{n - 1}")
    i = int(i)
    cols = as_index_set(subset, n, allow_empty=True, name="subset")
    part = _partition(A)
    total = 0.0
    for j in cols:
        if j == i:
            continue
        if part.diag[j] == 0.0:
            raise SingularDiagonalError(f"zero diagonal at index {j} inside damped row sum")
        total += part.off[i, j] * part.row_sums[j] / part.diag[j]
    return float(total)


def dominance_partition(A) -> IndexPartition:
    """Split rows into non-dominant ``n1`` (|a_ii| <= R_i) and dominant ``n2``."""
    return _partition(as_matrix(A))


def _partition(A) -> IndexPartition:
    """``dominance_partition`` of an array that ``as_matrix`` has already validated."""
    n = A.shape[0]
    if n <= MEMO_MAX_ORDER:
        return _analysis(A.tobytes(), n)[1]
    return _build_partition(A)


def _build_partition(A) -> IndexPartition:
    """The dominance partition of a validated matrix, built afresh."""
    off = np.abs(A)
    d = off.diagonal().copy()
    np.fill_diagonal(off, 0.0)
    R = off.sum(axis=1)
    n2_mask = d > R
    (i1,), (i2,) = (~n2_mask).nonzero(), n2_mask.nonzero()
    w = np.zeros(A.shape[0])
    w[i2] = R[i2] / d[i2]
    P = off[:, i1].sum(axis=1) + off[:, i2] @ w[i2]  # an empty set adds exact zeros
    for arr in (R, P, off, d):
        arr.setflags(write=False)
    return IndexPartition(n1=tuple(i1.tolist()), n2=tuple(i2.tolist()), row_sums=R,
                          p_values=P, off=off, diag=d)


def comparison_matrix(A) -> np.ndarray:
    """Entrywise comparison matrix: |a_ii| on the diagonal, -|a_ij| elsewhere."""
    A = as_matrix(A)
    out = -np.abs(A)
    np.fill_diagonal(out, np.abs(A.diagonal()))
    return out
