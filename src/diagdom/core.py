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

import operator
import threading
from collections import OrderedDict
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

# The memo: a record per recently used matrix, holding the validated matrix and,
# built on first request, its partition and LU factorization, so a matrix seen
# again (criterion 7 calls ``schur_complement`` about 22 times on one A; an audit
# takes ``determinant(A)``, then ``lu_factor(A)``) is not checked or built again.
# It keeps the MEMO_RECORDS most recently used records, each holding at most
# 24 n^2 + 24 n bytes (matrix, moduli, factor).  Three is the fewest with which a
# large-dense pass builds no partition or factor twice: A's record outlasts
# those of its inverse, its ordered copy and its complement.
MEMO_RECORDS = 3
_MEMO = OrderedDict()  # fingerprint -> record, least recently used first
_LOCK = threading.RLock()  # guards _MEMO and the results built into records


class _Record:
    """A validated read-only matrix and the results built from it, each on first request."""

    __slots__ = ("key", "raw", "matrix", "partition", "factorization")

    def __init__(self, key, raw):
        self.key, self.raw = key, raw
        self.matrix = np.frombuffer(raw, dtype=np.float64).reshape(key[0], key[0])
        self.partition = self.factorization = None

    def result(self, name, build):
        """The result ``name``, ``build(matrix)``; kept, unless it raised, while the record is."""
        with _LOCK:
            if getattr(self, name) is None:
                setattr(self, name, build(self.matrix))
            return getattr(self, name)


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a validated square float64 matrix.

    Rejects complex input (the bound machinery is real-valued), non-square
    shapes, and non-finite entries.  Returns a read-only copy so results that
    hold references to it stay immutable.  The copy is shared: input with
    exactly the bytes of a recently validated matrix gets that matrix back,
    unchecked and uncopied, and the shared copy can never be made writable.
    """
    return _record(a).matrix


def _record(a) -> _Record:
    """The memo's record of ``a``, validated and added if absent.

    A record is found by its fingerprint, the order and the bytes of the
    diagonal and of the first row, and confirmed by the identity of its own
    matrix or by equal bytes, so 0.0 and -0.0 differ and the whole matrix is
    never hashed.  A matrix with a record's fingerprint but other bytes
    replaces that record.  Every thread gets the same record back.
    """
    with _LOCK:
        rec = next(reversed(_MEMO.values()), None)
        if rec is not None and rec.matrix is a:  # the last record's own matrix, passed back
            return rec
        arr = np.asarray(a)
        if arr.dtype.kind == "c":
            raise ValidationError("complex matrices are not supported")
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
        key = (arr.shape[0], arr.diagonal().tobytes(), arr[0].tobytes())
        rec = _MEMO.get(key)
        if rec is not None and (rec.matrix is arr or rec.raw == arr.tobytes()):
            _MEMO.move_to_end(key)
            return rec
        if not np.isfinite(arr).all():
            raise ValidationError("matrix entries must be finite")
        rec = _MEMO[key] = _Record(key, arr.tobytes())  # in place of any other bytes
        _MEMO.move_to_end(key)
        while len(_MEMO) > MEMO_RECORDS:
            _MEMO.popitem(last=False)
        return rec


def as_index_set(indices, n, *, allow_empty=False, name="index set") -> tuple[int, ...]:
    """Normalize an iterable of integer row indices (numpy's too) to a strictly increasing tuple."""
    try:
        raw = [operator.index(i) for i in indices]
    except TypeError:
        raise ValidationError(f"{name} holds an index that is not an integer") from None
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
    (i,) = as_index_set([i], n, name="row index")
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
    (i,) = as_index_set([i], n, name="row index")
    cols = as_index_set(subset, n, allow_empty=True, name="subset")
    part = dominance_partition(A)
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
    return _record(A).result("partition", _build_partition)


def _build_partition(A) -> IndexPartition:
    """The dominance partition of a validated matrix, built afresh."""
    off = np.abs(A)
    d = off.diagonal().copy()
    np.fill_diagonal(off, 0.0)
    with np.errstate(over="ignore"):  # a finite row's moduli may sum to inf, which keeps it in n1
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
