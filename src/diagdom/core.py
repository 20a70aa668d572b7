"""Dense matrix validation, the dominance partition, and the row functionals read from it.

Everything downstream reads the partition: the split of the rows into the non-dominant
set ``n1`` and the strictly dominant set ``n2``, and the row sums R_i, R^{n1}, R^{n2} and
the damped Q^{n2} (moduli weighted by the dominance ratio R_j/|a_jj|) of every row.

All indices in this API are 0-based.  The command-line layer converts to
1-based for reports.
"""

from __future__ import annotations

import operator
import threading
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

# The memo: the MEMO_RECORDS most recently used records, each found by the identity of
# its validated matrix and holding it, its partition and LU factorization, built on first
# request (24 n^2 + 48 n bytes at most, 16 n^2 + 48 n when the matrix is the caller's own
# immutable one), and the last sweep of Schur complements made from it, of one alpha or
# of a family: every member's result, its frozen complement and that complement's
# partition, for a family two stacks of at most oracle.STACK_CHUNK_ENTRIES float64 (512
# KiB each: the copies and the moduli), six (m, |bar|) arrays and the objects, about 3 KB
# a member in all (3.0 MiB for the largest family kept, 924 members of order 6).  Each
# result is built whole with _LOCK released, then installed by ``_keep``: the first one
# installed is the one kept.  Only a matrix whose partition or factorization is read, or
# whose shared copy ``as_matrix`` is asked for, gets one; single reads use ``_checked``.
# Two is the fewest with which A's record outlasts its ordered copy's or its complement's
# until A is read again: a benchmark op then builds 4.0 (ensemble-audit) or 3.5
# (large-dense) partitions and 1.0 factorization, against 47.6, and 4.5 and 2.0, with
# one record; three build as many as two.
MEMO_RECORDS = 2
_MEMO = []  # records, least recently used first
_LOCK = threading.Lock()  # guards _MEMO and each install into a record, never a build


class _Record:
    """A validated read-only matrix and the results built from it, each on first request;
    ``family`` is kept by ``schur`` and replaced there.  It is found by the matrix's identity."""

    __slots__ = ("matrix", "partition", "factorization", "family")

    def __init__(self, matrix):
        self.matrix = matrix
        self.partition = self.factorization = self.family = None

    def result(self, name, build):
        """The result ``name``, ``build(matrix)``; kept, unless it raised, while the record is."""
        kept = getattr(self, name)
        return _keep(self, name, build(self.matrix)) if kept is None else kept


def _keep(owner, name, value, stale=lambda kept: kept is None):
    """``owner.name``, set to the built ``value`` first if it is ``stale``: the one install
    under _LOCK, so threads that built it at once all get the value installed first."""
    with _LOCK:
        if stale(getattr(owner, name)):
            object.__setattr__(owner, name, value)  # a frozen dataclass's field too
        return getattr(owner, name)


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a validated square float64 matrix.

    Rejects complex input (the bound machinery is real-valued), non-square
    shapes, and non-finite entries.  Returns the read-only matrix of ``a``'s
    record in the memo, so results that hold it stay immutable.  The memo
    finds a record by the identity of its matrix alone, so the returned
    matrix is the handle that reuses an analysis: pass ``as_matrix(A)`` to
    later calls and they find its partition and factorization unchecked and
    uncopied.  An immutable ``a`` (a C-ordered float64 view of a whole
    ``bytes`` object, as every matrix diagdom hands out) is recorded as it
    is and returned itself; any other input is copied into a new record on
    every call.  Asking for it makes a record, so the library's calls that
    read their input once validate it with ``_checked`` instead.
    """
    return _record(a).matrix


def _checked(a, *, finite=True) -> np.ndarray:
    """``a`` after ``as_matrix``'s checks, C-ordered float64, neither copied nor recorded."""
    arr = np.asarray(a)
    if arr.dtype.kind == "c":
        raise ValidationError("complex matrices are not supported")
    arr = np.asarray(arr, dtype=np.float64, order="C")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    if finite and not np.isfinite(arr).all():
        raise ValidationError("matrix entries must be finite")
    return arr


def _frozen(arr) -> np.ndarray:
    """A copy of the C-ordered float64 ``arr`` viewing its own ``bytes``: never writable."""
    return np.frombuffer(arr.tobytes(), dtype=np.float64).reshape(arr.shape)


def _immutable_bytes(a):
    """The ``bytes`` object that ``a`` views whole, if ``a`` is a C-ordered native float64
    square ndarray with one; else None.  numpy can never make such an array writable."""
    if not (type(a) is np.ndarray and a.dtype == np.float64 and a.flags.c_contiguous
            and a.ndim == 2 and a.shape[0] == a.shape[1] > 0):
        return None
    base = a.base
    while isinstance(base, np.ndarray):
        base = base.base
    return base if type(base) is bytes and len(base) == a.nbytes else None


def _record(a) -> _Record:
    """The memo's record of ``a``: found by the identity of its own matrix, else made from
    ``a`` after ``as_matrix``'s checks.  Immutable input is adopted as the new record's
    matrix; any other input is copied with ``_frozen``, so it gets a new record every call.
    """
    with _LOCK:
        for rec in _MEMO:
            if rec.matrix is a:
                return _used(rec)
        matrix = _checked(a)
        return _used(_Record(matrix if _immutable_bytes(a) is not None else _frozen(matrix)))


def _adopt(matrix, partition) -> _Record:
    """The memo's record of the finite immutable ``matrix`` (as ``_frozen`` makes them),
    holding ``partition``, its dominance partition as ``_build_partition`` gives it: found
    by identity, else recorded as it is, with no copy or finite check."""
    with _LOCK:
        for rec in _MEMO:
            if rec.matrix is matrix:
                break
        else:
            rec = _Record(matrix)
        if rec.partition is None:
            rec.partition = partition
        return _used(rec)


def _used(rec) -> _Record:
    """``rec``, made the most recently used record; a new one evicts the least recently used."""
    if not _MEMO or rec is not _MEMO[-1]:  # called under _LOCK
        if rec in _MEMO:
            _MEMO.remove(rec)
        _MEMO.append(rec)
        del _MEMO[:-MEMO_RECORDS]
    return rec


def _integer(value, message) -> int:
    """``value`` as an int by ``operator.index`` (numpy's too); else ValidationError(message)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(message) from None


def as_index_set(indices, n, *, allow_empty=False, name="index set") -> tuple[int, ...]:
    """Normalize an iterable of integer row indices (numpy's too) to a strictly increasing tuple."""
    raw = [_integer(i, f"{name} holds an index that is not an integer") for i in indices]
    if len(set(raw)) != len(raw):
        raise ValidationError(f"{name} contains duplicate indices")
    idx = tuple(sorted(raw))
    if not idx:
        if allow_empty:
            return idx
        raise ValidationError(f"{name} must not be empty")
    if idx[0] < 0 or idx[-1] >= n:
        raise ValidationError(f"{name} has indices outside the rows of an order-{n} matrix")
    return idx


@dataclass(frozen=True)
class IndexPartition:
    """Dominant/non-dominant row split with cached row functionals.

    This is the one analysis of a matrix that every bound reads from.
    ``off`` holds the moduli |a_ij| with a zeroed diagonal and ``diag`` the
    moduli |a_ii|; all seven arrays are read-only.  ``row_sums[i]`` is R_i,
    the full off-diagonal absolute row sum, and ``p_values[i]`` is
    P_i = R^{n1}_i + Q^{n2}_i: full weight for columns in the non-dominant
    set, damped weight R_j/|a_jj| for columns in the dominant set.  Its
    pieces are kept for every row: ``r_n1`` is R^{n1}, ``r_n2`` is R^{n2}
    and ``q_n2`` is Q^{n2}, each the sum (or ``@``) of the column gather
    ``off[:, n1]`` or ``off[:, n2]`` (column-major, unlike ``np.delete``'s
    C-ordered copy, which sums to other bits), so a bound that reads them
    gets the bits of summing those columns itself.  A row joins ``n1`` by the
    float comparison |a_ii| <= R_i, R_i as numpy sums it, with no tolerance;
    a row whose exact margin is a few ulps above zero can sum to a tie.
    """

    n1: tuple[int, ...]
    n2: tuple[int, ...]
    row_sums: np.ndarray
    p_values: np.ndarray
    off: np.ndarray
    diag: np.ndarray
    r_n1: np.ndarray
    r_n2: np.ndarray
    q_n2: np.ndarray

    @property
    def n(self) -> int:
        return len(self.row_sums)


def row_sum(A, i, subset=None) -> float:
    """Restricted absolute row sum R^S_i: sum of |a_ij| over j in S, j != i.

    Read from the partition.  Only ``subset=None`` reads R_i, as ``row_sums[i]``.  Any
    explicit S, ``range(n)`` included, sums the column gather ``off[:, S]`` in order, as
    ``r_n1`` and ``r_n2`` do, so R^{range(n)}_i may differ from ``row_sums[i]`` in the
    last bits on non-dyadic entries.
    """
    part = dominance_partition(A)
    (i,) = as_index_set([i], part.n, name="row index")
    if subset is None:
        return float(part.row_sums[i])
    S = list(as_index_set(subset, part.n, allow_empty=True, name="subset"))
    with np.errstate(over="ignore"):  # another row's sum may overflow
        return float(part.off[:, S].sum(axis=1)[i])


def damped_row_sum(A, i, subset) -> float:
    """Damped restricted row sum Q^S_i: sum of |a_ij| * R_j / |a_jj| over j in S, j != i.

    Every j in the subset (other than i) must have a nonzero diagonal.  Formed as
    ``q_n2`` is, ``off[:, S] @ (R_S / |a_SS|)``, so Q^{n2}_i is ``q_n2[i]`` to the bit.
    """
    part = dominance_partition(A)
    (i,) = as_index_set([i], part.n, name="row index")
    S = list(as_index_set(subset, part.n, allow_empty=True, name="subset"))
    if zero := [j for j in S if j != i and part.diag[j] == 0.0]:
        raise SingularDiagonalError(f"zero diagonal at index {zero[0]} inside damped row sum")
    with np.errstate(all="ignore"):  # another row's terms may overflow or be 0 * inf
        w = part.row_sums / part.diag
        w[i] = 0.0  # i's own term, off[i, i] * w_i, is 0 even where w_i is not finite
        return float((part.off[:, S] @ w[S])[i])


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
        w = R[i2] / d[i2]
        off_n2 = off[:, i2]
        r_n1, r_n2, q_n2 = off[:, i1].sum(axis=1), off_n2.sum(axis=1), off_n2 @ w
        P = r_n1 + q_n2  # an empty set adds exact zeros
    for arr in (R, P, off, d, r_n1, r_n2, q_n2):
        arr.setflags(write=False)
    return IndexPartition(n1=tuple(i1.tolist()), n2=tuple(i2.tolist()), row_sums=R,
                          p_values=P, off=off, diag=d, r_n1=r_n1, r_n2=r_n2, q_n2=q_n2)


def _build_partitions(stack) -> list[IndexPartition]:
    """The dominance partition of each matrix of a C-ordered (m, b, b) stack, with the bits of
    ``_build_partition`` of that matrix alone; its arrays are read-only views of stacks.

    The moduli, row sums and splits are formed once for the whole stack.  The
    members are then grouped by |n2|, and each group's columns are gathered
    C-ordered, n1 columns first, as (g, |n1| + |n2|, b): summed over axis 1
    and, for Q^{n2}, multiplied as (g, b, |n2|) @ (g, |n2|, 1), each member
    rounds as ``_build_partition``'s column-major ``off[:, idx]`` does
    (``tests/test_vectorized.py``).  A member with non-finite entries gets a
    partition of no meaning, and nothing warns.
    """
    m, b, _ = stack.shape
    rows = np.arange(b)
    with np.errstate(all="ignore"):
        off = np.abs(stack)
        d = off[:, rows, rows]
        off[:, rows, rows] = 0.0
        R = off.sum(axis=2)
        n2_mask = d > R
        k = n2_mask.sum(axis=1)
        order = np.argsort(k, kind="stable")  # the members grouped by |n2|
        cols = np.argsort(n2_mask[order], axis=1, kind="stable")  # n1, then n2, each increasing
        at = order[:, None]
        moved = off[at[:, :, None], rows, cols[:, :, None]]  # moved[j, c, i] = off[i, cols[j, c]]
        w = R[at, cols] / d[at, cols]  # R_j/|a_jj|, read in the n2 columns only
        sums = np.empty((3, m, b))  # R^{n1}, R^{n2} and Q^{n2}, in the grouped order
        sizes = k[order].tolist()
        lo = 0
        while lo < m:
            hi = lo + sizes[lo:].count(sizes[lo])  # sorted, so the group is a run
            s = b - sizes[lo]
            group = moved[lo:hi]
            sums[0, lo:hi] = group[:, :s].sum(axis=1)
            sums[1, lo:hi] = group[:, s:].sum(axis=1)
            sums[2, lo:hi] = (group[:, s:].transpose(0, 2, 1) @ w[lo:hi, s:, None])[..., 0]
            lo = hi
        r_n1, r_n2, q_n2 = out = np.empty_like(sums)
        out[:, order] = sums
        P = r_n1 + q_n2
    for arr in (R, P, off, d, r_n1, r_n2, q_n2):
        arr.setflags(write=False)
    parts = [None] * m
    for j, c, size in zip(order.tolist(), cols.tolist(), sizes):
        parts[j] = IndexPartition(n1=tuple(c[:b - size]), n2=tuple(c[b - size:]), row_sums=R[j],
                                  p_values=P[j], off=off[j], diag=d[j], r_n1=r_n1[j],
                                  r_n2=r_n2[j], q_n2=q_n2[j])
    return parts


def _eliminated_margins(part, alpha, bar, m) -> np.ndarray:
    """|a_tt| - R^{bar}_t - sum over h in alpha of |a_th| m_h / |a_hh| for each row t in bar.

    With m = P it bounds |a'_tt| - R_t(A/alpha) for alpha containing n2.  ``alpha`` and
    ``bar`` may carry a leading family axis, (m, |alpha|) and (m, |bar|), giving (m, |bar|).
    """
    off, d = part.off, part.diag
    ia, ib = np.asarray(alpha, dtype=np.intp), np.asarray(bar, dtype=np.intp)
    # C-ordered gathers: each row's sum and stacked dot round as its own sum() and @.
    scaled = off[ib[..., :, None], ia[..., None, :]] / d[ia][..., None, :]
    coupling = (scaled[..., None, :] @ m[ia][..., None, :, None])[..., 0, 0]
    return d[ib] - off[ib[..., :, None], ib[..., None, :]].sum(axis=-1) - coupling


def comparison_matrix(A) -> np.ndarray:
    """Entrywise comparison matrix: |a_ii| on the diagonal, -|a_ij| elsewhere."""
    A = _checked(A)
    out = -np.abs(A)
    np.fill_diagonal(out, np.abs(A.diagonal()))
    return out
