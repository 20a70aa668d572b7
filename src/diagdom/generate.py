"""Seeded random instance generators for the property and soundness suites.

Entries live on a dyadic grid (multiples of 2^-10 at desk magnitudes), so the
sum/difference arithmetic the B1 split performs is exact and split
reconstruction round-trips bit for bit.  Identical (order, seed, fraction)
arguments always reproduce the identical matrix.
"""

from __future__ import annotations

import numpy as np

from .classify import _is_sdd1
from .core import _integer, as_matrix, dominance_partition
from .errors import GenerationError, ValidationError

__all__ = ["generate_b1", "generate_sdd1"]

RETRY_BUDGET = 100
_GRID = 1024.0  # dyadic resolution for diagonal entries

_SDD1_STREAM = 0x5DD1
_B1_STREAM = 0xB100


def _snap_up(value):
    return np.ceil(value * _GRID) / _GRID


def generate_sdd1(n, seed, n1_fraction=0.4, positive_diagonal=False, z_pattern=False):
    """Random SDD1-but-not-SDD matrix of order ``n``.

    About ``n1_fraction * n`` rows (at least one, at most n-1) end up
    non-dominant: their diagonal modulus is placed strictly between P_i and
    R_i.  Dominant rows get a diagonal strictly above their row sum.  Signs
    are mixed unless ``positive_diagonal``/``z_pattern`` restrict them.
    Retries up to a fixed budget, then raises ``GenerationError``.
    """
    n, seed = _integer(n, "order must be an integer"), _integer(seed, "seed must be an integer")
    if n < 2:
        raise ValidationError("order must be at least 2")
    if not 0.0 < float(n1_fraction) < 1.0:
        raise ValidationError("n1_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng([seed & (2**64 - 1), _SDD1_STREAM])
    k1 = min(n - 1, max(1, round(float(n1_fraction) * n)))

    for _ in range(RETRY_BUDGET):
        plan_n1 = np.zeros(n, dtype=bool)
        plan_n1[rng.choice(n, size=k1, replace=False)] = True
        n1_rows = np.where(plan_n1)[0]
        n2_rows = np.where(~plan_n1)[0]

        mag = rng.integers(1, 65, size=(n, n)) / 16.0
        mag[rng.random((n, n)) >= 0.7] = 0.0
        A = -mag if z_pattern else np.where(rng.random((n, n)) < 0.5, -mag, mag)
        np.fill_diagonal(A, 0.0)
        # Light couplings inside the non-dominant block keep the windows
        # (P_i, R_i) open; snap back onto the dyadic grid after scaling.
        block = np.ix_(n1_rows, n1_rows)
        A[block] = np.round(A[block] * 0.25 * 16.0) / 16.0
        for i in n1_rows:
            if np.abs(A[i, n2_rows]).sum() == 0.0:
                j = rng.choice(n2_rows)
                s = -1.0 if z_pattern else rng.choice([-1.0, 1.0])
                A[i, j] = s * rng.integers(8, 33) / 16.0

        absA = np.abs(A)
        R = absA.sum(axis=1)
        for i in n2_rows:
            dii = R[i] + rng.integers(8, 96) / 16.0
            s = 1.0 if (positive_diagonal or z_pattern) else rng.choice([-1.0, 1.0])
            A[i, i] = s * dii

        d = np.abs(A.diagonal())
        w = np.zeros(n)
        w[n2_rows] = R[n2_rows] / d[n2_rows]
        ok = True
        for i in n1_rows:
            Pi = absA[i, n1_rows].sum() + absA[i, n2_rows] @ w[n2_rows]
            if R[i] - Pi <= 1.0 / _GRID:
                ok = False
                break
            t = rng.uniform(0.15, 0.9)
            dii = _snap_up(Pi + t * (R[i] - Pi))
            if not (Pi < dii <= R[i]):
                ok = False
                break
            s = 1.0 if (positive_diagonal or z_pattern) else rng.choice([-1.0, 1.0])
            A[i, i] = s * dii
        if not ok:
            continue

        M = as_matrix(A)  # the record that checks it is the one handed out
        part = dominance_partition(M)
        if _is_sdd1(part) and part.n1 == tuple(int(i) for i in n1_rows) and part.n2:
            return M
    raise GenerationError(
        f"no SDD1 instance with {k1} non-dominant rows of order {n} "
        f"within {RETRY_BUDGET} draws"
    )


def generate_b1(n, seed, n1_fraction=0.4):
    """Random B1 matrix of order ``n`` whose shift split is exactly recoverable.

    Builds a nonpositive-off-diagonal SDD1 part with positive diagonal, then
    adds a constant-row shift on a random subset of rows.  A shifted row gets
    one off-diagonal entry pinned to zero first, so recomputing the row
    maxima on the sum returns exactly the shift that was added.
    """
    n, seed = _integer(n, "order must be an integer"), _integer(seed, "seed must be an integer")
    rng = np.random.default_rng([seed & (2**64 - 1), _B1_STREAM])
    for _ in range(RETRY_BUDGET):
        a = np.array(generate_sdd1(n, int(rng.integers(0, 2**31)), n1_fraction, z_pattern=True))
        r = np.zeros(n)
        # Roughly a third of the instances keep r = 0 so the reduced
        # coefficient path (no n-1 factor) stays exercised at scale.
        shift_mask = rng.random(n) < 0.5
        if rng.random() < 0.3:
            shift_mask[:] = False
        for i in np.where(shift_mask)[0]:
            cols = [j for j in range(n) if j != i]
            a[i, int(rng.choice(cols))] = 0.0
            r[i] = rng.integers(1, 33) / 16.0
        part = dominance_partition(a)
        if not (_is_sdd1(part) and part.n1 and part.n2):
            continue  # zeroing an entry may have collapsed a class
        return as_matrix(a + r[:, None])
    raise GenerationError(f"no B1 instance of order {n} within {RETRY_BUDGET} draws")
