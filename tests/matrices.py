"""Regression matrices and their recorded reference values, and two
generators of adversarial pivoting input shared by the LU and minor tests.

Tolerances follow the precision each reference value was recorded at:
four decimals -> 5e-4 absolute, one decimal -> 0.05 absolute.
"""

import numpy as np

TOL4 = 5e-4
TOL1 = 0.05

# 8x8 norm-bound example; rows 1..4 (1-based) are non-dominant.
NORM_8X8 = np.array([
    [0.4506, 0.0901, 0.0451, 0.0472, 0.0912, 0.0901, 0.0421, 0.1352],
    [0.0901, 0.5407, 0.1352, 0.0451, 0.0901, 0.4506, 0.0471, 0.1357],
    [0.1352, 0.0901, 0.5407, 0.0351, 0.0611, 0.0901, 0.0451, 0.0901],
    [0.0901, 0.0451, 0.0451, 0.5407, 0.0901, 0.2704, 0.0428, 0.0701],
    [0.0261, 0.0791, 0.0451, 0.0901, 9.0118, 0.0451, 0.1352, 0.0151],
    [0.3154, 0.0161, 0.0901, 0.1352, 0.2704, 27.0354, 0.0451, 0.0901],
    [0.0142, 0.0242, 0.0451, 0.1352, 0.2704, 0.5407, 1.4419, 0.2704],
    [0.0151, 0.0901, 0.0451, 0.0901, 0.0901, 0.0361, 0.0241, 9.0118],
])
NORM_8X8_SCHUR_BOUND = 7.6167
NORM_8X8_EPSILON = 0.2122
NORM_8X8_EPSILON_BOUND = 11.1572
NORM_8X8_EPSILON_SUP = 0.2787
NORM_8X8_EXACT = 3.3042

# 8x8 LCP example: a B1 matrix whose shift part is the matrix itself.
LCP_8X8 = np.array([
    [7.5, -2, -2, -2, -0.9, 0, -0.5, -0.1],
    [-12, 20.6, -7, 0, -0.9, -0.6, -0.1, 0],
    [-3.5, -2.2, 7, 0, -1.4, 0, 0, -0.1],
    [-12.4, -35, -7, 56, -1.6, 0, -0.1, 0],
    [-0.12, 0, 0, 0, 1.2, -0.16, 0, 0],
    [0, 0, -0.2, -0.12, 0, 1.2, 0, 0],
    [0, 0, -0.16, 0, -0.1, 0, 1.2, 0],
    [-0.1, 0, -0.12, 0, 0, 0, 0, 1.2],
])
LCP_8X8_BOUND = 4.1952
LCP_8X8_LITERATURE_ALTERNATIVE = 10.7081  # documented constant, not computed here

# 6x6 elimination example; alpha = first two rows (0-based {0, 1}).
SCHUR_6X6 = np.array([
    [10, 0, 1, 0, 2, 3],
    [1, 16, 1, 2, 0, 0],
    [2, 0, 20, 0, 2, 1],
    [1, 7, 3, 12, 3, 1],
    [2, 3, 10, 1, 7, 0],
    [6, 3, 16, 7, 5, 22],
], dtype=float)
SCHUR_6X6_COMPLEMENT = np.array([
    [19.8, 0, 1.6, 0.4],
    [2.5063, 11.125, 2.8875, 0.8313],
    [9.6313, 0.625, 6.6375, -0.5438],
    [15.2313, 6.625, 3.8375, 20.2563],
])
SCHUR_6X6_DEGREES = np.array([17.8, 7.153, 4.7711, 11.1732])

# 5x5 elimination example; alpha = first row.
SCHUR_5X5 = np.array([
    [2, 0, 1, 0, 0],
    [1, 5, 1, 1, 0],
    [0, 0, 3, 0, 0],
    [1, 0, 0, 2, 1],
    [0, 2, 0, 1, 2],
], dtype=float)
SCHUR_5X5_COMPLEMENT = np.array([
    [5, 0.5, 1, 0],
    [0, 3, 0, 0],
    [0, -0.5, 2, 1],
    [2, 0, 1, 2],
])

# First 6x6 determinant example (already in dominance ordering).
DET_6X6_FIRST = np.array([
    [1.5, 0.3, 0.3, 0.6, 0.3, 0.3],
    [0.3, 1.5, 0.3, 0.3, 0.6, 0.3],
    [0.3, 0, 1.5, 0.6, 0, 0.6],
    [0.3, 0, 0.3, 3, 0, 0],
    [0.3, 0, 0, 0, 1.5, 0.3],
    [0, 0, 0.3, 0, 0, 1.5],
])
DET_6X6_FIRST_HUANG = (0.099, 125.8959)
DET_6X6_FIRST_RATIO = (7.5835, 50.4812)
DET_6X6_FIRST_DET = 17.6899

# Second 6x6 determinant example (integer entries, det exactly 240).
DET_6X6_SECOND = np.array([
    [3, 0, 1, 2, 0, 2],
    [1, 2, 0, 1, 0, 0],
    [1, 0, 2, 1, 0, 0],
    [0, 1, 0, 3, 0, 0],
    [0, 0, 0, 0, 3, 1],
    [0, 0, 0, 1, 0, 3],
], dtype=float)
DET_6X6_SECOND_HUANG = (0.0, 1311.3)
DET_6X6_SECOND_RATIO = (66.7, 816.7)
DET_6X6_SECOND_DET = 240.0

# Dominance ties that rounding decides.  The tie row's moduli 1, 1e-16, 1e-16
# sum to 1 in its own column order, below its |a_ii| = 1 + 2^-52, so A puts it
# in n2; in the dominance-ordered copy, whose columns run n1 first, they sum to
# 1 + 2^-52, so the copy puts it in n1.  Both have n1 = rows 2 and 3 (0-based),
# permutation (2, 3, 0, 1).  In TIE_T2 the tie row is row 1, so the copy's n1
# does not lead; in TIE_T1 it is row 0, so the copy's n1 leads with three rows.
_TIE = 1.0 + 2.0 ** -52
TIE_T2 = np.array([
    [4, 0.1, 0.5, 0.5],
    [1, _TIE, 1e-16, 1e-16],
    [0.3, 0.3, 1, 0.5],
    [0.3, 0.3, 0.5, 1],
])
TIE_T1 = np.array([
    [_TIE, 1, 1e-16, 1e-16],
    [0.1, 4, 0.5, 0.5],
    [0.3, 0.3, 1, 0.5],
    [0.3, 0.3, 0.5, 1],
])

# A decimal tie of the SDD1 inequality.  Row 0 has n1 = {0, 1} and n2 = {2}, and
# its P_0 = 0.9 + 0.06 * 0.5 rounds to |a_00| = 0.93, so the matrix is not SDD1;
# the margin (0.93 - 0.9) - 0.03 rounds to +2.8e-17 instead.  TIE_N2_SCHUR adds
# a fourth dominant row, so that n2 = {2, 3} is a pair for the witness bound.
TIE_N2_WITNESS = np.array([
    [0.93, 0.9, 0.06],
    [0.5, 1, 0.5],
    [0.25, 0.25, 1],
])
TIE_N2_SCHUR = np.array([
    [0.93, 0.9, 0.06, 0],
    [0.5, 1, 0.5, 0],
    [0.25, 0.25, 1, 0],
    [0, 0, 0.25, 1],
])


def _sdd1_by_rounding():
    """12x12, SDD1 only by rounding: rows of n1 without n2 mass have |a_ii| = R_i,
    while P_i, summed over fewer columns, rounds below it."""
    u = 2.0**-53
    n1 = [0, 1, 2, 4, 5, 6, 8, 9, 10, 11]
    A = np.zeros((12, 12))
    for i in n1:
        A[i, [j for j in n1 if j != i]] = [3 * u, 1.5, 0.75, 5 * u, 5 * u, 1.5, 3 * u, 3 * u, 1.0]
    A[[3, 7], [3, 7]], A[[3, 7], 0] = 4.0, 1.0
    A[n1, n1] = np.abs(A).sum(axis=1)[n1]
    return A


SDD1_BY_ROUNDING = _sdd1_by_rounding()

# Small SDD1-but-not-SDD instance with a single dominant row.
SINGLE_N2 = np.array([
    [1.0, 2.0],
    [0.5, 3.0],
])

# Same shape as a B1 matrix (nonpositive off-diagonal, positive diagonal).
SINGLE_N2_B1 = np.array([
    [1.0, -2.0],
    [-0.5, 3.0],
])


def tied_moduli(n, seed):
    """Entries in {-2, ..., 2}: equal-modulus pivot candidates and exact zeros."""
    return np.random.default_rng(seed).integers(-2, 3, size=(n, n)).astype(float)


def overflowing(n, seed):
    """Wilkinson's growth matrix at the top of the float range.

    Unit diagonal, -1 below it and up to three trailing columns of constant
    random sign, all times c = 1.7e308 / (n + 3): the row sums stay finite
    and every pivot passes the threshold, but each column step doubles the
    trailing entries until they overflow to +-inf.  The last row is zero
    before the trailing columns, so its multipliers are 0 and 0 * inf makes
    its trailing entries NaN, below infinite ones: the pivot search must
    take the first NaN, as ``np.argmax`` does.
    """
    A = np.eye(n) - np.tril(np.ones((n, n)), -1)
    m = min(3, n - 1)
    A[:, n - m:] = np.random.default_rng(seed).choice([-1.0, 1.0], size=m)
    A[-1, :n - m] = 0.0
    return A * (1.7e308 / (n + 3))
