#!/usr/bin/env python3
"""Walk one matrix through the dominance hierarchy.

Shows the row partition, the damped row functionals, membership in each
class, and the S-SDD1 witness (n2 when the matrix is SDD1, else None), with
the dense oracles (H-matrix, P-matrix) cross-checking every claim.
"""

import numpy as np

import diagdom as dd

A = np.array([
    [10, 0, 1, 0, 2, 3],
    [1, 16, 1, 2, 0, 0],
    [2, 0, 20, 0, 2, 1],
    [1, 7, 3, 12, 3, 1],
    [2, 3, 10, 1, 7, 0],
    [6, 3, 16, 7, 5, 22],
], dtype=float)

part = dd.dominance_partition(A)
print("non-dominant rows (0-based):", part.n1)
print("dominant rows     (0-based):", part.n2)
print("row sums R_i:", np.round(part.row_sums, 4))
print("damped sums P_i:", np.round(part.p_values, 4))
print("margins |a_ii| - P_i:", np.round(dd.dominance_degrees(A), 4))

print()
print("is_sdd :", dd.is_sdd(A), "(row 3 alone breaks strict dominance)")
print("is_sdd1:", dd.is_sdd1(A))
print("S-SDD1 witness (n2 or None):", dd.find_s_sdd1_witness(A))
print("oracle, H-matrix:", dd.is_h_matrix(A))
print("oracle, P-matrix:", dd.is_p_matrix(A))

# The shift split behind the LCP class: constant-row part + dominance part.
M = np.array([[2.0, 1.0, 0.5], [0.25, 3.0, 1.0], [-0.5, 0.0, 1.5]])
split = dd.b1_split(M)
print()
print("shift split of\n", M)
print("row shifts r:", split.r)
print("shift part is SDD1 with positive diagonal ->", dd.is_b1(M))
print("reconstruction exact:", np.array_equal(split.a + split.c, M))
