#!/usr/bin/env python3
"""Bracket |det A| two ways and show the nesting between the brackets.

Both brackets take the matrix in any row order and run over its rows in
dominance order, non-dominant rows first; the per-row-ratio bracket is
provably nested inside the global-weight one and its lower endpoint can
never collapse to zero.
"""

import numpy as np

import diagdom as dd

MATRICES = {
    "dense mix": np.array([
        [1.5, 0.3, 0.3, 0.6, 0.3, 0.3],
        [0.3, 1.5, 0.3, 0.3, 0.6, 0.3],
        [0.3, 0, 1.5, 0.6, 0, 0.6],
        [0.3, 0, 0.3, 3, 0, 0],
        [0.3, 0, 0, 0, 1.5, 0.3],
        [0, 0, 0.3, 0, 0, 1.5],
    ]),
    "integer sparse": np.array([
        [3, 0, 1, 2, 0, 2],
        [1, 2, 0, 1, 0, 0],
        [1, 0, 2, 1, 0, 0],
        [0, 1, 0, 3, 0, 0],
        [0, 0, 0, 0, 3, 1],
        [0, 0, 0, 1, 0, 3],
    ], dtype=float),
}

for name, A in MATRICES.items():
    print(f"--- {name} ---")
    ordering = dd.dominance_ordering(A)
    print("permutation:", ordering.permutation, " non-dominant rows:", ordering.s)

    broad = dd.huang_bracket(A)
    tight = dd.dominance_bracket(A)
    exact = abs(dd.determinant(A))

    print(f"global-weight bracket : [{broad.lower:10.4f}, {broad.upper:10.4f}]"
          f"   theta = {broad.theta:.4f}")
    print(f"per-row-ratio bracket : [{tight.lower:10.4f}, {tight.upper:10.4f}]")
    print(f"oracle |det|          :  {exact:.4f}")
    print("nesting holds:", dd.bracket_nesting_check(A))
    print("ratio lower factors all positive:", (tight.factors[:, 0] > 0).all())
    print()

# A generated instance, its non-dominant rows scattered among the dominant ones.
A = dd.generate_sdd1(9, seed=31, n1_fraction=0.4)
print("generated 9x9 permutation:", dd.dominance_ordering(A).permutation)
tight = dd.dominance_bracket(A)
print("generated 9x9:",
      f"[{tight.lower:.6f}, {tight.upper:.6f}] contains {abs(dd.determinant(A)):.6f}")
