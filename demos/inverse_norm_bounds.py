#!/usr/bin/env python3
"""Compare the certified upper bounds on ||A^{-1}||_inf against the oracle.

The elimination-based bound needs no tuning parameter; the epsilon bound is
shown both at a hand-picked epsilon and at the epsilon that minimizes it
exactly.  Every certificate must sit above the exact value.
"""

import numpy as np

import diagdom as dd

A = np.array([
    [0.4506, 0.0901, 0.0451, 0.0472, 0.0912, 0.0901, 0.0421, 0.1352],
    [0.0901, 0.5407, 0.1352, 0.0451, 0.0901, 0.4506, 0.0471, 0.1357],
    [0.1352, 0.0901, 0.5407, 0.0351, 0.0611, 0.0901, 0.0451, 0.0901],
    [0.0901, 0.0451, 0.0451, 0.5407, 0.0901, 0.2704, 0.0428, 0.0701],
    [0.0261, 0.0791, 0.0451, 0.0901, 9.0118, 0.0451, 0.1352, 0.0151],
    [0.3154, 0.0161, 0.0901, 0.1352, 0.2704, 27.0354, 0.0451, 0.0901],
    [0.0142, 0.0242, 0.0451, 0.1352, 0.2704, 0.5407, 1.4419, 0.2704],
    [0.0151, 0.0901, 0.0451, 0.0901, 0.0901, 0.0361, 0.0241, 9.0118],
])

exact = dd.inf_norm(dd.inverse(A))
print(f"oracle ||A^-1||_inf = {exact:.4f}\n")

schur = dd.with_exact_norm(dd.sdd1_schur_bound(A), A)
print(f"elimination bound : {schur.value:.4f}  (slack {schur.slack:+.4f})")
print(f"  phi = {schur.parameters['phi']:.4f}, psi = {schur.parameters['psi']:.4f}")

eps_auto = dd.with_exact_norm(dd.sdd1_epsilon_bound(A), A)
sup = eps_auto.parameters["interval_sup"]
print(f"epsilon bound     : {eps_auto.value:.4f}  at epsilon = "
      f"{eps_auto.parameters['epsilon']:.4f} chosen on (0, {sup:.4f})")

eps_fixed = dd.with_exact_norm(dd.sdd1_epsilon_bound(A, 0.2122), A)
print(f"epsilon bound     : {eps_fixed.value:.4f}  at epsilon = 0.2122")

part = dd.dominance_partition(A)
witness = dd.with_exact_norm(dd.s_sdd1_schur_bound(A, part.n2), A)
print(f"witness bound     : {witness.value:.4f}  with S = full dominant set "
      f"(identical arithmetic to the elimination bound)")

print("\nhow the bound behaves across the admissible epsilon interval:")
for t in (0.1, 0.3, 0.5, 0.7, 0.9):
    cert = dd.sdd1_epsilon_bound(A, t * sup)
    print(f"  epsilon = {t * sup:.4f} -> {cert.value:9.4f}")

# Strictly dominant matrices fall back to the classical pairwise bound.
S = np.diag([3.0, 4.0, 5.0]) + 0.2
fallback = dd.with_exact_norm(dd.sdd1_schur_bound(S), S)
print(f"\nstrictly dominant input falls back to {fallback.parameters['substituted_formula']}: "
      f"{fallback.value:.4f} vs exact {fallback.exact_value:.4f}")
