"""Soundness above the LU block width and below the bracket overflow (order 128).

Every certificate must stay on the right side of its dense oracle at orders
where the oracle LU runs its blocked path.
"""

import math

import numpy as np
import pytest

from diagdom import (
    b1_split,
    determinant,
    dominance_bracket,
    dominance_ordering,
    dominance_partition,
    generate_b1,
    generate_sdd1,
    huang_bracket,
    inf_norm,
    inverse,
    s_sdd1_schur_bound,
    schur_complement,
    sdd1_epsilon_bound,
    sdd1_schur_bound,
)
from diagdom.oracle import LU_BLOCK

ORDERS = (48, 96)
SEEDS = (0, 1)
assert min(ORDERS) > LU_BLOCK


def instances():
    for n in ORDERS:
        for seed in SEEDS:
            yield pytest.param("sdd1", generate_sdd1(n, 7000 + seed, n1_fraction=0.5),
                               id=f"sdd1-{n}-{seed}")
            yield pytest.param("b1", b1_split(generate_b1(n, 8000 + seed, n1_fraction=0.45)).a,
                               id=f"b1-{n}-{seed}")


@pytest.mark.parametrize("kind, A", instances())
def test_norm_bounds_cover_oracle(kind, A):
    exact = inf_norm(inverse(A))
    n2 = dominance_partition(A).n2
    certs = [sdd1_schur_bound(A), sdd1_epsilon_bound(A)]
    if len(n2) >= 2:
        certs.append(s_sdd1_schur_bound(A, n2))
    for cert in certs:
        assert cert.value >= exact - 1e-9, cert.formula_id


@pytest.mark.parametrize("kind, A", instances())
def test_schur_margins_below_exact(kind, A):
    res = schur_complement(A, dominance_partition(A).n2)
    assert res.certified_kind == "sdd_degree"
    cpart = dominance_partition(res.complement)
    exact = np.abs(res.complement.diagonal()) - cpart.row_sums
    for t, j in enumerate(res.alpha_bar):
        assert res.certified_lower_bounds[j] <= exact[t] + 1e-9 * max(1.0, abs(exact[t]))


@pytest.mark.parametrize("kind, A", instances())
def test_brackets_contain_determinant(kind, A):
    ordered = dominance_ordering(A).apply(A)
    det = abs(determinant(A))
    assert math.isfinite(det) and det > 0.0
    for bracket in (huang_bracket, dominance_bracket):
        br = bracket(ordered)
        assert math.isfinite(br.upper)
        assert br.lower <= det * (1 + 1e-9)
        assert det <= br.upper * (1 + 1e-9)
