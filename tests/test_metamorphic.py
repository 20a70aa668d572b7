"""Metamorphic relations: outputs compared with the outputs of a transformed input,
so no reference value is needed.

Signature similarity D A E, with D and E diagonal matrices of +-1, flips signs and
nothing else.  Pivoting picks the same rows, every product and sum is the same up to
sign, and IEEE rounding is symmetric in sign, so each output read from moduli keeps
its bits: the partition, the norm bounds, both determinant brackets, and each Schur
complement's tilde sets, certified margins and entry moduli.
"""

import itertools

import numpy as np
import pytest

from diagdom import (
    dominance_bracket,
    dominance_partition,
    generate_sdd1,
    huang_bracket,
    s_sdd1_schur_bound,
    schur_complement,
    sdd1_epsilon_bound,
    sdd1_schur_bound,
)
from test_memo import fingerprint, outcome

INSTANCES = 12  # per order; the nine orders take about a second in all


def complement_moduli(A, alpha):
    """A/alpha's tilde_n1, its certified margins and the moduli of its entries."""
    res = schur_complement(A, alpha)
    return res.tilde_n1, res.certified_lower_bounds, np.abs(res.complement)


def moduli_outputs(A):
    """Every output of A that signature similarity must leave bit for bit, as fingerprints:
    the Schur ones for each nonempty proper subset alpha of n2."""
    part = dominance_partition(A)
    values = [fingerprint((part.n1, part.n2, part.row_sums, part.p_values))]
    values += [outcome(lambda call=call: call(A))
               for call in (sdd1_schur_bound, sdd1_epsilon_bound, dominance_bracket, huang_bracket)]
    values.append(outcome(lambda: s_sdd1_schur_bound(A, part.n2)))
    return values + [outcome(lambda alpha=alpha: complement_moduli(A, alpha))
                     for size in range(1, len(part.n2))
                     for alpha in itertools.combinations(part.n2, size)]


@pytest.mark.parametrize("n", range(4, 13))
def test_signature_similarity_keeps_every_moduli_output(n):
    rng = np.random.default_rng(7000 + n)
    for _ in range(INSTANCES):
        A = np.array(generate_sdd1(n, int(rng.integers(2**31)),
                                   n1_fraction=float(rng.uniform(0.2, 0.6))))
        d, e = (rng.choice([-1.0, 1.0], size=n) for _ in range(2))
        want = moduli_outputs(A)
        got = moduli_outputs(d[:, None] * A * e)
        assert len(want) > 5 and got == want, (n, d, e)
