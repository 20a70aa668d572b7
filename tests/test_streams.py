"""The vectorized ``pcg64-seedseq-v1`` streams against numpy's own generator.

``run_experiment`` draws sample k of seed s as
``np.random.default_rng([s, k]).random(n)`` without building that generator.
Installed numpy is the oracle: every comparison is ``==``, so a numpy
release that changed these streams (NEP 19 promises it will not) fails here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diagdom._streams import uniform_streams

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
KS = (0, 1, 2**32 - 1, 2**32)


def numpy_streams(seed, ks, n):
    return np.array([np.random.default_rng([seed, int(k)]).random(n) for k in ks])


def test_word_boundaries():
    # One- and two-word seeds and keys, every length up to 20.
    for seed in SEEDS:
        for n in range(1, 21):
            assert uniform_streams(seed, KS, n).tolist() == numpy_streams(seed, KS, n).tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=8),
       st.integers(min_value=1, max_value=12))
def test_random_keys(seed, ks, n):
    assert uniform_streams(seed, ks, n).tolist() == numpy_streams(seed, ks, n).tolist()


def test_consecutive_keys():
    # run_experiment's keys 0..K-1, as it passes them to uniform_streams.
    got = uniform_streams(77, np.arange(600), 8)
    assert got.tolist() == numpy_streams(77, range(600), 8).tolist()
