"""The ``pcg64-seedseq-v1`` sample streams, built for many keys at once.

Stream (seed, k) is ``np.random.default_rng([seed, k]).random(n)``: numpy's
``SeedSequence`` hashes the 32-bit words of seed and then of k into a pool
of four words and draws the 128-bit state and increment of a PCG64
generator (O'Neill, "PCG: A family of simple fast space-efficient
statistically good algorithms for random number generation",
HMC-CS-2014-0905), whose XSL-RR outputs become doubles as
``(next64 >> 11) * 2**-53``.  ``uniform_streams`` repeats exactly those
integer operations on arrays holding every k, 32-bit hashing in uint32 and
128-bit arithmetic as (high, low) pairs of uint64, so each row equals the
one-generator draw bit for bit.  numpy promises these streams stable
(NEP 19); a release that changes them fails the stream test.
"""

from __future__ import annotations

import numpy as np

MASK32 = 0xFFFFFFFF
# SeedSequence's hash constants (pool size 4).
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
XSHIFT = 16
POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier as (high, low) 64-bit halves.
PCG_MULT = (2549297995355413924, 4865540595714422341)


def _words(seed, ks):
    """Entropy words of [seed, k] for every k, zero-padded to the pool size."""
    seed_words = [seed & MASK32] if seed <= MASK32 else [seed & MASK32, seed >> 32]
    columns = [*seed_words, ks & MASK32, ks >> 32, 0][:POOL_SIZE]
    return [np.broadcast_to(np.asarray(c, dtype=np.uint32), ks.shape) for c in columns]


def _hasher(init, mult):
    """SeedSequence's running hash: x ^ h, then h *= mult, then x * h xor-shifted."""
    state = init

    def apply(value):
        nonlocal state
        value = value ^ np.uint32(state)
        state = state * mult & MASK32
        value = value * np.uint32(state)
        return value ^ (value >> XSHIFT)

    return apply


def _state_words(seed, ks):
    """``SeedSequence([seed, k]).generate_state(4, np.uint64)`` for every k."""

    def mix(x, y):
        result = np.uint32(MIX_MULT_L) * x - np.uint32(MIX_MULT_R) * y
        return result ^ (result >> XSHIFT)

    # At most four entropy words, so every word enters in the pool's first pass.
    hashmix = _hasher(INIT_A, MULT_A)
    pool = [hashmix(word) for word in _words(seed, ks)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    draw = _hasher(INIT_B, MULT_B)
    out = [draw(pool[i % POOL_SIZE]).astype(np.uint64) for i in range(2 * POOL_SIZE)]
    return [out[i] | (out[i + 1] << np.uint64(32)) for i in range(0, 2 * POOL_SIZE, 2)]


def _mulhi(a, b):
    """High 64 bits of the 128-bit product of uint64 array ``a`` and constant ``b``."""
    a0, a1 = a & MASK32, a >> np.uint64(32)
    b0, b1 = np.uint64(b & MASK32), np.uint64(b >> 32)
    low = a0 * b0
    mid = a1 * b0 + (low >> np.uint64(32))
    cross = a0 * b1 + (mid & MASK32)
    return a1 * b1 + (mid >> np.uint64(32)) + (cross >> np.uint64(32))


def _step(hi, lo, inc_hi, inc_lo):
    """One LCG step, state * PCG_MULT + inc modulo 2^128, on (high, low) halves."""
    m_hi, m_lo = PCG_MULT
    new_hi = _mulhi(lo, m_lo) + lo * np.uint64(m_hi) + hi * np.uint64(m_lo)
    new_lo = lo * np.uint64(m_lo)
    sum_lo = new_lo + inc_lo
    return new_hi + inc_hi + (sum_lo < inc_lo), sum_lo


def uniform_streams(seed, ks, n) -> np.ndarray:
    """Row i is ``np.random.default_rng([seed, ks[i]]).random(n)``, bit for bit.

    ``seed`` and every k lie in 0..2^64-1.
    """
    ks = np.asarray(ks, dtype=np.uint64)
    s_hi, s_lo, i_hi, i_lo = _state_words(int(seed), ks)
    # pcg64_srandom: inc = (initseq << 1) | 1, state = inc, += initstate, step.
    inc_hi = (i_hi << np.uint64(1)) | (i_lo >> np.uint64(63))
    inc_lo = (i_lo << np.uint64(1)) | np.uint64(1)
    hi, lo = inc_hi + s_hi + (inc_lo + s_lo < s_lo), inc_lo + s_lo
    hi, lo = _step(hi, lo, inc_hi, inc_lo)
    out = np.empty((len(ks), n))
    for j in range(n):
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> np.uint64(58)
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        out[:, j] = (x >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    return out
