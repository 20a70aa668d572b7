import hashlib

import numpy as np
import pytest

from diagdom import (
    ValidationError,
    b1_split,
    dominance_partition,
    generate_b1,
    generate_sdd1,
    is_b1,
    is_sdd,
    is_sdd1,
    run_experiment,
)
from diagdom import core
from matrices import LCP_8X8


class TestSdd1Generator:
    def test_deterministic(self):
        a = generate_sdd1(8, seed=5)
        b = generate_sdd1(8, seed=5)
        assert np.array_equal(a, b)
        c = generate_sdd1(8, seed=6)
        assert not np.array_equal(a, c)

    def test_class_membership(self):
        for seed in range(15):
            A = generate_sdd1(6, seed=seed)
            assert is_sdd1(A)
            assert not is_sdd(A)

    def test_fraction_controls_split(self):
        A = generate_sdd1(10, seed=3, n1_fraction=0.3)
        assert len(dominance_partition(A).n1) == 3
        A = generate_sdd1(10, seed=3, n1_fraction=0.6)
        assert len(dominance_partition(A).n1) == 6

    def test_small_fraction_still_forces_nonempty_n1(self):
        A = generate_sdd1(8, seed=1, n1_fraction=0.01)
        assert len(dominance_partition(A).n1) == 1

    def test_positive_diagonal_flag(self):
        A = generate_sdd1(7, seed=9, positive_diagonal=True)
        assert (A.diagonal() > 0).all()

    def test_validation(self):
        with pytest.raises(ValidationError):
            generate_sdd1(1, seed=0)
        with pytest.raises(ValidationError):
            generate_sdd1(5, seed=0, n1_fraction=1.0)

    def test_hands_out_the_matrix_it_partitioned(self, monkeypatch):
        # The record whose partition passed the check is the one returned, so reading
        # the partition of the returned matrix builds nothing.
        A = generate_sdd1(9, 4, 0.5)
        built = []
        build = core._build_partition
        monkeypatch.setattr(core, "_build_partition", lambda M: built.append(M) or build(M))
        dominance_partition(A)
        assert built == []


class TestB1Generator:
    def test_deterministic(self):
        a = generate_b1(7, seed=11)
        b = generate_b1(7, seed=11)
        assert np.array_equal(a, b)

    def test_class_membership(self):
        for seed in range(15):
            M = generate_b1(6, seed=seed)
            assert is_b1(M)

    def test_split_recovery_is_exact(self):
        for seed in range(10):
            M = generate_b1(8, seed=seed)
            split = b1_split(M)
            assert np.array_equal(split.a + split.c, M)
            assert (split.a.diagonal() > 0).all()

    def test_shift_probability_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            generate_b1(8, 3, shift_probability=0.5)
        with pytest.raises(TypeError):
            generate_b1(8, 3, 0.4, 0.5)

    def test_mix_of_shifted_and_plain_instances(self):
        shifted = sum(b1_split(generate_b1(8, seed=s)).r.any() for s in range(20))
        assert 0 < shifted < 20


def test_generated_bytes_are_pinned():
    # One digest over both generators' output, generate_sdd1 in all three sign
    # modes: any change to the draws, their order or the arithmetic on them
    # (a zero's sign included) moves it.
    digest = hashlib.sha256()
    for n in (2, 3, 4, 7, 12, 16, 64, 256):
        for seed in (0, 1, 29, 2**40 + 3):
            for mode in ({}, {"positive_diagonal": True}, {"z_pattern": True}):
                digest.update(generate_sdd1(n, seed, **mode).tobytes())
            digest.update(generate_b1(n, seed).tobytes())
    assert digest.hexdigest() == "6128c3d4e864582afb6f43b89440201a09d52e8241b7314419f387811b7af473"


@pytest.mark.parametrize("bad", [5.5, 5.0, np.float64(5.0), "5", None])
def test_integer_parameters_are_not_truncated_or_parsed(bad):
    # generate_sdd1(5.5, 1.5) built an order-5 matrix from seed 1, and "5" was parsed.
    calls = [lambda: generate_sdd1(bad, 1), lambda: generate_sdd1(5, bad),
             lambda: generate_b1(bad, 1), lambda: generate_b1(5, bad),
             lambda: run_experiment(LCP_8X8, bad, 7), lambda: run_experiment(LCP_8X8, 3, bad)]
    for call in calls:
        with pytest.raises(ValidationError, match="must be an integer"):
            call()
    # numpy integers stay accepted.
    assert np.array_equal(generate_sdd1(np.int64(5), np.int32(1)), generate_sdd1(5, 1))
    assert np.array_equal(generate_b1(np.int64(5), np.uint8(1)), generate_b1(5, 1))
    a, b = run_experiment(LCP_8X8, np.int64(3), np.int16(7)), run_experiment(LCP_8X8, 3, 7)
    assert a.to_lines() == b.to_lines()
