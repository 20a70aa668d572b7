import math

import numpy as np
import pytest

from diagdom import (
    SingularMatrixError,
    SizeLimitError,
    comparison_matrix,
    determinant,
    inf_norm,
    inverse,
    is_h_matrix,
    is_p_matrix,
    lu_factor,
    lu_solve,
)
from diagdom import oracle
from diagdom.oracle import LU_BLOCK
from matrices import (
    DET_6X6_FIRST,
    DET_6X6_FIRST_DET,
    DET_6X6_SECOND,
    DET_6X6_SECOND_DET,
    LCP_8X8,
    NORM_8X8,
    TOL4,
)
from reference import lu_factor_unblocked


def random_sdd(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n)) * scale
    np.fill_diagonal(M, 0.0)
    d = np.abs(M).sum(axis=1) + rng.uniform(0.5, 2.0, size=n)
    M[np.diag_indices(n)] = d * np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return M


class TestLu:
    def test_identity(self):
        fact = lu_factor(np.eye(3))
        assert np.array_equal(fact.lower, np.eye(3))
        assert np.array_equal(fact.upper, np.eye(3))
        assert fact.perm == (0, 1, 2)
        assert fact.sign == 1

    def test_swap_matrix(self):
        fact = lu_factor([[0.0, 1.0], [1.0, 0.0]])
        assert fact.sign == -1
        assert determinant([[0.0, 1.0], [1.0, 0.0]]) == -1.0

    def test_reconstruction(self):
        A = random_sdd(6, 42)
        fact = lu_factor(A)
        PA = A[list(fact.perm)]
        assert np.abs(fact.lower @ fact.upper - PA).max() < 1e-10 * inf_norm(A)

    def test_singular_reports_column(self):
        A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]])
        with pytest.raises(SingularMatrixError) as err:
            lu_factor(A)
        assert err.value.column is not None

    def test_solve_matches_inverse(self):
        A = random_sdd(5, 3)
        fact = lu_factor(A)
        b = np.arange(1.0, 6.0)
        x = lu_solve(fact, b)
        assert np.allclose(A @ x, b, atol=1e-11)
        X = lu_solve(fact, np.eye(5))
        assert np.allclose(A @ X, np.eye(5), atol=1e-10)


LU_ORDERS = (1, 31, 32, 33, 64, 97, 130)


def random_pivoting(n, seed):
    """Non-dominant Gaussian matrix; partial pivoting swaps rows at almost every step."""
    return np.random.default_rng(seed).normal(size=(n, n))


class TestBlockedLu:
    """The blocked factorization against the column-by-column reference loop."""

    @pytest.mark.parametrize("n", LU_ORDERS)
    @pytest.mark.parametrize("kind", ["sdd", "pivoting"])
    def test_matches_unblocked(self, n, kind):
        A = random_sdd(n, 500 + n) if kind == "sdd" else random_pivoting(n, 600 + n)
        fact = lu_factor(A)
        packed, perm, sign = lu_factor_unblocked(A)
        assert fact.perm == perm
        assert fact.sign == sign
        if kind == "pivoting" and n > 1:
            assert perm != tuple(range(n))
        residual = np.abs(fact.lower @ fact.upper - A[list(fact.perm)]).max()
        assert residual <= 1e-12 * n * inf_norm(A)
        if n <= LU_BLOCK:
            assert np.array_equal(fact.packed, packed)

    def test_singular_column_past_first_block(self):
        rng = np.random.default_rng(70)
        A = rng.normal(size=(70, 70))
        A[:, 40] = A[:, :40] @ rng.normal(size=40)  # column 40 depends on columns 0..39
        with pytest.raises(SingularMatrixError) as ref:
            lu_factor_unblocked(A)
        with pytest.raises(SingularMatrixError) as err:
            lu_factor(A)
        assert ref.value.column == 40
        assert err.value.column == ref.value.column

    def test_solve_round_trip_order_100(self):
        rng = np.random.default_rng(100)
        A = random_pivoting(100, 100)
        fact = lu_factor(A)
        x = rng.normal(size=100)
        assert np.allclose(lu_solve(fact, A @ x), x, rtol=0, atol=1e-9)
        X = lu_solve(fact, np.eye(100))
        assert np.abs(A @ X - np.eye(100)).max() < 1e-10


class TestInverse:
    def test_diagonal(self):
        got = inverse(np.diag([2.0, 4.0]))
        assert np.allclose(got, np.diag([0.5, 0.25]))

    def test_closed_form_2x2(self):
        got = inverse([[2.0, 1.0], [0.0, 2.0]])
        assert np.allclose(got, [[0.5, -0.25], [0.0, 0.5]], atol=1e-15)

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            inverse([[1.0, 1.0], [1.0, 1.0]])

    def test_residual_small(self):
        A = random_sdd(8, 11)
        assert np.abs(A @ inverse(A) - np.eye(8)).max() < 1e-9


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(4)) == 1.0

    def test_fixture_values(self):
        assert determinant(DET_6X6_FIRST) == pytest.approx(DET_6X6_FIRST_DET, abs=TOL4)
        assert determinant(DET_6X6_SECOND) == pytest.approx(DET_6X6_SECOND_DET, abs=1e-9)

    def test_singular_returns_zero(self):
        assert determinant([[1.0, 1.0], [1.0, 1.0]]) == 0.0

    def test_inverse_determinant_product(self):
        for seed in range(5):
            A = random_sdd(7, 100 + seed)
            assert determinant(A) * determinant(inverse(A)) == pytest.approx(1.0, rel=1e-8)


class TestInfNorm:
    def test_identity(self):
        assert inf_norm(np.eye(3)) == 1.0

    def test_rows(self):
        assert inf_norm([[1.0, -2.0], [3.0, 0.0]]) == 3.0

    def test_submultiplicative(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            A = rng.normal(size=(5, 5))
            B = rng.normal(size=(5, 5))
            assert inf_norm(A @ B) <= inf_norm(A) * inf_norm(B) + 1e-12


class TestPMatrix:
    def test_identity(self):
        assert is_p_matrix(np.eye(4))

    def test_swap_is_not(self):
        assert not is_p_matrix([[0.0, 1.0], [1.0, 0.0]])

    def test_b1_fixture_is_p(self):
        assert is_p_matrix(LCP_8X8)

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            is_p_matrix(np.eye(21))

    @staticmethod
    def _scanned_chunks(monkeypatch, A):
        """Run is_p_matrix and return (size, count) for every chunk of minors it computed."""
        chunks = []
        stack_determinants = oracle._stack_determinants

        def spy(stack):
            chunks.append((stack.shape[1], stack.shape[0]))
            return stack_determinants(stack)

        monkeypatch.setattr(oracle, "_stack_determinants", spy)
        return is_p_matrix(A), chunks

    def test_chunk_boundary(self, monkeypatch):
        # Identity plus a 7x7 block b*J + (1-b)*I on the last seven indices:
        # the block's order-k minors are (1-b)^(k-1) (1+(k-1)b).
        n, size = 15, 7
        per_chunk = oracle._chunk_length(size)
        assert per_chunk < math.comb(n, size)  # the order-7 minors take several chunks
        block = slice(n - size, n)
        A = np.eye(n)
        A[block, block] = 1.1 * np.eye(size) - 0.1  # SDD with positive diagonal
        is_p, chunks = self._scanned_chunks(monkeypatch, A)
        assert is_p
        for k in range(2, n + 1):
            assert sum(c for s, c in chunks if s == k) == math.comb(n, k)

        # b = -0.18: only the order-7 minor on the block itself is negative,
        # and that index set is the last combination, in the last chunk.
        A[block, block] = 1.18 * np.eye(size) - 0.18
        is_p, chunks = self._scanned_chunks(monkeypatch, A)
        assert not is_p
        sevens = [c for s, c in chunks if s == size]
        assert chunks[-1][0] == size  # stopped in the order-7 minors ...
        assert sum(sevens) == math.comb(n, size)  # ... only after their last chunk
        assert sevens[:-1] == [per_chunk] * (len(sevens) - 1)


class TestHMatrix:
    def test_sdd_is_h(self):
        for seed in range(5):
            assert is_h_matrix(random_sdd(6, 300 + seed))

    def test_zero_is_not(self):
        assert not is_h_matrix(np.zeros((3, 3)))

    def test_fixture(self):
        assert is_h_matrix(NORM_8X8)

    def test_comparison_inverse_dominates(self, sdd1_ensemble):
        # For any matrix in the class, the comparison inverse bounds the
        # moduli of the true inverse entrywise.
        for A in sdd1_ensemble[:25]:
            dominator = inverse(comparison_matrix(A))
            assert (dominator >= np.abs(inverse(A)) - 1e-10).all()
