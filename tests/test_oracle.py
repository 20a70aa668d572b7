import math

import numpy as np
import pytest

from diagdom import (
    SingularMatrixError,
    SizeLimitError,
    comparison_matrix,
    determinant,
    generate_b1,
    inf_norm,
    inverse,
    is_h_matrix,
    is_p_matrix,
    lu_factor,
    lu_solve,
)
from diagdom import oracle
from diagdom.oracle import LU_BLOCK, LU_SCALAR_MAX, SINGULAR_PIVOT_RTOL
from matrices import (
    DET_6X6_FIRST,
    DET_6X6_FIRST_DET,
    DET_6X6_SECOND,
    DET_6X6_SECOND_DET,
    LCP_8X8,
    NORM_8X8,
    TOL4,
)
from reference import lu_factor_blocked, lu_factor_unblocked


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


def same(a, b):
    """Equal as IEEE values, NaN equal to NaN, zeros compared with their sign."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b, equal_nan=True) and (np.signbit(a) == np.signbit(b)).all()


def blocked_determinant(A):
    """``determinant`` computed on the reference blocked LU."""
    if A.shape[0] == 1:
        return float(A[0, 0])
    try:
        fact = lu_factor_blocked(A)
    except SingularMatrixError:
        return 0.0
    return float(fact.sign * np.prod(fact.packed.diagonal()))


def assert_same_lu(A):
    """lu_factor and determinant equal the reference blocked LU bit for bit."""
    with np.errstate(all="ignore"):
        try:
            want = lu_factor_blocked(A)
        except SingularMatrixError as ref:
            with pytest.raises(SingularMatrixError) as err:
                lu_factor(A)
            assert err.value.column == ref.column
        else:
            got = lu_factor(A)
            assert same(got.packed, want.packed)
            assert (got.perm, got.sign) == (want.perm, want.sign)
        assert same(determinant(A), blocked_determinant(A))


# Both sides of the kernel crossover and four panels.
EXACT_ORDERS = range(1, 131)


class TestBlockedLu:
    """The factorization against the reference loops of ``reference.py``."""

    @pytest.mark.parametrize("make", [random_sdd, random_pivoting, tied_moduli, overflowing])
    def test_bit_identical_to_blocked_reference(self, make):
        assert LU_SCALAR_MAX + 1 < LU_BLOCK < EXACT_ORDERS[-1]
        for n in EXACT_ORDERS:
            assert_same_lu(make(n, 700 + n))

    @pytest.mark.parametrize("n", [2, 5, LU_SCALAR_MAX, LU_SCALAR_MAX + 1, LU_BLOCK + 7, 130])
    def test_pivot_at_threshold(self, n):
        # Rows of an upper triangle, shuffled: every multiplier is zero, so
        # column k's pivot is u_kk itself.  Row k holds nothing else and the
        # largest row sum lies elsewhere, so u_kk does not move the threshold.
        rng = np.random.default_rng(n)
        for k in sorted({0, n // 2, n - 1}):
            U = np.triu(rng.normal(size=(n, n))) + 2.0 * np.eye(n)
            U[k, k:] = 0.0
            thresh = SINGULAR_PIVOT_RTOL * float(np.abs(U).sum(axis=1).max())
            order = rng.permutation(n)
            for pivot in (thresh, -thresh, np.nextafter(thresh, 1.0)):
                U[k, k] = pivot
                assert_same_lu(U[order])
                if abs(pivot) <= thresh:
                    with pytest.raises(SingularMatrixError) as err:
                        lu_factor(U[order])
                    assert err.value.column == k
                else:
                    assert lu_factor(U[order]).upper[k, k] == pivot

    @pytest.mark.parametrize("n", [3, LU_SCALAR_MAX, LU_SCALAR_MAX + 1, 70])
    def test_singular_column_named(self, n):
        rng = np.random.default_rng(80 + n)
        for k in sorted({1, n // 2, n - 1}):
            A = rng.normal(size=(n, n))
            A[:, k] = A[:, :k] @ rng.normal(size=k)  # column k depends on columns 0..k-1
            with pytest.raises(SingularMatrixError) as err:
                lu_factor(A)
            assert err.value.column == k
            assert_same_lu(A)

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

    def test_underflowing_minors(self):
        # Each minor's pivot product underflows to 0.0; its sign does not.
        assert is_p_matrix(1e-200 * np.eye(2))
        assert is_p_matrix(generate_b1(6, 3) * 1e-160)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the products
    @pytest.mark.parametrize("e", [-600, -300, 300, 600])
    def test_power_of_two_scaling(self, e):
        # 1.18 I - 0.18 J of order 7: only its determinant is negative.
        for A, is_p in [(np.eye(3), True), (LCP_8X8, True), (generate_b1(6, 3), True),
                        (np.abs(random_sdd(9, 5)), True),
                        ([[1.0, 2.0], [2.0, 1.0]], False), (1.18 * np.eye(7) - 0.18, False),
                        (np.abs(random_pivoting(6, 3)), False)]:
            assert is_p_matrix(A) == is_p
            assert is_p_matrix(2.0**e * np.asarray(A)) == is_p

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
