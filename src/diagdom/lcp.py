"""Error-bound machinery for linear complementarity problems with B1 matrices.

For a B1 matrix M the quantity of interest is the supremum over diagonal
scalings D with entries in [0, 1] of ||(I - D + D M)^{-1}||_inf, the constant
in the componentwise LCP error bound.  ``lcp_b1_bound`` evaluates the
certified analytic bound from the shift split M = a + c; ``run_experiment``
attacks the same supremum by seeded Monte-Carlo sampling of D and records a
reproducible artifact.

The supremum is a maximum over the 2^n corners D in {0, 1}^n, which
``corner_norms`` evaluates, so its largest value is the exact constant up to
``CORNER_MAX_ORDER`` and the samples only bound it from below.  Fix every d_j
but d_k.  Row k of I - D + DM is e_k + d_k (m_k - e_k), so the matrix is a
rank-one update in d_k, and by Sherman-Morrison each entry of its inverse is
(alpha + beta d_k) / (1 + gamma d_k).  A B1 matrix is a P-matrix, so
I - D + DM is nonsingular on the whole box, and the denominator, a ratio of
two of its determinants, keeps one sign on [0, 1].  Each row's absolute sum
is then a convex function over a positive affine one, hence quasiconvex in
d_k, and so is their maximum; its maximum on [0, 1] is at an endpoint.
Moving one coordinate at a time to its better endpoint reaches a corner
without lowering the norm (Chen & Xiang, "Computation of error bounds for
P-matrix linear complementarity problems", Math. Program. 106 (2006)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._streams import uniform_streams
from .certificates import FORMULA_LCP_B1, BoundCertificate
from .classify import _is_s_sdd1, _positive_sdd1, b1_split
from .core import _checked, _integer, as_matrix
from .errors import HypothesisError, SingularMatrixError, SizeLimitError, ValidationError
from .mmio import matrix_digest
from .normbounds import _pairwise_terms, _schur_tail
from .oracle import _chunk_length, _inverse_inf_norms

__all__ = [
    "LcpExperiment",
    "corner_norms",
    "lcp_b1_bound",
    "run_experiment",
    "scaled_matrix_sdd1_check",
]

# Sample k draws np.random.default_rng([seed, k]).random(n); _streams builds
# all of a run's streams at once, bit for bit, so the scheme is unchanged.
RNG_SCHEME = "pcg64-seedseq-v1"
VIOLATION_TOL = 1e-9
CORNER_MAX_ORDER = 12


@dataclass(frozen=True)
class LcpExperiment:
    """Record of one seeded sampling run against the analytic bound.

    ``d_samples[k]`` is the k-th diagonal draw (uniform per entry on [0, 1)),
    ``exact_norms[k]`` the matching oracle value ||(I-D+DM)^{-1}||_inf, and
    ``violations`` counts samples exceeding ``analytic_bound`` beyond the
    fixed tolerance; any nonzero count is a correctness failure.
    """

    seed: int
    sample_count: int
    d_samples: np.ndarray
    exact_norms: np.ndarray
    analytic_bound: float
    violations: int
    matrix_digest: str
    generator: str = RNG_SCHEME

    def __post_init__(self):
        self.d_samples.setflags(write=False)
        self.exact_norms.setflags(write=False)

    def to_lines(self) -> list[str]:
        """Line-delimited serialization: one header, then one line per sample."""
        header = (
            f"matrix={self.matrix_digest} seed={self.seed} "
            f"samples={self.sample_count} bound={self.analytic_bound!r} "
            f"generator={self.generator} violations={self.violations}"
        )
        lines = [header]
        for k in range(self.sample_count):
            ds = " ".join(repr(float(v)) for v in self.d_samples[k])
            lines.append(f"{k} {ds} {float(self.exact_norms[k])!r}")
        return lines

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(self.to_lines()) + "\n")


def _scaled(M, d):
    """Form I - D + D M for a diagonal vector d, or one such matrix per row of d.

    The product d_i M_ij is formed once and 1 - d_i added on its diagonal, so
    each diagonal entry is ``np.diag(1 - d) + d[:, None] * M``'s to the bit.
    An off-diagonal zero keeps the sign of its product (-0.0 where the
    reference's sum gives +0.0), which no norm of the matrix reads.
    """
    out = d[..., :, None] * M
    diag = np.arange(M.shape[0])
    out[..., diag, diag] += 1.0 - d
    return out


def _scaled_norms(M, d, message):
    """||(I - D + D M)^{-1}||_inf for every row of d, one stacked chunk at a time.

    A singular scaled matrix raises ``SingularMatrixError`` with ``message``
    formatted with the index of its row.
    """
    out = np.empty(len(d))
    step = _chunk_length(M.shape[0])
    for start in range(0, len(d), step):
        try:
            out[start:start + step] = _inverse_inf_norms(_scaled(M, d[start:start + step]))
        except SingularMatrixError as exc:
            k = start + exc.index
            raise SingularMatrixError(message.format(k), index=k) from exc
    return out


def lcp_b1_bound(M) -> BoundCertificate:
    """Certified upper bound on max over D in [0,1]^n of ||(I-D+DM)^{-1}||_inf.

    Works entirely on the shift part ``a`` of the split M = a + c.  The
    pairwise term and the eliminated-row term both carry min/max clamps
    against 1 because the scaling can push any row toward the identity.  When
    the shift part c vanishes (every row maximum is nonpositive) the leading
    factor n-1 drops; with a single dominant row the pairwise term becomes
    max{1, 1/a_ii}.  Rows are those of ``a`` throughout.
    """
    split = b1_split(M)
    part = _positive_sdd1(split.a)
    if part is None:
        raise HypothesisError(
            "matrix is not B1",
            "the shift part of the split must be SDD1 with positive diagonal",
        )
    d, rs = part.diag, part.r_n2
    n2 = np.asarray(part.n2, dtype=np.intp)

    if len(n2) == 1:
        phi = max(1.0, 1.0 / d[n2[0]])
    else:
        d_S, rs_S, den, pairs = _pairwise_terms(d, rs, n2, 1.0)
        den = np.minimum(np.minimum(d_S[:, None], d_S), den)  # refills the diagonal; where= leaves it out
        phi = np.max((np.maximum(1.0, d_S) + rs_S[:, None]) / den, initial=0.0, where=pairs)
    # P_i is R^{n1}_i + Q^{n2}_i; the scaling caps every psi denominator at 1.
    prefactor, best, psi = _schur_tail(part, n2, part.p_values, rs, phi, 1.0)

    zero_shift = bool((split.r == 0.0).all())
    coefficient = 1 if zero_shift else part.n - 1
    value = coefficient * prefactor * best
    params = {
        "coefficient": coefficient,
        "zero_shift": zero_shift,
        "phi": float(phi),
        "psi": None if psi is None else float(psi),
        "prefactor": prefactor,
    }
    if psi is None:
        params["reason"] = "n1 empty"
    return BoundCertificate(FORMULA_LCP_B1, float(value), params)


def run_experiment(M, sample_count, seed) -> LcpExperiment:
    """Sample diagonal scalings and compare every exact norm to the bound.

    Each sample k draws its diagonal from an independent deterministic stream
    keyed by (seed, k), so the record is identical no matter how samples are
    scheduled: ``np.random.default_rng([seed, k]).random(n)``, the
    ``pcg64-seedseq-v1`` scheme.  All K streams are built at once by
    repeating numpy's SeedSequence hashing and PCG64 steps on arrays over k
    (``_streams.uniform_streams``), equal to the one-generator draws bit for
    bit; numpy keeps these streams stable (NEP 19), and a release that
    changed them would fail the stream test.  The scaled matrices are then
    inverted as stacks of ``oracle._chunk_length(n)`` samples (1024 at
    order 8), one LAPACK call per stack; every norm equals
    ``inf_norm(inverse(I - D + DM))`` of its sample bit for bit.  A singular
    scaled matrix cannot occur for genuine B1 input (those scalings of
    P-matrices stay nonsingular), so such an error propagates with the
    sample index attached.
    """
    M = _checked(M)
    sample_count = _integer(sample_count, "sample_count must be an integer")
    seed = _integer(seed, "seed must be an integer") & (2**64 - 1)
    if sample_count < 1:
        raise ValidationError("sample_count must be at least 1")
    bound = lcp_b1_bound(M).value
    d_samples = uniform_streams(seed, np.arange(sample_count), M.shape[0])
    exact = _scaled_norms(
        M, d_samples, "sample {}: scaled matrix is singular, input violates the B1 contract"
    )
    violations = int((exact > bound + VIOLATION_TOL).sum())
    return LcpExperiment(
        seed=seed,
        sample_count=sample_count,
        d_samples=d_samples,
        exact_norms=exact,
        analytic_bound=float(bound),
        violations=violations,
        matrix_digest=matrix_digest(M),
    )


def corner_norms(M) -> np.ndarray:
    """Exact norms at every extreme scaling D in {0,1}^n, in bit order.

    Corner ``bits`` sets d_i to bit i of ``bits``.  The 2^n scaled matrices
    are inverted as stacks of ``oracle._chunk_length(n)`` corners (455 at
    order 12), and every norm equals ``inf_norm(inverse(I - D + DM))`` of
    its corner bit for bit.  Guarded to order ``CORNER_MAX_ORDER`` (the
    sweep is exponential).
    """
    M = _checked(M)
    n = M.shape[0]
    if n > CORNER_MAX_ORDER:
        raise SizeLimitError(f"corner sweep is limited to order {CORNER_MAX_ORDER}, got {n}")
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    return _scaled_norms(M, bits.astype(float), "corner {}: scaled matrix is singular")


def scaled_matrix_sdd1_check(A, dvec) -> bool:
    """Verify the structural claims about B = I - D + D A for SDD1 input.

    Requires A to be SDD1 with positive diagonal and every diagonal entry of
    D in [0, 1].  Checks, in one conjunction: B stays SDD1 with positive
    diagonal, scaling never demotes a dominant row (n2(A) inside n2(B), so
    n1(B) inside n1(A)), and B is S-SDD1 with witness S = n2(A).
    """
    A = as_matrix(A)
    part = _positive_sdd1(A)
    if part is None:
        raise HypothesisError(
            "matrix is not SDD1 with positive diagonal",
            "the scaling-structure checks need positive diagonal SDD1 input",
        )
    dvec = np.asarray(dvec, dtype=float)
    if dvec.shape != (A.shape[0],) or not ((dvec >= 0) & (dvec <= 1)).all():
        raise ValidationError("scaling vector must lie in [0,1]^n")
    bpart = _positive_sdd1(_scaled(A, dvec))
    checks = (
        bpart is not None
        and set(bpart.n1) <= set(part.n1)
        and set(part.n2) <= set(bpart.n2)
        and _is_s_sdd1(bpart, part.n2)  # witness n2(A), inside n2(B) here
    )
    return bool(checks)
