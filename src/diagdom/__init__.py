"""Dense-matrix dominance analysis with certified, self-verifying bounds.

The toolkit classifies real square matrices into the strict/generalized
diagonal-dominance hierarchy (SDD, SDD1, S-SDD1, B1), builds Schur
complements with certified per-row dominance lower bounds, and evaluates
verifiable upper bounds for the inverse infinity norm, linear
complementarity error constants, and determinant brackets.  Every certified
quantity is paired with an exact dense oracle so results can be audited
instance by instance.

All Python-level indices are 0-based; the command line speaks 1-based.
"""

from .certificates import (
    FORMULA_DET_HUANG,
    FORMULA_DET_NEW,
    FORMULA_LCP_B1,
    FORMULA_S_SDD1_SCHUR,
    FORMULA_SDD1_EPSILON,
    FORMULA_SDD1_SCHUR,
    FORMULA_SDD_PAIRWISE,
    BoundCertificate,
)
from .classify import (
    B1Split,
    ClassReport,
    b1_split,
    classify,
    dominance_degrees,
    find_s_sdd1_witness,
    is_b1,
    is_s_sdd1,
    is_sdd,
    is_sdd1,
)
from .core import (
    IndexPartition,
    as_index_set,
    as_matrix,
    comparison_matrix,
    damped_row_sum,
    dominance_partition,
    row_sum,
)
from .detbounds import (
    DetBracket,
    DominanceOrdering,
    bracket_nesting_check,
    dominance_bracket,
    dominance_ordering,
    huang_bracket,
)
from .errors import (
    DenominatorError,
    GenerationError,
    HypothesisError,
    MatrixMarketError,
    ParameterError,
    SingularBlockError,
    SingularDiagonalError,
    SingularMatrixError,
    SizeLimitError,
    ToolkitError,
    ValidationError,
    WitnessError,
)
from .generate import generate_b1, generate_sdd1
from .lcp import (
    LcpExperiment,
    corner_norms,
    lcp_b1_bound,
    run_experiment,
    scaled_matrix_sdd1_check,
)
from .mmio import matrix_digest, read_matrix_market, write_matrix_market
from .normbounds import (
    s_sdd1_schur_bound,
    sdd1_epsilon_bound,
    sdd1_schur_bound,
    sdd_pairwise_bound,
    with_exact_norm,
)
from .oracle import (
    LuFactorization,
    determinant,
    h_scaling,
    inf_norm,
    inverse,
    is_h_matrix,
    is_p_matrix,
    lu_factor,
    lu_solve,
)
from .schur import (
    SchurResult,
    certified_bound_alpha_equals_n2,
    certified_bound_proper_subset,
    certified_bound_superset,
    quotient_formula_check,
    schur_complement,
    tilde_set_identity_check,
)

__version__ = "0.1.0"
