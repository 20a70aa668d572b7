"""Dense-matrix dominance analysis with certified, self-verifying bounds.

The toolkit classifies real square matrices into the strict/generalized
diagonal-dominance hierarchy (SDD, SDD1, S-SDD1, B1), builds Schur
complements with certified per-row dominance lower bounds, and evaluates
verifiable upper bounds for the inverse infinity norm, linear
complementarity error constants, and determinant brackets.  Every certified
quantity is paired with an exact dense oracle so results can be audited
instance by instance.

All Python-level indices are 0-based; the command line speaks 1-based.

``import diagdom`` loads ``classify`` and what it needs (``core``,
``errors``); every other public name imports its module on first access
(PEP 562), so a program pays only for the modules it uses.
"""

# Eager, because every CLI subcommand needs this module anyway, and because a
# later ``import diagdom.classify`` would otherwise bind ``diagdom.classify`` to
# the module: the submodule's name is also the name of its main function.
from .classify import classify

# Each public name, by the module that defines it.
_EXPORTS = {
    "certificates": ("FORMULA_DET_HUANG", "FORMULA_DET_NEW", "FORMULA_LCP_B1",
                     "FORMULA_S_SDD1_SCHUR", "FORMULA_SDD1_EPSILON", "FORMULA_SDD1_SCHUR",
                     "FORMULA_SDD_PAIRWISE", "BoundCertificate"),
    "classify": ("B1Split", "ClassReport", "b1_split", "classify", "dominance_degrees",
                 "find_s_sdd1_witness", "is_b1", "is_s_sdd1", "is_sdd", "is_sdd1"),
    "core": ("IndexPartition", "as_index_set", "as_matrix", "comparison_matrix", "damped_row_sum",
             "dominance_partition", "row_sum"),
    "detbounds": ("DetBracket", "DominanceOrdering", "bracket_nesting_check", "dominance_bracket",
                  "dominance_ordering", "huang_bracket"),
    "errors": ("DenominatorError", "GenerationError", "HypothesisError", "MatrixMarketError",
               "ParameterError", "SingularBlockError", "SingularDiagonalError",
               "SingularMatrixError", "SizeLimitError", "ToolkitError", "ValidationError",
               "WitnessError"),
    "generate": ("generate_b1", "generate_sdd1"),
    "lcp": ("LcpExperiment", "corner_norms", "lcp_b1_bound", "run_experiment",
            "scaled_matrix_sdd1_check"),
    "mmio": ("matrix_digest", "read_matrix_market", "write_matrix_market"),
    "normbounds": ("s_sdd1_schur_bound", "sdd1_epsilon_bound", "sdd1_schur_bound",
                   "sdd_pairwise_bound", "with_exact_norm"),
    "oracle": ("LuFactorization", "determinant", "h_scaling", "inf_norm", "inverse", "is_h_matrix",
               "is_p_matrix", "lu_factor", "lu_solve"),
    "schur": ("SchurResult", "certified_bound_alpha_equals_n2", "certified_bound_proper_subset",
              "certified_bound_superset", "quotient_formula_check", "schur_complement",
              "tilde_set_identity_check"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """Import a public name's module on first access and keep the name here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``__import__``, unlike ``importlib.import_module``, shows in -X importtime.
    value = getattr(__import__(f"{__name__}.{_HOME[name]}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
