"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ToolkitError, ValueError):
    """Malformed input: bad shapes, indices out of range, non-finite entries."""


class SingularMatrixError(ToolkitError):
    """A factorization met a pivot too small to continue.

    ``column`` is the 0-based elimination column whose pivot failed, and
    ``index`` the 0-based member of a stack of matrices that failed, when known.
    """

    def __init__(self, message, column=None, index=None):
        super().__init__(message)
        self.column = column
        self.index = index


class SingularBlockError(SingularMatrixError):
    """The pivot block of a Schur complement is singular."""


class SingularDiagonalError(ToolkitError):
    """A damped row sum touched a zero diagonal entry."""


class DenominatorError(ToolkitError):
    """A denominator that the bound's hypotheses make positive was computed as
    zero, negative or NaN, or as infinite where no cap bounds it; or a bound's
    term overflowed to infinity, which would make the bound vacuous.

    Input scaled far from 1 does this: at 2^-600 a product of two diagonal
    moduli underflows to zero, at 2^600 it overflows.  ``what`` names the
    denominator and ``rows`` holds the sorted 0-based rows whose terms failed.
    """

    def __init__(self, what, rows):
        self.what = what
        self.rows = tuple(sorted({int(i) for i in rows}))
        super().__init__(self._describe(self.rows))

    def _describe(self, rows) -> str:  # the message; the CLI passes 1-based rows
        return f"{self.what} is not positive and finite in rows {list(rows)}"


class HypothesisError(ToolkitError):
    """An operation was invoked outside the hypotheses that make it valid.

    ``hypothesis`` names the violated requirement in one short phrase so that
    reports can surface it structurally.
    """

    def __init__(self, hypothesis, message=None):
        super().__init__(message or hypothesis)
        self.hypothesis = hypothesis


class WitnessError(HypothesisError):
    """The subset S handed to an S-restricted predicate is not a valid witness."""


class ParameterError(ToolkitError, ValueError):
    """A tuning parameter lies outside its admissible interval."""


class SizeLimitError(ToolkitError):
    """Input exceeds the hard size guard of an exponential-cost scan."""


class GenerationError(ToolkitError):
    """A random-instance generator exhausted its retry budget."""


class MatrixMarketError(ToolkitError):
    """A Matrix Market file cannot be used; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
