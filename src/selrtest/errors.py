"""Exception hierarchy and warnings shared across the package."""


class SelrError(Exception):
    """Base class for all package errors."""


class ConfigError(SelrError):
    """Invalid or mutually inconsistent configuration (exit code 2)."""


class DataError(SelrError):
    """Malformed or unusable input data (exit code 3)."""


class MissingColumn(DataError):
    pass


class ParseError(DataError):
    pass


class EmptyFile(DataError):
    pass


class NumericalError(SelrError):
    """Numerical failure in a solver (exit code 4)."""


class EmptyWindow(NumericalError):
    """No observation falls inside the local window."""


class SingularDesign(NumericalError):
    """Weighted local design matrix is rank deficient."""


class Infeasible(NumericalError):
    """Zero is not in the convex hull of the active moment vectors, as a
    separating multiplier (alpha'G_i > 0 for every vector G_i) certifies."""


class MaxIterations(NumericalError):
    """Iteration limit reached without meeting the convergence tolerance."""


class NoRetainedWindows(NumericalError):
    """Every evaluation window of a statistic was skipped."""


class DerivativeUnavailable(ConfigError):
    """Derivative requested from a hard-indicator estimating function."""


class DegenerateRSS1(NumericalError):
    """Residual sum of squares of the alternative fit is numerically zero."""


class ThinWindowWarning(UserWarning):
    """Local window holds fewer than 2p + 1 observations."""


class DegenerateTestWarning(UserWarning):
    """Test with zero asymptotic degrees of freedom (single constraint)."""


class ReplicateFailureWarning(UserWarning):
    """More than 5% of bootstrap replicates failed."""
