"""Exception types shared across the package."""


class G2LabError(Exception):
    """Base class for all package errors."""


class ZeroDivisor(G2LabError):
    """Inversion of an element whose squared norm is below the epsilon floor."""


class NotImaginary(G2LabError):
    """An operation requiring a pure imaginary octonion got a real part."""


class DegreeOverflow(G2LabError):
    """Wedge product would exceed the fiber dimension."""


class DegreeUnderflow(G2LabError):
    """Interior product of a 0-form."""


class NotPositive(G2LabError):
    """A 3-form whose associated bilinear form is not definite."""


class BadTriple(G2LabError):
    """Triple fails the orthonormality / coassociativity preconditions."""


class SingularMetric(G2LabError):
    """Metric is not positive definite where required."""


class LeftDomain(G2LabError):
    """A curve or stencil left the chart's domain box."""


class NoConvergence(G2LabError):
    """Iterative solver exhausted its iteration budget."""


class NormDrift(G2LabError):
    """A field that must have unit norm deviates beyond tolerance."""


class ZeroReference(G2LabError):
    """The reference spinor/octonion must be nonzero."""


class UnknownSuite(G2LabError):
    """The requested verification suite is not registered."""


class BadConfig(G2LabError):
    """Run configuration is malformed."""


class IoError(G2LabError):
    """Failed to write a report or table file."""
