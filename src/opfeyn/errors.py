"""Exception hierarchy for the opfeyn package."""


class OpfeynError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------------------
# scale pair / domain
# ---------------------------------------------------------------------------

class NonPositiveVariance(OpfeynError):
    """The variance function fails to increase at some grid node."""


class NonzeroOrigin(OpfeynError):
    """Drift or variance does not vanish at t = 0 within tolerance."""


class InfiniteDrift(OpfeynError):
    """The drift has infinite energy or infinite total variation on [0, T]."""


class OutOfDomain(OpfeynError):
    """A time argument lies outside [0, T]."""


# ---------------------------------------------------------------------------
# directions in the reproducing-kernel space
# ---------------------------------------------------------------------------

class MismatchedScalePair(OpfeynError):
    """Two elements built over different scale pairs were combined.

    Scale pairs are compared by identity, not by value: a ``ScalePair``
    holds closures, whose equality cannot be decided.  Two separate
    ``drifted_pair(0.3, 0.5)`` calls therefore clash; build one pair and
    share it.
    """


class ZeroDirection(OpfeynError):
    """An operation required a direction with positive norm."""


# ---------------------------------------------------------------------------
# path sampling
# ---------------------------------------------------------------------------

class InvalidGrid(OpfeynError):
    """A sampling grid is empty, unordered, or otherwise unusable."""


# ---------------------------------------------------------------------------
# spectral measures / functionals
# ---------------------------------------------------------------------------

class MeasureUnderflow(OpfeynError):
    """A truncated density discards more mass than the tolerance allows."""


class UnsupportedVariant(OpfeynError):
    """The operation is not defined for this measure variant."""


class UnknownExample(OpfeynError):
    """Unrecognized gallery name."""


# ---------------------------------------------------------------------------
# kernel parameters
# ---------------------------------------------------------------------------

class ZeroLambda(OpfeynError):
    """The kernel parameter must be nonzero."""


class ArgOutOfRange(OpfeynError):
    """A kernel parameter off the closed right half plane, or a region
    threshold q0 or weight exponent delta outside its domain."""


# ---------------------------------------------------------------------------
# operator engine
# ---------------------------------------------------------------------------

class NonPositiveLambda(OpfeynError):
    """Monte Carlo evaluation needs a real, strictly positive parameter."""


class NotAdmissible(OpfeynError):
    """The kernel parameter is outside the admissible region."""


class NotInFq0(OpfeynError):
    """The functional's measure fails the exponential-moment condition."""


class PsiNotIntegrable(OpfeynError):
    """The state function is not integrable against the required weight."""


class SequenceLeavesRegion(OpfeynError):
    """An approach sequence exits the admissible region."""


class BadConfig(OpfeynError):
    """A routine received an inconsistent configuration."""


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

class QuadratureError(OpfeynError):
    """Adaptive quadrature could not reach the requested tolerance."""


class KernelOverflow(OpfeynError):
    """A kernel exponent left the representable floating-point range."""


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

class ConfigError(OpfeynError):
    """A run configuration file is malformed or inconsistent."""
