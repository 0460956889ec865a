"""Exception taxonomy for the zerosum package.

Configuration problems (bad arguments, unsupported parameter ranges) and
numeric failures (lost precision, failed brackets, unreachable accuracy)
are kept on separate branches so the CLI can map them to distinct exit
codes.
"""


class ZerosumError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(ZerosumError):
    """Invalid arguments or parameters; the request itself is malformed."""


class DomainError(ConfigurationError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ZeroScaleError(DomainError):
    """The determinant route was asked to run with scale c = 0."""


class LimitExceededError(ConfigurationError):
    """A documented hard cap (order, zero count, table size) was exceeded."""


class NotFundamentalError(ConfigurationError):
    """The integer is not a fundamental discriminant."""


class NumericError(ZerosumError):
    """A computation could not be completed to the requested accuracy."""


class PoleError(NumericError, ArithmeticError):
    """Evaluation was requested at (or indistinguishably close to) a pole."""


class AccuracyError(NumericError):
    """The target accuracy could not be certified."""


class PrecisionExhaustedError(AccuracyError):
    """Series cancellation exceeded the allowed working-precision budget."""


class BracketFailureError(NumericError):
    """A sign-change bracket for a zero could not be established."""


class ScanExhaustedError(NumericError):
    """A zero scan ran out of its step budget before finding a sign change."""


class VanishingMomentError(NumericError):
    """The zeroth moment is numerically indistinguishable from zero."""
