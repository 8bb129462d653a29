"""Exception classes shared across the package."""


class QentError(ValueError):
    """Base class for all qent errors."""


class DimensionMismatch(QentError):
    """Array length or matrix side does not match the declared qubit count."""


class ZeroVector(QentError):
    """A vector that must be normalizable has (near-)zero norm."""


class IndexOutOfRange(QentError):
    """A site index or subsystem set is outside [0, num_sites)."""


class NotHermitian(QentError):
    """Matrix fails the Hermiticity tolerance."""


class NotUnitary(QentError):
    """Matrix fails the unitarity tolerance."""


class OutOfRange(QentError):
    """Integer argument outside its documented range."""


class OutOfDomain(QentError):
    """Scalar argument outside the domain where a closed form is valid."""


class IncompatibleInput(QentError):
    """Input kind does not match what a relation checker expects."""


class ConfigError(QentError):
    """Malformed verification-suite configuration."""


class InputError(QentError):
    """Malformed or out-of-tolerance external input (state files, CLI values)."""
