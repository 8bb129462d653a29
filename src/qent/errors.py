"""Exception classes shared across the package, brief() for their
messages, and _integer(), the one check of every integer argument (a
site, k, qubit count, rank, count, family id or seed)."""
import re

import numpy as np


def brief(value) -> str:
    """repr(value) for an error message, with every integer of more than
    12 digits cut to its first 12 and '...', so a huge number is never
    echoed in full, and the whole cut to 60 characters."""
    text = re.sub(r"(?<![.\d])\d{13,}", lambda m: f"{m.group()[:12]}...", repr(value))
    return text if len(text) <= 60 else f"{text[:57]}..."


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
    """Input kind does not match what a function or relation checker takes."""


class ConfigError(QentError):
    """Malformed verification-suite configuration."""


class InputError(QentError):
    """Malformed or out-of-tolerance external input (state files, CLI values)."""


def _integer(value, what: str, lo=None, hi=None, error: type = OutOfRange) -> int:
    """value as a Python int if it is an int or numpy integer, not a bool,
    in [lo, hi] (a bound of None is open); otherwise `error` naming `what`."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        value = int(value)
        if (lo is None or lo <= value) and (hi is None or value <= hi):
            return value
    if lo is None:
        span = "" if hi is None else f" <= {hi}"
    else:
        span = f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
    raise error(f"{what} must be an integer{span}, got {brief(value)}")
