"""Exception classes shared across the package, brief() for their
messages, the one check of each kind of numeric argument (_integer,
_real, _complex and _complex_array), _kind, the one check that an
argument is an instance of a qent type or a JSON shape, and
_json_object, the one parse of a JSON text (a state file or a suite
config) into an object.  The numeric checks take Python and numpy
numbers alike, never a bool, string or None, and refuse NaN and Inf.
Each raises the class its caller names."""
import cmath
import itertools
import json
import re
from contextlib import suppress

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


def _span(lo, hi, fmt: str = "") -> str:
    """' in [lo, hi]', ' >= lo', ' <= hi' or '', each bound formatted by fmt."""
    if lo is None:
        return "" if hi is None else f" <= {hi:{fmt}}"
    return f" >= {lo:{fmt}}" if hi is None else f" in [{lo:{fmt}}, {hi:{fmt}}]"


def _kind(value, cls, what: str, error: type = IncompatibleInput):
    """value itself if it is an instance of cls, a class or a tuple of
    classes; otherwise `error`: need `what`, got the type of value."""
    if isinstance(value, cls):
        return value
    raise error(f"need {what}, got {type(value).__name__}")


def _integer(value, what: str, lo=None, hi=None, error: type = OutOfRange) -> int:
    """value as a Python int if it is an int or numpy integer, not a bool,
    in [lo, hi] (a bound of None is open); otherwise `error` naming `what`."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        value = int(value)
        if (lo is None or lo <= value) and (hi is None or value <= hi):
            return value
    raise error(f"{what} must be an integer{_span(lo, hi)}, got {brief(value)}")


def _complex(value, what: str, error: type = OutOfRange) -> complex:
    """value as a Python complex if it is a finite Python or numpy number,
    not a bool; otherwise `error` naming `what`."""
    if isinstance(value, (int, float, complex, np.number)) and not isinstance(value, bool):
        with suppress(OverflowError):  # an int too large for a float
            if cmath.isfinite(z := complex(value)):
                return z
    raise error(f"{what} must be a finite number, got {brief(value)}")


def _real(value, what: str, lo=None, hi=None, error: type = OutOfRange) -> float:
    """value as a Python float if it is a finite number, not complex, in
    [lo, hi] (a bound of None is open); otherwise `error` naming `what`."""
    if not isinstance(value, (complex, np.complexfloating)):
        with suppress(OutOfRange):  # what _complex refuses is refused below
            x = _complex(value, what).real
            if (lo is None or lo <= x) and (hi is None or x <= hi):
                return x
    raise error(f"{what} must be a finite real number{_span(lo, hi, '.6g')}, got {brief(value)}")


def _complex_array(value, what: str, error: type) -> np.ndarray:
    """A read-only complex copy of value, an array or nested lists of finite
    numbers, not of bools, strings or objects; otherwise `error`."""
    try:
        a = np.asarray(value)
    except (TypeError, ValueError) as exc:  # lists nested unevenly
        raise error(f"{what} must be an array of numbers") from exc
    if a.dtype.kind == "b":
        raise error(f"{what} must be numbers, not true or false")
    if a.dtype.kind not in "iufc":
        raise error(f"{what} must be numbers, got {a.dtype} entries")
    if isinstance(value, (list, tuple)):  # numpy casts bools mixed with numbers to numbers
        entries = value
        for _ in range(a.ndim - 1):
            entries = itertools.chain.from_iterable(entries)
        if not {bool, np.bool_}.isdisjoint(map(type, entries)):
            raise error(f"{what} must be numbers, not true or false")
    a = a.astype(complex)
    if not np.isfinite(a).all():
        raise error(f"non-finite value (NaN or Inf) in {what}")
    a.setflags(write=False)
    return a


def _json_object(text, error: type) -> dict:
    """The JSON object that text holds; `error` if text is not a string,
    not JSON or not an object."""
    try:
        payload = json.loads(text)
    except (TypeError, ValueError, RecursionError) as exc:  # also 4300-digit ints, deep nesting
        raise error(f"invalid JSON: {exc}") from exc
    return _kind(payload, dict, "a JSON object", error)
