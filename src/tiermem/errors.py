"""Exception hierarchy shared across the package, and the checked readers
of every input: the one reader of the four JSON formats' objects, of names
from a fixed set, and of every number a caller or an input file gives:
integers, reals, arrays of reals, and the JSON formats' integer fields."""

import json
import math
import operator
import reprlib

import numpy as np


class TierMemError(Exception):
    """Base class for all tiermem errors."""


class DimensionError(TierMemError):
    """Vector length does not match the session dimension."""


class EmptyInputError(TierMemError):
    """An operation received an empty token list it cannot score."""


class ValidationError(TierMemError):
    """Malformed input file or parameter set."""


class ConfigError(ValidationError):
    """Tier configuration violates a structural constraint."""


class NonMonotoneTimestamp(TierMemError):
    """Timestamps must be strictly increasing along the stream."""


class FrameTooLarge(TierMemError):
    """Frame carries more tokens than tokens_per_frame_max."""


class FrozenMemory(TierMemError):
    """Ingest attempted while a snapshot is outstanding."""


class EmptyFrame(TierMemError):
    """A frame-level operation received a frame with no tokens."""


class BudgetUnsatisfiable(TierMemError):
    """The short tier alone exceeds the token budget (defensive; config
    validation prevents this state)."""


class SpecError(ValidationError):
    """Synthetic stream parameters violate their invariants."""


class NoSuchEvent(TierMemError):
    """Event ordinal out of range for the stream spec."""


class UnknownVariant(ValidationError):
    """A name outside its set: variant flag, gate mode or pooling, histogram level."""


class TraceFormatError(TierMemError):
    """Base class for binary trace format violations."""


class BadMagic(TraceFormatError):
    """Trace does not start with the expected magic bytes."""


class UnsupportedVersion(TraceFormatError):
    """Trace version field is not supported by this reader."""


class TruncatedRecord(TraceFormatError):
    """Trace ended in the middle of a frame or token record."""


class DimMismatch(TraceFormatError):
    """Trace dimension disagrees with the expected dimension."""


class NonFiniteTimestamp(TraceFormatError):
    """A trace frame's timestamp is NaN or infinite."""


def checked_choice(value, allowed: tuple, what: str):
    """`value` if it is one of the names in `allowed`; `what` names it."""
    if value not in allowed:
        raise UnknownVariant(f"{what} must be one of {allowed}, got {value!r}")
    return value


def json_object(data: bytes, where: str, error: type[ValidationError], fields,
                required=()) -> dict:
    """The JSON object that the UTF-8 bytes `data` hold: a config file, a
    stream spec, a probe file or one query line. Bytes that are not UTF-8
    or not JSON, nesting too deep to parse and an integer too long to read
    raise `error` saying "invalid JSON"; anything but an object, a field
    outside `fields` and a missing one of `required` raise it too. `where`
    begins every message and names the file (and line)."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(f"{where} invalid JSON") from exc
    if not isinstance(doc, dict):
        raise error(f"{where} expected a JSON object")
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise error(f"{where} unknown fields {unknown}")
    for name in required:
        if name not in doc:
            raise error(f"{where} missing {name}")
    return doc


def json_int(value, what: str) -> int:
    """An integer field of a JSON document; `what` names the file and field.

    Integral floats (2.0) are accepted; bools, strings and fractions are not.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValidationError(f"{what} must be an integer, got {reprlib.repr(value)}")


def checked_int(value, what: str) -> int:
    """An integer argument as an int: any integer type (one with __index__)
    but bool; `what` names the argument."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{what} must be an integer, got {reprlib.repr(value)}")


# The real types checked_real takes. A concrete tuple, as an isinstance
# test against the numbers.Real ABC costs microseconds a call.
_REALS = (float, int, np.floating, np.integer)


def checked_real(value, what: str) -> float:
    """A real argument as a finite float: an int, a float or a numpy real
    scalar, but not a bool, NaN or an infinity; `what` names the argument."""
    if isinstance(value, _REALS) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValidationError(f"{what} must be a finite real number, got {reprlib.repr(value)}")


def checked_reals(values, what: str) -> np.ndarray:
    """An array of real numbers as one np.asarray reads it, in its own
    integer or float dtype (integers beyond int64 as float64); `what` names
    the values, in the plural. Bools, strings, complex numbers and other
    objects raise ValidationError, rows of unequal length DimensionError.
    Shape, dimension and finiteness are the caller's to check. numpy
    promotes a bool among ints or floats before this reader sees it."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:
        raise DimensionError(f"{what} differ in shape") from exc
    if arr.dtype.kind == "O" and all(
            isinstance(x, _REALS) and not isinstance(x, bool) for x in arr.flat):
        try:
            arr = arr.astype(np.float64)
        except OverflowError:  # beyond float64, such as 10**400
            pass
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{what} must be real numbers")
    return arr
