"""Exception types shared across the package, each with its ``hrm`` exit
code, and the checks that a setting is an integer or a real number."""

import math
import numbers


class HRMError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 2


class InvalidInput(HRMError):
    """An argument violates a documented precondition."""


class InvalidComponents(HRMError):
    """Requested latent component count exceeds what the data supports."""
    exit_code = 3


class DegenerateFit(HRMError):
    """The regression problem is numerically degenerate."""
    exit_code = 3


class OutOfBounds(HRMError):
    """A patch or coordinate falls outside the image."""


class InvalidDataset(HRMError):
    """The dataset cannot supply the requested training samples."""


class ZeroSupport(HRMError):
    """A density estimate has no weight to normalize by."""


class ParseError(HRMError):
    """A text input file is malformed."""


class MissingAsset(HRMError):
    """A referenced file does not exist."""


class IncompatibleModel(HRMError):
    """A model file was produced by an incompatible version."""
    exit_code = 3


class CorruptModel(HRMError):
    """A model file is truncated or fails integrity checks."""
    exit_code = 3


class InvalidSpec(HRMError):
    """A synthetic scene specification is unsatisfiable."""


def check_integer(name: str, value, minimum=None, error=InvalidInput) -> None:
    """Raise ``error`` unless ``value`` is an integer, and ``>= minimum`` if
    that is given.  An integer is a ``numbers.Integral`` other than a bool,
    so NumPy integers pass and 2.5 or True do not."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or minimum is not None and value < minimum):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise error(f"{name} must be an integer{at_least}, got {value!r}")


def check_real(name: str, value, low, high=math.inf, error=InvalidInput) -> None:
    """Raise ``error`` unless ``value`` is a finite ``numbers.Real`` other than
    a bool, in [low, high]: NumPy floats pass, and True, "0.5" or NaN do not."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (low <= value <= high and math.isfinite(value))):
        span = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise error(f"{name} must be a finite real number {span}, got {value!r}")
