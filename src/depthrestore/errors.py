"""Exception types shared across the package.

Two failure families exist: file-format problems discovered while
reading or writing rasters, and contract violations (bad arguments,
mismatched shapes, out-of-range parameters). The CLI maps the former
to exit code 1 and the latter to exit code 2. require_int and
require_real are the type checks that the config dataclasses' validate
methods share.
"""

from numbers import Real


class FormatError(Exception):
    """Raised when a raster file does not match the expected format."""


class UnsupportedFormatError(FormatError):
    """Raised when a file parses but uses an unsupported variant (wrong
    magic number or maxval)."""


class TruncationError(FormatError):
    """Raised when a raster payload ends early.

    Carries the expected and actual byte counts so the message can say
    exactly how much data was missing.
    """

    def __init__(self, expected: int, actual: int):
        super().__init__(
            f"truncated payload: expected {expected} bytes, got {actual}"
        )
        self.expected = expected
        self.actual = actual


class ContractViolation(ValueError):
    """Raised when arguments break a documented precondition."""


def require_int(name: str, value) -> None:
    """Raise ContractViolation unless value is an int; a bool is not
    one here, although Python counts it as a subclass."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ContractViolation(f"{name} must be an int, got {value!r}")


def require_real(name: str, value) -> None:
    """Raise ContractViolation unless value is a real number (an int,
    a float or a numpy scalar of either); a bool is not one here."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ContractViolation(f"{name} must be a real number, got {value!r}")
