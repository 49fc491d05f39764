"""Exception types shared across the package.

Two failure families exist: file-format problems discovered while
reading or writing rasters, and contract violations (bad arguments,
mismatched shapes, out-of-range parameters). The CLI maps the former
to exit code 1 and the latter to exit code 2.

Every scalar parameter, in the config dataclasses' validate methods
and in the public functions that take one, is checked by one of two
helpers, which state its whole contract in one call:

- require_int: any numbers.Integral (so numpy ints too) but not a
  bool, with bounds such as ge=0 or ge=0, lt=2**64;
- require_real: any numbers.Real (ints, floats, numpy scalars) but not
  a bool, with bounds gt=, ge= and lt=. NaN fails every bound, and
  lt=math.inf asks for a finite value.

A public function that takes two or more frames checks that they
agree in height and width with a third, require_same_shape.

A string, None, a bool, a value out of bounds or a frame of another
size raises ContractViolation, naming the parameter.
"""

from numbers import Integral, Real

import numpy as np


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


def require_int(name: str, value, *, ge: int, lt: int | None = None) -> None:
    """Raise ContractViolation unless value is an integer, not a bool
    (which Python counts as one), with ge <= value, and value < lt when
    lt is given."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ContractViolation(f"{name} must be an int, got {value!r}")
    _require_bounds(name, value, None, ge, lt)


def require_real(name: str, value, *, gt=None, ge=None, lt=None) -> None:
    """Raise ContractViolation unless value is a real number, not a
    bool, with gt < value, ge <= value and value < lt for each bound
    that is given."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ContractViolation(f"{name} must be a real number, got {value!r}")
    _require_bounds(name, value, gt, ge, lt)


def require_same_shape(**frames) -> None:
    """Raise ContractViolation unless every frame has the same (h, w):
    a 2-D array's shape, or the first two axes of an image's samples.
    The message names each frame with its size as WxH."""
    sizes = {name: f.samples.shape[:2] if hasattr(f, "samples") else np.shape(f)
             for name, f in frames.items()}
    if len(set(sizes.values())) > 1 or any(len(s) != 2 for s in sizes.values()):
        raise ContractViolation("frame sizes differ: " + ", ".join(
            f"{name} {'x'.join(map(str, s[::-1]))}" for name, s in sizes.items()))


def _require_bounds(name: str, value, gt, ge, lt) -> None:
    # Each test is negated so that NaN fails it.
    if ((gt is not None and not value > gt) or (ge is not None and not value >= ge)
            or (lt is not None and not value < lt)):
        want = " and ".join(f"{op} {b}" for op, b in ((">", gt), (">=", ge), ("<", lt))
                            if b is not None)
        raise ContractViolation(f"{name} must be {want}, got {value}")
