"""Scalar weight kernels for the depth filters.

Four weights: an isotropic spatial Gaussian, a color range Gaussian on
RGB distance, a depth range Gaussian, and a rotated anisotropic
(directional) Gaussian. All return values in (0, 1] and are exactly 1
at zero argument.

The filter engine takes all four terms from here, on whole arrays:
spatial_weight, the directional term as rotated_weight on the cos and
sin of theta that steering takes (per pixel, or one angle for a whole
call; dgf_weight is that same arithmetic for one angle), the color
term as a lookup in color_range_table, which holds color_range_weight's
values for every squared distance an 8-bit guide can produce, and the
depth term as a lookup in depth_range_table, which holds
depth_range_weight's values for every integer depth difference up to
the frame's maximum, and exactly 0.0 in a tail that stands in for the
hole gate (depth that is not integer-valued still goes through
depth_range_weight).
Each table is built by a call into its kernel (the color pair through
the body they share), so a kernel's arithmetic is part of every output
byte. Do not "simplify" it; reassociating an expression changes
low-order bits of the restored maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractViolation, require_int, require_real

# A depth range sigma at or above this is treated as the "no depth
# term" limit and yields weight exactly 1.0.
SIGMA_DEPTH_INFINITE = 1e9


@dataclass(frozen=True)
class KernelParams:
    """Widths and window size for all filter kernels.

    sigma_s      isotropic spatial width, pixels
    sigma_r_color  color range width, intensity units
    sigma_r_depth  depth range width, millimeters
    sigma_x      directional width along the edge, pixels
    sigma_y      directional width across the edge, pixels
    window_radius  half-size of the square filter window, pixels
    """

    sigma_s: float = 3.0
    sigma_r_color: float = 25.0
    sigma_r_depth: float = 30.0
    sigma_x: float = 5.0
    sigma_y: float = 1.5
    window_radius: int = 5

    def __post_init__(self):
        for name in ("sigma_s", "sigma_r_color", "sigma_r_depth", "sigma_x", "sigma_y"):
            require_real(name, getattr(self, name), gt=0)
        require_int("window_radius", self.window_radius, ge=1)
        if self.sigma_x < self.sigma_y:
            raise ContractViolation(
                f"sigma_x ({self.sigma_x}) must be >= sigma_y ({self.sigma_y}); "
                "the long axis runs along the edge"
            )


def spatial_weight(dx, dy, sigma_s):
    """Isotropic Gaussian of the pixel offset (dx, dy)."""
    return np.exp(-0.5 * (dx * dx + dy * dy) / (sigma_s * sigma_s))


def color_range_weight(ip, iq, sigma_r):
    """Gaussian of the guide-color difference between two pixels.

    ip and iq are either scalar intensities or RGB triples; for triples
    the difference is the Euclidean distance between the two colors.
    A triple may also be a (3, ...) stack of channel planes. The engine
    reads these values from color_range_table instead.
    """
    ip = np.asarray(ip, dtype=np.float64)
    iq = np.asarray(iq, dtype=np.float64)
    if ip.ndim == 0:
        d = ip - iq
        return _color_weight(d * d, sigma_r)
    dr = ip[0] - iq[0]
    dg = ip[1] - iq[1]
    db = ip[2] - iq[2]
    return _color_weight(dr * dr + dg * dg + db * db, sigma_r)


def _color_weight(sq, sigma_r):
    """exp(-0.5 * sq / sigma_r**2) of the squared color distance sq,
    computed in place when sq is a float64 array."""
    sq *= -0.5
    sq /= sigma_r * sigma_r
    return np.exp(sq, out=sq if np.ndim(sq) else None)


@lru_cache(maxsize=4)
def color_range_table(sigma_r):
    """color_range_weight for every squared RGB distance of two 8-bit
    colors: entry k is the kernel's body on float(k) for k in
    0..3 * 255**2, so a lookup by the exact integer distance gives the
    kernel's bits. Read-only, cached per sigma_r, and built in place so
    that only one 1.56 MB array is live while it is made.
    """
    table = _color_weight(np.arange(3 * 255 * 255 + 1, dtype=np.float64), sigma_r)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=4)
def depth_range_table(sigma_r, s):
    """depth_range_weight(k, 0, sigma_r) for every integer depth
    difference k in 0..s//2 - 1, then exactly 0.0 for k in s//2..s, the
    tail that stands in for the hole gate. (-k) / sigma_r is exactly
    -(k / sigma_r), so a lookup by |dp - dq| gives the kernel's bits for
    either sign; a sigma_r of 1e9 or more gives the kernel's exact 1.0
    before the tail. Read-only and cached per (sigma_r, s). Only the
    engine's calls with a depth term on unsigned depth build one, for a
    frame whose holes and pad hold the sentinel s (filters module doc):
    s + 1 entries, at most 131073, so a hole source weighs +0.0.
    """
    table = np.zeros(s + 1)
    table[:s // 2] = depth_range_weight(np.arange(s // 2, dtype=np.float64), 0.0, sigma_r)
    table.flags.writeable = False
    return table


def depth_range_weight(dp, dq, sigma_r):
    """Gaussian of the depth difference between two valid pixels.

    A sigma_r of 1e9 or more means "no depth preference" and returns
    exactly 1.0 rather than evaluating an exponential that would only
    approximate it. On arrays the result is one new array, computed in
    place; scalars return a float.
    """
    if sigma_r >= SIGMA_DEPTH_INFINITE:
        return 1.0
    t = np.subtract(dp, dq)
    t /= sigma_r
    t *= t
    t *= -0.5
    return np.exp(t, out=t if np.ndim(t) else None)


def dgf_weight(dx, dy, theta, sigma_x, sigma_y):
    """Anisotropic Gaussian of (dx, dy) in a frame rotated by theta.

    The frame's x axis (width sigma_x, the long axis) points along the
    edge contour; its y axis (sigma_y) crosses it.
    """
    return rotated_weight(dx, dy, **steering(theta), sigma_x=sigma_x, sigma_y=sigma_y)


def steering(theta):
    """The cos_t and sin_t keywords of rotated_weight (and of the
    filter engine) for the angle theta, a scalar or an array: the one
    place the package takes an angle's cosine and sine. A 0-d angle
    gives Python floats, the exact values of numpy's, on which
    rotated_weight's scalar arithmetic runs about twice as fast."""
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    if np.ndim(theta) == 0:
        cos_t, sin_t = float(cos_t), float(sin_t)
    return {"cos_t": cos_t, "sin_t": sin_t}


def rotated_weight(dx, dy, cos_t, sin_t, sigma_x, sigma_y):
    """dgf_weight with the angle given as its cosine and sine.

    Rotation is the proper orthonormal one: x' = dx cos t + dy sin t,
    y' = -dx sin t + dy cos t.
    """
    xt = dx * cos_t + dy * sin_t
    yt = -dx * sin_t + dy * cos_t
    return np.exp(-0.5 * (xt * xt / (sigma_x * sigma_x) + yt * yt / (sigma_y * sigma_y)))
