"""Hole-mask extraction and small-hole removal by grayscale closing.

Closing runs a windowed maximum (dilation) followed by a windowed
minimum (erosion) over a square structuring element, with windows
clamped at the image border so no padding values are invented. Holes
carry value 0, so the max step paints valid neighbor depths over small
holes and the min step shrinks the painted area back.

Only hole pixels take the closed value; pixels that already held a
measurement keep it. Running the closing wholesale would also lift
valid samples to their local maxima, which on a noisy map biases depth
upward by a sizable fraction of the noise sigma. Restricting it to
holes keeps the denoising job with the actual filters and makes the
operation exactly idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require_int, require_mask, require_same_shape
from .image_model import HOLE, DepthMap


@dataclass(frozen=True)
class StructuringElement:
    """Square window of side 2*radius + 1. Default 5x5."""

    radius: int = 2

    def __post_init__(self):
        require_int("structuring radius", self.radius, ge=1)


def _window_extreme(a: np.ndarray, radius: int, op, spent=False) -> np.ndarray:
    """Windowed max or min over a (2r+1) square, clamped at borders.

    Separable: shifted copies of the source are folded into the output
    along columns, then along rows. Shifts that fall outside the image
    are simply not applied, which is exactly the clamped-window rule.
    With spent set, a is no longer needed once the columns are folded,
    and the row fold takes it as its copy of them instead of a new frame.
    """
    out = a.copy()
    for d in range(1, radius + 1):
        op(out[:, d:], a[:, :-d], out=out[:, d:])
        op(out[:, :-d], a[:, d:], out=out[:, :-d])
    if spent:
        a[...] = out
        cols = a
    else:
        cols = out.copy()
    for d in range(1, radius + 1):
        op(out[d:, :], cols[:-d, :], out=out[d:, :])
        op(out[:-d, :], cols[d:, :], out=out[:-d, :])
    return out


def windowed_max(a: np.ndarray, radius: int) -> np.ndarray:
    return _window_extreme(a, radius, np.maximum)


def windowed_min(a: np.ndarray, radius: int) -> np.ndarray:
    return _window_extreme(a, radius, np.minimum)


def close_depth(d: DepthMap, se: StructuringElement = StructuringElement()) -> DepthMap:
    """Fill holes smaller than the structuring element with nearby depths.

    Hole pixels receive their morphological-closing value (max of the
    window, then min); a hole too large for the element closes to 0 and
    stays a hole. Non-hole pixels pass through untouched.
    """
    a = d.samples
    # Nothing else reads the max pass's output: the min pass may reuse it.
    closed = _window_extreme(windowed_max(a, se.radius), se.radius, np.minimum, spent=True)
    return DepthMap(np.where(a != HOLE, a, closed))


def hole_mask(d: DepthMap) -> np.ndarray:
    """Boolean grid, True exactly where the sample is the hole sentinel."""
    return d.samples == HOLE


def chebyshev_dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Grow a boolean mask by a Chebyshev (square) radius, as a new
    array (a copy of mask at radius 0)."""
    return windowed_max(mask, radius)


def expand_holes(holes: np.ndarray, edges: np.ndarray, radius: int) -> np.ndarray:
    """Extend the hole set across nearby edge pixels.

    A non-hole pixel becomes a hole iff it is an edge pixel and lies
    within Chebyshev distance `radius` of an existing hole. Depth
    samples sitting right on a guide edge next to a hole are the least
    trustworthy, so they are re-estimated by the fill stage instead of
    being smoothed in place. All original holes are preserved.
    """
    require_mask(holes=holes, edges=edges)
    require_same_shape(holes=holes, edges=edges)
    require_int("expansion radius", radius, ge=0)
    return holes | (chebyshev_dilate(holes, radius) & edges)
