"""Guide-image gradients, edge map, orientation, and region labels.

The filter pipeline needs to know, per pixel, whether it sits near a
color edge and at what angle that edge runs. Gradients come from the
standard 3x3 Sobel kernels on the luminance image with replicated
borders. The orientation theta = atan(-gx / gy) is the direction of
the edge contour itself (the gradient turned a quarter turn), which is
the axis the directional filter smooths along. Angles are measured
with x pointing right and y pointing down, the frame of the Sobel
gradients and of kernels.rotated_weight, so on a diagonal edge the
kernel's long axis lies along the contour, not across it.

Region labels split the image four ways: hole or non-hole crossed with
edge-region or not, where "edge region" means some edge pixel lies
within Chebyshev radius r_edge. The labels drive filter selection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolation, require_int, require_mask, require_real, require_same_shape, require_type)
from .image_model import DEPTH_MAXVAL, GrayImage, pad, padded_flat
from .preprocess import chebyshev_dilate

NONHOLE_NONEDGE = 0
NONHOLE_EDGE = 1
HOLE_NONEDGE = 2
HOLE_EDGE = 3

LABEL_NAMES = {
    NONHOLE_NONEDGE: "nonhole_nonedge",
    NONHOLE_EDGE: "nonhole_edge",
    HOLE_NONEDGE: "hole_nonedge",
    HOLE_EDGE: "hole_edge",
}


@dataclass(frozen=True)
class GradientField:
    """Sobel derivatives of a grayscale image, plus their magnitude."""

    gx: np.ndarray
    gy: np.ndarray
    magnitude: np.ndarray


@dataclass(frozen=True)
class EdgeMap:
    """Edge flags plus per-pixel contour orientation in (-pi/2, pi/2].

    edge must be a bool array and theta a finite integer or float array
    of its size, or ContractViolation is raised: a NaN angle would turn
    every weight of its window into NaN. The check takes theta's min and
    max, so it builds no frame."""

    edge: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        require_mask(edge=self.edge)
        theta = self.theta
        kind = getattr(theta, "dtype", np.dtype(object)).kind
        if kind not in "iuf":
            raise ContractViolation(f"theta must be an integer or float array, got "
                                    f"{getattr(theta, 'dtype', type(theta).__name__)}")
        # Negated so that NaN, which min and max propagate, fails too.
        if theta.size and not (theta.min() > -np.inf and theta.max() < np.inf):
            raise ContractViolation(f"theta must be finite: min {theta.min()}, max {theta.max()}")
        require_same_shape(edge=self.edge, theta=theta)


def sobel_gradients(g: GrayImage) -> GradientField:
    """Apply the 3x3 Sobel pair with replicated (clamped) borders.

    gx uses [[-1,0,1],[-2,0,2],[-1,0,1]] (positive rightward), gy its
    transpose (positive downward).

    Every frame is built in place: each tap triple a + 2b + c as
    t = 2b, t += a, t += c (the same association, since 2b + a is
    a + 2b exactly), the differences and the magnitude
    sqrt(gx * gx + gy * gy) in those buffers, and the padded image is
    freed before the magnitude is built. Besides the three results,
    one scratch frame is live at a time. The gray image is dropped once
    it is padded, which frees it when the caller handed it over as a
    call's value (pipeline.restore does). As in kernels, do not
    reassociate any of these sums: they feed every edge decision.
    """
    a = g.samples
    if a.shape[0] < 3 or a.shape[1] < 3:
        raise ContractViolation(f"gradients need at least 3x3, got {a.shape}")
    p = np.pad(a, 1, mode="edge")
    del g, a
    gx = _taps(p[:-2, 2:], p[1:-1, 2:], p[2:, 2:])
    gx -= _taps(p[:-2, :-2], p[1:-1, :-2], p[2:, :-2])
    gy = _taps(p[2:, :-2], p[2:, 1:-1], p[2:, 2:])
    scratch = _taps(p[:-2, :-2], p[:-2, 1:-1], p[:-2, 2:])
    gy -= scratch
    del p
    magnitude = np.multiply(gx, gx)
    magnitude += np.multiply(gy, gy, out=scratch)
    return GradientField(gx, gy, np.sqrt(magnitude, out=magnitude))


def _taps(a, b, c):
    """a + 2.0 * b + c as one new array: 2b, then + a, then + c."""
    t = np.multiply(b, 2.0)
    t += a
    t += c
    return t


def edge_theta(gx, gy):
    """Orientation of the edge contour from gradient samples.

    Returns atan(-gx / gy) in (-pi/2, pi/2], y pointing down,
    elementwise over arrays and as a float for scalars: (gx, gy) = (1, 1)
    gives -pi/4, a contour running up and to the right. A purely
    horizontal gradient (gy == 0, gx != 0) means a vertical contour, so
    pi/2; a zero gradient has no direction and maps to 0.

    The angles are built in one new array: -gx, divided by gy in place
    where gy is not 0, the arctan in place, then the flat pixels set;
    besides it only bool masks are made.
    """
    gx = np.asarray(gx, dtype=np.float64)
    gy = np.asarray(gy, dtype=np.float64)
    flat = gy == 0.0
    t = np.asarray(-gx)  # a 0-d gx negates to a scalar; keep an array
    np.divide(t, gy, out=t, where=~flat)
    np.arctan(t, out=t)
    np.copyto(t, np.pi / 2, where=flat)
    np.copyto(t, 0.0, where=flat & (gx == 0.0))
    return float(t) if t.ndim == 0 else t


def detect_edges(grad: GradientField, threshold: float) -> EdgeMap:
    """Threshold the gradient magnitude and attach orientations.

    theta is computed at every pixel; it only carries meaning at and
    near edges, but keeping the full grid lets later stages index it
    without special cases. grad is dropped once the edge mask exists,
    keeping gx and gy for edge_theta, so a field the caller handed over
    as a call's value (pipeline.restore does) has its magnitude freed
    before the angles are built.
    """
    require_real("edge threshold", threshold, gt=0)
    gx, gy = grad.gx, grad.gy
    edge = grad.magnitude >= threshold
    del grad
    return EdgeMap(edge, edge_theta(gx, gy))


def classify_regions(holes: np.ndarray, edges: EdgeMap, r_edge: int) -> np.ndarray:
    """Build the 4-way label grid from hole mask and edge map.

    A pixel is edge-region iff any edge pixel lies within Chebyshev
    radius r_edge, so a filter window of that radius centered there
    would straddle an edge.
    """
    require_mask(holes=holes)
    require_same_shape(holes=holes, edges=edges.edge)
    require_int("r_edge", r_edge, ge=0)
    near_edge = chebyshev_dilate(edges.edge, r_edge)
    labels = np.zeros(holes.shape, dtype=np.uint8)
    labels[near_edge] = NONHOLE_EDGE
    labels[holes & ~near_edge] = HOLE_NONEDGE
    labels[holes & near_edge] = HOLE_EDGE
    return labels


def label_counts(labels: np.ndarray) -> dict:
    """Pixel count per region label, keyed by label name."""
    return {
        name: int(np.count_nonzero(labels == value))
        for value, name in sorted(LABEL_NAMES.items())
    }


def nearest_edge_theta(edges: EdgeMap, r_edge: int, targets: np.ndarray) -> np.ndarray:
    """Theta of the nearest edge pixel within r_edge, at each of the
    flat indices targets (y * w + x), one angle per target.

    Hole pixels have no usable gradient of their own, so hole filling
    near an edge borrows the orientation of the closest edge pixel
    (Chebyshev distance). Ties at equal distance resolve to the first
    candidate in row-major scan order. An edge pixel keeps its own
    theta, and so does a target with no edge pixel in range.

    Offsets are visited in (distance, dy, dx) order, so the first hit
    of a target is its answer. Each offset gathers the edge flags of
    the targets still without one from the edge map padded by r_edge,
    where every exterior flag is False, and the walk stops when none is
    left: the cost follows the targets, not the frame. targets must be
    a 1-D integer array of indices in [0, h*w): numpy would read -1 as
    the last pixel, 1.5 as pixel 1 and a bool array as indices 1 and 0.
    """
    require_type("edges", edges, EdgeMap)
    require_int("r_edge", r_edge, ge=0)
    targets = np.asarray(targets)
    if targets.ndim != 1 or targets.dtype.kind not in "iu" or (
            targets.size and not (targets.min() >= 0 and targets.max() < edges.edge.size)):
        raise ContractViolation(f"targets must be 1-D integer indices in [0, {edges.edge.size}), "
                                f"got {targets!r}")
    targets = targets.astype(np.intp, copy=False)
    w = edges.edge.shape[1]
    wp = w + 2 * r_edge
    edge = pad(edges.edge, r_edge).reshape(-1)
    out = edges.theta.flat[targets]
    at = padded_flat(targets, w, r_edge)
    left = np.flatnonzero(~edge.take(at))  # positions in targets still without an edge
    at = at[left]
    offsets = sorted((max(abs(dy), abs(dx)), dy, dx)
                     for dy in range(-r_edge, r_edge + 1)
                     for dx in range(-r_edge, r_edge + 1))
    for _, dy, dx in offsets[1:]:
        if not left.size:
            break
        hit = edge.take(at + (dy * wp + dx))
        if hit.any():
            got = left[hit]
            out[got] = edges.theta.flat[targets[got] + (dy * w + dx)]
            left = left[~hit]
            at = at[~hit]
    return out


def theta_to_units(theta: np.ndarray) -> np.ndarray:
    """Scale orientations into the 16-bit sample range for debug dumps.

    Maps (-pi/2, pi/2] linearly onto [0, 65535] via (theta + pi/2) / pi.
    """
    return (theta + np.pi / 2) / np.pi * DEPTH_MAXVAL
