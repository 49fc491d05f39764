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

from .errors import ContractViolation, require_int, require_real, require_same_shape
from .image_model import DEPTH_MAXVAL, GrayImage
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
    """Edge flags plus per-pixel contour orientation in (-pi/2, pi/2]."""

    edge: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        require_same_shape(edge=self.edge, theta=self.theta)


def sobel_gradients(g: GrayImage) -> GradientField:
    """Apply the 3x3 Sobel pair with replicated (clamped) borders.

    gx uses [[-1,0,1],[-2,0,2],[-1,0,1]] (positive rightward), gy its
    transpose (positive downward).
    """
    a = g.samples
    if a.shape[0] < 3 or a.shape[1] < 3:
        raise ContractViolation(f"gradients need at least 3x3, got {a.shape}")
    p = np.pad(a, 1, mode="edge")
    right = p[:-2, 2:] + 2.0 * p[1:-1, 2:] + p[2:, 2:]
    left = p[:-2, :-2] + 2.0 * p[1:-1, :-2] + p[2:, :-2]
    gx = right - left
    down = p[2:, :-2] + 2.0 * p[2:, 1:-1] + p[2:, 2:]
    up = p[:-2, :-2] + 2.0 * p[:-2, 1:-1] + p[:-2, 2:]
    gy = down - up
    return GradientField(gx, gy, np.sqrt(gx * gx + gy * gy))


def edge_theta(gx, gy):
    """Orientation of the edge contour from gradient samples.

    Returns atan(-gx / gy) in (-pi/2, pi/2], y pointing down,
    elementwise over arrays and as a float for scalars: (gx, gy) = (1, 1)
    gives -pi/4, a contour running up and to the right. A purely
    horizontal gradient (gy == 0, gx != 0) means a vertical contour, so
    pi/2; a zero gradient has no direction and maps to 0.
    """
    gx = np.asarray(gx, dtype=np.float64)
    gy = np.asarray(gy, dtype=np.float64)
    flat = gy == 0.0
    t = np.arctan(-gx / np.where(flat, 1.0, gy))
    t = np.where(flat, np.where(gx == 0.0, 0.0, np.pi / 2), t)
    return float(t) if t.ndim == 0 else t


def detect_edges(grad: GradientField, threshold: float) -> EdgeMap:
    """Threshold the gradient magnitude and attach orientations.

    theta is computed at every pixel; it only carries meaning at and
    near edges, but keeping the full grid lets later stages index it
    without special cases.
    """
    require_real("edge threshold", threshold, gt=0)
    return EdgeMap(grad.magnitude >= threshold, edge_theta(grad.gx, grad.gy))


def classify_regions(holes: np.ndarray, edges: EdgeMap, r_edge: int) -> np.ndarray:
    """Build the 4-way label grid from hole mask and edge map.

    A pixel is edge-region iff any edge pixel lies within Chebyshev
    radius r_edge, so a filter window of that radius centered there
    would straddle an edge.
    """
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


def nearest_edge_theta(edges: EdgeMap, r_edge: int) -> np.ndarray:
    """Per-pixel theta of the nearest edge pixel within r_edge.

    Hole pixels have no usable gradient of their own, so hole filling
    near an edge borrows the orientation of the closest edge pixel
    (Chebyshev distance). Ties at equal distance resolve to the first
    candidate in row-major scan order. Pixels with no edge pixel in
    range keep their own theta.

    Offsets are visited in (distance, dy, dx) order; within one offset
    every target sees at most one source, so "first assignment wins"
    reproduces the scan-order tie rule exactly.
    """
    require_int("r_edge", r_edge, ge=0)
    theta = edges.theta
    h, w = theta.shape
    out = theta.copy()
    assigned = edges.edge.copy()
    offsets = sorted(
        ((max(abs(dy), abs(dx)), dy, dx)
         for dy in range(-r_edge, r_edge + 1)
         for dx in range(-r_edge, r_edge + 1)),
    )
    for dist, dy, dx in offsets:
        if dist == 0:
            continue
        ys0, ys1 = max(0, -dy), h - max(0, dy)
        xs0, xs1 = max(0, -dx), w - max(0, dx)
        if ys0 >= ys1 or xs0 >= xs1:
            continue
        dst = (slice(ys0, ys1), slice(xs0, xs1))
        src = (slice(ys0 + dy, ys1 + dy), slice(xs0 + dx, xs1 + dx))
        sel = ~assigned[dst] & edges.edge[src]
        out[dst][sel] = theta[src][sel]
        assigned[dst] |= sel
    return out


def theta_to_units(theta: np.ndarray) -> np.ndarray:
    """Scale orientations into the 16-bit sample range for debug dumps.

    Maps (-pi/2, pi/2] linearly onto [0, 65535] via (theta + pi/2) / pi.
    """
    return (theta + np.pi / 2) / np.pi * DEPTH_MAXVAL
