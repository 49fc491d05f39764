"""Full restoration pipeline: preprocess, classify, filter, fill, blend.

Stage order: close small holes, take the hole mask, compute guide
gradients and edges, expand holes across edge pixels, classify regions,
denoise non-hole pixels, then fill the remaining holes from the
outside in.

Hole filling runs in two phases. Non-edge holes go first, using the
isotropic specialization of the partial filter (theta 0, both
directional widths equal to sigma_s); edge holes follow, steered by
the orientation of the nearest edge pixel. Within a phase, every pass
evaluates all still-unfilled target pixels against the validity state
left by the previous pass, then admits those that found at least one
contributor. That makes a pass an onion-peel step: each pass fills the
next ring of a hole, and nothing depends on pixel traversal order or
on how rows are distributed across threads.

The final map needs no separate blend step: filtered values sit on
non-hole pixels and fill values on hole pixels, which are disjoint by
construction. Unfillable pixels (no valid support within reach before
the pass cap) keep the sentinel and are counted in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractViolation, require_int, require_real, require_same_shape
from .image_model import ColorImage, DepthMap, to_grayscale
from .preprocess import (
    StructuringElement, chebyshev_dilate, close_depth, expand_holes, hole_mask)
from .edge_analysis import (
    HOLE_EDGE,
    HOLE_NONEDGE,
    NONHOLE_EDGE,
    EdgeMap,
    classify_regions,
    detect_edges,
    label_counts,
    nearest_edge_theta,
    sobel_gradients,
)
from .filters import (
    WindowSums, filter_non_hole, guide_planes, interior, pad, run_banded, window_sums)
from .kernels import KernelParams

DEFAULT_EDGE_THRESHOLD = 100.0


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the restoration pipeline can be tuned with: restore,
    filter_non_hole and fill_holes each take one and validate it.

    r_edge of None means "use the kernel window radius", so the edge
    region is exactly the set of pixels whose filter window straddles
    an edge. threads is the number of row bands, run on at most one OS
    thread per available CPU; 0 picks that CPU count (run_banded). Any
    thread count produces bit-identical output. isotropic_only switches
    every filter to the plain isotropic JBF (the ablation arm).
    validate() checks each count and radius with errors.require_int and
    edge_threshold and the kernel widths with errors.require_real, and
    wants isotropic_only as a bool.
    """

    kernel: KernelParams = field(default_factory=KernelParams)
    se: StructuringElement = field(default_factory=StructuringElement)
    edge_threshold: float = DEFAULT_EDGE_THRESHOLD
    r_edge: int | None = None
    hole_expand_radius: int = 1
    max_fill_passes: int = 64
    threads: int = 1
    isotropic_only: bool = False

    def effective_r_edge(self) -> int:
        return self.kernel.window_radius if self.r_edge is None else self.r_edge

    def validate(self) -> None:
        self.kernel.validate()
        self.se.validate()
        require_real("edge_threshold", self.edge_threshold, gt=0)
        if self.r_edge is not None:
            require_int("r_edge", self.r_edge, ge=0)
        require_int("hole_expand_radius", self.hole_expand_radius, ge=0)
        require_int("max_fill_passes", self.max_fill_passes, ge=1)
        require_int("threads", self.threads, ge=0)
        if not isinstance(self.isotropic_only, bool):
            raise ContractViolation(f"isotropic_only must be a bool, got {self.isotropic_only!r}")


@dataclass(frozen=True)
class RestorationReport:
    """Counts describing one restoration run."""

    holes_initial: int
    holes_filled: int
    holes_unfilled: int
    fill_passes_used: int
    region_counts: dict

    def lines(self) -> list[str]:
        """Flat key: value rendering in stable order."""
        out = [
            f"holes_initial: {self.holes_initial}",
            f"holes_filled: {self.holes_filled}",
            f"holes_unfilled: {self.holes_unfilled}",
            f"fill_passes_used: {self.fill_passes_used}",
        ]
        for name in ("nonhole_nonedge", "nonhole_edge", "hole_nonedge", "hole_edge"):
            out.append(f"{name}: {self.region_counts[name]}")
        return out


def fill_holes(filtered: DepthMap, guide: ColorImage, labels: np.ndarray,
               edges: EdgeMap, cfg: PipelineConfig) -> tuple[DepthMap, RestorationReport]:
    """Fill hole pixels by iterated partial filtering; see module doc.

    `filtered` must already have its non-hole pixels denoised; they are
    the seed values the fill grows from. Returns the completed map and
    the run report. Passes are counted across both phases against
    cfg.max_fill_passes. The padded depth and validity frames are built
    once, and each pass writes its fills into their interiors. cfg is
    validated, and every frame must have the depth's size.
    """
    cfg.validate()
    require_same_shape(depth=filtered, guide=guide, labels=labels, theta=edges.theta)
    h = labels.shape[0]
    params = cfg.kernel
    r = params.window_radius
    valid = labels <= NONHOLE_EDGE
    work = pad(filtered.samples, r)
    validf = pad(valid, r, np.float64)
    planes = guide_planes(guide, r)

    iso = (replace(params, sigma_x=params.sigma_s, sigma_y=params.sigma_s), None)
    steered = iso if cfg.isotropic_only else (
        params, nearest_edge_theta(edges, cfg.effective_r_edge()))
    phases = [(HOLE_NONEDGE, *iso), (HOLE_EDGE, *steered)]

    holes_initial = int(np.count_nonzero(labels >= HOLE_NONEDGE))
    passes = 0
    filled = 0
    for label, p_params, theta in phases:
        remaining = (labels == label) & ~valid
        while remaining.any() and passes < cfg.max_fill_passes:
            passes += 1
            # Only a pixel with a valid pixel in its window can fill.
            targets = np.flatnonzero(remaining & chebyshev_dilate(valid, r))
            acc = WindowSums(targets.shape)
            at = None if theta is None else theta.flat[targets]
            cos_t, sin_t = (1.0, 0.0) if at is None else (np.cos(at), np.sin(at))
            run_banded(h, cfg.threads, lambda r0, r1: window_sums(
                work, validf, planes, p_params, acc, r0, r1,
                cos_t=cos_t, sin_t=sin_t, targets=targets))
            got = acc.cnt > 0
            if not got.any():
                break
            fillable = targets[got]
            interior(work, r).flat[fillable] = acc.normalized()[got]
            interior(validf, r).flat[fillable] = 1.0
            valid.flat[fillable] = True
            remaining.flat[fillable] = False
            filled += fillable.size

    report = RestorationReport(
        holes_initial=holes_initial,
        holes_filled=filled,
        holes_unfilled=holes_initial - filled,
        fill_passes_used=passes,
        region_counts=label_counts(labels),
    )
    return DepthMap(np.ascontiguousarray(interior(work, r))), report


def restore(depth: DepthMap, guide: ColorImage,
            cfg: PipelineConfig = PipelineConfig()
            ) -> tuple[DepthMap, np.ndarray, RestorationReport]:
    """Run the whole restoration; returns (map, labels, report)."""
    cfg.validate()
    require_same_shape(depth=depth, guide=guide)
    closed = close_depth(depth, cfg.se)
    holes0 = hole_mask(closed)
    gray = to_grayscale(guide)
    grad = sobel_gradients(gray)
    edges = detect_edges(grad, cfg.edge_threshold)
    holes = expand_holes(holes0, edges.edge, cfg.hole_expand_radius)
    labels = classify_regions(holes, edges, cfg.effective_r_edge())
    work = DepthMap(np.where(holes, 0.0, closed.samples))
    filtered = filter_non_hole(work, guide, labels, edges, cfg)
    final, report = fill_holes(filtered, guide, labels, edges, cfg)
    return final, labels, report
