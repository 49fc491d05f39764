"""Full restoration pipeline: preprocess, classify, filter, fill, blend.

Stage order: compute guide gradients and edges, close small holes,
take the hole mask, expand holes across edge pixels, classify regions,
denoise non-hole pixels, then fill the remaining holes from the
outside in.

Hole filling runs in two phases. Non-edge holes go first, using the
isotropic specialization of the partial filter (theta 0, both
directional widths equal to sigma_s); edge holes follow, steered by
the orientation of the nearest edge pixel. Within a phase, every pass
evaluates all still-unfilled target pixels against the depth frame
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

from .errors import (
    require_int, require_labels, require_real, require_same_shape, require_type)
from .image_model import HOLE, ColorImage, DepthMap, interior, pad, to_grayscale
from .preprocess import (
    StructuringElement, chebyshev_dilate, close_depth, expand_holes, hole_mask)
from .edge_analysis import (
    HOLE_EDGE,
    HOLE_NONEDGE,
    LABEL_NAMES,
    EdgeMap,
    classify_regions,
    detect_edges,
    label_counts,
    nearest_edge_theta,
    sobel_gradients,
)
from .filters import filter_non_hole, guide_planes, run_banded, window_sums
from .kernels import KernelParams, steering

DEFAULT_EDGE_THRESHOLD = 100.0


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the restoration pipeline can be tuned with: restore,
    filter_non_hole and fill_holes each take one.

    r_edge of None means "use the kernel window radius", so the edge
    region is exactly the set of pixels whose filter window straddles
    an edge. threads is the number of row bands, run on at most one OS
    thread per available CPU; 0 picks that CPU count (run_banded). Any
    thread count produces bit-identical output. isotropic_only switches
    every filter to the plain isotropic JBF (the ablation arm).
    A config checks itself when built, by replace() too: kernel must be
    a KernelParams and se a StructuringElement, each count and radius
    must pass errors.require_int, edge_threshold errors.require_real,
    and isotropic_only must be a bool, or ContractViolation is raised.
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

    def __post_init__(self):
        require_type("kernel", self.kernel, KernelParams)
        require_type("se", self.se, StructuringElement)
        require_real("edge_threshold", self.edge_threshold, gt=0)
        if self.r_edge is not None:
            require_int("r_edge", self.r_edge, ge=0)
        require_int("hole_expand_radius", self.hole_expand_radius, ge=0)
        require_int("max_fill_passes", self.max_fill_passes, ge=1)
        require_int("threads", self.threads, ge=0)
        require_type("isotropic_only", self.isotropic_only, bool)


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
        for name in LABEL_NAMES.values():
            out.append(f"{name}: {self.region_counts[name]}")
        return out


def fill_holes(filtered: DepthMap, guide: ColorImage, labels: np.ndarray,
               edges: EdgeMap, cfg: PipelineConfig) -> tuple[DepthMap, RestorationReport]:
    """Fill hole pixels by iterated partial filtering; see module doc.

    `filtered` must already have its non-hole pixels denoised; they are
    the seed values the fill grows from. Returns the completed map and
    the run report. Passes are counted across both phases against
    cfg.max_fill_passes. The padded depth is built once and is the only
    record of which pixels are sources, the non-hole ones. Each pass
    writes its fills into it, each clamped into the range of its positive
    contributors, so never HOLE. An edge-phase pass takes the
    nearest-edge angles at its own targets (nearest_edge_theta answers
    each target on its own), so no angle outlives its pass, and they die
    once their cos and sin (steering) exist. filtered is dropped once it
    is padded, which frees it when the caller passed it as a call's
    value without keeping it (restore does).
    Every frame must have the depth's size, and labels must be region
    labels whose hole labels mark exactly filtered's holes
    (errors.require_labels): a hole labelled valid would be neither a
    source nor a target.
    """
    require_type("filtered", filtered, DepthMap)
    require_type("guide", guide, ColorImage)
    require_type("edges", edges, EdgeMap)
    require_type("cfg", cfg, PipelineConfig)
    require_same_shape(depth=filtered, guide=guide, labels=labels, theta=edges.theta)
    require_labels(labels, filtered)
    h = labels.shape[0]
    params = cfg.kernel
    r = params.window_radius
    work = pad(filtered.samples, r)
    del filtered  # frees the map when the caller handed it over (restore)
    planes = guide_planes(guide, r)

    iso = replace(params, sigma_x=params.sigma_s, sigma_y=params.sigma_s)
    steered = not cfg.isotropic_only
    phases = [(HOLE_NONEDGE, iso, False), (HOLE_EDGE, params if steered else iso, steered)]

    holes_initial = int(np.count_nonzero(labels >= HOLE_NONEDGE))
    passes = 0
    filled = 0
    for label, p_params, steer in phases:
        # No pixel of the phase's label is filled yet: earlier fills hold other labels.
        remaining = labels == label
        while remaining.any() and passes < cfg.max_fill_passes:
            passes += 1
            # Only a pixel with a non-hole pixel in its window can fill.
            targets = np.flatnonzero(remaining & chebyshev_dilate(interior(work, r) != HOLE, r))
            avg = np.empty(targets.shape)
            angles = steering(
                nearest_edge_theta(edges, cfg.effective_r_edge(), targets) if steer else 0.0)
            run_banded(h, cfg.threads, lambda r0, r1: window_sums(
                work, HOLE, planes, p_params, avg, r0, r1, targets=targets, **angles))
            # Every source is above HOLE and an average is clamped into its
            # contributors' range, so only a target without one reads HOLE.
            got = avg != HOLE
            if not got.any():
                break
            fillable = targets[got]
            interior(work, r).flat[fillable] = avg[got]
            remaining.flat[fillable] = False
            filled += fillable.size

    report = RestorationReport(
        holes_initial=holes_initial,
        holes_filled=filled,
        holes_unfilled=holes_initial - filled,
        fill_passes_used=passes,
        region_counts=label_counts(labels),
    )
    del planes  # free before the output copy
    return DepthMap(np.ascontiguousarray(interior(work, r))), report


def restore(depth: DepthMap, guide: ColorImage,
            cfg: PipelineConfig = PipelineConfig()
            ) -> tuple[DepthMap, np.ndarray, RestorationReport]:
    """Run the whole restoration; returns (map, labels, report).

    Each intermediate frame dies at its last use. The edges come first:
    the gray image lives until sobel_gradients has padded it, the
    gradient magnitude until detect_edges has its edge mask, and gx and
    gy until the angles exist, so all are gone before the closing builds
    its frames. depth is dropped once the closing has read it, so an
    input the caller passed without keeping it (the CLI does) is freed
    there. The closed map and the hole masks die once the labels and the
    hole-zeroed work map exist. So only edges, labels and the current
    depth frame reach filter_non_hole, and only edges, labels and the
    denoised map reach fill_holes. Neither map is kept in a local: each
    is handed on as a call's value, so the callee frees it after its
    last read (filter_non_hole once it has padded the work map,
    fill_holes once it has padded the denoised map). That relies on
    CPython 3.11 moving call arguments into the callee's frame,
    hence the package's requires-python.
    """
    require_type("depth", depth, DepthMap)
    require_type("guide", guide, ColorImage)
    require_type("cfg", cfg, PipelineConfig)
    require_same_shape(depth=depth, guide=guide)
    edges = detect_edges(sobel_gradients(to_grayscale(guide)), cfg.edge_threshold)
    closed = close_depth(depth, cfg.se)
    del depth
    holes = expand_holes(hole_mask(closed), edges.edge, cfg.hole_expand_radius)
    labels = classify_regions(holes, edges, cfg.effective_r_edge())
    # A one-slot list: popping it hands the map to filter_non_hole, and
    # no local of restore keeps it.
    work = [DepthMap(np.where(holes, 0.0, closed.samples))]
    del closed, holes
    final, report = fill_holes(filter_non_hole(work.pop(), guide, labels, edges, cfg),
                               guide, labels, edges, cfg)
    return final, labels, report
