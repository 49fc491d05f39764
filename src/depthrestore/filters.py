"""Depth filters: one vectorized window engine and per-pixel wrappers.

Four filters share one structure: a weighted average of neighbor
depths inside a square window, with weights that are products of a
spatial (or directional) Gaussian, a color range Gaussian on the guide
image, and optionally a depth range Gaussian. Hole neighbors always
get weight zero; a sentinel is not a measurement.

`window_sums` is the one engine: it accumulates those sums for every
pixel of a row band at once by iterating window offsets and shifting
whole arrays. Each of its four weight terms is a call into kernels.py
(spatial_weight or rotated_weight, color_range_weight,
depth_range_weight), so every formula is written once. The *_pixel
functions run the same engine on the window around a single pixel,
so there is no second copy of the arithmetic.

Two accumulation details are deliberate and load-bearing:

* Within each window row, the two contributions at columns -dx and +dx
  are multiplied out separately and added to each other in a pair
  buffer before joining the running sums (dx = 0 goes through the
  same buffer alone). A horizontal mirror of all inputs swaps the two
  addends of that pair, and float addition of two terms is exactly
  commutative, so mirrored inputs produce exactly mirrored outputs
  instead of drifting by rounding.

* The raw quotient num/den can overshoot the contributor range by an
  ulp, so each evaluation tracks the min and max contributing depth
  and clamps the quotient. That makes the convex-combination guarantee
  exact rather than approximate, and it compounds through the fill
  stage: every filled value stays inside the range of the depths it
  was grown from.

Window offsets falling outside the image are skipped (clamped window),
matching the border policy of the preprocessing stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .image_model import HOLE, ColorImage, DepthMap
from .edge_analysis import EdgeMap, NONHOLE_EDGE, NONHOLE_NONEDGE
from .kernels import (
    KernelParams,
    color_range_weight,
    depth_range_weight,
    rotated_weight,
    spatial_weight,
)


@dataclass(frozen=True)
class FilterOutcome:
    """Result of one per-pixel filter evaluation.

    value is the normalized weighted average (0.0 when nothing
    contributed); weight_sum the unnormalized denominator; contributors
    the number of neighbors with nonzero weight. weight_sum == 0 and
    contributors == 0 happen together and mean the window held no
    usable depth.
    """

    value: float
    weight_sum: float
    contributors: int


def _check_non_hole(depth: DepthMap, y: int, x: int, op: str) -> None:
    if depth.samples[y, x] == HOLE:
        raise ContractViolation(f"{op} requires a non-hole center, pixel ({y}, {x}) is a hole")


def _filter_at(p, depth: DepthMap, guide: ColorImage, params: KernelParams,
               valid=None, theta=None, **flavor) -> FilterOutcome:
    """Run window_sums for pixel p alone, on the clamped window around it.

    Depth, validity, guide (and a constant cos/sin of theta for the
    directional flavor) are cropped to the window, and only the crop's
    center row is evaluated. The crop gives the same bits as a
    whole-image run: p reads only sources inside its window, and an
    offset leaves the crop exactly when it leaves the image. valid of
    None means every non-hole pixel is a source.
    """
    y, x = p
    h, w = depth.samples.shape
    r = params.window_radius
    y0 = max(0, y - r)
    x0 = max(0, x - r)
    win = (slice(y0, min(h, y + r + 1)), slice(x0, min(w, x + r + 1)))
    d = depth.samples[win]
    usable = d != HOLE if valid is None else valid[win]
    if theta is not None:
        flavor["cos_t"] = np.full(d.shape, np.cos(theta))
        flavor["sin_t"] = np.full(d.shape, np.sin(theta))
    acc = WindowSums(d.shape)
    cy = y - y0
    window_sums(d, usable.astype(np.float64), guide_planes(ColorImage(guide.samples[win])),
                params, acc, cy, cy + 1, **flavor)
    at = (cy, x - x0)
    return FilterOutcome(float(acc.normalized()[at]), float(acc.den[at]), int(acc.cnt[at]))


def jbf_pixel(p, depth: DepthMap, guide: ColorImage, params: KernelParams) -> FilterOutcome:
    """Joint bilateral filter at p = (row, col): spatial x color range."""
    _check_non_hole(depth, *p, "jbf_pixel")
    return _filter_at(p, depth, guide, params, iso_sigma=params.sigma_s)


def tjbf_pixel(p, depth: DepthMap, guide: ColorImage, params: KernelParams) -> FilterOutcome:
    """JBF with an extra depth range term (trilateral).

    The depth term compares the center depth with each neighbor, so
    neighbors across a depth discontinuity lose influence even when the
    guide colors agree.
    """
    _check_non_hole(depth, *p, "tjbf_pixel")
    return _filter_at(p, depth, guide, params, iso_sigma=params.sigma_s,
                      depth_sigma=params.sigma_r_depth)


def djbf_pixel(p, depth: DepthMap, guide: ColorImage, theta: float,
               params: KernelParams) -> FilterOutcome:
    """JBF whose spatial term is the directional Gaussian at angle theta.

    theta comes from the edge map; the long axis (sigma_x) runs along
    the edge contour, so smoothing follows the edge instead of crossing
    it.
    """
    _check_non_hole(depth, *p, "djbf_pixel")
    return _filter_at(p, depth, guide, params, theta=theta)


def pdjbf_pixel(p, depth: DepthMap, valid: np.ndarray, guide: ColorImage,
                theta: float, params: KernelParams) -> FilterOutcome:
    """Directional filter for a hole pixel, summing over valid pixels only.

    There is no depth range term: the center has no depth to compare
    against. `valid` marks pixels currently holding trustworthy depth
    (filtered originals plus holes filled on earlier passes). A window
    with no valid pixel returns weight_sum 0 and contributors 0; the
    caller retries the pixel on a later pass rather than treating this
    as an error.
    """
    y, x = p
    if depth.samples[y, x] != HOLE and valid[y, x]:
        raise ContractViolation(f"pdjbf_pixel fills holes, pixel ({y}, {x}) is valid")
    return _filter_at(p, depth, guide, params, valid, theta)


class WindowSums:
    """Accumulator grids for one engine run: num, den, cnt, cmin, cmax."""

    def __init__(self, shape):
        self.num = np.zeros(shape)
        self.den = np.zeros(shape)
        self.cnt = np.zeros(shape, dtype=np.int32)
        self.cmin = np.full(shape, np.inf)
        self.cmax = np.full(shape, -np.inf)

    def normalized(self) -> np.ndarray:
        """Clamped weighted averages; 0.0 where nothing contributed."""
        vals = np.zeros_like(self.num)
        np.divide(self.num, self.den, out=vals, where=self.den > 0)
        clamped = np.minimum(self.cmax, np.maximum(self.cmin, vals))
        return np.where(self.den > 0, clamped, 0.0)


def window_sums(depth: np.ndarray, validf: np.ndarray, planes, params: KernelParams,
                acc: WindowSums, row0: int, row1: int, *, iso_sigma=None,
                cos_t=None, sin_t=None, depth_sigma=None) -> None:
    """Accumulate filter sums for output rows [row0, row1).

    One call covers one kernel flavor:
      iso_sigma set           isotropic spatial term
      cos_t/sin_t set         directional term with per-pixel angle,
                              widths params.sigma_x / params.sigma_y
      depth_sigma set         additional depth range term
    planes is the (3, h, w) guide stack from guide_planes. Weights are
    gated by validf (1.0 where the source is usable, else 0.0). The
    accumulator is written in place, only inside the row band, so
    concurrent calls on disjoint bands are safe. Sources are read from
    the whole image; banding never changes a single output bit.
    """
    h, w = depth.shape
    r = params.window_radius
    pair_num = np.empty((row1 - row0, w))
    pair_den = np.empty((row1 - row0, w))
    for dy in range(-r, r + 1):
        a0 = max(max(0, -dy), row0)
        a1 = min(h - max(0, dy), row1)
        if a0 >= a1:
            continue
        rows = slice(a0 - row0, a1 - row0)
        for adx in range(min(r, w - 1) + 1):
            pair_num[rows] = 0.0
            pair_den[rows] = 0.0
            for dx in (-adx, adx) if adx else (0,):
                xs0 = max(0, -dx)
                xs1 = w - max(0, dx)
                dst = (slice(a0, a1), slice(xs0, xs1))
                src = (slice(a0 + dy, a1 + dy), slice(xs0 + dx, xs1 + dx))
                if iso_sigma is not None:
                    ws = spatial_weight(dx, dy, iso_sigma)
                else:
                    ws = rotated_weight(dx, dy, cos_t[dst], sin_t[dst],
                                        params.sigma_x, params.sigma_y)
                wgt = ws * color_range_weight(planes[(slice(None),) + dst],
                                              planes[(slice(None),) + src],
                                              params.sigma_r_color)
                dq = depth[src]
                if depth_sigma is not None:
                    wgt = wgt * depth_range_weight(depth[dst], dq, depth_sigma)
                wgt = wgt * validf[src]
                local = (rows, dst[1])
                pair_num[local] += wgt * dq
                pair_den[local] += wgt
                contrib = wgt > 0
                acc.cnt[dst] += contrib
                np.minimum(acc.cmin[dst], np.where(contrib, dq, np.inf),
                           out=acc.cmin[dst])
                np.maximum(acc.cmax[dst], np.where(contrib, dq, -np.inf),
                           out=acc.cmax[dst])
            acc.num[a0:a1] += pair_num[rows]
            acc.den[a0:a1] += pair_den[rows]


def guide_planes(guide: ColorImage) -> np.ndarray:
    """The guide as one C-contiguous (3, h, w) float64 stack of channel
    planes for window_sums, so each plane's rows are contiguous."""
    return np.ascontiguousarray(np.moveaxis(guide.samples, -1, 0), dtype=np.float64)


def row_bands(height: int, workers: int):
    """Split [0, height) into `workers` contiguous, near-equal bands."""
    n = max(1, min(workers, height))
    base = height // n
    rem = height % n
    bands = []
    r0 = 0
    for i in range(n):
        r1 = r0 + base + (1 if i < rem else 0)
        bands.append((r0, r1))
        r0 = r1
    return bands


def run_banded(height: int, threads: int, job) -> None:
    """Run job(row0, row1) over row bands, threaded when threads > 1."""
    bands = row_bands(height, threads)
    if len(bands) == 1:
        job(*bands[0])
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(bands)) as pool:
        list(pool.map(lambda b: job(*b), bands))


def filter_non_hole(depth: DepthMap, guide: ColorImage, labels: np.ndarray,
                    edges: EdgeMap, params: KernelParams, *, threads: int = 1,
                    isotropic_only: bool = False) -> DepthMap:
    """Denoise every non-hole pixel with its region's filter.

    Non-edge region pixels get the trilateral filter; edge region
    pixels get the directional filter steered by their own edge-map
    theta. Hole pixels pass through as sentinel 0. Every output is
    computed from the original input map, never from freshly filtered
    neighbors, so results are independent of evaluation order and of
    the thread count.

    With isotropic_only the region split is ignored and every non-hole
    pixel gets the plain isotropic JBF (no depth term); this is the
    ablation arm for measuring what the directional kernel buys.
    """
    if depth.samples.shape != labels.shape:
        raise ContractViolation(
            f"depth {depth.samples.shape} and labels {labels.shape} differ in shape"
        )
    d = depth.samples
    h, w = d.shape
    planes = guide_planes(guide)
    validf = (d != HOLE).astype(np.float64)

    if isotropic_only:
        acc = WindowSums(d.shape)
        run_banded(h, threads, lambda r0, r1: window_sums(
            d, validf, planes, params, acc, r0, r1, iso_sigma=params.sigma_s))
        return DepthMap(np.where(labels <= NONHOLE_EDGE, acc.normalized(), d))

    tri = WindowSums(d.shape)
    dire = WindowSums(d.shape)
    cos_t = np.cos(edges.theta)
    sin_t = np.sin(edges.theta)

    def band(r0, r1):
        window_sums(d, validf, planes, params, tri, r0, r1,
                    iso_sigma=params.sigma_s, depth_sigma=params.sigma_r_depth)
        window_sums(d, validf, planes, params, dire, r0, r1,
                    cos_t=cos_t, sin_t=sin_t)

    run_banded(h, threads, band)
    out = np.where(labels == NONHOLE_NONEDGE, tri.normalized(),
                   np.where(labels == NONHOLE_EDGE, dire.normalized(), d))
    return DepthMap(out)
