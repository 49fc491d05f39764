"""Depth filters: one vectorized window engine and per-pixel wrappers.

Four filters share one structure: a weighted average of neighbor
depths inside a square window, with weights that are products of a
spatial (or directional) Gaussian, a color range Gaussian on the guide
image, and optionally a depth range Gaussian. Hole neighbors always
get weight zero; a sentinel is not a measurement.

`window_sums` is the one engine: it iterates window offsets and, per
offset, weighs and accumulates a whole set of output pixels at once.
Each of its four weight terms comes from kernels.py (spatial_weight
or rotated_weight, color_range_table, depth_range_table or
depth_range_weight), so every formula is written once, and the *_pixel
functions run the engine on their pixel as a 1x1 frame.

The color term is a lookup, not an evaluation. The guide reaches the
engine as a uint8 stack (guide_planes), so the squared RGB distance is
an integer from 0 to 3 * 255**2; the engine takes it in int32, exactly,
and reads kernels.color_range_table, whose entries are
color_range_weight's own float64 expression. The float64 distance it
replaces was exact too (a sum of three integer squares), so a lookup
returns the very bits the kernel would. The other weight factors are
multiplied into the looked-up plane in place, in the order ws * wc *
wd * gate that the kernels define; a product of two doubles is exactly
commutative, so doing it in place moves no bit. The depth term is a
lookup too when the depth reaches the engine as uint16, which
filter_non_hole does whenever every sample is an integer (always, for
a depth read from a PGM: closing only takes windowed max/min of
samples): kernels.depth_range_table holds depth_range_weight's bits
for every |dp - dq|. Float depth still runs depth_range_weight.
tests/oracles.py holds the float64 body as ref_window_sums, and a
hypothesis test pins the engine to it.

Every frame the engine reads comes padded by r = window_radius on
every side (pad, guide_planes): depth 0, color 0 and validity 0.0, the
constant_exterior boundary of Halide (Ragan-Kelley et al., PLDI 2013).
Every weight is finite, so an exterior source weighs exactly +0.0, and
adding +0.0 to sums that are never below +0.0 leaves their bits: no
offset needs to know where the image ends. One body weighs and
accumulates, on arrays from one of two addressings:

* Slice addressing, for every pixel of a row band: an offset is one
  fixed-shape view of each padded frame. The dense denoise pass uses
  it; views are free, and gathers there measured 2x slower.

* Gather addressing, for a sorted set of flat target indices: the
  denoise pass on nonhole_edge pixels, and each fill pass on the
  holes with a valid pixel in reach (the narrow band of Telea's 2004
  fast-marching inpainting). A block maps its targets to padded flat
  indices once and gathers each offset's sources at one fixed shift.

Either way a call walks its band in blocks of at most BLOCK_PX output
pixels (whole rows for slices, consecutive targets for gathers) and
runs every offset on one block before the next, so the per-offset
temporaries stay cache-sized instead of spanning the band: at VGA a
band-wide temporary is 2.4 MB, a block's is 256 KiB. This is the
tile-at-a-time schedule Halide applies to stencils. It cannot change a
bit: each output pixel's sums run over its own window in the same
offset order whatever block holds it, which is also why row banding
cannot.

Two accumulation details are deliberate and load-bearing:

* Within each window row, the two contributions at columns -dx and +dx
  are multiplied out separately and summed, w1 + w2, before joining
  the running sums (dx = 0 joins alone). A horizontal mirror of all
  inputs swaps the two addends, and float addition of two terms is
  exactly commutative, so mirrored inputs produce exactly mirrored
  outputs instead of drifting by rounding.

* The raw quotient num/den can overshoot the contributor range by an
  ulp, so a tracked WindowSums keeps the min and max contributing
  depth (a non-contributor enters fmin/fmax as NaN, which they skip)
  and clamps the quotient. That makes the convex-combination guarantee
  exact rather than approximate, and it compounds through the fill
  stage: every filled value stays inside the range of the depths it
  was grown from. The fill passes and the *_pixel wrappers always
  track.

filter_non_hole defers the clamp on integer depth (_denoise): its
passes run untracked, keeping num and den only, and only the suspects,
the kept pixels whose quotient a clamp could move, run again tracked.
The bound: a valid center weighs exactly 1.0 (every kernel is 1 at
zero argument), so den >= 1 and num >= 1. num and den are sums of at
most n = (2r+1)**2 non-negative terms, in any order, so each carries a
relative error of at most about n*u (u = eps/2; Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., 4.2), and the quotient q
lies within (2n+2)*u*q of the exact convex combination of the
computed weights, which is inside [cmin, cmax]. Terms that underflow
add at most n * 2**-1075 more, nothing against num, den >= 1. So
q < cmin or q > cmax needs the integer cmin or cmax within that
distance of q, and |q - rint(q)| <= 4 * n * eps * q catches every
such pixel with room to spare. A kept pixel whose center is a hole
(only a library caller's labels put one there) lacks the den >= 1
floor of this argument, so it is a suspect too. The re-run addresses
the suspects by gather, which gives the dense run's bits, so the
deferred clamp moves no output bit either.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractViolation, require_int, require_real, require_same_shape
from .image_model import HOLE, ColorImage, DepthMap
from .edge_analysis import EdgeMap, NONHOLE_EDGE, NONHOLE_NONEDGE
from .kernels import (
    KernelParams,
    color_range_table,
    depth_range_table,
    depth_range_weight,
    rotated_weight,
    spatial_weight,
)

if TYPE_CHECKING:  # pipeline imports this module
    from .pipeline import PipelineConfig

# Output pixels per block of one window_sums call: 256 KiB per float64
# temporary, so a block's weight planes stay in L2 across its offsets.
BLOCK_PX = 32768

# Machine epsilon of float64, for the deferred clamp's suspect bound.
EPS = np.finfo(np.float64).eps


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


def _filter_at(op, p, depth: DepthMap, guide: ColorImage, params: KernelParams,
               valid=None, theta=None, **flavor) -> FilterOutcome:
    """Run window_sums on p as a 1x1 frame padded by r: the (2r+1)**2
    crop of the padded frames around p, which reads the sources of a
    whole-image run and so gives its bits. The directional flavor takes
    theta's cos and sin as scalars; valid of None means every non-hole
    pixel is a source and p must be one, else p must not be valid.
    Checks params, the frame sizes and p first; pads the whole frame."""
    params.validate()
    require_same_shape(depth=depth, guide=guide, **({} if valid is None else {"valid": valid}))
    y, x = p
    require_int("row", y, ge=0, lt=depth.samples.shape[0])
    require_int("col", x, ge=0, lt=depth.samples.shape[1])
    hole = depth.samples[y, x] == HOLE
    if valid is None and hole:
        raise ContractViolation(f"{op} requires a non-hole center, pixel ({y}, {x}) is a hole")
    if valid is not None and not hole and valid[y, x]:
        raise ContractViolation(f"{op} fills holes, pixel ({y}, {x}) is valid")
    r = params.window_radius
    win = (Ellipsis, slice(y, y + 2 * r + 1), slice(x, x + 2 * r + 1))
    usable = depth.samples != HOLE if valid is None else valid
    if theta is not None:
        flavor["cos_t"] = np.cos(theta)
        flavor["sin_t"] = np.sin(theta)
    acc = WindowSums((1, 1))
    window_sums(pad(depth.samples, r)[win], pad(usable, r, np.float64)[win],
                guide_planes(guide, r)[win], params, acc, 0, 1, **flavor)
    return FilterOutcome(float(acc.normalized()[0, 0]), float(acc.den[0, 0]),
                         int(acc.cnt[0, 0]))


def jbf_pixel(p, depth: DepthMap, guide: ColorImage, params: KernelParams) -> FilterOutcome:
    """Joint bilateral filter at p = (row, col): spatial x color range."""
    return _filter_at("jbf_pixel", p, depth, guide, params, iso_sigma=params.sigma_s)


def tjbf_pixel(p, depth: DepthMap, guide: ColorImage, params: KernelParams) -> FilterOutcome:
    """JBF with an extra depth range term (trilateral).

    The depth term compares the center depth with each neighbor, so
    neighbors across a depth discontinuity lose influence even when the
    guide colors agree.
    """
    return _filter_at("tjbf_pixel", p, depth, guide, params, iso_sigma=params.sigma_s,
                      depth_sigma=params.sigma_r_depth)


def djbf_pixel(p, depth: DepthMap, guide: ColorImage, theta: float,
               params: KernelParams) -> FilterOutcome:
    """JBF whose spatial term is the directional Gaussian at angle theta.

    theta comes from the edge map; the long axis (sigma_x) runs along
    the edge contour, so smoothing follows the edge instead of crossing
    it.
    """
    require_real("theta", theta, gt=-math.inf, lt=math.inf)
    return _filter_at("djbf_pixel", p, depth, guide, params, theta=theta)


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
    require_real("theta", theta, gt=-math.inf, lt=math.inf)
    return _filter_at("pdjbf_pixel", p, depth, guide, params, valid, theta)


class WindowSums:
    """Accumulator grids for one engine run: num and den, and, when
    tracked, the contributor count cnt and range cmin, cmax. An
    untracked run (track=False) keeps num and den only; cnt, cmin and
    cmax are None, and the engine skips their four passes per offset."""

    def __init__(self, shape, track=True):
        self.num = np.zeros(shape)
        self.den = np.zeros(shape)
        self.cnt = self.cmin = self.cmax = None
        if track:
            self.cnt = np.zeros(shape, dtype=np.int32)
            self.cmin = np.full(shape, np.inf)
            self.cmax = np.full(shape, -np.inf)

    def normalized(self) -> np.ndarray:
        """Weighted averages, clamped to the contributor range when
        tracked; 0.0 where nothing contributed."""
        some = self.den > 0
        vals = np.zeros_like(self.num)
        np.divide(self.num, self.den, out=vals, where=some)
        if self.cmin is not None:
            np.maximum(self.cmin, vals, out=vals)
            np.minimum(self.cmax, vals, out=vals)
            vals[~some] = 0.0
        return vals


def window_sums(depth: np.ndarray, validf: np.ndarray, planes, params: KernelParams,
                acc: WindowSums, row0: int, row1: int, *, iso_sigma=None,
                cos_t=None, sin_t=None, depth_sigma=None, targets=None) -> None:
    """Accumulate filter sums for output rows [row0, row1) of an h x w
    frame, whose depth, validf (1.0 where the source is usable, else
    0.0) and uint8 guide planes come padded by r = params.window_radius
    (pad, guide_planes). The pad's validity must be 0.0; its depth and
    color may be any finite values, for uint16 depth up to the interior
    maximum. One call covers one kernel flavor:
      iso_sigma set           isotropic spatial term
      cos_t/sin_t set         directional term, widths params.sigma_x /
                              params.sigma_y, at one scalar angle or
                              one per output: (h, w) for a dense call,
                              one per target for a target-set call
      depth_sigma set         additional depth range term
    A uint16 depth reads the depth term from depth_range_table, a float
    one evaluates depth_range_weight; both give the same bits on
    integer values. An untracked acc gets num and den only.

    targets of None evaluates every pixel of the band into (h, w)
    grids; else only the band's pixels among the sorted flat indices
    targets (y * w + x), into one acc entry per target. acc is written
    in place, only for the band, so concurrent calls on disjoint bands
    are safe. Sources are read from the whole frame; neither banding
    nor the target set changes a single output bit, and neither does the
    split into blocks of BLOCK_PX.
    """
    r = params.window_radius
    table = color_range_table(params.sigma_r_color)
    track = acc.cmin is not None
    dtable = None
    if depth_sigma is not None and depth.dtype == np.uint16:
        dtable = depth_range_table(depth_sigma, int(depth.max()) + 1)
    for out, at in _blocks(r, row0, row1, (planes, depth, validf), targets):
        cpl, cd, _ = at(0, 0)
        cc, cs = (a if _scalar(a) else a[out] for a in (cos_t, sin_t))
        for dy in range(-r, r + 1):
            for adx in range(r + 1):
                sides = []
                for dx in (-adx, adx) if adx else (0,):
                    spl, dq, gate = at(dy, dx)
                    dist2 = np.subtract(cpl, spl, dtype=np.int32)
                    dist2 *= dist2
                    dist2[0] += dist2[1]
                    dist2[0] += dist2[2]
                    wgt = table.take(dist2[0])
                    if iso_sigma is not None:
                        wgt *= spatial_weight(dx, dy, iso_sigma)
                    else:
                        wgt *= rotated_weight(dx, dy, cc, cs, params.sigma_x, params.sigma_y)
                    if dtable is not None:
                        diff = np.subtract(cd, dq, dtype=np.int32)
                        wgt *= dtable.take(np.abs(diff, out=diff))
                    elif depth_sigma is not None:
                        wgt *= depth_range_weight(cd, dq, depth_sigma)
                    wgt *= gate
                    if track:
                        contrib = wgt > 0
                        acc.cnt[out] += contrib
                        tracked = np.where(contrib, dq, np.nan)
                        np.fmin(acc.cmin[out], tracked, out=acc.cmin[out])
                        np.fmax(acc.cmax[out], tracked, out=acc.cmax[out])
                    sides.append((wgt, dq))
                wgt, dq = sides[0]
                if adx:
                    w2, d2 = sides[1]
                    acc.den[out] += wgt + w2
                    wgt *= dq
                    w2 *= d2
                    wgt += w2
                else:
                    acc.den[out] += wgt
                    wgt *= dq
                acc.num[out] += wgt


def _blocks(r, row0, row1, frames, targets):
    """Split rows [row0, row1) into blocks of at most BLOCK_PX output
    pixels: whole rows for slice addressing, consecutive targets for
    gather addressing. Yields each block's acc slice and at(dy, dx),
    which returns the frames at offset (dy, dx) of the block's outputs."""
    w = frames[-1].shape[1] - 2 * r
    if targets is None:
        step = max(1, BLOCK_PX // w)
        for b0 in range(row0, row1, step):
            b1 = min(b0 + step, row1)
            yield slice(b0, b1), partial(_rows_at, frames, r, w, b0, b1)
    else:
        wp = w + 2 * r
        flat = [a.reshape(a.shape[:-2] + (-1,)) for a in frames]
        i0, i1 = np.searchsorted(targets, (row0 * w, row1 * w))
        for j0 in range(i0, i1, BLOCK_PX):
            j1 = min(j0 + BLOCK_PX, i1)
            t = targets[j0:j1]
            tp = t + (t // w) * (2 * r) + r * (wp + 1)  # (y + r) * wp + x + r
            yield slice(j0, j1), partial(_flat_at, flat, tp, wp)


def _rows_at(frames, r, w, b0, b1, dy, dx):
    """Slice addressing: the frames at offset (dy, dx) of rows [b0, b1), as views."""
    index = (Ellipsis, slice(r + b0 + dy, r + b1 + dy), slice(r + dx, r + dx + w))
    return [a[index] for a in frames]


def _flat_at(flat, tp, wp, dy, dx):
    """Gather addressing: the flat frames at offset (dy, dx) of padded flat indices tp."""
    return [a.take(tp + (dy * wp + dx), axis=-1) for a in flat]


def _scalar(a):
    """True for a missing angle or a 0-d one (one angle for the call)."""
    return a is None or np.ndim(a) == 0


def pad(a, r, dtype=None):
    """a with r zeros on every side of its last two axes, as a new
    C-contiguous array of dtype (default a's): the frame layout
    window_sums reads, in which every exterior source weighs +0.0."""
    h, w = a.shape[-2:]
    out = np.zeros(a.shape[:-2] + (h + 2 * r, w + 2 * r), dtype or a.dtype)
    out[..., r:r + h, r:r + w] = a
    return out


def interior(a, r):
    """The image inside a frame padded by r, as a view."""
    return a[..., r:a.shape[-2] - r, r:a.shape[-1] - r]


def guide_planes(guide: ColorImage, r: int) -> np.ndarray:
    """The guide as one (3, h + 2r, w + 2r) uint8 stack of channel
    planes padded by r (pad), so each plane's rows are contiguous.

    It stays uint8 because window_sums takes the squared color
    distance in int32, which is exact, and looks the weight up in
    kernels.color_range_table; a float64 stack would be 8x the memory
    and every distance a float pass."""
    return pad(np.moveaxis(guide.samples, -1, 0), r)


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


def available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_banded(height: int, threads: int, job) -> None:
    """Run job(row0, row1) over `threads` row bands, or one per
    available CPU when threads is 0, threaded when there are several,
    on at most one OS thread per available CPU."""
    bands = row_bands(height, threads or available_cpus())
    if len(bands) == 1:
        job(*bands[0])
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(len(bands), available_cpus())) as pool:
        list(pool.map(lambda b: job(*b), bands))


def filter_non_hole(depth: DepthMap, guide: ColorImage, labels: np.ndarray,
                    edges: EdgeMap, cfg: PipelineConfig) -> DepthMap:
    """Denoise every non-hole pixel with its region's filter.

    Non-edge region pixels get the trilateral filter; edge region
    pixels get the directional filter steered by their own edge-map
    theta. Hole pixels pass through as sentinel 0. Every output is
    computed from the original input map, never from freshly filtered
    neighbors, so results are independent of evaluation order and of
    the thread count.

    With cfg.isotropic_only both regions get the plain isotropic JBF
    (no depth term) instead; this is the ablation arm for measuring
    what the directional kernel buys. Either arm makes the same two
    passes, dense and over the edge region; only their flavors differ.

    cfg is validated, and every frame must have the depth's size.
    """
    cfg.validate()
    require_same_shape(depth=depth, guide=guide, labels=labels, theta=edges.theta)
    params = cfg.kernel
    d = depth.samples
    kept = labels == NONHOLE_NONEDGE
    edge_px = np.flatnonzero(labels == NONHOLE_EDGE)
    if cfg.isotropic_only:
        nonedge = edge = {"iso_sigma": params.sigma_s}
    else:
        theta = edges.theta.flat[edge_px]
        nonedge = {"iso_sigma": params.sigma_s, "depth_sigma": params.sigma_r_depth}
        edge = {"cos_t": np.cos(theta), "sin_t": np.sin(theta)}
    dense, gathered = _denoise(d, guide_planes(guide, params.window_radius), params,
                               cfg.threads, [(None, kept, nonedge), (edge_px, None, edge)])
    out = np.where(kept, dense, d)
    out.flat[edge_px] = gathered
    return DepthMap(out)


def _denoise(d, planes, params, threads, passes):
    """Run filter_non_hole's passes over depth d in one set of row bands
    and return each pass's clamped weighted averages.

    planes is the padded guide. A pass is (targets, kept, flavor): the
    window_sums target set (None for every pixel), the (h, w) mask of
    outputs the caller keeps (None for every target) and the flavor
    keywords. On integer depth the passes run untracked on a uint16
    copy, and only the suspects among the kept outputs (see the module
    doc for the bound) run again, tracked, to be clamped; other depth
    runs tracked throughout. Integrality is decided here, once per
    frame, and each padded frame is built once for all the runs.
    """
    h = d.shape[0]
    r = params.window_radius
    validf = pad(d != HOLE, r, np.float64)
    # DepthMap holds [0, 65535], so the copy is exact where d is integer.
    src = pad(d, r, np.uint16)
    integer = np.array_equal(interior(src, r), d)
    if not integer:
        src = pad(d, r)
    accs = [WindowSums(d.shape if t is None else t.shape, track=not integer)
            for t, _, _ in passes]

    def band(r0, r1):
        for acc, (targets, _, flavor) in zip(accs, passes):
            window_sums(src, validf, planes, params, acc, r0, r1, targets=targets, **flavor)

    run_banded(h, threads, band)
    results = [acc.normalized() for acc in accs]
    accs.clear()  # free num and den before the suspect test's temporaries
    if not integer:
        return results
    tol = 4 * (2 * r + 1) ** 2 * EPS
    for q, (targets, kept, flavor) in zip(results, passes):
        q = q.reshape(-1)
        off = np.rint(q)
        off -= q
        np.abs(off, out=off)
        suspect = off <= q * tol
        suspect |= (d.reshape(-1) if targets is None else d.flat[targets]) == HOLE
        if kept is not None:
            suspect &= kept.reshape(-1)
        at = np.flatnonzero(suspect)
        if at.size:
            fix = WindowSums(at.shape)
            # A per-output angle follows its outputs into the re-run.
            flavor = {k: v if _scalar(v) else v.reshape(-1)[at] for k, v in flavor.items()}
            window_sums(src, validf, planes, params, fix, 0, h,
                        targets=at if targets is None else targets[at], **flavor)
            q[at] = fix.normalized()
    return results
