"""Depth filters: one vectorized window engine and per-pixel wrappers.

Four filters share one structure: a weighted average of neighbor
depths inside a square window, with weights that are products of a
spatial (or directional) Gaussian, a color range Gaussian on the guide
image, and optionally a depth range Gaussian. Hole neighbors always
get weight zero; a sentinel is not a measurement.

`window_sums` is the one engine: it iterates window rows and, per
row, weighs and accumulates a whole set of output pixels at once.
Each of its four weight terms comes from kernels.py (spatial_weight
or rotated_weight, color_range_table, depth_range_table or
depth_range_weight), so every formula is written once, and the *_pixel
functions run the engine on their pixel as a 1x1 frame.

The color term is a lookup, not an evaluation. The guide reaches the
engine as a uint8 stack (guide_planes), so the squared RGB distance is
an integer from 0 to 3 * 255**2. The engine subtracts the planes in
int16 and squares in place; 255**2 = 65025 wraps there but reads back
exactly as uint16, and the three squares sum into int32. It reads the
weight from kernels.color_range_table, whose entries are
color_range_weight's own float64 expression. The float64 distance it
replaces was exact too (a sum of three integer squares), so a lookup
returns the very bits the kernel would. The other weight factors are
multiplied into the looked-up plane in place, in the order ws * wc *
wd * gate that the kernels define; a product of two doubles is exactly
commutative, so doing it in place moves no bit. The depth term is a
lookup too when the depth reaches the engine unsigned (uint16, or
uint32 for the sentinel of depth above 32766), which filter_non_hole
does whenever every sample is an integer (always, for a depth read
from a PGM: closing only takes windowed max/min of samples):
kernels.depth_range_table holds depth_range_weight's bits for every
|dp - dq|. Float depth still runs depth_range_weight.
tests/oracles.py holds the float64 body as ref_window_sums, and a
hypothesis test pins the engine to it.

Every frame the engine reads comes padded by r = window_radius on
every side (pad, guide_planes): color 0 and depth HOLE (or the
sentinel, below), the constant_exterior boundary of Halide
(Ragan-Kelley et al., PLDI 2013). The pad reads as holes, so an
exterior source weighs exactly +0.0, and adding +0.0 to sums that are
never below +0.0 leaves their bits: no offset needs to know where the
image ends. One body weighs and accumulates, on arrays whose leading
axis is the sides (offsets) of one window row, from one of two
addressings:

* Slice addressing, for every pixel of a row band: a side is one
  fixed-shape view of each padded frame, and the body weighs one side
  per array op. The dense denoise pass uses it; views are free, gathers
  there measured 2x slower, and a row of 2r + 1 sides as one strided
  view measured slower still.

* Gather addressing, for a sorted set of flat target indices: the
  denoise pass on nonhole_edge pixels, its suspect re-runs, and each
  fill pass on the holes with a valid pixel in reach (the narrow band
  of Telea's 2004 fast-marching inpainting). A block maps its targets
  to padded flat indices once, and per window row one index add makes
  the (2r + 1, targets) source indices of all the row's sides and two
  takes gather their colors and depths; the body then weighs the whole
  row per array op. A call's cost below a few thousand targets is its
  number of numpy calls, not its pixel count, and a row per op makes
  about a fifth as many as a side per op at r = 5.

Either way a call walks its band in blocks and runs every window row
on one block before the next, so the temporaries stay cache-sized
instead of spanning the band: at VGA a band-wide temporary is 2.4 MB,
a block's at most BLOCK_PX entries, 256 KiB. A slice block is whole
rows of at most BLOCK_PX outputs, a gather block BLOCK_PX // (2r + 1)
consecutive targets, so that a row's 2r + 1 sides fit the same
BLOCK_PX entries. This is the tile-at-a-time schedule Halide applies
to stencils. It cannot change a bit: each output pixel's sums run over
its own window in the same offset order whatever block holds it, which
is also why row banding cannot. Each block temporary dies at its last
reader: the sides of one op (one side of a slice, a gathered row) are
weighed in their own function, which frees their source colors once
they are squared, the squares once they are summed, the squared
distance once the color table has read it and the depth difference
once the depth table has; their tracking masks die when it returns,
and only their weights and source depths wait for the pair sums,
which die once num has read them. So a slice block holds one side's
temporaries at a time, not both sides' and the previous offset's too,
and a gather block one row's.

The engine finishes each block itself. A block's num is its slice of
the caller's output; its den, and its contributor range when tracked,
are block-sized and local. After the block's last offset the engine
divides where den > 0, clamps when tracked, and writes 0.0 where
nothing contributed, so the caller's output is the only frame-sized
array a call writes. A caller that reads the weight sums or the
contributor counts (the per-pixel wrappers' FilterOutcome) hands the
engine a den or cnt of its own to write them into; no other caller
keeps a frame of them.

The depth frame is the one record of which sources are usable: a call
gets the value a hole holds there (HOLE on float depth) and gates with
wgt *= dq != hole, which keeps a weight's bits or makes it +0.0 (every
weight is finite and at least +0.0). On integer depth filter_non_hole
hands the engine one unsigned frame in which every hole and the whole
pad ring hold the hole value S = 2 * M, M = max depth + 1. With a depth
term the table gates instead: every valid depth is below M, so a valid
center and a hole source differ by at least M, and depth_range_table
is exactly 0.0 from S // 2 = M on. A hole source then weighs +0.0
and adds +0.0 to den and 0 * S = +0.0 to num, as the gate would.

Two accumulation details are deliberate and load-bearing:

* Within each window row, the two contributions at columns -dx and +dx
  are multiplied out separately and summed, w1 + w2, before joining
  the running sums (dx = 0 joins alone). A horizontal mirror of all
  inputs swaps the two addends, and float addition of two terms is
  exactly commutative, so mirrored inputs produce exactly mirrored
  outputs instead of drifting by rounding. A gathered row takes all r
  pair sums in one op, w[r-1::-1] + w[r+1:] along its sides, and adds
  them into the running sums one explicit add at a time, the centre
  first, then a = 1..r: np.add.reduce over 8 or more terms sums them
  pairwise, which would reorder the additions.

* The raw quotient num/den can overshoot the contributor range by an
  ulp, so a tracked call keeps each block's min and max contributing
  depth (a non-contributor enters fmin/fmax as NaN, which they skip;
  a gathered row is reduced along its sides first, which is exact in
  any order) and clamps the quotient. That makes the
  convex-combination guarantee exact rather than approximate, and it
  compounds through the fill stage: every filled value stays inside
  the range of the depths it was grown from. The fill passes and the *_pixel wrappers always
  track.

filter_non_hole defers the clamp on integer depth: its passes run
untracked, keeping no contributor range, and only the suspects, the kept
pixels whose quotient a clamp could move, run again tracked.
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
such pixel with room to spare. The labels contract
(errors.require_labels) puts no kept output on a hole, so the floor
holds for every one. A pass's re-run is its own call, tracked, with
the suspects as targets: the same frame, gate and tables, addressed by
gather, which gives the dense run's bits, so the deferred clamp moves
no output bit either.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ContractViolation, require_int, require_labels, require_real, require_same_shape,
    require_type)
from .image_model import HOLE, ColorImage, DepthMap, interior, pad, padded_flat
from .edge_analysis import EdgeMap, NONHOLE_EDGE, NONHOLE_NONEDGE
from .kernels import (
    KernelParams,
    color_range_table,
    depth_range_table,
    depth_range_weight,
    rotated_weight,
    spatial_weight,
    steering,
)

if TYPE_CHECKING:  # pipeline imports this module
    from .pipeline import PipelineConfig

# Entries per temporary of one window_sums block, 256 KiB in float64,
# so a block's weight planes stay in L2 across its window rows: whole
# rows of at most BLOCK_PX outputs for slice addressing, BLOCK_PX // (2r + 1)
# targets for gather addressing, which weighs a row's 2r + 1 sides at once.
BLOCK_PX = 32768

# Machine epsilon of float64, for the deferred clamp's suspect bound.
EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class FilterOutcome:
    """Result of one per-pixel filter evaluation.

    value is the normalized weighted average (0.0 when nothing
    contributed); weight_sum the unnormalized denominator; contributors
    the number of neighbors with nonzero weight. weight_sum == 0 and
    contributors == 0 happen together and mean that no non-hole pixel
    of the window weighed above zero, which only a hole center
    (pdjbf_pixel) can meet: a non-hole center weighs 1.0.
    """

    value: float
    weight_sum: float
    contributors: int


def _filter_at(op, p, depth: DepthMap, guide: ColorImage, params: KernelParams,
               theta=None, depth_term=False, fills=False) -> FilterOutcome:
    """Run window_sums on p as a 1x1 frame padded by r: the (2r+1)**2
    crop of the padded frames around p, which reads the sources of a
    whole-image run and so gives its bits. The spatial term is the
    isotropic one for a theta of None, else the directional one steered
    by theta, one angle the wrapper has checked; depth_term adds the
    depth range term. The sources are the non-hole pixels of depth, and
    p must be a hole exactly when the wrapper fills (pdjbf_pixel).
    Checks the argument types, the frame sizes and p first; pads the
    whole frame."""
    require_type("depth", depth, DepthMap)
    require_type("guide", guide, ColorImage)
    require_type("params", params, KernelParams)
    flavor = {"iso_sigma": params.sigma_s} if theta is None else steering(theta)
    if depth_term:
        flavor["depth_sigma"] = params.sigma_r_depth
    require_same_shape(depth=depth, guide=guide)
    try:
        y, x = p
    except (TypeError, ValueError):
        raise ContractViolation(f"p must be a (row, col) pair, got {p!r}") from None
    require_int("row", y, ge=0, lt=depth.samples.shape[0])
    require_int("col", x, ge=0, lt=depth.samples.shape[1])
    if (depth.samples[y, x] == HOLE) != fills:
        raise ContractViolation(f"{op} requires {'a hole' if fills else 'a non-hole'} "
                                f"center, pixel ({y}, {x}) is not one")
    r = params.window_radius
    win = (Ellipsis, slice(y, y + 2 * r + 1), slice(x, x + 2 * r + 1))
    val, den, cnt = np.empty((1, 1)), np.empty((1, 1)), np.empty((1, 1), np.int32)
    window_sums(pad(depth.samples, r)[win], HOLE, guide_planes(guide, r)[win], params, val,
                0, 1, den=den, cnt=cnt, **flavor)
    return FilterOutcome(float(val[0, 0]), float(den[0, 0]), int(cnt[0, 0]))


def jbf_pixel(p, depth: DepthMap, guide: ColorImage, params: KernelParams) -> FilterOutcome:
    """Joint bilateral filter at p = (row, col): spatial x color range."""
    return _filter_at("jbf_pixel", p, depth, guide, params)


def tjbf_pixel(p, depth: DepthMap, guide: ColorImage, params: KernelParams) -> FilterOutcome:
    """JBF with an extra depth range term (trilateral).

    The depth term compares the center depth with each neighbor, so
    neighbors across a depth discontinuity lose influence even when the
    guide colors agree.
    """
    return _filter_at("tjbf_pixel", p, depth, guide, params, depth_term=True)


def djbf_pixel(p, depth: DepthMap, guide: ColorImage, theta: float,
               params: KernelParams) -> FilterOutcome:
    """JBF whose spatial term is the directional Gaussian at angle theta.

    theta comes from the edge map; the long axis (sigma_x) runs along
    the edge contour, so smoothing follows the edge instead of crossing
    it.
    """
    require_real("theta", theta, gt=-math.inf, lt=math.inf)
    return _filter_at("djbf_pixel", p, depth, guide, params, theta=theta)


def pdjbf_pixel(p, depth: DepthMap, guide: ColorImage, theta: float,
                params: KernelParams) -> FilterOutcome:
    """Directional filter for a hole pixel p, summing over the non-hole
    pixels of depth only.

    There is no depth range term: the center has no depth to compare
    against. p must be a hole; a caller who wants fewer sources sets
    them to HOLE in the depth first. A window with no source returns
    weight_sum 0 and contributors 0; the caller retries the pixel on a
    later pass rather than treating this as an error.
    """
    require_real("theta", theta, gt=-math.inf, lt=math.inf)
    return _filter_at("pdjbf_pixel", p, depth, guide, params, theta=theta, fills=True)


def window_sums(depth: np.ndarray, hole, planes, params: KernelParams,
                out: np.ndarray, row0: int, row1: int, *, track=True, den=None, cnt=None,
                iso_sigma=None, cos_t=None, sin_t=None, depth_sigma=None,
                targets=None) -> None:
    """Write the weighted averages of output rows [row0, row1) of an
    h x w frame into out, whose depth and uint8 guide planes come padded
    by r = params.window_radius (pad, guide_planes). hole is the value an
    unusable source holds in depth: HOLE on a float frame, the sentinel
    S on an unsigned one (module doc). Every other depth is a usable
    source. The pad's depth must be hole; its color may be any value.
    On an unsigned frame every usable depth must be below S // 2, so
    that a call with depth_sigma weighs every hole source +0.0 through
    its depth table; every other call weighs a source +0.0 where its
    depth is hole. One call covers one kernel flavor:
      iso_sigma set           isotropic spatial term
      cos_t/sin_t set         directional term, widths params.sigma_x /
                              params.sigma_y, at one scalar angle or
                              one per output: (h, w) for a dense call,
                              one per target for a target-set call
      depth_sigma set         additional depth range term
    An unsigned depth reads the depth term from depth_range_table, a float
    one evaluates depth_range_weight; both give the same bits on
    integer values.

    An average is num / den where den > 0, clamped into the range of its
    contributing depths when track is set, and 0.0 where nothing
    contributed. num, den and the range are local to a block, except
    that num is the block's slice of out. A caller that reads the weight
    sums or the contributor counts passes den (float64) or cnt (an
    integer array), shaped like out, and the engine writes them too.

    targets of None evaluates every pixel of the band into (h, w)
    arrays; else only the band's pixels among the sorted flat indices
    targets (y * w + x), into one entry per target, weighing a whole
    window row per array op. out, den and cnt are written in place, only
    for the band, so concurrent calls on disjoint bands are safe. Sources
    are read from the whole frame; neither banding nor the target set
    changes a single output bit, and neither does the split into blocks
    (BLOCK_PX).
    """
    r = params.window_radius
    table = color_range_table(params.sigma_r_color)
    dtable = None
    if depth_sigma is not None and depth.dtype.kind == "u":
        dtable = depth_range_table(depth_sigma, hole)
    span = range(-r, r + 1)
    grid = None  # the scalar kernel's own value at each offset, [dy + r, dx + r]
    if iso_sigma is not None:
        grid = np.array([[spatial_weight(dx, dy, iso_sigma) for dx in span] for dy in span])
    elif _scalar(cos_t):
        grid = np.array([[rotated_weight(dx, dy, cos_t, sin_t, params.sigma_x, params.sigma_y)
                          for dx in span] for dy in span])
    dxf = np.arange(-r, r + 1.0)
    for blk, at in _blocks(r, row0, row1, (planes, depth), targets):
        for a in (out, den, cnt):
            if a is not None:
                a[blk] = 0
        num = out[blk]
        wsum = np.zeros(num.shape) if den is None else den[blk]
        if track:
            cmin = np.full(num.shape, np.inf)
            cmax = np.full(num.shape, -np.inf)
        cpl, cd = at(0, slice(r, r + 1))
        cc, cs = (a if _scalar(a) else a[blk] for a in (cos_t, sin_t))
        side = (-1,) + (1,) * num.ndim  # a column along the leading axis of sides

        def weigh(dy, cols):
            """The weights and source depths of the sides at window row dy
            and columns cols (a slice of dx = -r..r), with a leading axis of
            sides, counted and tracked; every other temporary of the sides
            dies at its last reader."""
            spl, dq = at(dy, cols)
            # 255**2 wraps in int16 but reads back exactly as uint16.
            sq = np.subtract(cpl, spl, dtype=np.int16)
            del spl
            sq *= sq
            sq = sq.view(np.uint16)
            dist2 = np.add(sq[0], sq[1], dtype=np.int32)
            dist2 += sq[2]
            del sq
            wgt = table.take(dist2)
            del dist2
            if grid is not None:
                wgt *= grid[dy + r, cols].reshape(side)
            else:
                wgt *= rotated_weight(dxf[cols].reshape(side), dy, cc, cs, params.sigma_x,
                                      params.sigma_y)
            if dtable is not None:
                diff = np.subtract(cd, dq, dtype=np.int32)
                wd = dtable.take(np.abs(diff, out=diff))
                del diff
                wgt *= wd
            else:
                if depth_sigma is not None:
                    wgt *= depth_range_weight(cd, dq, depth_sigma)
                wgt *= dq != hole
            if cnt is not None:
                cnt[blk] += np.count_nonzero(wgt, axis=0)
            if track:
                tracked = np.where(wgt > 0, dq, np.nan)
                np.fmin(cmin, np.fmin.reduce(tracked, axis=0), out=cmin)
                np.fmax(cmax, np.fmax.reduce(tracked, axis=0), out=cmax)
            return wgt, dq

        def row(dy):
            """Window row dy as (w1, d1, w2, d2) stacks of sides: the centre
            alone (w2 and d2 None), then the pairs at -a and +a, a = 1..r.
            A gather weighs the whole row at once, a slice one side at a
            time."""
            if targets is not None:
                wgt, dq = weigh(dy, slice(None))
                yield wgt[r:r + 1], dq[r:r + 1], None, None
                yield wgt[r - 1::-1], dq[r - 1::-1], wgt[r + 1:], dq[r + 1:]
                return
            yield *weigh(dy, slice(r, r + 1)), None, None
            for a in range(1, r + 1):
                yield *weigh(dy, slice(r - a, r - a + 1)), *weigh(dy, slice(r + a, r + a + 1))

        for dy in span:
            for w1, d1, w2, d2 in row(dy):
                _add_each(wsum, w1 if w2 is None else w1 + w2)
                w1 *= d1
                if w2 is not None:
                    w2 *= d2
                    w1 += w2
                del w2, d2
                _add_each(num, w1)
                del w1, d1
        some = wsum > 0
        np.divide(num, wsum, out=num, where=some)
        if track:
            np.maximum(cmin, num, out=num)
            np.minimum(cmax, num, out=num)
        num[~some] = 0.0


def _add_each(acc, terms):
    """acc += terms[0], then terms[1], ...: one explicit add per side, in
    order, where np.add.reduce over 8 or more terms would sum pairwise."""
    for t in terms:
        acc += t


def _blocks(r, row0, row1, frames, targets):
    """Split rows [row0, row1) into blocks: whole rows of at most BLOCK_PX
    output pixels for slice addressing, runs of BLOCK_PX // (2r + 1)
    consecutive targets for gather addressing, so that a window row of
    2r + 1 sides spans at most BLOCK_PX entries. Yields each block's
    output slice and at(dy, cols), which returns the frames at window row
    dy and columns cols (a slice of dx = -r..r) of the block's outputs,
    with a leading axis of sides after the planes' channel axis."""
    w = frames[1].shape[1] - 2 * r
    if targets is None:
        step = max(1, BLOCK_PX // w)
        for b0 in range(row0, row1, step):
            b1 = min(b0 + step, row1)
            yield slice(b0, b1), partial(_rows_at, frames, r, w, b0, b1)
    else:
        wp = w + 2 * r
        dx = np.arange(-r, r + 1)[:, None]
        flat = [a.reshape(a.shape[:-2] + (-1,)) for a in frames]
        i0, i1 = np.searchsorted(targets, (row0 * w, row1 * w))
        step = max(1, BLOCK_PX // (2 * r + 1))
        for j0 in range(i0, i1, step):
            j1 = min(j0 + step, i1)
            t = targets[j0:j1]
            yield slice(j0, j1), partial(_flat_at, flat, padded_flat(t, w, r), wp, dx)


def _rows_at(frames, r, w, b0, b1, dy, cols):
    """Slice addressing: the frames at offset (dy, cols.start - r) of rows
    [b0, b1), one side, as views."""
    index = (Ellipsis, None, slice(r + b0 + dy, r + b1 + dy), slice(cols.start, cols.start + w))
    return [a[index] for a in frames]


def _flat_at(flat, tp, wp, dx, dy, cols):
    """Gather addressing: the flat frames at window row dy and columns cols
    of padded flat indices tp, gathered by one (sides, targets) index
    array; dx is the column of the window's offsets -r..r."""
    at = tp + (dy * wp + dx[cols])
    return [a.take(at, axis=-1) for a in flat]


def _scalar(a):
    """True for a missing angle or a 0-d one (one angle for the call)."""
    return a is None or np.ndim(a) == 0


def guide_planes(guide: ColorImage, r: int) -> np.ndarray:
    """The guide as one (3, h + 2r, w + 2r) uint8 stack of channel
    planes padded by r (pad), so each plane's rows are contiguous.

    It stays uint8 because window_sums takes the squared color
    distance exactly in int16 and int32 and looks the weight up in
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
    theta, whose cos and sin (steering) are taken at those pixels only,
    once the dense pass is done. Hole pixels come out as HOLE. Every
    output is computed from the original input map, never from freshly
    filtered neighbors, so results are independent of evaluation order
    and of the thread count.

    With cfg.isotropic_only both regions get the plain isotropic JBF
    (no depth term) instead; this is the ablation arm for measuring
    what the directional kernel buys. Either arm makes the same two
    passes (_run_pass), dense and over the edge region; only their
    flavors differ.

    The depth is padded once for both passes: integer depth into the
    sentinel frame (module doc), on which each pass runs untracked and
    re-runs its suspects tracked; other depth into a float copy whose
    holes and pad ring read HOLE, on which the passes run tracked.

    The output frame is the dense pass's averages, with HOLE where they
    are not kept and the edge pass's values at their pixels; under the
    labels contract the other pixels are the input's holes. depth is
    dropped once its samples are read and they once padded, so a map the
    caller handed over as a call's value (restore does) dies there; a
    map the caller keeps is never written.

    Every frame must have the depth's size, and labels must be region
    labels whose hole labels mark exactly the depth's holes
    (errors.require_labels), so no kept output is centred on a hole.
    """
    from .pipeline import PipelineConfig  # pipeline imports this module

    require_type("depth", depth, DepthMap)
    require_type("guide", guide, ColorImage)
    require_type("edges", edges, EdgeMap)
    require_type("cfg", cfg, PipelineConfig)
    require_same_shape(depth=depth, guide=guide, labels=labels, theta=edges.theta)
    require_labels(labels, depth)
    params = cfg.kernel
    r = params.window_radius
    kept = labels == NONHOLE_NONEDGE
    edge_px = np.flatnonzero(labels == NONHOLE_EDGE)
    if cfg.isotropic_only:
        nonedge = {"iso_sigma": params.sigma_s}
    else:
        nonedge = {"iso_sigma": params.sigma_s, "depth_sigma": params.sigma_r_depth}
    d = depth.samples
    del depth
    planes = guide_planes(guide, r)
    h, w = d.shape
    # DepthMap holds [0, 65535], so the cast is exact where d is integer;
    # every valid depth is below m, and the sentinel s = 2 * m fits in
    # uint16 up to depth 32766.
    m = int(d.max()) + 1
    s = 2 * m
    src = np.full((h + 2 * r, w + 2 * r), s, np.uint16 if s <= 65535 else np.uint32)
    inner = interior(src, r)
    inner[...] = d
    integer = np.array_equal(inner, d)
    if integer:
        inner[d == HOLE] = s
    else:
        src, s = pad(d, r), HOLE
    del d, inner  # on float depth, inner alone keeps the unsigned frame alive
    run = partial(_run_pass, partial(window_sums, src, s, planes, params), (h, w), cfg.threads,
                  4 * (2 * r + 1) ** 2 * EPS if integer else None)
    out = run(None, kept, nonedge)
    out[~kept] = HOLE
    out.flat[edge_px] = run(edge_px, None,
                            nonedge if cfg.isotropic_only else steering(edges.theta.flat[edge_px]))
    return DepthMap(out)


def _run_pass(run, shape, threads, tol, targets, kept, flavor):
    """One filter_non_hole pass over an h x w = shape frame: run, which is
    window_sums on the padded frames, in row bands over targets (None
    for every pixel) with the flavor keywords. Returns the pass's
    clamped weighted averages, the one frame-sized array the engine
    writes (its den and range are block-sized). tol of None runs the
    pass tracked. Else it runs untracked, and the suspects among its
    kept outputs (kept is an (h, w) mask, or None for every target),
    those within tol of an integer (module doc), run again through the
    pass's own call, tracked, with the suspects as targets.
    """
    h = shape[0]
    q = np.empty(shape if targets is None else targets.shape)
    run_banded(h, threads, partial(run, q, targets=targets, track=tol is None, **flavor))
    if tol is None:
        return q
    flat = q.reshape(-1)
    suspect = _near_integer(flat, tol)
    if kept is not None:
        suspect &= kept.reshape(-1)
    at = np.flatnonzero(suspect)
    if at.size:
        fix = np.empty(at.shape)
        # A per-output angle follows its outputs into the re-run.
        flavor = {k: v if _scalar(v) else v.reshape(-1)[at] for k, v in flavor.items()}
        run(fix, 0, h, targets=at if targets is None else targets[at], **flavor)
        flat[at] = fix
    return q


def _near_integer(q, tol):
    """|rint(q) - q| <= q * tol for the flat array q, as a bool array,
    taken BLOCK_PX entries at a time so its temporaries stay
    block-sized."""
    out = np.empty(q.shape, bool)
    for j in range(0, q.size, BLOCK_PX):
        qb = q[j:j + BLOCK_PX]
        off = np.rint(qb)
        off -= qb
        np.abs(off, out=off)
        np.less_equal(off, qb * tol, out=out[j:j + BLOCK_PX])
    return out
