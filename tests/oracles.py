"""Independent reference implementations used by the tests.

Everything here is deliberately written the slow, obvious way, from
the published definitions, sharing no code or expression structure
with the package: plain double loops over clamped index ranges,
math.exp instead of numpy ufuncs, skipping invalid pixels instead of
multiplying by a gate. Agreement between these and the package is the
point of the tests, so resist any urge to "reuse" package helpers
here.

ref_window_sums is the one exception, on purpose: it is the window
engine's float64 weight body as it stood before the guide became a
uint8 stack and the color weight a table lookup, frozen as a dense,
unblocked numpy loop. The package must keep matching it bit for bit,
so it repeats the package's expressions and accumulation order
exactly instead of restating the definitions. ref_nearest_edge_theta
is another: the full-grid nearest-edge angle, frozen the same way
when the package's version came to take a target set. The front end's
expressions are frozen too, before they came to build their results in
place: ref_to_grayscale, ref_sobel_gradients and ref_edge_theta repeat
the package's expressions as they stood, each a chain of whole-array
temporaries. ref_rotated_weight freezes the array-angle form of
kernels.rotated_weight the same way; the package keeps that expression,
and the oracle pins any rewrite of it.
"""

import math

import numpy as np

MASK64 = (1 << 64) - 1


def brute_filter(kind, y, x, depth, valid, colors, theta, *, radius,
                 sigma_s=3.0, sigma_rc=25.0, sigma_rd=30.0,
                 sigma_x=5.0, sigma_y=1.5):
    """Naive weighted-average filter at (y, x); returns (value, wsum, n).

    kind is one of jbf / tjbf / djbf / pdjbf. depth is a 2-D array,
    valid a boolean grid of usable source pixels, colors an (h, w, 3)
    array, theta the orientation used by the directional kinds.
    """
    h = len(depth)
    w = len(depth[0])
    num = 0.0
    den = 0.0
    n = 0
    directional = kind in ("djbf", "pdjbf")
    ct = math.cos(theta)
    st = math.sin(theta)
    cp = colors[y][x]
    for qy in range(max(0, y - radius), min(h - 1, y + radius) + 1):
        for qx in range(max(0, x - radius), min(w - 1, x + radius) + 1):
            if not valid[qy][qx]:
                continue
            dx = qx - x
            dy = qy - y
            if directional:
                xr = dx * ct + dy * st
                yr = dy * ct - dx * st
                ws = math.exp(-(xr * xr / (sigma_x * sigma_x)
                                + yr * yr / (sigma_y * sigma_y)) / 2.0)
            else:
                ws = math.exp(-(dx * dx + dy * dy) / (2.0 * sigma_s * sigma_s))
            cq = colors[qy][qx]
            dist2 = ((float(cp[0]) - float(cq[0])) ** 2
                     + (float(cp[1]) - float(cq[1])) ** 2
                     + (float(cp[2]) - float(cq[2])) ** 2)
            wgt = ws * math.exp(-dist2 / (2.0 * sigma_rc * sigma_rc))
            if kind == "tjbf" and sigma_rd < 1e9:
                u = (float(depth[y][x]) - float(depth[qy][qx])) / sigma_rd
                wgt *= math.exp(-u * u / 2.0)
            # A weight can underflow to zero for huge depth gaps; such
            # a pixel contributes nothing and is not counted.
            if wgt > 0.0:
                num += wgt * float(depth[qy][qx])
                den += wgt
                n += 1
    value = num / den if den > 0 else 0.0
    return value, den, n


def ref_window_sums(depth, validf, colors, params, *, iso_sigma=None, cos_t=None,
                    sin_t=None, depth_sigma=None):
    """Dense float64 window sums over the whole frame; returns the
    (h, w) grids num, den, cnt, cmin and cmax.

    The flavor keywords are window_sums': iso_sigma for the isotropic
    spatial term, else cos_t/sin_t per pixel with params.sigma_x and
    sigma_y; depth_sigma adds the depth range term. colors is the
    (h, w, 3) guide. Per window row dy and column distance adx the -dx
    and +dx contributions meet in a zeroed pair buffer, which then
    joins num and den, and a source outside the frame is skipped.
    """
    h, w = depth.shape
    planes = np.moveaxis(np.asarray(colors, dtype=np.float64), -1, 0)
    r = params.window_radius
    sr = params.sigma_r_color
    sx = params.sigma_x
    sy = params.sigma_y
    num = np.zeros((h, w))
    den = np.zeros((h, w))
    cnt = np.zeros((h, w), dtype=np.int32)
    cmin = np.full((h, w), np.inf)
    cmax = np.full((h, w), -np.inf)
    for dy in range(-r, r + 1):
        a0 = max(0, -dy)
        a1 = h - max(0, dy)
        if a0 >= a1:
            continue
        for adx in range(min(r, w - 1) + 1):
            pair_num = np.zeros((a1 - a0, w))
            pair_den = np.zeros((a1 - a0, w))
            for dx in (-adx, adx) if adx else (0,):
                c0 = max(0, -dx)
                c1 = w - max(0, dx)
                dst = (slice(a0, a1), slice(c0, c1))
                src = (slice(a0 + dy, a1 + dy), slice(c0 + dx, c1 + dx))
                if iso_sigma is not None:
                    ws = np.exp(-0.5 * (dx * dx + dy * dy) / (iso_sigma * iso_sigma))
                else:
                    ct = cos_t[dst]
                    st = sin_t[dst]
                    xt = dx * ct + dy * st
                    yt = -dx * st + dy * ct
                    ws = np.exp(-0.5 * (xt * xt / (sx * sx) + yt * yt / (sy * sy)))
                cp = planes[(slice(None),) + dst]
                cq = planes[(slice(None),) + src]
                dr = cp[0] - cq[0]
                dg = cp[1] - cq[1]
                db = cp[2] - cq[2]
                wgt = ws * np.exp(-0.5 * (dr * dr + dg * dg + db * db) / (sr * sr))
                dq = depth[src]
                if depth_sigma is not None and depth_sigma < 1e9:
                    t = (depth[dst] - dq) / depth_sigma
                    wgt = wgt * np.exp(-0.5 * (t * t))
                wgt = wgt * validf[src]
                pair_num[:, c0:c1] += wgt * dq
                pair_den[:, c0:c1] += wgt
                contrib = wgt > 0
                cnt[dst] += contrib
                cmin[dst] = np.minimum(cmin[dst], np.where(contrib, dq, np.inf))
                cmax[dst] = np.maximum(cmax[dst], np.where(contrib, dq, -np.inf))
            num[a0:a1] += pair_num
            den[a0:a1] += pair_den
    return {"num": num, "den": den, "cnt": cnt, "cmin": cmin, "cmax": cmax}


def ref_finish(sums, track=True):
    """The averages of ref_window_sums' sums by the engine's rule: num /
    den where den > 0, clamped into [cmin, cmax] when track is set, and
    0.0 where nothing contributed."""
    some = sums["den"] > 0
    avg = np.divide(sums["num"], sums["den"], out=np.zeros_like(sums["num"]), where=some)
    if track:
        avg = np.minimum(sums["cmax"], np.maximum(sums["cmin"], avg))
    return np.where(some, avg, 0.0)


def ref_nearest_edge_theta(edge, theta, r_edge):
    """Per-pixel theta of the nearest edge pixel within r_edge, over the
    whole frame: edge_analysis.nearest_edge_theta as it stood before it
    took a target set, frozen. Offsets in (distance, dy, dx) order, one
    slice pass each, and the first assignment of a pixel wins; edge
    pixels and pixels with no edge in range keep their own theta."""
    h, w = theta.shape
    out = theta.copy()
    assigned = edge.copy()
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
        sel = ~assigned[dst] & edge[src]
        out[dst][sel] = theta[src][sel]
        assigned[dst] |= sel
    return out


def ref_to_grayscale(rgb):
    """Rec.601 luma of an (h, w, 3) uint8 array, as to_grayscale
    computed it through a float64 copy of the channels."""
    rgb = rgb.astype(np.float64)
    return 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]


def ref_sobel_gradients(a):
    """(gx, gy, magnitude) of a 2-D array, as sobel_gradients computed
    them with one temporary per operation: edge-replicated padding,
    each tap triple summed as a + 2.0 * b + c."""
    p = np.pad(a, 1, mode="edge")
    right = p[:-2, 2:] + 2.0 * p[1:-1, 2:] + p[2:, 2:]
    left = p[:-2, :-2] + 2.0 * p[1:-1, :-2] + p[2:, :-2]
    gx = right - left
    down = p[2:, :-2] + 2.0 * p[2:, 1:-1] + p[2:, 2:]
    up = p[:-2, :-2] + 2.0 * p[:-2, 1:-1] + p[:-2, 2:]
    gy = down - up
    return gx, gy, np.sqrt(gx * gx + gy * gy)


def ref_edge_theta(gx, gy):
    """atan(-gx / gy) over arrays, pi/2 where gy is 0 and gx is not, 0
    where both are: edge_theta's array form with its nested wheres."""
    flat = gy == 0.0
    t = np.arctan(-gx / np.where(flat, 1.0, gy))
    return np.where(flat, np.where(gx == 0.0, 0.0, np.pi / 2), t)


def ref_rotated_weight(dx, dy, cos_t, sin_t, sigma_x, sigma_y):
    """kernels.rotated_weight's expression, one temporary per operation."""
    xt = dx * cos_t + dy * sin_t
    yt = -dx * sin_t + dy * cos_t
    return np.exp(-0.5 * (xt * xt / (sigma_x * sigma_x) + yt * yt / (sigma_y * sigma_y)))


def splitmix64_stream(seed, count):
    """First `count` outputs of SplitMix64 starting from `seed`."""
    out = []
    x = seed & MASK64
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


class RefXoshiro:
    """xoshiro256++ with SplitMix64 seeding, straight from the algorithm."""

    def __init__(self, seed):
        self.state = splitmix64_stream(seed, 4)
        self.spare = None

    @staticmethod
    def _rotl(v, k):
        return ((v << k) | (v >> (64 - k))) & MASK64

    def next_u64(self):
        s0, s1, s2, s3 = self.state
        out = (self._rotl((s0 + s3) & MASK64, 23) + s0) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = self._rotl(s3, 45)
        self.state = [s0, s1, s2, s3]
        return out

    def uniform(self):
        return (self.next_u64() >> 11) * 2.0 ** -53

    def gauss(self):
        if self.spare is not None:
            g = self.spare
            self.spare = None
            return g
        while True:
            a = 2.0 * self.uniform() - 1.0
            b = 2.0 * self.uniform() - 1.0
            r2 = a * a + b * b
            if 0.0 < r2 < 1.0:
                scale = math.sqrt(-2.0 * math.log(r2) / r2)
                self.spare = b * scale
                return a * scale


def ref_degrade(clean, noise_sigma, speckle_fraction, edge_radius, seed):
    """Per-pixel degradation on RefXoshiro; clean is a 2-D array of
    depths with 0 for holes, and a new list of rows is returned.

    Noise: one gauss() per valid pixel in row-major order, rounded and
    clamped to [1, 65535]. Speckle: one uniform() per pixel; below the
    fraction makes a hole. Edge holes: every pixel within Chebyshev
    distance edge_radius of a pixel whose depth differs by more than
    100 mm from a valid 4-neighbor, both valid in the clean input.
    A zero parameter skips its stage and its draws.
    """
    h = len(clean)
    w = len(clean[0])
    src = [[float(clean[y][x]) for x in range(w)] for y in range(h)]
    d = [row[:] for row in src]
    rng = RefXoshiro(seed)
    if noise_sigma > 0:
        for y in range(h):
            for x in range(w):
                if d[y][x] == 0.0:
                    continue
                v = math.floor(d[y][x] + noise_sigma * rng.gauss() + 0.5)
                d[y][x] = float(min(65535, max(1, v)))
    if speckle_fraction > 0:
        for y in range(h):
            for x in range(w):
                if rng.uniform() < speckle_fraction:
                    d[y][x] = 0.0
    if edge_radius > 0:
        jump = [[False] * w for _ in range(h)]
        for y in range(h):
            for x in range(w):
                for qy, qx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if (0 <= qy < h and 0 <= qx < w and src[y][x] != 0.0
                            and src[qy][qx] != 0.0
                            and abs(src[y][x] - src[qy][qx]) > 100.0):
                        jump[y][x] = True
        for y in range(h):
            for x in range(w):
                if any(jump[qy][qx]
                       for qy in range(max(0, y - edge_radius), min(h, y + edge_radius + 1))
                       for qx in range(max(0, x - edge_radius), min(w, x + edge_radius + 1))):
                    d[y][x] = 0.0
    return d


def sobel_at(g, y, x):
    """One Sobel sample pair from explicit 3x3 correlation, clamped."""
    kx = ((-1, 0, 1), (-2, 0, 2), (-1, 0, 1))
    h = len(g)
    w = len(g[0])
    gx = 0.0
    gy = 0.0
    for i in range(3):
        for j in range(3):
            yy = min(max(y + i - 1, 0), h - 1)
            xx = min(max(x + j - 1, 0), w - 1)
            gx += kx[i][j] * float(g[yy][xx])
            gy += kx[j][i] * float(g[yy][xx])
    return gx, gy
