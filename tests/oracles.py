"""Independent reference implementations used by the tests.

Everything here is deliberately written the slow, obvious way, from
the published definitions, sharing no code or expression structure
with the package: plain double loops over clamped index ranges,
math.exp instead of numpy ufuncs, skipping invalid pixels instead of
multiplying by a gate. Agreement between these and the package is the
point of the tests, so resist any urge to "reuse" package helpers
here.
"""

import math

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
