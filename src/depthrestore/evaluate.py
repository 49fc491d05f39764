"""Synthetic scenes, seeded degradation, and quality metrics.

Degradation must reproduce bit for bit across machines and languages,
so randomness comes from a fully pinned generator rather than any
library RNG: SplitMix64 expands the user seed into the state of a
xoshiro256++ stream, uniforms take the top 53 bits, and Gaussians use
the polar Box-Muller rejection method. The draw order is part of the
contract and is documented on `degrade`.

The stream is one serial sequence, but it is made in numpy blocks.
xoshiro256++ advances its state by a linear map T over GF(2)
(Blackman & Vigna, "Scrambled linear pseudorandom number generators"),
so s advanced by k steps is T^k s. Every such map is held as (4, 256)
uint64 words, column j the image of the unit state with bit j set: T is
the one xoshiro step run on the 256 unit states, and J = T^LANE_DRAWS
comes by squaring (cached per process). A block runs up to BLOCK_LANES
lanes in lockstep: lane k starts at J^k s, the state LANE_DRAWS * k
draws on (Haramoto et al., "Efficient jump ahead for F2-linear random
number generators", 2008), and gets LANE_DRAWS consecutive outputs. The
starts double: J^(2^d) applied to the first 2^d starts gives the next
2^d, so a block costs log2(lanes) map applications. Laid end to end,
the lanes are exactly the next draws of the serial stream, and the
last lane's final state starts the next block. Draws sit in a buffer
and each call consumes exactly the draws the one-at-a-time definitions
would, so the scalar methods and the array methods interleave freely.

Box-Muller keeps libm's `math.log` per accepted pair: `np.log` rounds
differently on a fraction of a percent of inputs. `np.sqrt`, `floor`
and the IEEE products and sums are correctly rounded in both, so the
rest is numpy.

Metrics (PSNR with peak 65535, MAE, bad-pixel rate) are computed over
pixels that are valid in both maps and inside the optional evaluation
mask; holes never pollute the averages.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, require_int, require_mask, require_real, require_same_shape
from .image_model import DEPTH_MAXVAL, HOLE, ColorImage, DepthMap
from .preprocess import chebyshev_dilate

_M64 = (1 << 64) - 1
DISCONTINUITY_MM = 100.0
DEFAULT_TAU = 10.0

# A block holds at most BLOCK_LANES lanes of LANE_DRAWS draws each
# (4 MiB of uint64 at most); a request of n draws uses ceil(n / LANE_DRAWS)
# lanes, so small requests make small blocks.
BLOCK_LANES = 1024
LANE_DRAWS = 512
# Box-Muller takes candidate pairs from a block this many at a time.
PAIR_CHUNK = 8192

# Under numpy 1.x rules a uint64 mixed with a signed integer becomes
# float64; uint64 shift counts keep every step in uint64 on 1.x and 2.x.
_BIT = np.arange(64, dtype=np.uint64)


def _rotl(x: np.ndarray, k: int) -> np.ndarray:
    return (x << np.uint64(k)) | (x >> np.uint64(64 - k))


def _xoshiro_step(s: np.ndarray) -> np.ndarray:
    """One xoshiro256++ step on (4, L) uint64 states, in place; returns the L outputs."""
    s0, s1, s2, s3 = s
    out = _rotl(s0 + s3, 23) + s0
    t = s1 << np.uint64(17)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s3[...] = _rotl(s3, 45)
    return out


def _to_unit(x: np.ndarray) -> np.ndarray:
    """53 random bits in [0, 1): (x >> 11) * 2**-53."""
    return (x >> np.uint64(11)) * 2.0 ** -53


# The unit states, column j with bit j set (bit i of word w at j = 64w + i):
# the identity map in the form _apply takes.
_UNIT = np.kron(np.eye(4, dtype=np.uint64), np.uint64(1) << _BIT)
_UNIT.flags.writeable = False


def _apply(m: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The GF(2)-linear map m applied to (4, L) uint64 states.

    m is (4, 256) uint64, column j the image of unit state j, so a
    state's image is the XOR of the columns its set bits select, and
    _apply(a, b) is the map b then a. Integer ops only, every operand
    uint64: a float matmul would be exact too, but BLAS leaves worker
    threads spinning after each call, which slows the caller's next
    computation.
    """
    sel = ((states[:, None, :] >> _BIT[:, None]) & np.uint64(1)).reshape(256, -1)
    return np.bitwise_xor.reduce(m[:, :, None] * sel, axis=1)


@functools.cache
def _jump(steps: int, doublings: int) -> np.ndarray:
    """The (4, 256) map that advances a state by steps * 2**doublings draws."""
    if doublings:
        half = _jump(steps, doublings - 1)
        out = _apply(half, half)
    else:
        t = _UNIT.copy()
        _xoshiro_step(t)  # T: one step of each unit state
        out = _UNIT
        while steps:
            if steps & 1:
                out = _apply(t, out)
            t = _apply(t, t)
            steps >>= 1
    out.flags.writeable = False
    return out


def _block(state: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The next draws after the (4,) state: min(ceil(n / M), L) lanes of M.

    Returns the draws in stream order and the state after the last one.
    """
    m = LANE_DRAWS
    lanes = min(BLOCK_LANES, -(-n // m))
    s = state[:, None]
    doublings = 0
    while s.shape[1] < lanes:
        s = np.concatenate([s, _apply(_jump(m, doublings), s)], axis=1)
        doublings += 1
    s = s[:, :lanes].copy()
    out = np.empty((m, lanes), dtype=np.uint64)
    for i in range(m):
        out[i] = _xoshiro_step(s)
    return out.T.reshape(-1), s[:, -1].copy()


class Rng:
    """Pinned 64-bit generator: SplitMix64 seeding, xoshiro256++ stream.

    uniform() is (next_u64() >> 11) * 2**-53, i.e. 53 random bits in
    [0, 1). gauss() draws standard normals via polar Box-Muller: pairs
    (u, v) in (-1, 1)^2 are rejected until 0 < u^2+v^2 < 1, two normals
    are produced, one is returned and the spare cached for the next
    call.

    u64s(n), uniforms(n) and normals(n) return what n calls of
    next_u64(), uniform() and gauss() would, and leave the generator
    where those calls would; the scalar methods are their n = 1 case.
    seed must be an int in [0, 2**64) and n an int >= 0, else
    ContractViolation: a negative n would rewind the stream.
    """

    def __init__(self, seed: int):
        require_int("seed", seed, ge=0, lt=1 << 64)
        x = int(seed)
        state = []
        for _ in range(4):
            x = (x + 0x9E3779B97F4A7C15) & _M64
            z = x
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
            state.append(z ^ (z >> 31))
        self._s = np.array(state, dtype=np.uint64)  # state after the buffered draws
        self._buf = np.empty(0, dtype=np.uint64)
        self._pos = 0
        self._spare = None

    def _peek(self, n: int) -> np.ndarray:
        """The next n draws, not yet consumed."""
        have = self._buf.size - self._pos
        if have < n:
            parts = [self._buf[self._pos:]]
            while have < n:
                draws, self._s = _block(self._s, n - have)
                parts.append(draws)
                have += draws.size
            self._buf = np.concatenate(parts)
            self._pos = 0
        return self._buf[self._pos:self._pos + n]

    def u64s(self, n: int) -> np.ndarray:
        require_int("n", n, ge=0)
        out = self._peek(n)
        self._pos += n
        return out

    def uniforms(self, n: int) -> np.ndarray:
        return _to_unit(self.u64s(n))

    def normals(self, n: int) -> np.ndarray:
        require_int("n", n, ge=0)
        out = np.empty(n)
        k = 0
        if n and self._spare is not None:
            out[0] = self._spare
            self._spare = None
            k = 1
        want = -(-(n - k) // 2)
        while want:
            # About pi/4 of the pairs are accepted. A round peeks at its
            # draws in one wide block (two blocks' worth at most) and takes
            # them PAIR_CHUNK pairs at a time, so its temporaries stay
            # chunk-sized; draws past the last needed pair stay buffered.
            cand = min(want + want // 2 + 8, BLOCK_LANES * LANE_DRAWS)
            draws = self._peek(2 * cand)
            for j in range(0, cand, PAIR_CHUNK):
                uv = _to_unit(draws[2 * j:2 * min(j + PAIR_CHUNK, cand)]).reshape(-1, 2)
                u = 2.0 * uv[:, 0] - 1.0
                v = 2.0 * uv[:, 1] - 1.0
                s = u * u + v * v
                hit = np.flatnonzero((s > 0.0) & (s < 1.0))[:want]
                s = s[hit]
                log_s = np.fromiter(map(math.log, s.tolist()), dtype=np.float64, count=s.size)
                m = np.sqrt(-2.0 * log_s / s)
                g = np.stack([u[hit] * m, v[hit] * m], axis=1).reshape(-1)
                take = min(g.size, n - k)
                out[k:k + take] = g[:take]
                if take < g.size:
                    self._spare = float(g[-1])
                k += take
                want -= hit.size
                if not want:
                    self._pos += 2 * (j + int(hit[-1]) + 1)
                    break
            else:
                self._pos += 2 * cand
        return out

    def next_u64(self) -> int:
        return int(self.u64s(1)[0])

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def gauss(self) -> float:
        return float(self.normals(1)[0])


@dataclass(frozen=True)
class DegradeSpec:
    """How to corrupt a clean map: noise, speckle holes, edge holes."""

    noise_sigma: float = 0.0
    speckle_hole_fraction: float = 0.0
    edge_hole_radius: int = 0
    seed: int = 0

    def __post_init__(self):
        require_real("noise_sigma", self.noise_sigma, ge=0, lt=math.inf)
        require_real("speckle_hole_fraction", self.speckle_hole_fraction, ge=0, lt=1)
        require_int("edge_hole_radius", self.edge_hole_radius, ge=0)
        require_int("seed", self.seed, ge=0, lt=1 << 64)


SCENE_KINDS = ("step", "ramp", "occluder")


def make_scene(kind: str, width: int, height: int) -> tuple[DepthMap, ColorImage]:
    """Deterministic ground-truth depth plus a matching guide image.

    step      two depth planes, 1000 mm left and 2000 mm right, with a
              co-located color step (intensity 64 / 192)
    ramp      depth linear from 500 mm to 2500 mm left to right,
              constant color
    occluder  1500 mm background with a centered 800 mm rectangle, the
              rectangle recolored so depth and color edges coincide
    """
    require_int("scene width", width, ge=16)
    require_int("scene height", height, ge=16)
    if kind == "step":
        depth = np.full((height, width), 2000.0)
        depth[:, : width // 2] = 1000.0
        color = np.full((height, width, 3), 192, dtype=np.uint8)
        color[:, : width // 2] = 64
    elif kind == "ramp":
        cols = np.arange(width, dtype=np.float64)
        row = np.floor(500.0 + 2000.0 * cols / (width - 1) + 0.5)
        depth = np.tile(row, (height, 1))
        color = np.full((height, width, 3), 128, dtype=np.uint8)
    elif kind == "occluder":
        depth = np.full((height, width), 1500.0)
        r0, r1 = height // 4, height - height // 4
        c0, c1 = width // 4, width - width // 4
        depth[r0:r1, c0:c1] = 800.0
        color = np.full((height, width, 3), 80, dtype=np.uint8)
        color[r0:r1, c0:c1] = 176
    else:
        raise ContractViolation(f"unknown scene kind {kind!r}; choose from {SCENE_KINDS}")
    return DepthMap(depth), ColorImage(color)


def discontinuity_mask(depth: DepthMap, threshold: float = DISCONTINUITY_MM) -> np.ndarray:
    """Pixels whose depth jumps by more than `threshold` to a 4-neighbor.

    Only differences between two valid pixels count; a step into a hole
    is missing data, not a geometric discontinuity.
    """
    d = depth.samples
    valid = d != HOLE
    mask = np.zeros(d.shape, dtype=bool)
    jump_r = (np.abs(d[:, 1:] - d[:, :-1]) > threshold) & valid[:, 1:] & valid[:, :-1]
    mask[:, 1:] |= jump_r
    mask[:, :-1] |= jump_r
    jump_d = (np.abs(d[1:, :] - d[:-1, :]) > threshold) & valid[1:, :] & valid[:-1, :]
    mask[1:, :] |= jump_d
    mask[:-1, :] |= jump_d
    return mask


def degrade(clean: DepthMap, spec: DegradeSpec) -> DepthMap:
    """Corrupt a clean map with seeded noise and holes.

    Stages, in order, each skipped entirely when its parameter is zero
    (a skipped stage consumes no random numbers):

    1. Gaussian noise: every valid pixel in row-major order gets one
       gauss() draw scaled by noise_sigma, rounded to the nearest
       integer, clamped to [1, 65535] so noise can never fabricate a
       hole sentinel.
    2. Speckle holes: every pixel in row-major order gets one uniform()
       draw; the pixel becomes a hole when the draw falls below
       speckle_hole_fraction.
    3. Edge holes: no randomness. Every pixel within Chebyshev distance
       edge_hole_radius of a depth discontinuity in the *clean* input
       becomes a hole, mimicking the occlusion shadows a structured
       light sensor casts at object boundaries.
    """
    rng = Rng(spec.seed)
    d = clean.samples.copy()
    if spec.noise_sigma > 0:
        valid = d != HOLE
        g = rng.normals(int(np.count_nonzero(valid)))
        # floor((d + sigma * g) + 0.5), clamped, each step in place. A
        # finite sigma can still overflow the product to +-inf, which the
        # clamp maps to 65535 or 1.
        with np.errstate(over="ignore"):
            g *= spec.noise_sigma
            t = d[valid]
            t += g
            del g
            t += 0.5
            d[valid] = np.clip(np.floor(t, out=t), 1.0, DEPTH_MAXVAL, out=t)
    if spec.speckle_hole_fraction > 0:
        d[rng.uniforms(d.size).reshape(d.shape) < spec.speckle_hole_fraction] = HOLE
    if spec.edge_hole_radius > 0:
        shadow = chebyshev_dilate(discontinuity_mask(clean), spec.edge_hole_radius)
        d[shadow] = HOLE
    return DepthMap(d)


def _mutual_valid(a: DepthMap, b: DepthMap, mask: np.ndarray | None) -> np.ndarray:
    require_same_shape(a=a, b=b)
    m = (a.samples != HOLE) & (b.samples != HOLE)
    if mask is not None:
        require_mask(mask=mask)
        require_same_shape(maps=m, mask=mask)
        m &= mask
    if not m.any():
        raise ContractViolation("no mutually valid pixels to evaluate")
    return m


def psnr(a: DepthMap, b: DepthMap, mask: np.ndarray | None = None) -> float:
    """10 log10(peak^2 / MSE) with peak 65535; inf when the maps agree."""
    m = _mutual_valid(a, b, mask)
    diff = a.samples[m] - b.samples[m]
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(DEPTH_MAXVAL * DEPTH_MAXVAL / mse)


def mae(a: DepthMap, b: DepthMap, mask: np.ndarray | None = None) -> float:
    """Mean absolute difference in millimeters."""
    m = _mutual_valid(a, b, mask)
    return float(np.mean(np.abs(a.samples[m] - b.samples[m])))


def bad_pixel_rate(a: DepthMap, b: DepthMap, tau: float = DEFAULT_TAU,
                   mask: np.ndarray | None = None) -> float:
    """Fraction of evaluated pixels with |difference| above tau mm."""
    require_real("tau", tau, ge=0)
    m = _mutual_valid(a, b, mask)
    diff = np.abs(a.samples[m] - b.samples[m])
    return float(np.count_nonzero(diff > tau)) / int(np.count_nonzero(m))


@dataclass(frozen=True)
class QualityReport:
    """Bundle of the three metrics over one comparison."""

    psnr_db: float
    mae_mm: float
    bad_pixel_rate: float
    evaluated_pixels: int

    def lines(self) -> list[str]:
        return [
            f"psnr_db: {_fmt(self.psnr_db)}",
            f"mae_mm: {_fmt(self.mae_mm)}",
            f"bad_pixel_rate: {_fmt(self.bad_pixel_rate)}",
            f"evaluated_pixels: {self.evaluated_pixels}",
        ]


def _fmt(v: float) -> str:
    if math.isinf(v):
        return "inf"
    return f"{v:.6f}"


def compare(a: DepthMap, b: DepthMap, tau: float = DEFAULT_TAU,
            mask: np.ndarray | None = None) -> QualityReport:
    """All three metrics over the same pixel set."""
    m = _mutual_valid(a, b, mask)
    return QualityReport(
        psnr_db=psnr(a, b, mask),
        mae_mm=mae(a, b, mask),
        bad_pixel_rate=bad_pixel_rate(a, b, tau, mask),
        evaluated_pixels=int(np.count_nonzero(m)),
    )
