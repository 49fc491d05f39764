"""Synthetic scenes, seeded degradation, and quality metrics.

Degradation must reproduce bit for bit across machines and languages,
so randomness comes from a fully pinned generator rather than any
library RNG: SplitMix64 expands the user seed into the state of a
xoshiro256++ stream, uniforms take the top 53 bits, and Gaussians use
the polar Box-Muller rejection method. The draw order is part of the
contract and is documented on `degrade`.

Metrics (PSNR with peak 65535, MAE, bad-pixel rate) are computed over
pixels that are valid in both maps and inside the optional evaluation
mask; holes never pollute the averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .image_model import HOLE, ColorImage, DepthMap
from .preprocess import chebyshev_dilate

_M64 = (1 << 64) - 1
DISCONTINUITY_MM = 100.0
DEFAULT_TAU = 10.0
PEAK = 65535.0


class Rng:
    """Pinned 64-bit generator: SplitMix64 seeding, xoshiro256++ stream.

    uniform() is (next_u64() >> 11) * 2**-53, i.e. 53 random bits in
    [0, 1). gauss() draws standard normals via polar Box-Muller: pairs
    (u, v) in (-1, 1)^2 are rejected until 0 < u^2+v^2 < 1, two normals
    are produced, one is returned and the spare cached for the next
    call.
    """

    def __init__(self, seed: int):
        x = seed & _M64
        state = []
        for _ in range(4):
            x = (x + 0x9E3779B97F4A7C15) & _M64
            z = x
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
            state.append(z ^ (z >> 31))
        self._s = state
        self._spare = None

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        tmp = (s0 + s3) & _M64
        result = (((tmp << 23) | (tmp >> 41)) & _M64) + s0 & _M64
        t = (s1 << 17) & _M64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _M64
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def gauss(self) -> float:
        if self._spare is not None:
            g = self._spare
            self._spare = None
            return g
        while True:
            u = 2.0 * self.uniform() - 1.0
            v = 2.0 * self.uniform() - 1.0
            s = u * u + v * v
            if s == 0.0 or s >= 1.0:
                continue
            m = math.sqrt(-2.0 * math.log(s) / s)
            self._spare = v * m
            return u * m


@dataclass(frozen=True)
class DegradeSpec:
    """How to corrupt a clean map: noise, speckle holes, edge holes."""

    noise_sigma: float = 0.0
    speckle_hole_fraction: float = 0.0
    edge_hole_radius: int = 0
    seed: int = 0

    def validate(self) -> None:
        if self.noise_sigma < 0:
            raise ContractViolation(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.speckle_hole_fraction < 1.0:
            raise ContractViolation(
                f"speckle_hole_fraction must be in [0, 1), got {self.speckle_hole_fraction}"
            )
        if self.edge_hole_radius < 0:
            raise ContractViolation(
                f"edge_hole_radius must be >= 0, got {self.edge_hole_radius}"
            )
        if not 0 <= self.seed <= _M64:
            raise ContractViolation(f"seed must be a 64-bit unsigned value, got {self.seed}")


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
    if width < 16 or height < 16:
        raise ContractViolation(f"scene must be at least 16x16, got {width}x{height}")
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
    spec.validate()
    rng = Rng(spec.seed)
    d = clean.samples.copy()
    h, w = d.shape
    if spec.noise_sigma > 0:
        sigma = spec.noise_sigma
        for y in range(h):
            for x in range(w):
                if d[y, x] == HOLE:
                    continue
                v = math.floor(d[y, x] + sigma * rng.gauss() + 0.5)
                d[y, x] = min(65535, max(1, v))
    if spec.speckle_hole_fraction > 0:
        frac = spec.speckle_hole_fraction
        for y in range(h):
            for x in range(w):
                if rng.uniform() < frac:
                    d[y, x] = HOLE
    if spec.edge_hole_radius > 0:
        shadow = chebyshev_dilate(discontinuity_mask(clean), spec.edge_hole_radius)
        d[shadow] = HOLE
    return DepthMap(d)


def _mutual_valid(a: DepthMap, b: DepthMap, mask: np.ndarray | None) -> np.ndarray:
    if a.samples.shape != b.samples.shape:
        raise ContractViolation(
            f"metric inputs differ in shape: {a.samples.shape} vs {b.samples.shape}"
        )
    m = (a.samples != HOLE) & (b.samples != HOLE)
    if mask is not None:
        if mask.shape != m.shape:
            raise ContractViolation(
                f"evaluation mask {mask.shape} does not match maps {m.shape}"
            )
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
    return 10.0 * math.log10(PEAK * PEAK / mse)


def mae(a: DepthMap, b: DepthMap, mask: np.ndarray | None = None) -> float:
    """Mean absolute difference in millimeters."""
    m = _mutual_valid(a, b, mask)
    return float(np.mean(np.abs(a.samples[m] - b.samples[m])))


def bad_pixel_rate(a: DepthMap, b: DepthMap, tau: float = DEFAULT_TAU,
                   mask: np.ndarray | None = None) -> float:
    """Fraction of evaluated pixels with |difference| above tau mm."""
    if tau < 0:
        raise ContractViolation(f"tau must be >= 0, got {tau}")
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
