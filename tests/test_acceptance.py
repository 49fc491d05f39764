"""Top-level acceptance checks, one per shipped guarantee.

Each test prints a single pass/fail line (straight to the terminal,
bypassing capture) so a full run reads as a checklist. Tolerances and
instance counts are part of the contract and are stated inline.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np

from depthrestore import (
    ColorImage,
    DegradeSpec,
    DepthMap,
    KernelParams,
    PipelineConfig,
    StructuringElement,
    bad_pixel_rate,
    close_depth,
    degrade,
    dgf_weight,
    depth_range_weight,
    djbf_pixel,
    encode_depth_pgm,
    fill_holes,
    hole_mask,
    jbf_pixel,
    load_color_ppm,
    load_depth_pgm,
    make_scene,
    mae,
    pdjbf_pixel,
    psnr,
    quantize,
    restore,
    save_color_ppm,
    save_depth_pgm,
    spatial_weight,
    tjbf_pixel,
)
from depthrestore.cli import main
from depthrestore.edge_analysis import EdgeMap
from depthrestore.evaluate import discontinuity_mask
from depthrestore.filters import WindowSums, guide_planes, pad, window_sums
from depthrestore.image_model import HOLE
from depthrestore.preprocess import chebyshev_dilate

from oracles import brute_filter

# Regression anchor for the end-to-end run: exact PSNR of the restored
# (quantized) map on the pinned degradation instance. Frozen from the
# first verified run; any drift means the numerics changed.
END_TO_END_PSNR_DB = 79.05738416956594


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {status} [{detail}]", file=sys.__stdout__)
    return ok


def random_filter_instance(seed):
    rng = np.random.default_rng(seed)
    radius = int(rng.integers(1, 4))
    sy = float(rng.uniform(0.8, 2.0))
    params = KernelParams(
        sigma_s=float(rng.uniform(1.0, 4.0)),
        sigma_r_color=float(rng.uniform(10.0, 40.0)),
        sigma_r_depth=float(rng.uniform(20.0, 200.0)),
        sigma_x=sy + float(rng.uniform(0.0, 4.0)),
        sigma_y=sy,
        window_radius=radius,
    )
    d = rng.uniform(500.0, 3000.0, (16, 16))
    d[rng.random((16, 16)) < 0.2] = HOLE
    guide = ColorImage(rng.integers(0, 256, (16, 16, 3), dtype=np.uint8))
    theta = rng.uniform(-np.pi / 2, np.pi / 2, (16, 16))
    return DepthMap(d), guide, theta, params


def engine_maps(depth, guide, theta, params):
    """All three engine modes over the full image, normalized."""
    d = depth.samples
    r = params.window_radius
    padded = pad(d, r)
    validf = pad(d != HOLE, r, np.float64)
    planes = guide_planes(guide, r)
    out = {}
    for key, kwargs in (
        ("jbf", {"iso_sigma": params.sigma_s}),
        ("tjbf", {"iso_sigma": params.sigma_s, "depth_sigma": params.sigma_r_depth}),
        ("dgf", {"cos_t": np.cos(theta), "sin_t": np.sin(theta)}),
    ):
        acc = WindowSums(d.shape)
        window_sums(padded, validf, planes, params, acc, 0, d.shape[0], **kwargs)
        out[key] = acc.normalized()
    return out


def test_criterion_1_oracle_equivalence():
    """100 random instances per filter: vectorized engine vs the naive
    double-loop reference, within 1e-9 relative error, under 10 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        depth, guide, theta, params = random_filter_instance(1000 + i)
        maps = engine_maps(depth, guide, theta, params)
        d = depth.samples
        valid = d != HOLE
        kw = dict(radius=params.window_radius, sigma_s=params.sigma_s,
                  sigma_rc=params.sigma_r_color, sigma_rd=params.sigma_r_depth,
                  sigma_x=params.sigma_x, sigma_y=params.sigma_y)
        for y in range(16):
            for x in range(16):
                th = float(theta[y, x])
                if valid[y, x]:
                    checks = (("jbf", "jbf"), ("tjbf", "tjbf"), ("djbf", "dgf"))
                else:
                    checks = (("pdjbf", "dgf"),)
                for kind, key in checks:
                    want, _, n = brute_filter(kind, y, x, d, valid,
                                              guide.samples, th, **kw)
                    if n == 0:
                        continue
                    got = maps[key][y, x]
                    rel = abs(got - want) / abs(want)
                    worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    assert report(1, "filter oracle equivalence", ok,
                  f"max rel err {worst:.3e}, {elapsed:.2f}s for 100 instances x 4 filters")


def test_criterion_2_kernel_closed_forms():
    errs = []
    for s in (0.7, 1.0, 3.0, 5.5):
        errs.append(abs(spatial_weight(s, 0.0, s) - math.exp(-0.5)))
    errs.append(abs(depth_range_weight(500.0, 500.0 + 2 * 30.0, 30.0) - math.exp(-2.0)))
    rng = np.random.default_rng(77)
    for _ in range(1000):
        dx, dy = rng.uniform(-6, 6, 2)
        th = rng.uniform(-np.pi, np.pi)
        s = rng.uniform(0.5, 5.0)
        errs.append(abs(dgf_weight(dx, dy, th, s, s) - spatial_weight(dx, dy, s)))
    worst = max(errs)
    ok = worst < 1e-12
    assert report(2, "kernel closed forms", ok,
                  f"max abs err {worst:.3e} over closed forms and 1000 dgf/spatial triples")


def test_criterion_3_convex_combination_bound():
    rng = np.random.default_rng(88)
    checked = 0
    violations = 0
    while checked < 1000:
        depth, guide, theta, params = random_filter_instance(int(rng.integers(1, 1 << 30)))
        d = depth.samples
        valid = d != HOLE
        r = params.window_radius
        for _ in range(40):
            y = int(rng.integers(0, 16))
            x = int(rng.integers(0, 16))
            th = float(theta[y, x])
            if valid[y, x]:
                kind = ("jbf", "tjbf", "djbf")[int(rng.integers(0, 3))]
                if kind == "jbf":
                    out = jbf_pixel((y, x), depth, guide, params)
                elif kind == "tjbf":
                    out = tjbf_pixel((y, x), depth, guide, params)
                else:
                    out = djbf_pixel((y, x), depth, guide, th, params)
            else:
                out = pdjbf_pixel((y, x), depth, valid, guide, th, params)
                if out.contributors == 0:
                    continue
            block = d[max(0, y - r):y + r + 1, max(0, x - r):x + r + 1]
            usable = block[block != HOLE]
            if not (usable.min() <= out.value <= usable.max()):
                violations += 1
            checked += 1
    ok = violations == 0
    assert report(3, "convex combination bound", ok,
                  f"{violations} violations in {checked} sampled filter outputs, exact comparison")


PINNED_DEGRADATION = DegradeSpec(noise_sigma=20.0, speckle_hole_fraction=0.05,
                                 edge_hole_radius=2, seed=42)


def pinned_degraded_instance():
    clean, color = make_scene("step", 160, 120)
    return clean, color, degrade(clean, PINNED_DEGRADATION)


def test_criterion_4_end_to_end_restoration():
    clean, color, degraded = pinned_degraded_instance()
    t0 = time.perf_counter()
    out, _, rep = restore(degraded, color, PipelineConfig())
    elapsed = time.perf_counter() - t0
    rounded = DepthMap(quantize(out.samples).astype(np.float64))

    holes_in = int(np.count_nonzero(degraded.samples == HOLE))
    holes_out = int(np.count_nonzero(out.samples == HOLE))
    fill_fraction = 1.0 - holes_out / holes_in
    psnr_degraded = psnr(degraded, clean)
    psnr_restored = psnr(rounded, clean)
    gain = psnr_restored - psnr_degraded
    bad_degraded = bad_pixel_rate(degraded, clean, 10.0)
    bad_restored = bad_pixel_rate(rounded, clean, 10.0)
    anchor_err = abs(psnr_restored - END_TO_END_PSNR_DB)

    ok = (fill_fraction >= 0.99 and gain >= 3.0 and bad_restored < bad_degraded
          and elapsed < 5.0 and anchor_err < 1e-9)
    assert report(4, "end-to-end restoration", ok,
                  f"fill {fill_fraction:.4f}, psnr {psnr_degraded:.4f} -> "
                  f"{psnr_restored:.4f} dB (+{gain:.4f}), bad rate "
                  f"{bad_degraded:.4f} -> {bad_restored:.4f}, {elapsed:.2f}s, "
                  f"anchor drift {anchor_err:.2e}")


def test_criterion_5_edge_band_error():
    """Directional filtering beats the isotropic ablation inside a
    2-pixel band around the depth discontinuity, where the guide color
    separates the two depth planes only weakly.

    Depth is the pinned degradation (seed 42). The guide is the step
    scene's with its right half recolored from 192 to 104: still a
    detected edge co-located with the depth step (Sobel magnitude 160
    against the default threshold 100), but its cross-edge color weight
    is only e^-3.84, about 0.021, so the isotropic arm can smear depth
    across it and the kernel stretched along the contour has something
    to prevent. On the 64|192 guide the color term alone blocks
    cross-edge mixing for both arms and the directional kernel only
    averages fewer samples; README "Known limitation" gives those
    numbers. The full run must also label hole pixels as edge region,
    so the directional fill is in play."""
    clean, step_color, degraded = pinned_degraded_instance()
    c = step_color.samples.copy()
    c[:, c.shape[1] // 2:] = 104
    check_edge_band(clean, ColorImage(c), degraded, "64|104 guide")


def test_criterion_5_diagonal_edge_band_error():
    """Criterion 5 on a diagonal step: 2000 mm and guide 104 where
    x > y + 20, 1000 mm and 64 elsewhere, 160x120, degraded as the
    pinned instance. The contour runs at -45 degrees, so the
    directional kernel lies along it only if edge_theta and the
    kernel's rotation agree that y points down; an axis-aligned edge
    cannot tell the two conventions apart."""
    y, x = np.mgrid[:120, :160]
    far = x > y + 20
    clean = DepthMap(np.where(far, 2000.0, 1000.0))
    color = ColorImage(np.where(far, 104, 64).astype(np.uint8)[..., None].repeat(3, axis=2))
    check_edge_band(clean, color, degrade(clean, PINNED_DEGRADATION), "diagonal 64|104 guide")


def check_edge_band(clean, color, degraded, what):
    """The full pipeline's MAE in the 2-pixel band around the depth
    discontinuities is strictly below the isotropic ablation's, and the
    full run labels some hole pixels as edge region."""
    full, _, rep = restore(degraded, color, PipelineConfig())
    iso, _, _ = restore(degraded, color, PipelineConfig(isotropic_only=True))
    band = chebyshev_dilate(discontinuity_mask(clean), 2)
    full_mae = mae(full, clean, band)
    iso_mae = mae(iso, clean, band)
    hole_edge = rep.region_counts["hole_edge"]
    ok = hole_edge > 0 and full_mae < iso_mae
    assert report(5, "edge band error, directional vs isotropic", ok,
                  f"{what}, band MAE full {full_mae:.6f} vs isotropic "
                  f"{iso_mae:.6f} mm, hole_edge {hole_edge}"), \
        "directional filtering did not beat the isotropic ablation in the edge band"


def test_criterion_6_determinism(tmp_path):
    clean, color, degraded = pinned_degraded_instance()
    one, _, _ = restore(degraded, color, PipelineConfig(threads=1))
    eight, _, _ = restore(degraded, color, PipelineConfig(threads=8))
    threads_same = encode_depth_pgm(one) == encode_depth_pgm(eight)

    a = str(tmp_path / "a.pgm")
    b = str(tmp_path / "b.pgm")
    args = ["--scene", "step", "--seed", "42", "--noise-sigma", "20",
            "--speckle", "0.05", "--edge-hole-radius", "2"]
    assert main(["degrade", a] + args) == 0
    assert main(["degrade", b] + args) == 0
    degrade_same = Path(a).read_bytes() == Path(b).read_bytes()

    ok = threads_same and degrade_same
    assert report(6, "determinism", ok,
                  f"threads 1 vs 8 identical: {threads_same}, "
                  f"degrade reruns identical: {degrade_same}")


def test_criterion_7_closing_morphology():
    rng = np.random.default_rng(99)
    idempotent = True
    for _ in range(50):
        d = rng.uniform(1, 65535, (32, 32))
        d[rng.random((32, 32)) < rng.uniform(0.05, 0.3)] = HOLE
        once = close_depth(DepthMap(d))
        twice = close_depth(once)
        if not np.array_equal(once.samples, twice.samples):
            idempotent = False
    a = np.full((7, 7), 1000.0)
    a[3, 3] = HOLE
    single = close_depth(DepthMap(a), StructuringElement(2))
    example_ok = single.samples[3, 3] == 1000.0 and not hole_mask(single).any()
    ok = idempotent and example_ok
    assert report(7, "closing morphology", ok,
                  f"idempotent on 50 random maps: {idempotent}, "
                  f"single-hole example fills: {example_ok}")


def test_criterion_8_fill_termination():
    guide = ColorImage(np.full((9, 9, 3), 100, dtype=np.uint8))
    a = np.full((9, 9), 1500.0)
    a[3:6, 3:6] = HOLE
    labels = (a == HOLE).astype(np.uint8) * 2
    cfg = PipelineConfig(kernel=KernelParams(window_radius=1, sigma_x=1.5, sigma_y=1.5))
    edges = EdgeMap(np.zeros((9, 9), bool), np.zeros((9, 9)))
    _, block_rep = fill_holes(DepthMap(a), guide, labels, edges, cfg)

    all_hole = np.zeros((12, 12))
    guide2 = ColorImage(np.full((12, 12, 3), 100, dtype=np.uint8))
    labels2 = np.full((12, 12), 2, dtype=np.uint8)
    edges2 = EdgeMap(np.zeros((12, 12), bool), np.zeros((12, 12)))
    _, hole_rep = fill_holes(DepthMap(all_hole), guide2, labels2, edges2, cfg)

    ok = (block_rep.fill_passes_used == 2 and block_rep.holes_unfilled == 0
          and hole_rep.holes_unfilled == 144
          and hole_rep.fill_passes_used <= cfg.max_fill_passes)
    assert report(8, "fill termination", ok,
                  f"3x3 block: {block_rep.fill_passes_used} passes, "
                  f"all-hole map: {hole_rep.holes_unfilled} unfilled after "
                  f"{hole_rep.fill_passes_used} pass(es)")


def test_criterion_9_raster_round_trips(tmp_path):
    rng = np.random.default_rng(111)
    cases = [np.array([[0.0]]), np.array([[65535.0]]),
             np.full((3, 3), 65535.0), np.zeros((2, 5))]
    while len(cases) < 20:
        h = int(rng.integers(1, 40))
        w = int(rng.integers(1, 40))
        cases.append(rng.integers(0, 65536, (h, w)).astype(np.float64))
    ok = True
    for i, samples in enumerate(cases):
        p1 = str(tmp_path / f"d{i}.pgm")
        p2 = str(tmp_path / f"d{i}b.pgm")
        save_depth_pgm(DepthMap(samples), p1)
        loaded = load_depth_pgm(p1)
        save_depth_pgm(loaded, p2)
        if not np.array_equal(loaded.samples, samples):
            ok = False
        if Path(p1).read_bytes() != Path(p2).read_bytes():
            ok = False
    for i in range(20):
        h = int(rng.integers(1, 30))
        w = int(rng.integers(1, 30))
        img = ColorImage(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
        p1 = str(tmp_path / f"c{i}.ppm")
        p2 = str(tmp_path / f"c{i}b.ppm")
        save_color_ppm(img, p1)
        loaded = load_color_ppm(p1)
        save_color_ppm(loaded, p2)
        if not np.array_equal(loaded.samples, img.samples):
            ok = False
        if Path(p1).read_bytes() != Path(p2).read_bytes():
            ok = False
    assert report(9, "raster round trips", ok,
                  "20 depth maps and 20 color images, byte-identical re-encode")
