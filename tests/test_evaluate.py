"""Seeded RNG, synthetic scenes, degradation stages, quality metrics."""

import math

import numpy as np
import pytest

from depthrestore import (
    ContractViolation,
    DegradeSpec,
    DepthMap,
    QualityReport,
    Rng,
    bad_pixel_rate,
    compare,
    degrade,
    mae,
    make_scene,
    psnr,
)
from depthrestore.evaluate import discontinuity_mask

from oracles import RefXoshiro, splitmix64_stream


def test_rng_matches_independent_transcription():
    for seed in (0, 1, 42, 2**64 - 1, 0xDEADBEEF):
        ours = Rng(seed)
        ref = RefXoshiro(seed)
        for _ in range(500):
            assert ours.next_u64() == ref.next_u64()


def test_gauss_stream_matches_independent_transcription():
    for seed in (7, 42, 12345):
        ours = Rng(seed)
        ref = RefXoshiro(seed)
        for _ in range(1000):
            assert ours.gauss() == ref.gauss()


def test_uniform_mixes_seeds_and_stays_in_range():
    a = [Rng(1).uniform() for _ in range(10)]
    b = [Rng(2).uniform() for _ in range(10)]
    assert a != b
    r = Rng(99)
    for _ in range(5000):
        u = r.uniform()
        assert 0.0 <= u < 1.0


def test_gauss_first_two_moments():
    r = Rng(42)
    draws = np.array([r.gauss() for _ in range(20000)])
    assert abs(draws.mean()) < 0.02
    assert abs(draws.std() - 1.0) < 0.02


def test_splitmix_seeds_differ_across_state_words():
    words = splitmix64_stream(42, 4)
    assert len(set(words)) == 4


def test_step_scene_geometry():
    depth, color = make_scene("step", 160, 120)
    assert depth.samples[0, 0] == 1000.0
    assert depth.samples[119, 79] == 1000.0
    assert depth.samples[0, 80] == 2000.0
    assert depth.samples[119, 159] == 2000.0
    assert color.samples[5, 5].tolist() == [64, 64, 64]
    assert color.samples[5, 100].tolist() == [192, 192, 192]


def test_ramp_scene_endpoints_and_midpoint():
    depth, color = make_scene("ramp", 17, 16)
    assert depth.samples[0, 0] == 500.0
    assert depth.samples[0, 16] == 2500.0
    assert depth.samples[0, 8] == 1500.0
    assert depth.samples[3, 8] == depth.samples[12, 8]  # constant per column
    assert (color.samples == 128).all()


def test_occluder_scene_two_depths_colocated_color():
    depth, color = make_scene("occluder", 40, 32)
    assert set(np.unique(depth.samples)) == {800.0, 1500.0}
    assert depth.samples[16, 20] == 800.0
    assert depth.samples[0, 0] == 1500.0
    fg = depth.samples == 800.0
    assert (color.samples[fg] == 176).all()
    assert (color.samples[~fg] == 80).all()


def test_scene_size_floor_and_unknown_kind():
    with pytest.raises(ContractViolation):
        make_scene("step", 15, 120)
    with pytest.raises(ContractViolation):
        make_scene("plateau", 64, 64)


def test_degrade_zero_spec_is_identity():
    depth, _ = make_scene("step", 32, 32)
    out = degrade(depth, DegradeSpec())
    assert np.array_equal(out.samples, depth.samples)


def test_degrade_is_deterministic():
    depth, _ = make_scene("occluder", 48, 32)
    spec = DegradeSpec(noise_sigma=15.0, speckle_hole_fraction=0.1,
                       edge_hole_radius=1, seed=7)
    a = degrade(depth, spec)
    b = degrade(depth, spec)
    assert np.array_equal(a.samples, b.samples)


def test_noise_stage_matches_reference_stream():
    depth, _ = make_scene("ramp", 24, 16)
    sigma = 20.0
    out = degrade(depth, DegradeSpec(noise_sigma=sigma, seed=3))
    ref = RefXoshiro(3)
    expect = depth.samples.copy()
    for y in range(16):
        for x in range(24):
            v = math.floor(expect[y, x] + sigma * ref.gauss() + 0.5)
            expect[y, x] = min(65535, max(1, v))
    assert np.array_equal(out.samples, expect)


def test_noise_never_creates_holes():
    depth, _ = make_scene("step", 32, 32)
    out = degrade(depth, DegradeSpec(noise_sigma=5000.0, seed=11))
    assert not (out.samples == 0).any()
    assert out.samples.min() >= 1.0


def test_speckle_stage_matches_reference_stream():
    depth, _ = make_scene("step", 20, 16)
    frac = 0.3
    out = degrade(depth, DegradeSpec(speckle_hole_fraction=frac, seed=5))
    ref = RefXoshiro(5)
    expect = depth.samples.copy()
    for y in range(16):
        for x in range(20):
            if ref.uniform() < frac:
                expect[y, x] = 0.0
    assert np.array_equal(out.samples, expect)
    assert (out.samples == 0).any()


def test_skipped_noise_stage_consumes_no_draws():
    """Speckle holes land identically whether or not noise ran before
    them only if a zero-sigma noise stage leaves the stream untouched,
    so pin that alignment."""
    depth, _ = make_scene("ramp", 20, 16)
    only_speckle = degrade(depth, DegradeSpec(speckle_hole_fraction=0.2, seed=9))
    ref = RefXoshiro(9)
    holes = np.zeros((16, 20), dtype=bool)
    for y in range(16):
        for x in range(20):
            holes[y, x] = ref.uniform() < 0.2
    assert np.array_equal(only_speckle.samples == 0, holes)


def test_edge_hole_stage_is_deterministic_shadowing():
    depth, _ = make_scene("step", 160, 120)
    out = degrade(depth, DegradeSpec(edge_hole_radius=2))
    holes = out.samples == 0
    expect = np.zeros((120, 160), dtype=bool)
    expect[:, 77:83] = True  # jump pair (79, 80) dilated by 2
    assert np.array_equal(holes, expect)


def test_discontinuity_mask_marks_both_sides():
    d = DepthMap(np.array([[1000.0, 1000.0, 1300.0, 1300.0]]))
    assert discontinuity_mask(d).tolist() == [[False, True, True, False]]
    gentle = DepthMap(np.array([[1000.0, 1050.0, 1100.0]]))
    assert not discontinuity_mask(gentle).any()


def test_discontinuity_ignores_steps_into_holes():
    d = DepthMap(np.array([[1000.0, 0.0, 2000.0]]))
    assert not discontinuity_mask(d).any()


def test_degrade_spec_validation():
    with pytest.raises(ContractViolation):
        DegradeSpec(noise_sigma=-1.0).validate()
    with pytest.raises(ContractViolation):
        DegradeSpec(speckle_hole_fraction=1.0).validate()
    with pytest.raises(ContractViolation):
        DegradeSpec(edge_hole_radius=-1).validate()
    with pytest.raises(ContractViolation):
        DegradeSpec(seed=-1).validate()
    DegradeSpec().validate()


def test_psnr_closed_forms():
    a = DepthMap(np.full((8, 8), 1000.0))
    b = DepthMap(np.full((8, 8), 1001.0))
    want = 20.0 * math.log10(65535.0)
    assert abs(psnr(a, b) - want) < 1e-9
    assert psnr(a, a) == math.inf


def test_halving_the_error_adds_six_db():
    base = np.full((8, 8), 2000.0)
    pattern = np.tile([16.0, -16.0], (8, 4))
    a = DepthMap(base)
    worse = DepthMap(base + pattern)
    better = DepthMap(base + pattern / 2.0)
    gain = psnr(a, better) - psnr(a, worse)
    assert abs(gain - 20.0 * math.log10(2.0)) < 1e-9


def test_mae_and_bad_rate_closed_forms():
    a = DepthMap(np.full((4, 4), 1000.0))
    b = DepthMap(np.full((4, 4), 1005.0))
    assert mae(a, b) == 5.0
    assert bad_pixel_rate(a, b, tau=10.0) == 0.0
    c = DepthMap(np.full((4, 4), 1015.0))
    assert mae(a, c) == 15.0
    assert bad_pixel_rate(a, c, tau=10.0) == 1.0
    assert bad_pixel_rate(a, c, tau=15.0) == 0.0  # strict inequality


def test_metrics_skip_holes_and_respect_mask():
    a = DepthMap(np.array([[1000.0, 0.0], [1000.0, 1000.0]]))
    b = DepthMap(np.array([[1010.0, 1000.0], [0.0, 1030.0]]))
    assert mae(a, b) == 20.0  # only (0,0) and (1,1) count
    mask = np.array([[True, True], [True, False]])
    assert mae(a, b, mask) == 10.0
    with pytest.raises(ContractViolation):
        mae(a, b, np.zeros((2, 2), bool))


def test_metric_validation():
    a = DepthMap(np.full((4, 4), 1000.0))
    with pytest.raises(ContractViolation):
        bad_pixel_rate(a, a, tau=-1.0)
    with pytest.raises(ContractViolation):
        mae(a, DepthMap(np.zeros((3, 3))))
    with pytest.raises(ContractViolation):
        psnr(DepthMap(np.zeros((4, 4))), a)  # no mutually valid pixels


def test_quality_report_lines_and_csv():
    r = QualityReport(psnr_db=math.inf, mae_mm=1.25, bad_pixel_rate=0.5,
                      evaluated_pixels=99)
    assert r.lines() == ["psnr_db: inf", "mae_mm: 1.250000",
                         "bad_pixel_rate: 0.500000", "evaluated_pixels: 99"]


def test_compare_bundles_the_three_metrics():
    a = DepthMap(np.full((6, 6), 1000.0))
    b = DepthMap(np.full((6, 6), 1012.0))
    r = compare(a, b, tau=10.0)
    assert r.mae_mm == 12.0
    assert r.bad_pixel_rate == 1.0
    assert r.evaluated_pixels == 36
    assert abs(r.psnr_db - 20.0 * math.log10(65535.0 / 12.0)) < 1e-9
