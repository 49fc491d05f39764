"""Seeded RNG, synthetic scenes, degradation stages, quality metrics."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from depthrestore import evaluate
from depthrestore.evaluate import discontinuity_mask

from oracles import RefXoshiro, ref_degrade, splitmix64_stream


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


def test_rng_rejects_bad_seeds_and_counts():
    """A seed outside [0, 2**64) or not an int, and a count that is
    negative or not an int, raise ContractViolation instead of wrapping
    the seed, rewinding the stream or escaping as a raw Python or numpy
    error; a count of 0 leaves the stream where it was."""
    for seed in (-1, 1 << 64, 1.5, True, "1", None):
        with pytest.raises(ContractViolation):
            Rng(seed)
    want = Rng(1).u64s(5)
    rng = Rng(1)
    assert np.array_equal(rng.u64s(3), want[:3])
    for method in ("u64s", "uniforms", "normals"):
        for n in (-1, -2, 1.5, True):
            with pytest.raises(ContractViolation):
                getattr(rng, method)(n)
    assert rng.u64s(0).size == 0
    assert np.array_equal(rng.u64s(2), want[3:])


def ref_u64s(seed, n):
    ref = RefXoshiro(seed)
    return np.array([ref.next_u64() for _ in range(n)], dtype=np.uint64)


@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1])
def test_lane_generator_matches_reference_stream(seed):
    """100 000 draws span two default blocks of lanes jumped apart."""
    assert np.array_equal(Rng(seed).u64s(100_000), ref_u64s(seed, 100_000))


@pytest.mark.parametrize("lanes, lane_draws, n", [
    (1, 1, 5_000),  # one draw per block: no jump at all
    (7, 333, 100_000),  # lanes and blocks that do not divide n
    (1024, 3, 10_000),  # many short lanes, a partial last lane
])
def test_lane_generator_matches_reference_for_any_block_shape(monkeypatch, lanes,
                                                              lane_draws, n):
    monkeypatch.setattr(evaluate, "BLOCK_LANES", lanes)
    monkeypatch.setattr(evaluate, "LANE_DRAWS", lane_draws)
    assert np.array_equal(Rng(7).u64s(n), ref_u64s(7, n))


SCALAR_OF = {"u64s": "next_u64", "uniforms": "uniform", "normals": "gauss"}


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(sorted(SCALAR_OF) + sorted(SCALAR_OF.values())),
                              st.integers(0, 25)), max_size=12),
       seed=st.integers(0, 2**64 - 1), lanes=st.sampled_from([1, 2]),
       lane_draws=st.sampled_from([1, 3, 16, 512]),
       pair_chunk=st.sampled_from([1, 2, 3, 8192]))
@example(ops=[("gauss", 0), ("normals", 3), ("normals", 0), ("gauss", 0)], seed=42, lanes=1,
         lane_draws=1, pair_chunk=8192)
@example(ops=[("normals", 25), ("gauss", 0), ("normals", 7)], seed=11, lanes=2,
         lane_draws=16, pair_chunk=3)
def test_array_and_scalar_draws_interleave_like_the_serial_stream(ops, seed, lanes, lane_draws,
                                                                 pair_chunk):
    """Array calls return what the scalar calls would and consume the
    same draws, with the gauss spare carried across both kinds, even
    when a block runs out in the middle of a rejection or a round ends
    inside a chunk of pairs."""
    ours = Rng(seed)
    ref = RefXoshiro(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "BLOCK_LANES", lanes)
        mp.setattr(evaluate, "LANE_DRAWS", lane_draws)
        mp.setattr(evaluate, "PAIR_CHUNK", pair_chunk)
        for name, n in ops:
            if name in SCALAR_OF:
                want = [getattr(ref, SCALAR_OF[name])() for _ in range(n)]
                assert getattr(ours, name)(n).tolist() == want
            else:
                assert getattr(ours, name)() == getattr(ref, name)()
        assert ours.gauss() == ref.gauss()  # the same spare, or none
        assert ours.next_u64() == ref.next_u64()  # the same draws consumed


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
    for width, height in ((15, 120), (16.5, 120), (64, True), (64, "64")):
        with pytest.raises(ContractViolation):
            make_scene("step", width, height)
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


@settings(max_examples=80, deadline=None)
@given(h=st.integers(1, 9), w=st.integers(1, 9), holes=st.sampled_from([0.0, 0.3, 1.0]),
       sigma=st.sampled_from([0.0, 0.5, 20.0, 1e4]), frac=st.sampled_from([0.0, 0.05, 0.5]),
       radius=st.integers(0, 2), seed=st.integers(0, 2**64 - 1),
       lane_draws=st.sampled_from([1, 5, 512]))
@example(h=3, w=3, holes=1.0, sigma=20.0, frac=0.5, radius=1, seed=1, lane_draws=5)
@example(h=1, w=3, holes=0.0, sigma=20.0, frac=0.5, radius=0, seed=1, lane_draws=5)
def test_degrade_matches_per_pixel_reference(h, w, holes, sigma, frac, radius, seed,
                                             lane_draws):
    """degrade equals the per-pixel loop on the reference generator:
    holes in the clean input, odd and zero valid counts (the spare of
    an odd count is drawn and dropped), skipped stages, clamping at
    both ends, and blocks that end inside the noise stage."""
    frame = np.random.default_rng(seed)
    depth = np.floor(frame.uniform(1.0, 65535.0, (h, w)))
    depth[frame.random((h, w)) < holes] = 0.0
    spec = DegradeSpec(noise_sigma=sigma, speckle_hole_fraction=frac,
                       edge_hole_radius=radius, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "BLOCK_LANES", 2)
        mp.setattr(evaluate, "LANE_DRAWS", lane_draws)
        out = degrade(DepthMap(depth), spec)
    assert out.samples.tolist() == ref_degrade(depth, sigma, frac, radius, seed)


def test_noise_overflow_clamps_without_warnings():
    """A finite sigma whose product overflows to +-inf clamps to the
    documented range instead of failing."""
    depth, _ = make_scene("step", 16, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = degrade(depth, DegradeSpec(noise_sigma=1e308, seed=4))
    ref = RefXoshiro(4)
    g = np.array([ref.gauss() for _ in range(256)]).reshape(16, 16)
    assert np.abs(g).max() > 1.8  # 1e308 * 1.8 is inf
    assert np.array_equal(out.samples, np.where(g > 0, 65535.0, 1.0))


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
        DegradeSpec(noise_sigma=-1.0)
    with pytest.raises(ContractViolation):
        DegradeSpec(speckle_hole_fraction=1.0)
    with pytest.raises(ContractViolation):
        DegradeSpec(edge_hole_radius=-1)
    with pytest.raises(ContractViolation):
        DegradeSpec(seed=-1)
    # Not numbers of the field's kind: none runs as 1 or escapes as a TypeError.
    for name in ("noise_sigma", "speckle_hole_fraction", "edge_hole_radius", "seed"):
        for bad in (True, 1.5, "3", None):
            if (name, bad) != ("noise_sigma", 1.5):
                with pytest.raises(ContractViolation):
                    DegradeSpec(**{name: bad})
    DegradeSpec()
    DegradeSpec(edge_hole_radius=np.int64(2), seed=2**64 - 1)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_degrade_spec_rejects_non_finite_sigma(sigma):
    with pytest.raises(ContractViolation):
        DegradeSpec(noise_sigma=sigma)


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
    for tau in (-1.0, math.nan, "3", None):
        with pytest.raises(ContractViolation):
            bad_pixel_rate(a, a, tau=tau)
    assert bad_pixel_rate(a, a, tau=math.inf) == 0.0
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
