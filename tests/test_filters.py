"""Per-pixel filters vs the brute-force reference and the array engine."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from depthrestore import (
    ColorImage,
    ContractViolation,
    DegradeSpec,
    DepthMap,
    KernelParams,
    degrade,
    djbf_pixel,
    encode_depth_pgm,
    jbf_pixel,
    make_scene,
    pdjbf_pixel,
    restore,
    tjbf_pixel,
)
from depthrestore import filters
from depthrestore.edge_analysis import EdgeMap, NONHOLE_EDGE, NONHOLE_NONEDGE
from depthrestore.filters import (
    WindowSums,
    filter_non_hole,
    guide_planes,
    row_bands,
    window_sums,
)
from depthrestore.image_model import HOLE

from oracles import brute_filter, ref_window_sums

PARAMS = KernelParams(sigma_s=2.0, sigma_r_color=20.0, sigma_r_depth=30.0,
                      sigma_x=4.0, sigma_y=1.5, window_radius=2)


def random_instance(rng, shape=(7, 7), hole_fraction=0.15):
    d = rng.uniform(500, 3000, shape)
    d[rng.random(shape) < hole_fraction] = 0.0
    guide = ColorImage(rng.integers(0, 256, shape + (3,), dtype=np.uint8))
    theta = rng.uniform(-np.pi / 2, np.pi / 2, shape)
    return DepthMap(d), guide, theta


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-30)


def test_jbf_matches_brute_force():
    rng = np.random.default_rng(41)
    depth, guide, theta = random_instance(rng)
    valid = depth.samples != HOLE
    for y in range(7):
        for x in range(7):
            if not valid[y, x]:
                continue
            got = jbf_pixel((y, x), depth, guide, PARAMS)
            want, wsum, n = brute_filter(
                "jbf", y, x, depth.samples, valid, guide.samples, 0.0,
                radius=2, sigma_s=2.0, sigma_rc=20.0)
            assert rel_err(got.value, want) < 1e-12
            assert rel_err(got.weight_sum, wsum) < 1e-12
            assert got.contributors == n


def test_tjbf_matches_brute_force():
    rng = np.random.default_rng(42)
    depth, guide, theta = random_instance(rng)
    valid = depth.samples != HOLE
    for y in range(7):
        for x in range(7):
            if not valid[y, x]:
                continue
            got = tjbf_pixel((y, x), depth, guide, PARAMS)
            want, wsum, n = brute_filter(
                "tjbf", y, x, depth.samples, valid, guide.samples, 0.0,
                radius=2, sigma_s=2.0, sigma_rc=20.0, sigma_rd=30.0)
            assert rel_err(got.value, want) < 1e-12
            assert rel_err(got.weight_sum, wsum) < 1e-12
            assert got.contributors == n


def test_djbf_matches_brute_force():
    rng = np.random.default_rng(43)
    depth, guide, theta = random_instance(rng)
    valid = depth.samples != HOLE
    for y in range(7):
        for x in range(7):
            if not valid[y, x]:
                continue
            got = djbf_pixel((y, x), depth, guide, float(theta[y, x]), PARAMS)
            want, wsum, n = brute_filter(
                "djbf", y, x, depth.samples, valid, guide.samples,
                float(theta[y, x]), radius=2, sigma_rc=20.0,
                sigma_x=4.0, sigma_y=1.5)
            assert rel_err(got.value, want) < 1e-12
            assert rel_err(got.weight_sum, wsum) < 1e-12
            assert got.contributors == n


def test_pdjbf_matches_brute_force_on_holes():
    rng = np.random.default_rng(44)
    depth, guide, theta = random_instance(rng, hole_fraction=0.4)
    valid = depth.samples != HOLE
    for y in range(7):
        for x in range(7):
            if valid[y, x]:
                continue
            got = pdjbf_pixel((y, x), depth, valid, guide,
                              float(theta[y, x]), PARAMS)
            want, wsum, n = brute_filter(
                "pdjbf", y, x, depth.samples, valid, guide.samples,
                float(theta[y, x]), radius=2, sigma_rc=20.0,
                sigma_x=4.0, sigma_y=1.5)
            if n == 0:
                assert got.value == 0.0 and got.weight_sum == 0.0
                assert got.contributors == 0
            else:
                assert rel_err(got.value, want) < 1e-12
                assert rel_err(got.weight_sum, wsum) < 1e-12
                assert got.contributors == n


def test_hole_centers_are_rejected():
    a = np.full((5, 5), 900.0)
    a[2, 2] = 0.0
    depth = DepthMap(a)
    guide = ColorImage(np.zeros((5, 5, 3), dtype=np.uint8))
    for fn in (jbf_pixel, tjbf_pixel):
        with pytest.raises(ContractViolation):
            fn((2, 2), depth, guide, PARAMS)
    with pytest.raises(ContractViolation):
        djbf_pixel((2, 2), depth, guide, 0.0, PARAMS)
    with pytest.raises(ContractViolation):
        pdjbf_pixel((1, 1), depth, a != 0, guide, 0.0, PARAMS)


def test_constant_depth_returns_the_constant():
    rng = np.random.default_rng(45)
    depth = DepthMap(np.full((6, 6), 1234.5))
    guide = ColorImage(rng.integers(0, 256, (6, 6, 3), dtype=np.uint8))
    assert jbf_pixel((3, 3), depth, guide, PARAMS).value == 1234.5
    assert tjbf_pixel((0, 5), depth, guide, PARAMS).value == 1234.5
    assert djbf_pixel((2, 4), depth, guide, 0.8, PARAMS).value == 1234.5


def test_single_pixel_image_returns_itself():
    depth = DepthMap(np.array([[1777.0]]))
    guide = ColorImage(np.zeros((1, 1, 3), dtype=np.uint8))
    got = jbf_pixel((0, 0), depth, guide, PARAMS)
    assert got.value == 1777.0
    assert got.contributors == 1


def test_single_valid_neighbor_passes_through():
    a = np.zeros((3, 3))
    a[0, 2] = 2222.0
    depth = DepthMap(a)
    guide = ColorImage(np.full((3, 3, 3), 90, dtype=np.uint8))
    got = pdjbf_pixel((1, 1), depth, a != 0, guide, 0.4, PARAMS)
    assert got.value == 2222.0
    assert got.contributors == 1


def test_far_outlier_barely_moves_tjbf():
    a = np.full((5, 5), 1000.0)
    a[2, 3] = 1300.0  # 10 depth sigmas away
    depth = DepthMap(a)
    guide = ColorImage(np.full((5, 5, 3), 50, dtype=np.uint8))
    with_outlier = tjbf_pixel((2, 2), depth, guide, PARAMS).value
    mask = a != 0
    mask[2, 3] = False
    want, _, _ = brute_filter("tjbf", 2, 2, a, mask, guide.samples, 0.0,
                              radius=2, sigma_s=2.0, sigma_rc=20.0, sigma_rd=30.0)
    assert abs(with_outlier - want) < 1e-6


def test_huge_depth_sigma_reduces_tjbf_to_jbf():
    rng = np.random.default_rng(46)
    depth, guide, _ = random_instance(rng)
    p = KernelParams(sigma_s=2.0, sigma_r_color=20.0, sigma_r_depth=1e9,
                     sigma_x=4.0, sigma_y=1.5, window_radius=2)
    for y in range(7):
        for x in range(7):
            if depth.samples[y, x] == HOLE:
                continue
            assert tjbf_pixel((y, x), depth, guide, p) == jbf_pixel((y, x), depth, guide, p)


def test_dgf_with_equal_widths_reduces_djbf_to_jbf():
    rng = np.random.default_rng(47)
    depth, guide, theta = random_instance(rng)
    p = KernelParams(sigma_s=2.0, sigma_r_color=20.0, sigma_r_depth=30.0,
                     sigma_x=2.0, sigma_y=2.0, window_radius=2)
    for y in range(7):
        for x in range(7):
            if depth.samples[y, x] == HOLE:
                continue
            a = djbf_pixel((y, x), depth, guide, float(theta[y, x]), p).value
            b = jbf_pixel((y, x), depth, guide, p).value
            assert rel_err(a, b) < 1e-12


def test_output_stays_inside_contributor_range():
    rng = np.random.default_rng(48)
    for _ in range(20):
        depth, guide, theta = random_instance(rng, hole_fraction=0.3)
        valid = depth.samples != HOLE
        for y in range(7):
            for x in range(7):
                if valid[y, x]:
                    out = tjbf_pixel((y, x), depth, guide, PARAMS)
                else:
                    out = pdjbf_pixel((y, x), depth, valid, guide,
                                      float(theta[y, x]), PARAMS)
                    if out.contributors == 0:
                        continue
                block = depth.samples[max(0, y - 2):y + 3, max(0, x - 2):x + 3]
                usable = block[block != HOLE]
                assert usable.min() <= out.value <= usable.max()


def engine_values(depth, guide, params, *, theta=None, iso=False, depth_term=False,
                  valid=None):
    d = depth.samples
    h, w = d.shape
    validf = (d != HOLE).astype(np.float64) if valid is None else valid.astype(np.float64)
    acc = WindowSums((h, w))
    kwargs = {}
    if iso:
        kwargs["iso_sigma"] = params.sigma_s
    else:
        kwargs["cos_t"] = np.cos(theta)
        kwargs["sin_t"] = np.sin(theta)
    if depth_term:
        kwargs["depth_sigma"] = params.sigma_r_depth
    window_sums(d, validf, guide_planes(guide), params, acc, 0, h, **kwargs)
    return acc


def test_engine_reproduces_scalar_filters_bit_for_bit():
    """A per-pixel filter (the engine on one window crop) gives the same
    bits as a whole-image engine run: value, weight sum and count."""
    rng = np.random.default_rng(49)
    depth, guide, theta = random_instance(rng, shape=(16, 16), hole_fraction=0.2)
    valid = depth.samples != HOLE

    acc = engine_values(depth, guide, PARAMS, iso=True, depth_term=True)
    vals = acc.normalized()
    for y, x in zip(*np.nonzero(valid)):
        got = tjbf_pixel((y, x), depth, guide, PARAMS)
        assert got.value == vals[y, x]
        assert got.weight_sum == acc.den[y, x]
        assert got.contributors == acc.cnt[y, x]

    acc = engine_values(depth, guide, PARAMS, theta=theta)
    vals = acc.normalized()
    for y, x in zip(*np.nonzero(valid)):
        got = djbf_pixel((y, x), depth, guide, float(theta[y, x]), PARAMS)
        assert got.value == vals[y, x]
        assert got.weight_sum == acc.den[y, x]
        assert got.contributors == acc.cnt[y, x]
    for y, x in zip(*np.nonzero(~valid)):
        got = pdjbf_pixel((y, x), depth, valid, guide, float(theta[y, x]), PARAMS)
        assert got.value == vals[y, x]
        assert got.weight_sum == acc.den[y, x]
        assert got.contributors == acc.cnt[y, x]


def test_banded_run_is_bit_identical_to_whole_image():
    rng = np.random.default_rng(50)
    depth, guide, theta = random_instance(rng, shape=(16, 16))
    d = depth.samples
    validf = (d != HOLE).astype(np.float64)
    planes = guide_planes(guide)
    whole = WindowSums(d.shape)
    window_sums(d, validf, planes, PARAMS, whole, 0, 16,
                iso_sigma=PARAMS.sigma_s, depth_sigma=PARAMS.sigma_r_depth)
    split = WindowSums(d.shape)
    for r0, r1 in ((0, 1), (1, 6), (6, 13), (13, 16)):
        window_sums(d, validf, planes, PARAMS, split, r0, r1,
                    iso_sigma=PARAMS.sigma_s, depth_sigma=PARAMS.sigma_r_depth)
    assert np.array_equal(whole.normalized(), split.normalized())
    assert np.array_equal(whole.den, split.den)
    assert np.array_equal(whole.cnt, split.cnt)


def test_filter_non_hole_composes_per_pixel_filters():
    """The banded whole-image pass equals per-pixel window-crop runs."""
    rng = np.random.default_rng(51)
    depth, guide, _ = random_instance(rng, shape=(12, 12), hole_fraction=0.1)
    labels = np.zeros((12, 12), dtype=np.uint8)
    labels[rng.random((12, 12)) < 0.4] = NONHOLE_EDGE
    labels[depth.samples == HOLE] = 2
    theta = rng.uniform(-np.pi / 2, np.pi / 2, (12, 12))
    edges = EdgeMap(labels == NONHOLE_EDGE, theta)
    out = filter_non_hole(depth, guide, labels, edges, PARAMS)
    for y in range(12):
        for x in range(12):
            if labels[y, x] == NONHOLE_NONEDGE:
                want = tjbf_pixel((y, x), depth, guide, PARAMS).value
            elif labels[y, x] == NONHOLE_EDGE:
                want = djbf_pixel((y, x), depth, guide, float(theta[y, x]), PARAMS).value
            else:
                want = depth.samples[y, x]
            assert out.samples[y, x] == want


def test_filter_non_hole_thread_count_is_invisible():
    rng = np.random.default_rng(52)
    depth, guide, _ = random_instance(rng, shape=(20, 20))
    labels = (depth.samples == HOLE).astype(np.uint8) * 2
    edges = EdgeMap(np.zeros((20, 20), bool), np.zeros((20, 20)))
    one = filter_non_hole(depth, guide, labels, edges, PARAMS, threads=1)
    eight = filter_non_hole(depth, guide, labels, edges, PARAMS, threads=8)
    assert np.array_equal(one.samples, eight.samples)


def test_mirrored_inputs_give_exactly_mirrored_output():
    """Horizontal reflection commutes with the filters, bit for bit.

    The engine pairs the -dx/+dx contributions before accumulating
    precisely so that this holds exactly; theta flips sign under the
    reflection.
    """
    rng = np.random.default_rng(53)
    depth, guide, theta = random_instance(rng, shape=(10, 10), hole_fraction=0.2)
    labels = np.zeros((10, 10), dtype=np.uint8)
    labels[rng.random((10, 10)) < 0.5] = NONHOLE_EDGE
    labels[depth.samples == HOLE] = 2
    edges = EdgeMap(labels == NONHOLE_EDGE, theta)
    out = filter_non_hole(depth, guide, labels, edges, PARAMS)

    m_depth = DepthMap(depth.samples[:, ::-1].copy())
    m_guide = ColorImage(guide.samples[:, ::-1].copy())
    m_labels = labels[:, ::-1].copy()
    m_edges = EdgeMap(m_labels == NONHOLE_EDGE, (-theta)[:, ::-1].copy())
    m_out = filter_non_hole(m_depth, m_guide, m_labels, m_edges, PARAMS)
    assert np.array_equal(m_out.samples, out.samples[:, ::-1])


def engine_case(rng, h, w, flavor, radius):
    """A random h x w engine input: depth, source validity (holes and
    20% more sources switched off), guide planes, params, and the
    window_sums flavor keywords."""
    params = replace(PARAMS, window_radius=radius)
    depth, guide, theta = random_instance(rng, shape=(h, w), hole_fraction=0.3)
    d = depth.samples
    validf = ((d != HOLE) & (rng.random((h, w)) < 0.8)).astype(np.float64)
    kwargs = {"cos_t": np.cos(theta), "sin_t": np.sin(theta)}
    if flavor != "directional":
        kwargs = {"iso_sigma": params.sigma_s}
    if flavor == "trilateral":
        kwargs["depth_sigma"] = params.sigma_r_depth
    return d, validf, guide_planes(guide), params, kwargs


FLAVORS = ["isotropic", "trilateral", "directional"]


@settings(max_examples=80, deadline=None)
@given(h=st.integers(1, 9), w=st.integers(1, 9),
       flavor=st.sampled_from(FLAVORS),
       radius=st.integers(1, 3), density=st.sampled_from([0.1, 0.5, 1.0]),
       border=st.booleans(), bands=st.sampled_from([1, 3, 8]),
       seed=st.integers(0, 2**32 - 1))
@example(h=1, w=9, flavor="directional", radius=2, density=0.5, border=True, bands=3, seed=1)
@example(h=9, w=1, flavor="trilateral", radius=3, density=0.5, border=True, bands=8, seed=2)
@example(h=4, w=3, flavor="isotropic", radius=2, density=0.1, border=True, bands=1, seed=3)
def test_gather_addressing_matches_slice_addressing(h, w, flavor, radius, density,
                                                    border, bands, seed):
    """A target-set run gives, at every target, the exact sums of a
    dense run: num, den, cnt, cmin and cmax, for each flavor, on frames
    down to 1xN and Nx1 and narrower than the window, with targets on
    the borders and the targets split over several row bands."""
    rng = np.random.default_rng(seed)
    d, validf, planes, params, kwargs = engine_case(rng, h, w, flavor, radius)
    mask = rng.random((h, w)) < density
    if border:
        mask[[0, -1], :] = True
        mask[:, [0, -1]] = True
    targets = np.flatnonzero(mask)
    dense = WindowSums((h, w))
    window_sums(d, validf, planes, params, dense, 0, h, **kwargs)
    sparse = WindowSums(targets.shape)
    for r0, r1 in row_bands(h, bands):
        window_sums(d, validf, planes, params, sparse, r0, r1, targets=targets, **kwargs)
    for name in ("num", "den", "cnt", "cmin", "cmax"):
        assert np.array_equal(getattr(dense, name).flat[targets], getattr(sparse, name)), name


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 9), w=st.integers(1, 9), flavor=st.sampled_from(FLAVORS),
       radius=st.integers(1, 3), sparse=st.booleans(), bands=st.sampled_from([1, 3, 8]),
       seed=st.integers(0, 2**32 - 1))
@example(h=5, w=9, flavor="trilateral", radius=2, sparse=False, bands=1, seed=4)
@example(h=9, w=7, flavor="directional", radius=3, sparse=True, bands=3, seed=5)
def test_block_size_never_changes_a_bit(h, w, flavor, radius, sparse, bands, seed):
    """Splitting each call's band into blocks of BLOCK_PX output pixels
    (rows for a dense run, targets for a target-set run) leaves num,
    den, cnt, cmin and cmax exactly as one block per band leaves them,
    including blocks of 1 px, blocks that end mid-row and a short last
    block."""
    rng = np.random.default_rng(seed)
    d, validf, planes, params, kwargs = engine_case(rng, h, w, flavor, radius)
    targets = np.flatnonzero(rng.random((h, w)) < 0.5) if sparse else None

    def run(block_px):
        acc = WindowSums((h, w) if targets is None else targets.shape)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filters, "BLOCK_PX", block_px)
            for r0, r1 in row_bands(h, bands):
                window_sums(d, validf, planes, params, acc, r0, r1, targets=targets, **kwargs)
        return acc

    whole = run(h * w)
    for block_px in sorted({1, 2, w - 1, w, w + 1, 7} - {0}):
        got = run(block_px)
        for name in ("num", "den", "cnt", "cmin", "cmax"):
            assert np.array_equal(getattr(whole, name), getattr(got, name)), (block_px, name)


@settings(max_examples=120, deadline=None)
@given(h=st.integers(1, 9), w=st.integers(1, 9), flavor=st.sampled_from(FLAVORS),
       radius=st.integers(1, 3), sparse=st.booleans(), bands=st.sampled_from([1, 3, 8]),
       sigma_r_color=st.floats(0.5, 1e4), sigma_r_depth=st.sampled_from([30.0, 1e9]),
       seed=st.integers(0, 2**32 - 1))
@example(h=2, w=1, flavor="trilateral", radius=1, sparse=False, bands=1,
         sigma_r_color=1e4, sigma_r_depth=30.0, seed=6)
@example(h=6, w=9, flavor="directional", radius=3, sparse=True, bands=3,
         sigma_r_color=0.5, sigma_r_depth=30.0, seed=7)
@example(h=9, w=9, flavor="isotropic", radius=2, sparse=False, bands=8,
         sigma_r_color=25.0, sigma_r_depth=1e9, seed=8)
def test_engine_matches_float64_reference_body(h, w, flavor, radius, sparse, bands,
                                               sigma_r_color, sigma_r_depth, seed):
    """window_sums gives the exact num, den, cnt, cmin and cmax of the
    frozen float64 weight body in tests/oracles.py, for each flavor,
    dense and on a target set split over row bands, at any color sigma.
    Every channel of the guide takes 0 and 255, and an all-0 pixel sits
    next to an all-255 one, so the squared color distance reaches
    3 * 255**2 = 195075."""
    rng = np.random.default_rng(seed)
    d, validf, _, params, kwargs = engine_case(rng, h, w, flavor, radius)
    params = replace(params, sigma_r_color=sigma_r_color, sigma_r_depth=sigma_r_depth)
    if "depth_sigma" in kwargs:
        kwargs["depth_sigma"] = sigma_r_depth
    colors = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    mix = rng.random((h, w, 3))
    colors[mix < 0.25] = 0
    colors[mix > 0.75] = 255
    if h * w > 1:
        y = int(rng.integers(0, h - (w == 1)))
        x = int(rng.integers(0, max(1, w - 1)))
        colors[y, x] = 0
        colors[y + (w == 1), x + (w > 1)] = 255
    want = ref_window_sums(d, validf, colors, params, **kwargs)
    targets = np.flatnonzero(rng.random((h, w)) < 0.5) if sparse else None
    acc = WindowSums((h, w) if targets is None else targets.shape)
    planes = guide_planes(ColorImage(colors))
    for r0, r1 in row_bands(h, bands):
        window_sums(d, validf, planes, params, acc, r0, r1, targets=targets, **kwargs)
    for name in ("num", "den", "cnt", "cmin", "cmax"):
        ref = want[name] if targets is None else want[name].flat[targets]
        assert np.array_equal(ref, getattr(acc, name)), name


def test_restore_bytes_do_not_depend_on_block_size(monkeypatch):
    """A whole restore (dense denoise, directional targets, fill passes)
    writes the same bytes with 1 px and 50 px blocks as with the default."""
    clean, guide = make_scene("occluder", 48, 36)
    depth = degrade(clean, DegradeSpec(20, 0.05, 2, seed=42))
    want = encode_depth_pgm(restore(depth, guide)[0])
    for block_px in (1, 50):
        monkeypatch.setattr(filters, "BLOCK_PX", block_px)
        assert encode_depth_pgm(restore(depth, guide)[0]) == want, block_px


def test_row_bands_partition():
    assert row_bands(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert row_bands(4, 9) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert row_bands(7, 1) == [(0, 7)]
