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
    PipelineConfig,
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
    interior,
    pad,
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


def call_pixel_filter(name, p, depth, guide, params, valid, theta):
    """Run the named per-pixel filter; valid and theta go only to the
    filters that take them."""
    return {"jbf_pixel": lambda: jbf_pixel(p, depth, guide, params),
            "tjbf_pixel": lambda: tjbf_pixel(p, depth, guide, params),
            "djbf_pixel": lambda: djbf_pixel(p, depth, guide, theta, params),
            "pdjbf_pixel": lambda: pdjbf_pixel(p, depth, valid, guide, theta, params)}[name]()


@pytest.mark.parametrize("name", ["jbf_pixel", "tjbf_pixel", "djbf_pixel", "pdjbf_pixel"])
def test_per_pixel_filters_fail_closed(name):
    """A guide or valid mask of another size, invalid params, a pixel
    that is off the frame or not an int pair, and an angle that is not
    a finite real each raise ContractViolation, instead of returning a
    value or escaping as a numpy error."""
    rng = np.random.default_rng(54)
    depth, guide, _ = random_instance(rng, shape=(8, 8), hole_fraction=0.0)
    ok = {"p": (3, 2), "depth": depth, "guide": guide, "params": PARAMS,
          "valid": np.zeros((8, 8), bool), "theta": 0.3}
    call_pixel_filter(name, **ok)
    bad = [{"guide": random_instance(rng, shape=s)[1]} for s in ((6, 6), (8, 11))]
    bad.append({"params": KernelParams(sigma_s=-1.0)})
    bad += [{"p": p} for p in ((-1, 3), (3.5, 2), (8, 0), (0, 8), (True, 0))]
    if name == "pdjbf_pixel":
        bad.append({"valid": np.zeros((5, 5), bool)})
    if name in ("djbf_pixel", "pdjbf_pixel"):
        bad += [{"theta": t} for t in (math.nan, math.inf, None, "0.3")]
    for change in bad:
        with pytest.raises(ContractViolation):
            call_pixel_filter(name, **(ok | change))


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
    r = params.window_radius
    usable = d != HOLE if valid is None else valid
    acc = WindowSums((h, w))
    kwargs = {}
    if iso:
        kwargs["iso_sigma"] = params.sigma_s
    else:
        kwargs["cos_t"] = np.cos(theta)
        kwargs["sin_t"] = np.sin(theta)
    if depth_term:
        kwargs["depth_sigma"] = params.sigma_r_depth
    window_sums(pad(d, r), pad(usable, r, np.float64), guide_planes(guide, r), params, acc,
                0, h, **kwargs)
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
    r = PARAMS.window_radius
    d = pad(depth.samples, r)
    validf = pad(depth.samples != HOLE, r, np.float64)
    planes = guide_planes(guide, r)
    whole = WindowSums(depth.samples.shape)
    window_sums(d, validf, planes, PARAMS, whole, 0, 16,
                iso_sigma=PARAMS.sigma_s, depth_sigma=PARAMS.sigma_r_depth)
    split = WindowSums(depth.samples.shape)
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
    out = filter_non_hole(depth, guide, labels, edges, PipelineConfig(kernel=PARAMS))
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
    one = filter_non_hole(depth, guide, labels, edges, PipelineConfig(kernel=PARAMS, threads=1))
    eight = filter_non_hole(depth, guide, labels, edges, PipelineConfig(kernel=PARAMS, threads=8))
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
    out = filter_non_hole(depth, guide, labels, edges, PipelineConfig(kernel=PARAMS))

    m_depth = DepthMap(depth.samples[:, ::-1].copy())
    m_guide = ColorImage(guide.samples[:, ::-1].copy())
    m_labels = labels[:, ::-1].copy()
    m_edges = EdgeMap(m_labels == NONHOLE_EDGE, (-theta)[:, ::-1].copy())
    m_out = filter_non_hole(m_depth, m_guide, m_labels, m_edges, PipelineConfig(kernel=PARAMS))
    assert np.array_equal(m_out.samples, out.samples[:, ::-1])


def engine_case(rng, h, w, flavor, radius, integer=False):
    """A random h x w engine input: depth, source validity (holes and
    20% more sources switched off), guide planes, all three padded by
    the radius as window_sums takes them, params, and the flavor
    keywords of a dense run (at_targets gives a target-set run's). With
    integer the depth is rounded and handed over as uint16, so the
    engine reads its depth term from depth_range_table; depth
    differences reach 2500, where the weight underflows to 0."""
    params = replace(PARAMS, window_radius=radius)
    depth, guide, theta = random_instance(rng, shape=(h, w), hole_fraction=0.3)
    d = depth.samples
    if integer:
        d = np.rint(d).astype(np.uint16)
    validf = ((d != HOLE) & (rng.random((h, w)) < 0.8)).astype(np.float64)
    kwargs = {"cos_t": np.cos(theta), "sin_t": np.sin(theta)}
    if flavor != "directional":
        kwargs = {"iso_sigma": params.sigma_s}
    if flavor == "trilateral":
        kwargs["depth_sigma"] = params.sigma_r_depth
    return pad(d, radius), pad(validf, radius), guide_planes(guide, radius), params, kwargs


def at_targets(kwargs, targets):
    """The flavor keywords for a run on targets: a per-pixel (h, w)
    angle becomes one entry per target."""
    if targets is None:
        return kwargs
    return {k: v.flat[targets] if np.ndim(v) == 2 else v for k, v in kwargs.items()}


FLAVORS = ["isotropic", "trilateral", "directional"]


@settings(max_examples=80, deadline=None)
@given(h=st.integers(1, 9), w=st.integers(1, 9),
       flavor=st.sampled_from(FLAVORS),
       radius=st.integers(1, 3), density=st.sampled_from([0.1, 0.5, 1.0]),
       border=st.booleans(), bands=st.sampled_from([1, 3, 8]),
       track=st.booleans(), integer=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(h=1, w=9, flavor="directional", radius=2, density=0.5, border=True, bands=3,
         track=True, integer=False, seed=1)
@example(h=9, w=1, flavor="trilateral", radius=3, density=0.5, border=True, bands=8,
         track=True, integer=False, seed=2)
@example(h=4, w=3, flavor="isotropic", radius=2, density=0.1, border=True, bands=1,
         track=True, integer=False, seed=3)
@example(h=8, w=9, flavor="trilateral", radius=3, density=0.5, border=True, bands=3,
         track=False, integer=True, seed=4)
def test_gather_addressing_matches_slice_addressing(h, w, flavor, radius, density,
                                                    border, bands, track, integer, seed):
    """A target-set run gives, at every target, the exact sums of a
    dense run: num, den, cnt, cmin and cmax (num and den untracked),
    for each flavor, on float and uint16 depth, on frames down to 1xN
    and Nx1 and narrower than the window, with targets on the borders
    and the targets split over several row bands."""
    rng = np.random.default_rng(seed)
    d, validf, planes, params, kwargs = engine_case(rng, h, w, flavor, radius, integer)
    mask = rng.random((h, w)) < density
    if border:
        mask[[0, -1], :] = True
        mask[:, [0, -1]] = True
    targets = np.flatnonzero(mask)
    dense = WindowSums((h, w), track)
    window_sums(d, validf, planes, params, dense, 0, h, **kwargs)
    sparse = WindowSums(targets.shape, track)
    for r0, r1 in row_bands(h, bands):
        window_sums(d, validf, planes, params, sparse, r0, r1, targets=targets,
                    **at_targets(kwargs, targets))
    names = ("num", "den", "cnt", "cmin", "cmax") if track else ("num", "den")
    for name in names:
        assert np.array_equal(getattr(dense, name).flat[targets], getattr(sparse, name)), name
    assert track or sparse.cnt is sparse.cmin is sparse.cmax is None


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 9), w=st.integers(1, 9), flavor=st.sampled_from(FLAVORS),
       radius=st.integers(1, 3), sparse=st.booleans(), bands=st.sampled_from([1, 3, 8]),
       track=st.booleans(), integer=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(h=5, w=9, flavor="trilateral", radius=2, sparse=False, bands=1, track=True,
         integer=False, seed=4)
@example(h=9, w=7, flavor="directional", radius=3, sparse=True, bands=3, track=True,
         integer=False, seed=5)
@example(h=9, w=8, flavor="trilateral", radius=3, sparse=False, bands=3, track=False,
         integer=True, seed=6)
def test_block_size_never_changes_a_bit(h, w, flavor, radius, sparse, bands, track,
                                        integer, seed):
    """Splitting each call's band into blocks of BLOCK_PX output pixels
    (rows for a dense run, targets for a target-set run) leaves num,
    den, cnt, cmin and cmax exactly as one tracked block per band
    leaves them, including blocks of 1 px, blocks that end mid-row and
    a short last block; an untracked run leaves num and den so."""
    rng = np.random.default_rng(seed)
    d, validf, planes, params, kwargs = engine_case(rng, h, w, flavor, radius, integer)
    targets = np.flatnonzero(rng.random((h, w)) < 0.5) if sparse else None
    kwargs = at_targets(kwargs, targets)

    def run(block_px, track):
        acc = WindowSums((h, w) if targets is None else targets.shape, track)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filters, "BLOCK_PX", block_px)
            for r0, r1 in row_bands(h, bands):
                window_sums(d, validf, planes, params, acc, r0, r1, targets=targets, **kwargs)
        return acc

    whole = run(h * w, True)
    names = ("num", "den", "cnt", "cmin", "cmax") if track else ("num", "den")
    for block_px in sorted({1, 2, w - 1, w, w + 1, 7, h * w} - {0}):
        got = run(block_px, track)
        for name in names:
            assert np.array_equal(getattr(whole, name), getattr(got, name)), (block_px, name)


@settings(max_examples=120, deadline=None)
@given(h=st.integers(1, 9), w=st.integers(1, 9), flavor=st.sampled_from(FLAVORS),
       radius=st.integers(1, 3), sparse=st.booleans(), bands=st.sampled_from([1, 3, 8]),
       sigma_r_color=st.floats(0.5, 1e4),
       sigma_r_depth=st.sampled_from([0.3, 30.0, 1e5, 1e9]), integer=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(h=2, w=1, flavor="trilateral", radius=1, sparse=False, bands=1,
         sigma_r_color=1e4, sigma_r_depth=30.0, integer=False, seed=6)
@example(h=6, w=9, flavor="directional", radius=3, sparse=True, bands=3,
         sigma_r_color=0.5, sigma_r_depth=30.0, integer=False, seed=7)
@example(h=9, w=9, flavor="isotropic", radius=2, sparse=False, bands=8,
         sigma_r_color=25.0, sigma_r_depth=1e9, integer=False, seed=8)
@example(h=9, w=9, flavor="trilateral", radius=3, sparse=False, bands=3,
         sigma_r_color=25.0, sigma_r_depth=30.0, integer=True, seed=9)
@example(h=7, w=8, flavor="trilateral", radius=2, sparse=True, bands=1,
         sigma_r_color=3.0, sigma_r_depth=0.3, integer=True, seed=10)
def test_engine_matches_float64_reference_body(h, w, flavor, radius, sparse, bands,
                                               sigma_r_color, sigma_r_depth, integer, seed):
    """window_sums gives the exact num, den, cnt, cmin and cmax of the
    frozen float64 weight body in tests/oracles.py, for each flavor,
    dense and on a target set split over row bands, at any color sigma,
    on float depth and on integer depth handed over as uint16 (the
    depth_range_table path). Every channel of the guide takes 0 and
    255, and an all-0 pixel sits next to an all-255 one, so the squared
    color distance reaches 3 * 255**2 = 195075."""
    rng = np.random.default_rng(seed)
    d, validf, _, params, kwargs = engine_case(rng, h, w, flavor, radius, integer)
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
    want = ref_window_sums(interior(d, radius).astype(np.float64), interior(validf, radius),
                           colors, params, **kwargs)
    targets = np.flatnonzero(rng.random((h, w)) < 0.5) if sparse else None
    acc = WindowSums((h, w) if targets is None else targets.shape)
    planes = guide_planes(ColorImage(colors), radius)
    for r0, r1 in row_bands(h, bands):
        window_sums(d, validf, planes, params, acc, r0, r1, targets=targets,
                    **at_targets(kwargs, targets))
    for name in ("num", "den", "cnt", "cmin", "cmax"):
        ref = want[name] if targets is None else want[name].flat[targets]
        assert np.array_equal(ref, getattr(acc, name)), name


@settings(max_examples=80, deadline=None)
@given(h=st.integers(1, 9), w=st.integers(1, 9), flavor=st.sampled_from(FLAVORS),
       radius=st.integers(1, 3), sparse=st.booleans(), track=st.booleans(),
       integer=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(h=1, w=1, flavor="trilateral", radius=3, sparse=False, track=True, integer=True,
         seed=11)
@example(h=6, w=2, flavor="directional", radius=2, sparse=True, track=True, integer=False,
         seed=12)
@example(h=5, w=9, flavor="isotropic", radius=1, sparse=False, track=False, integer=False,
         seed=13)
def test_the_exterior_is_inert(h, w, flavor, radius, sparse, track, integer, seed):
    """Validity 0.0 in the pad makes whatever depth and color it holds
    add exactly nothing: with random finite depth (uint16 up to the
    interior maximum, which the depth table reaches, or any float) and
    random colors in the pad ring, num, den, cnt, cmin and cmax match
    the zero pad's (num and den untracked), dense and on a target set,
    for each flavor."""
    rng = np.random.default_rng(seed)
    d, validf, planes, params, kwargs = engine_case(rng, h, w, flavor, radius, integer)
    ring = ~pad(np.ones((h, w), bool), radius)
    n = int(np.count_nonzero(ring))
    noisy_d = d.copy()
    if integer:
        noisy_d[ring] = rng.integers(0, int(d.max()) + 1, n)
    else:
        noisy_d[ring] = rng.uniform(-1e6, 1e6, n)
    noisy_planes = planes.copy()
    noisy_planes[:, ring] = rng.integers(0, 256, (3, n), dtype=np.uint8)
    targets = np.flatnonzero(rng.random((h, w)) < 0.5) if sparse else None
    kwargs = at_targets(kwargs, targets)

    def run(depth, planes):
        acc = WindowSums((h, w) if targets is None else targets.shape, track)
        window_sums(depth, validf, planes, params, acc, 0, h, targets=targets, **kwargs)
        return acc

    zero, noisy = run(d, planes), run(noisy_d, noisy_planes)
    names = ("num", "den", "cnt", "cmin", "cmax") if track else ("num", "den")
    for name in names:
        assert np.array_equal(getattr(zero, name), getattr(noisy, name)), name


def clamp_prone_case(rng, h, w, kind, base, stray):
    """An integer-valued h x w frame whose quotients land within ulps of
    an integer, its guide, labels and edges. kind "constant" is the one
    depth base, "patches" 3x3 constant tiles, "two_levels" a random mix
    of base and a depth up to 300 above, "fine_noise" base plus sub-mm
    noise rounded to the integer grid. About 15% holes; the other
    pixels get a random kept label, and a stray label other than None
    goes to one more hole."""
    if kind == "constant":
        d = np.full((h, w), float(base))
    elif kind == "patches":
        tiles = rng.integers(1, 4000, (h // 3 + 1, w // 3 + 1)).astype(np.float64)
        d = np.kron(tiles, np.ones((3, 3)))[:h, :w]
    elif kind == "two_levels":
        d = np.where(rng.random((h, w)) < 0.5, base, base + int(rng.integers(1, 300)))
    else:
        d = np.clip(np.rint(base + rng.normal(0.0, 0.6, (h, w))), HOLE, 65535)
    d = d.astype(np.float64)
    d[rng.random((h, w)) < 0.15] = HOLE
    labels = np.where(rng.random((h, w)) < 0.4, NONHOLE_EDGE, NONHOLE_NONEDGE).astype(np.uint8)
    labels[d == HOLE] = 2
    if stray is not None:
        y, x = int(rng.integers(0, h)), int(rng.integers(0, w))
        d[y, x] = HOLE
        labels[y, x] = stray
    guide = ColorImage(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
    theta = rng.uniform(-np.pi / 2, np.pi / 2, (h, w))
    return DepthMap(d), guide, labels, EdgeMap(labels == NONHOLE_EDGE, theta)


def tracked_filter_non_hole(depth, guide, labels, edges, params, isotropic_only):
    """filter_non_hole composed from tracked window_sums runs on the
    float depth, every quotient clamped; also returns how many kept
    outputs the clamp moved."""
    d = depth.samples
    h = d.shape[0]
    r = params.window_radius
    padded = pad(d, r)
    validf = pad(d != HOLE, r, np.float64)
    planes = guide_planes(guide, r)

    def run(targets, **flavor):
        acc = WindowSums(d.shape if targets is None else targets.shape)
        window_sums(padded, validf, planes, params, acc, 0, h, targets=targets,
                    **at_targets(flavor, targets))
        raw = np.divide(acc.num, acc.den, out=np.zeros_like(acc.num), where=acc.den > 0)
        return acc.normalized(), raw

    if isotropic_only:
        kept = labels <= NONHOLE_EDGE
        vals, raw = run(None, iso_sigma=params.sigma_s)
        return np.where(kept, vals, d), int(np.count_nonzero(kept & (vals != raw)))
    kept = labels == NONHOLE_NONEDGE
    edge_px = np.flatnonzero(labels == NONHOLE_EDGE)
    tri, tri_raw = run(None, iso_sigma=params.sigma_s, depth_sigma=params.sigma_r_depth)
    dire, dire_raw = run(edge_px, cos_t=np.cos(edges.theta), sin_t=np.sin(edges.theta))
    out = np.where(kept, tri, d)
    out.flat[edge_px] = dire
    return out, int(np.count_nonzero(kept & (tri != tri_raw)) + np.count_nonzero(dire != dire_raw))


CLAMP_KINDS = ["constant", "patches", "two_levels", "fine_noise"]


STRAYS = [None, NONHOLE_NONEDGE, NONHOLE_EDGE]


@settings(max_examples=150, deadline=None)
@given(h=st.integers(1, 12), w=st.integers(1, 12), kind=st.sampled_from(CLAMP_KINDS),
       base=st.integers(1, 65235), radius=st.integers(1, 3),
       sigma_r_depth=st.sampled_from([0.05, 0.3, 30.0]), sigma_y=st.sampled_from([0.05, 1.5]),
       isotropic_only=st.booleans(), threads=st.integers(1, 3),
       stray=st.sampled_from(STRAYS), seed=st.integers(0, 2**32 - 1), pinned=st.just(False))
@example(h=12, w=12, kind="constant", base=1500, radius=2, sigma_r_depth=30.0,
         sigma_y=1.5, isotropic_only=False, threads=1, stray=None, seed=0, pinned=True)
@example(h=12, w=11, kind="patches", base=1, radius=1, sigma_r_depth=0.05,
         sigma_y=0.05, isotropic_only=False, threads=2, stray=None, seed=0, pinned=True)
@example(h=10, w=12, kind="fine_noise", base=65000, radius=3, sigma_r_depth=0.3,
         sigma_y=1.5, isotropic_only=True, threads=3, stray=None, seed=1, pinned=True)
@example(h=12, w=12, kind="two_levels", base=700, radius=2, sigma_r_depth=0.3,
         sigma_y=0.05, isotropic_only=False, threads=2, stray=NONHOLE_EDGE, seed=0,
         pinned=True)
@example(h=9, w=9, kind="constant", base=1140, radius=2, sigma_r_depth=30.0,
         sigma_y=1.5, isotropic_only=False, threads=1, stray=NONHOLE_NONEDGE, seed=0,
         pinned=True)
def test_deferred_clamp_matches_the_tracked_engine(h, w, kind, base, radius, sigma_r_depth,
                                                   sigma_y, isotropic_only, threads, stray,
                                                   seed, pinned):
    """On integer frames built to provoke the clamp, filter_non_hole
    (untracked passes on uint16 depth, then a tracked re-run of the
    suspects) gives the bits of tracked runs on float depth, for the
    trilateral, directional and isotropic-only passes at 1-3 threads,
    also when a kept label sits on a hole. The pinned examples are
    frames where the clamp does move some kept quotient. In the last
    one a trilateral label sits on a hole amid depth 1140, 38 depth
    sigmas from the hole's 0, so every weight that hole gets is
    subnormal."""
    rng = np.random.default_rng(seed)
    depth, guide, labels, edges = clamp_prone_case(rng, h, w, kind, base, stray)
    params = replace(PARAMS, window_radius=radius, sigma_r_depth=sigma_r_depth,
                     sigma_y=sigma_y)
    want, moved = tracked_filter_non_hole(depth, guide, labels, edges, params, isotropic_only)
    got = filter_non_hole(depth, guide, labels, edges,
                          PipelineConfig(kernel=params, threads=threads,
                                         isotropic_only=isotropic_only))
    assert np.array_equal(got.samples, want)
    if pinned:
        assert moved > 0
        assert stray is None or np.any((depth.samples == HOLE) & (labels <= NONHOLE_EDGE))


@pytest.mark.parametrize("isotropic_only", [False, True])
def test_non_integer_depth_keeps_the_tracked_bits(isotropic_only):
    """Depth with a fractional sample runs tracked on float depth, as
    before the deferred clamp: the same bits, on a frame where the
    clamp moves some quotient."""
    rng = np.random.default_rng(0)
    depth, guide, labels, edges = clamp_prone_case(rng, 12, 12, "constant", 1500, None)
    d = depth.samples.copy()
    d[d != HOLE] += 0.25
    depth = DepthMap(d)
    want, moved = tracked_filter_non_hole(depth, guide, labels, edges, PARAMS, isotropic_only)
    assert moved > 0
    got = filter_non_hole(depth, guide, labels, edges,
                          PipelineConfig(kernel=PARAMS, isotropic_only=isotropic_only))
    assert np.array_equal(got.samples, want)


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
