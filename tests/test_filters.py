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
    filter_non_hole,
    guide_planes,
    row_bands,
    window_sums,
)
from depthrestore.image_model import HOLE, interior, pad
from depthrestore.kernels import steering

from oracles import brute_filter, ref_finish, ref_window_sums

PARAMS = KernelParams(sigma_s=2.0, sigma_r_color=20.0, sigma_r_depth=30.0,
                      sigma_x=4.0, sigma_y=1.5, window_radius=2)


def random_instance(rng, shape=(7, 7), hole_fraction=0.15):
    d = rng.uniform(500, 3000, shape)
    d[rng.random(shape) < hole_fraction] = 0.0
    guide = ColorImage(rng.integers(0, 256, shape + (3,), dtype=np.uint8))
    theta = rng.uniform(-np.pi / 2, np.pi / 2, shape)
    return DepthMap(d), guide, theta


def run_engine(d, mark, planes, params, shape, bands, *, sums=True, **kwargs):
    """window_sums over the row bands into fresh arrays of the given
    shape, by name: avg, the finished averages, and with sums also den
    and cnt, the weight sums and contributor counts, which the engine
    writes only for a caller that asks for them, as the per-pixel
    wrappers do. kwargs go to window_sums (track, targets, the flavor).
    The arrays start as NaN and -1, so an entry the engine leaves
    unwritten fails every comparison."""
    got = {"avg": np.full(shape, np.nan)}
    if sums:
        got |= {"den": np.full(shape, np.nan), "cnt": np.full(shape, -1, np.int32)}
    for r0, r1 in bands:
        window_sums(d, mark, planes, params, got["avg"], r0, r1, den=got.get("den"),
                    cnt=got.get("cnt"), **kwargs)
    return got


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
            got = pdjbf_pixel((y, x), depth, guide, float(theta[y, x]), PARAMS)
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
        pdjbf_pixel((1, 1), depth, guide, 0.0, PARAMS)


def call_pixel_filter(name, p, depth, guide, params, theta):
    """Run the named per-pixel filter; theta goes only to the filters
    that take it."""
    return {"jbf_pixel": lambda: jbf_pixel(p, depth, guide, params),
            "tjbf_pixel": lambda: tjbf_pixel(p, depth, guide, params),
            "djbf_pixel": lambda: djbf_pixel(p, depth, guide, theta, params),
            "pdjbf_pixel": lambda: pdjbf_pixel(p, depth, guide, theta, params)}[name]()


@pytest.mark.parametrize("name", ["jbf_pixel", "tjbf_pixel", "djbf_pixel", "pdjbf_pixel"])
def test_per_pixel_filters_fail_closed(name):
    """A guide of another size, a pixel that is off the frame or not an
    int pair, a non-hole center for pdjbf_pixel, which fills holes, and
    an angle that is not a finite real each raise ContractViolation,
    instead of returning a value or escaping as a numpy error. (Bad
    params fail when their KernelParams is built.)"""
    rng = np.random.default_rng(54)
    depth, guide, _ = random_instance(rng, shape=(8, 8), hole_fraction=0.0)
    holed = depth.samples.copy()
    holed[3, 2] = HOLE
    ok = {"p": (3, 2), "depth": DepthMap(holed) if name == "pdjbf_pixel" else depth,
          "guide": guide, "params": PARAMS, "theta": 0.3}
    call_pixel_filter(name, **ok)
    bad = [{"guide": random_instance(rng, shape=s)[1]} for s in ((6, 6), (8, 11))]
    bad += [{"p": p} for p in ((-1, 3), (3.5, 2), (8, 0), (0, 8), (True, 0),
                               5, None, (1, 2, 3), (1,))]
    if name == "pdjbf_pixel":
        bad.append({"depth": depth})
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
    got = pdjbf_pixel((1, 1), depth, guide, 0.4, PARAMS)
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
                    out = pdjbf_pixel((y, x), depth, guide, float(theta[y, x]), PARAMS)
                    if out.contributors == 0:
                        continue
                block = depth.samples[max(0, y - 2):y + 3, max(0, x - 2):x + 3]
                usable = block[block != HOLE]
                assert usable.min() <= out.value <= usable.max()


def engine_values(depth, guide, params, *, theta=None, iso=False, depth_term=False):
    d = depth.samples
    h, w = d.shape
    r = params.window_radius
    kwargs = {}
    if iso:
        kwargs["iso_sigma"] = params.sigma_s
    else:
        kwargs["cos_t"] = np.cos(theta)
        kwargs["sin_t"] = np.sin(theta)
    if depth_term:
        kwargs["depth_sigma"] = params.sigma_r_depth
    return run_engine(pad(d, r), HOLE, guide_planes(guide, r), params, (h, w), [(0, h)],
                      **kwargs)


def test_engine_reproduces_scalar_filters_bit_for_bit():
    """A per-pixel filter (the engine on one window crop) gives the same
    bits as a whole-image engine run: value, weight sum and count."""
    rng = np.random.default_rng(49)
    depth, guide, theta = random_instance(rng, shape=(16, 16), hole_fraction=0.2)
    valid = depth.samples != HOLE

    want = engine_values(depth, guide, PARAMS, iso=True, depth_term=True)
    for y, x in zip(*np.nonzero(valid)):
        got = tjbf_pixel((y, x), depth, guide, PARAMS)
        assert got.value == want["avg"][y, x]
        assert got.weight_sum == want["den"][y, x]
        assert got.contributors == want["cnt"][y, x]

    want = engine_values(depth, guide, PARAMS, theta=theta)
    for y, x in zip(*np.nonzero(valid)):
        got = djbf_pixel((y, x), depth, guide, float(theta[y, x]), PARAMS)
        assert got.value == want["avg"][y, x]
        assert got.weight_sum == want["den"][y, x]
        assert got.contributors == want["cnt"][y, x]
    for y, x in zip(*np.nonzero(~valid)):
        got = pdjbf_pixel((y, x), depth, guide, float(theta[y, x]), PARAMS)
        assert got.value == want["avg"][y, x]
        assert got.weight_sum == want["den"][y, x]
        assert got.contributors == want["cnt"][y, x]


def test_only_a_given_cnt_counts_contributors():
    """A run that asks for no weight sums or counts writes none, and
    exactly the averages of a run that asks for both, tracked and
    untracked: the fill reads support from its averages and never pays
    for a frame-sized den or a count."""
    rng = np.random.default_rng(52)
    depth, guide, theta = random_instance(rng, shape=(9, 11), hole_fraction=0.3)
    r = PARAMS.window_radius
    inputs = (pad(depth.samples, r), HOLE, guide_planes(guide, r), PARAMS, (9, 11), [(0, 9)])
    for track in (True, False):
        plain, count = (run_engine(*inputs, sums=sums, track=track, cos_t=np.cos(theta),
                                   sin_t=np.sin(theta)) for sums in (False, True))
        assert set(plain) == {"avg"} and count["cnt"].any()
        assert np.array_equal(plain["avg"], count["avg"]), track


def test_banded_run_is_bit_identical_to_whole_image():
    rng = np.random.default_rng(50)
    depth, guide, theta = random_instance(rng, shape=(16, 16))
    r = PARAMS.window_radius
    d = pad(depth.samples, r)
    planes = guide_planes(guide, r)
    flavor = {"iso_sigma": PARAMS.sigma_s, "depth_sigma": PARAMS.sigma_r_depth}
    whole = run_engine(d, HOLE, planes, PARAMS, (16, 16), [(0, 16)], **flavor)
    split = run_engine(d, HOLE, planes, PARAMS, (16, 16), [(0, 1), (1, 6), (6, 13), (13, 16)],
                       **flavor)
    for name in ("avg", "den", "cnt"):
        assert np.array_equal(whole[name], split[name]), name


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
    """A random h x w engine input: the depth frame, padded by the
    radius as window_sums takes it, the mark its unusable sources hold
    (holes and 20% more sources switched off, and the pad ring), the
    padded guide planes, params, and the flavor keywords of a dense run
    (at_targets gives a target-set run's). On float depth the mark is
    HOLE. With integer the depth is rounded and handed over as uint16,
    so the engine reads its depth term from depth_range_table, and the
    mark is the sentinel S = 2 * (max + 1), whose table tail weighs it
    +0.0; depth differences reach 2500, where the weight underflows
    to 0."""
    params = replace(PARAMS, window_radius=radius)
    depth, guide, theta = random_instance(rng, shape=(h, w), hole_fraction=0.3)
    d = depth.samples
    mark = HOLE
    if integer:
        d = np.rint(d).astype(np.uint16)
        mark = 2 * (int(d.max()) + 1)
    usable = (d != HOLE) & (rng.random((h, w)) < 0.8)
    frame = np.full((h + 2 * radius, w + 2 * radius), mark, d.dtype)
    interior(frame, radius)[...] = np.where(usable, d, mark)
    kwargs = {"cos_t": np.cos(theta), "sin_t": np.sin(theta)}
    if flavor != "directional":
        kwargs = {"iso_sigma": params.sigma_s}
    if flavor == "trilateral":
        kwargs["depth_sigma"] = params.sigma_r_depth
    return frame, mark, guide_planes(guide, radius), params, kwargs


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
@example(h=9, w=9, flavor="directional", radius=5, density=0.5, border=True, bands=3,
         track=True, integer=False, seed=21)
@example(h=9, w=8, flavor="trilateral", radius=5, density=1.0, border=True, bands=1,
         track=False, integer=True, seed=22)
@example(h=7, w=9, flavor="isotropic", radius=5, density=0.5, border=False, bands=8,
         track=True, integer=True, seed=23)
def test_gather_addressing_matches_slice_addressing(h, w, flavor, radius, density,
                                                    border, bands, track, integer, seed):
    """A target-set run gives, at every target, the exact average,
    weight sum and count of a dense run, tracked and untracked, for
    each flavor, on float and uint16 depth, on frames down to 1xN
    and Nx1 and narrower than the window, with targets on the borders
    and the targets split over several row bands, up to the production
    radius 5, whose window rows of 11 sides are where a numpy reduction
    would sum pairwise."""
    rng = np.random.default_rng(seed)
    d, mark, planes, params, kwargs = engine_case(rng, h, w, flavor, radius, integer)
    mask = rng.random((h, w)) < density
    if border:
        mask[[0, -1], :] = True
        mask[:, [0, -1]] = True
    targets = np.flatnonzero(mask)
    dense = run_engine(d, mark, planes, params, (h, w), [(0, h)], track=track, **kwargs)
    sparse = run_engine(d, mark, planes, params, targets.shape, row_bands(h, bands),
                        track=track, targets=targets, **at_targets(kwargs, targets))
    for name in ("avg", "den", "cnt"):
        assert np.array_equal(dense[name].flat[targets], sparse[name]), name


@settings(max_examples=30, deadline=None)
@given(h=st.integers(1, 9), w=st.integers(1, 9), radius=st.integers(1, 5),
       track=st.booleans(), integer=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(h=9, w=9, radius=5, track=True, integer=False, seed=31)
@example(h=6, w=9, radius=5, track=False, integer=True, seed=32)
def test_one_angle_gives_the_bits_of_that_angle_at_every_output(h, w, radius, track, integer,
                                                                seed):
    """A directional run at one angle, whose spatial weights are the
    scalar kernel's values, gives the exact averages, weight sums and
    counts of a run with that angle at every output, dense and on a
    target set (a whole window row per array op), tracked and
    untracked, on float and uint16 depth."""
    rng = np.random.default_rng(seed)
    d, mark, planes, params, _ = engine_case(rng, h, w, "directional", radius, integer)
    theta = float(rng.uniform(-np.pi, np.pi))
    for targets in (None, np.flatnonzero(rng.random((h, w)) < 0.5)):
        shape = (h, w) if targets is None else targets.shape
        one, many = (run_engine(d, mark, planes, params, shape, [(0, h)], track=track,
                                targets=targets, **steering(angle))
                     for angle in (theta, np.full(shape, theta)))
        for name in ("avg", "den", "cnt"):
            assert np.array_equal(one[name], many[name]), name


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
@example(h=9, w=9, flavor="directional", radius=5, sparse=True, bands=1, track=True,
         integer=False, seed=24)
@example(h=9, w=9, flavor="trilateral", radius=5, sparse=True, bands=3, track=True,
         integer=True, seed=25)
@example(h=8, w=9, flavor="isotropic", radius=5, sparse=False, bands=3, track=False,
         integer=False, seed=26)
def test_block_size_never_changes_a_bit(h, w, flavor, radius, sparse, bands, track,
                                        integer, seed):
    """Splitting each call's band into blocks of BLOCK_PX entries (whole
    rows of at most BLOCK_PX outputs for a dense run, runs of
    BLOCK_PX // (2r + 1) targets for a target-set run, whose window rows
    are 2r + 1 sides deep) leaves the averages, weight sums and counts
    exactly as one block per band leaves them, tracked and untracked,
    including 1-px and 1-target blocks, blocks that end mid-row and a
    short last block."""
    rng = np.random.default_rng(seed)
    d, mark, planes, params, kwargs = engine_case(rng, h, w, flavor, radius, integer)
    targets = np.flatnonzero(rng.random((h, w)) < 0.5) if sparse else None
    kwargs = at_targets(kwargs, targets)

    def run(block_px):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filters, "BLOCK_PX", block_px)
            return run_engine(d, mark, planes, params, (h, w) if targets is None else targets.shape,
                              row_bands(h, bands), track=track, targets=targets, **kwargs)

    side = 2 * radius + 1
    whole = run(h * w * side)
    for block_px in sorted({1, 2, w - 1, w, w + 1, 7, side, 2 * side + 1, h * w} - {0}):
        got = run(block_px)
        for name in ("avg", "den", "cnt"):
            assert np.array_equal(whole[name], got[name]), (block_px, name)


def sentinel_free_centres(usable, integer, kwargs):
    """The outputs whose sums have a hole-free meaning: all of them, but
    on an unsigned frame with a depth term only the usable centres. A
    centre holding the sentinel differs from every usable source by
    more than the table's tail start, but from a hole source by 0, so
    it weighs the sentinels in its window, itself included, as sources.
    No kept output is centred on a hole (errors.require_labels)."""
    return usable if integer and "depth_sigma" in kwargs else np.ones(usable.shape, bool)


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
@example(h=9, w=9, flavor="directional", radius=5, sparse=True, bands=3,
         sigma_r_color=25.0, sigma_r_depth=30.0, integer=False, seed=27)
@example(h=9, w=9, flavor="trilateral", radius=5, sparse=True, bands=1,
         sigma_r_color=25.0, sigma_r_depth=30.0, integer=True, seed=28)
@example(h=8, w=9, flavor="isotropic", radius=5, sparse=True, bands=8,
         sigma_r_color=1e4, sigma_r_depth=1e9, integer=False, seed=29)
@example(h=9, w=7, flavor="trilateral", radius=5, sparse=False, bands=3,
         sigma_r_color=25.0, sigma_r_depth=30.0, integer=False, seed=30)
def test_engine_matches_float64_reference_body(h, w, flavor, radius, sparse, bands,
                                               sigma_r_color, sigma_r_depth, integer, seed):
    """window_sums gives the exact weight sums and counts of the frozen
    float64 weight body in tests/oracles.py, and its sums' averages
    finished by the engine's rule (ref_finish), tracked and untracked,
    for each flavor,
    dense and on a target set split over row bands, at any color sigma,
    on float depth and on integer depth handed over as uint16 (the
    depth_range_table path), at every output sentinel_free_centres
    keeps. Every channel of the guide takes 0 and
    255, and an all-0 pixel sits next to an all-255 one, so the squared
    color distance reaches 3 * 255**2 = 195075."""
    rng = np.random.default_rng(seed)
    d, mark, _, params, kwargs = engine_case(rng, h, w, flavor, radius, integer)
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
    usable = interior(d, radius) != mark
    want = ref_window_sums(interior(d, radius).astype(np.float64), usable, colors, params,
                           **kwargs)
    targets = np.flatnonzero(rng.random((h, w)) < 0.5) if sparse else None
    planes = guide_planes(ColorImage(colors), radius)
    keep = sentinel_free_centres(usable, integer, kwargs)
    at = keep if targets is None else keep.flat[targets]
    for track in (True, False):
        got = run_engine(d, mark, planes, params, (h, w) if targets is None else targets.shape,
                         row_bands(h, bands), track=track, targets=targets,
                         **at_targets(kwargs, targets))
        ref = {"avg": ref_finish(want, track), "den": want["den"], "cnt": want["cnt"]}
        for name in ("avg", "den", "cnt"):
            exp = ref[name] if targets is None else ref[name].flat[targets]
            assert np.array_equal(exp[at], got[name][at]), (track, name)


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
    """The mark in the pad makes whatever color it holds add exactly
    nothing, and so does the mark at an interior hole, to every output
    not centred on it: with random colors in the pad ring, the
    averages, weight sums and counts match the zero pad's at every
    output (sentinel_free_centres), and with random colors under the
    interior holes too, at every usable centre, tracked and untracked,
    dense and on a target set, for each flavor, on float and uint16
    depth."""
    rng = np.random.default_rng(seed)
    d, mark, planes, params, kwargs = engine_case(rng, h, w, flavor, radius, integer)
    ring = ~pad(np.ones((h, w), bool), radius)
    usable = interior(d, radius) != mark
    targets = np.flatnonzero(rng.random((h, w)) < 0.5) if sparse else None
    kwargs = at_targets(kwargs, targets)

    def run(planes):
        return run_engine(d, mark, planes, params, (h, w) if targets is None else targets.shape,
                          [(0, h)], track=track, targets=targets, **kwargs)

    zero = run(planes)
    noisy_planes = planes.copy()
    for recolor, keep in ((ring, sentinel_free_centres(usable, integer, kwargs)),
                          (d == mark, usable)):
        noisy_planes[:, recolor] = rng.integers(0, 256, (3, int(np.count_nonzero(recolor))),
                                                dtype=np.uint8)
        noisy = run(noisy_planes)
        at = keep if targets is None else keep.flat[targets]
        for name in ("avg", "den", "cnt"):
            assert np.array_equal(zero[name][at], noisy[name][at]), name


@settings(max_examples=80, deadline=None)
@given(h=st.integers(1, 9), w=st.integers(1, 9),
       flavor=st.sampled_from(["isotropic", "directional"]), radius=st.integers(1, 3),
       sparse=st.booleans(), scale=st.sampled_from([1.0, 1e-300, 1e-320]),
       seed=st.integers(0, 2**32 - 1))
@example(h=9, w=9, flavor="directional", radius=1, sparse=False, scale=1e-320, seed=14)
@example(h=1, w=7, flavor="isotropic", radius=3, sparse=True, scale=1.0, seed=15)
def test_a_fill_average_is_hole_exactly_where_nothing_weighed(h, w, flavor, radius, sparse,
                                                              scale, seed):
    """With the fill's flavor (tracked, no depth term, float depth whose
    sources are above HOLE) an average reads HOLE exactly where its
    weight sum is 0, so fill_holes can tell a filled target by its
    average alone. It holds down to subnormal depths, where every
    product weight * depth may underflow to 0 but the clamp lifts the
    quotient to the least contributor. One output has no usable source
    in its window."""
    rng = np.random.default_rng(seed)
    d, mark, planes, params, kwargs = engine_case(rng, h, w, flavor, radius)
    d *= scale
    y, x = int(rng.integers(0, h)), int(rng.integers(0, w))
    interior(d, radius)[max(0, y - radius):y + radius + 1, max(0, x - radius):x + radius + 1] = mark
    targets = np.flatnonzero(rng.random((h, w)) < 0.5) if sparse else None
    got = run_engine(d, mark, planes, params, (h, w) if targets is None else targets.shape,
                     [(0, h)], targets=targets, **at_targets(kwargs, targets))
    assert np.array_equal(got["avg"] != HOLE, got["den"] > 0)
    if targets is None:
        assert got["den"][y, x] == 0


def clamp_prone_case(rng, h, w, kind, base):
    """An integer-valued h x w frame whose quotients land within ulps of
    an integer, its guide, labels and edges. kind "constant" is the one
    depth base, "patches" 3x3 constant tiles, "two_levels" a random mix
    of base and a depth up to 300 above, "fine_noise" base plus sub-mm
    noise rounded to the integer grid. About 15% holes; the other
    pixels get a random kept label."""
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
    guide = ColorImage(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
    theta = rng.uniform(-np.pi / 2, np.pi / 2, (h, w))
    return DepthMap(d), guide, labels, EdgeMap(labels == NONHOLE_EDGE, theta)


def tracked_filter_non_hole(depth, guide, labels, edges, params, isotropic_only):
    """filter_non_hole composed from tracked window_sums runs on the
    float depth, every quotient clamped; also returns how many kept
    outputs the clamp moved, against untracked runs."""
    d = depth.samples
    h = d.shape[0]
    r = params.window_radius
    padded = pad(d, r)
    planes = guide_planes(guide, r)

    def run(targets, **flavor):
        """The pass's clamped averages and its raw quotients."""
        return [run_engine(padded, HOLE, planes, params,
                           d.shape if targets is None else targets.shape, [(0, h)], sums=False,
                           track=track, targets=targets, **at_targets(flavor, targets))["avg"]
                for track in (True, False)]

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


@settings(max_examples=150, deadline=None)
@given(h=st.integers(1, 12), w=st.integers(1, 12), kind=st.sampled_from(CLAMP_KINDS),
       base=st.integers(1, 65235), radius=st.integers(1, 3),
       sigma_r_depth=st.sampled_from([0.05, 0.3, 30.0]), sigma_y=st.sampled_from([0.05, 1.5]),
       isotropic_only=st.booleans(), threads=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), pinned=st.just(False))
@example(h=12, w=12, kind="constant", base=1500, radius=2, sigma_r_depth=30.0,
         sigma_y=1.5, isotropic_only=False, threads=1, seed=0, pinned=True)
@example(h=12, w=11, kind="patches", base=1, radius=1, sigma_r_depth=0.05,
         sigma_y=0.05, isotropic_only=False, threads=2, seed=0, pinned=True)
@example(h=10, w=12, kind="fine_noise", base=65000, radius=3, sigma_r_depth=0.3,
         sigma_y=1.5, isotropic_only=True, threads=3, seed=1, pinned=True)
@example(h=12, w=12, kind="two_levels", base=700, radius=2, sigma_r_depth=0.3,
         sigma_y=0.05, isotropic_only=False, threads=2, seed=0, pinned=True)
@example(h=12, w=12, kind="fine_noise", base=65535, radius=2, sigma_r_depth=0.3,
         sigma_y=1.5, isotropic_only=False, threads=2, seed=0, pinned=True)
@example(h=2, w=12, kind="two_levels", base=700, radius=3, sigma_r_depth=0.3,
         sigma_y=1.5, isotropic_only=False, threads=1, seed=2, pinned=True)
def test_deferred_clamp_matches_the_tracked_engine(h, w, kind, base, radius, sigma_r_depth,
                                                   sigma_y, isotropic_only, threads, seed,
                                                   pinned):
    """On integer frames built to provoke the clamp, filter_non_hole
    (untracked passes on uint16 depth, then a tracked re-run of the
    suspects) gives the bits of tracked runs on float depth, for the
    trilateral, directional and isotropic-only passes at 1-3 threads.
    The pinned examples are frames where the clamp does move some kept
    quotient. The last two are the sentinel's edge cases: depth up to
    65535, where the sentinel 2 * 65536 needs a uint32 frame, and a
    2-row frame, where every hole is on the border next to the pad
    ring."""
    rng = np.random.default_rng(seed)
    depth, guide, labels, edges = clamp_prone_case(rng, h, w, kind, base)
    params = replace(PARAMS, window_radius=radius, sigma_r_depth=sigma_r_depth,
                     sigma_y=sigma_y)
    want, moved = tracked_filter_non_hole(depth, guide, labels, edges, params, isotropic_only)
    got = filter_non_hole(depth, guide, labels, edges,
                          PipelineConfig(kernel=params, threads=threads,
                                         isotropic_only=isotropic_only))
    assert np.array_equal(got.samples, want)
    if pinned:
        assert moved > 0


@pytest.mark.parametrize("isotropic_only", [False, True])
def test_non_integer_depth_keeps_the_tracked_bits(isotropic_only):
    """Depth with a fractional sample runs tracked on float depth, as
    before the deferred clamp: the same bits, on a frame where the
    clamp moves some quotient."""
    rng = np.random.default_rng(0)
    depth, guide, labels, edges = clamp_prone_case(rng, 12, 12, "constant", 1500)
    d = depth.samples.copy()
    d[d != HOLE] += 0.25
    depth = DepthMap(d)
    want, moved = tracked_filter_non_hole(depth, guide, labels, edges, PARAMS, isotropic_only)
    assert moved > 0
    got = filter_non_hole(depth, guide, labels, edges,
                          PipelineConfig(kernel=PARAMS, isotropic_only=isotropic_only))
    assert np.array_equal(got.samples, want)


@pytest.mark.parametrize("isotropic_only", [False, True])
@pytest.mark.parametrize("integer", [True, False], ids=["sentinel", "float"])
def test_a_kept_depth_is_left_unchanged(integer, isotropic_only):
    """filter_non_hole writes its output into its own num, not into the
    samples it was handed: a depth the caller keeps reads the same bits
    after filter_non_hole and after restore, on integer depth (the
    sentinel frame) and on fractional depth (the float copy)."""
    rng = np.random.default_rng(7)
    depth, guide, labels, edges = clamp_prone_case(rng, 12, 12, "two_levels", 700)
    if not integer:
        d = depth.samples.copy()
        d[d != HOLE] += 0.25
        depth = DepthMap(d)
    before = depth.samples.copy()
    cfg = PipelineConfig(kernel=PARAMS, isotropic_only=isotropic_only)
    out = filter_non_hole(depth, guide, labels, edges, cfg)
    assert not np.shares_memory(out.samples, depth.samples)
    assert depth.samples.tobytes() == before.tobytes()
    restore(depth, guide, cfg)
    assert depth.samples.tobytes() == before.tobytes()


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
