"""Sobel gradients, edge orientation, region labels, theta transport."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from depthrestore import (
    ContractViolation,
    HOLE_EDGE,
    HOLE_NONEDGE,
    NONHOLE_EDGE,
    NONHOLE_NONEDGE,
    classify_regions,
    detect_edges,
    dgf_weight,
    edge_theta,
    nearest_edge_theta,
    sobel_gradients,
)
from depthrestore.edge_analysis import EdgeMap, theta_to_units
from depthrestore.image_model import GrayImage

from oracles import (
    ref_edge_theta, ref_nearest_edge_theta, ref_sobel_gradients, ref_to_grayscale, sobel_at)


def test_constant_image_has_zero_gradient():
    g = sobel_gradients(GrayImage(np.full((5, 5), 77.0)))
    assert not g.gx.any() and not g.gy.any() and not g.magnitude.any()


def test_vertical_step_gradient_hand_computed():
    a = np.tile(np.array([0.0, 0.0, 255.0, 255.0]), (4, 1))
    g = sobel_gradients(GrayImage(a))
    # replicated borders make every row identical; the step columns see
    # the full kernel weight sum (1 + 2 + 1) times the 255 jump
    assert np.array_equal(g.gx, np.tile([0.0, 1020.0, 1020.0, 0.0], (4, 1)))
    assert not g.gy.any()


def test_gradients_match_direct_correlation():
    rng = np.random.default_rng(31)
    a = rng.uniform(0, 255, (8, 7))
    g = sobel_gradients(GrayImage(a))
    for y in range(8):
        for x in range(7):
            gx, gy = sobel_at(a, y, x)
            assert abs(g.gx[y, x] - gx) < 1e-9
            assert abs(g.gy[y, x] - gy) < 1e-9


def test_gradient_transpose_swaps_axes():
    rng = np.random.default_rng(32)
    a = rng.uniform(0, 255, (6, 9))
    g = sobel_gradients(GrayImage(a))
    gt = sobel_gradients(GrayImage(a.T.copy()))
    assert np.allclose(gt.gx, g.gy.T, atol=1e-12)
    assert np.allclose(gt.gy, g.gx.T, atol=1e-12)


def test_gradients_need_three_by_three():
    with pytest.raises(ContractViolation):
        sobel_gradients(GrayImage(np.zeros((2, 5))))


def gradient_source(h, w, kind, rng):
    """An h x w image of one kind: a uint8 array, reals in [0, 255] or
    of either sign and large, the luma of a random guide, or constant."""
    if kind == "uint8":
        return rng.integers(0, 256, (h, w), dtype=np.uint8)
    if kind == "float":
        return rng.uniform(0, 255, (h, w))
    if kind == "wide":
        return rng.normal(0, 1e4, (h, w))
    if kind == "luma":
        return ref_to_grayscale(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
    return np.full((h, w), rng.uniform(0, 255))


GRADIENT_KINDS = ["uint8", "float", "wide", "luma", "constant"]


@settings(max_examples=100, deadline=None)
@given(h=st.integers(3, 33), w=st.integers(3, 40), kind=st.sampled_from(GRADIENT_KINDS),
       seed=st.integers(0, 2**32 - 1))
@example(h=3, w=3, kind="luma", seed=0)
@example(h=33, w=40, kind="constant", seed=1)
def test_gradients_match_the_frozen_expression(h, w, kind, seed):
    """On uint8 and real images from 3x3 to 40x33, constant ones too,
    gx, gy and the magnitude are the frozen one-temporary-per-operation
    expression's, bit for bit, and the input is left as it was."""
    a = gradient_source(h, w, kind, np.random.default_rng(seed))
    before = a.copy()
    g = sobel_gradients(GrayImage(a))
    for got, want in zip((g.gx, g.gy, g.magnitude), ref_sobel_gradients(a)):
        assert got.dtype == np.float64 and got.shape == (h, w)
        assert np.array_equal(got, want)
    assert np.array_equal(a, before)


@settings(max_examples=100, deadline=None)
@given(h=st.integers(3, 33), w=st.integers(3, 40),
       kind=st.sampled_from(GRADIENT_KINDS + ["small ints"]), seed=st.integers(0, 2**32 - 1))
@example(h=3, w=3, kind="constant", seed=0)
def test_edge_theta_grid_matches_the_frozen_expression(h, w, kind, seed):
    """On the gradients of those images, and on small integer gradients
    where gy and gx are often 0, the angle grid is the frozen nested
    where expression's, bit for bit, and the gradients are left as
    they were."""
    rng = np.random.default_rng(seed)
    if kind == "small ints":
        gx, gy = (rng.integers(-2, 3, (h, w)).astype(np.float64) for _ in range(2))
    else:
        g = sobel_gradients(GrayImage(gradient_source(h, w, kind, rng)))
        gx, gy = g.gx, g.gy
    before = gx.copy(), gy.copy()
    got = edge_theta(gx, gy)
    assert got.dtype == np.float64 and got.shape == (h, w)
    assert np.array_equal(got, ref_edge_theta(gx, gy))
    assert np.array_equal(gx, before[0]) and np.array_equal(gy, before[1])


def test_edge_theta_special_and_generic_values():
    assert edge_theta(0.0, 0.0) == 0.0
    assert edge_theta(5.0, 0.0) == math.pi / 2
    assert edge_theta(-5.0, 0.0) == math.pi / 2
    # y points down: a gradient down and to the right means a contour
    # running up and to the right, at -45 degrees.
    assert abs(edge_theta(1.0, 1.0) + math.pi / 4) < 1e-12
    assert abs(edge_theta(3.0, 4.0) + math.atan(0.75)) < 1e-15
    assert edge_theta(0.0, 8.0) == 0.0
    assert type(edge_theta(3.0, 4.0)) is float


def test_edge_theta_scale_invariant_and_bounded():
    rng = np.random.default_rng(33)
    for _ in range(100):
        gx, gy = rng.uniform(-100, 100, 2)
        t = edge_theta(gx, gy)
        assert -math.pi / 2 < t <= math.pi / 2
        assert abs(edge_theta(3.0 * gx, 3.0 * gy) - t) < 1e-12


def test_theta_grid_matches_scalar():
    rng = np.random.default_rng(34)
    gx = rng.uniform(-50, 50, (6, 6))
    gy = rng.uniform(-50, 50, (6, 6))
    gx[0, 0] = gy[0, 0] = 0.0
    gy[1, 1] = 0.0
    grid = edge_theta(gx, gy)
    for y in range(6):
        for x in range(6):
            assert grid[y, x] == edge_theta(gx[y, x], gy[y, x])


@settings(max_examples=100, deadline=None)
@given(phi=st.floats(0.0, math.pi, exclude_max=True), d=st.floats(1.0, 5.0))
def test_theta_steers_dgf_weight_along_a_straight_color_edge(phi, d):
    """A 64|104 edge whose contour runs through the center pixel at
    angle phi (x right, y down): with the theta that edge_theta reports
    there, dgf_weight at an offset d along the contour exceeds the
    weight at the same offset across it. The Sobel estimate of the
    contour is off by at most 26.6 degrees on this raster, well inside
    the 45 degrees at which the two weights swap."""
    along = (math.cos(phi), math.sin(phi))
    y, x = np.mgrid[-8:9, -8:9]
    far = y * along[0] - x * along[1] > 0
    g = sobel_gradients(GrayImage(np.where(far, 104.0, 64.0)))
    theta = edge_theta(g.gx[8, 8], g.gy[8, 8])
    w_along = dgf_weight(d * along[0], d * along[1], theta, 5.0, 1.5)
    w_across = dgf_weight(-d * along[1], d * along[0], theta, 5.0, 1.5)
    assert w_along > w_across


def test_detect_edges_threshold_semantics():
    a = np.tile(np.array([0.0, 0.0, 255.0, 255.0]), (4, 1))
    g = sobel_gradients(GrayImage(a))
    edges = detect_edges(g, 500.0)
    assert np.array_equal(edges.edge, np.tile([False, True, True, False], (4, 1)))
    assert not detect_edges(g, 1021.0).edge.any()
    assert detect_edges(g, 1020.0).edge.any()  # inclusive at the threshold
    for bad in (0.0, math.nan, True, "500"):
        with pytest.raises(ContractViolation):
            detect_edges(g, bad)


def test_classification_covers_all_four_labels():
    holes = np.zeros((5, 5), dtype=bool)
    holes[0, 0] = holes[2, 2] = True
    edge = np.zeros((5, 5), dtype=bool)
    edge[2, 2] = True
    labels = classify_regions(holes, EdgeMap(edge, np.zeros((5, 5))), 1)
    assert labels[0, 0] == HOLE_NONEDGE
    assert labels[2, 2] == HOLE_EDGE
    assert labels[1, 1] == NONHOLE_EDGE  # adjacent to the edge pixel
    assert labels[4, 4] == NONHOLE_NONEDGE


def test_classification_edge_region_is_chebyshev_ball():
    edge = np.zeros((7, 7), dtype=bool)
    edge[3, 3] = True
    labels = classify_regions(np.zeros((7, 7), bool), EdgeMap(edge, np.zeros((7, 7))), 2)
    expect = np.zeros((7, 7), dtype=np.uint8)
    expect[1:6, 1:6] = NONHOLE_EDGE
    assert np.array_equal(labels, expect)


def test_classification_r_edge_zero_marks_only_edge_pixels():
    edge = np.zeros((5, 5), dtype=bool)
    edge[2, 2] = True
    labels = classify_regions(np.zeros((5, 5), bool), EdgeMap(edge, np.zeros((5, 5))), 0)
    assert labels[2, 2] == NONHOLE_EDGE
    assert (labels == NONHOLE_EDGE).sum() == 1


def test_classification_shape_mismatch():
    with pytest.raises(ContractViolation):
        classify_regions(np.zeros((2, 2), bool),
                         EdgeMap(np.zeros((3, 3), bool), np.zeros((3, 3))), 1)
    for bad in (-1, 1.5, True):
        with pytest.raises(ContractViolation):
            classify_regions(np.zeros((3, 3), bool),
                             EdgeMap(np.zeros((3, 3), bool), np.zeros((3, 3))), bad)


def every_pixel(shape):
    return np.arange(shape[0] * shape[1])


def test_nearest_edge_theta_takes_closest_source():
    theta = np.zeros((5, 5))
    edge = np.zeros((5, 5), dtype=bool)
    edge[1, 1] = True
    theta[1, 1] = 0.3
    edge[1, 3] = True
    theta[1, 3] = 0.7
    at = {(1, 2): 0.3,                # tie at distance 1, row-major first
          (3, 3): 0.3,                # tie at distance 2, row-major first
          (1, 4): 0.7,                # unambiguous
          (1, 1): 0.3,                # edge pixels keep their own angle
          (4, 0): 0.0}                # nothing in range keeps own theta
    targets = np.array(sorted(y * 5 + x for y, x in at))
    out = nearest_edge_theta(EdgeMap(edge, theta), 2, targets)
    assert out.tolist() == [at[divmod(int(t), 5)] for t in targets]


def test_nearest_edge_theta_distance_beats_scan_order():
    theta = np.zeros((5, 9))
    edge = np.zeros((5, 9), dtype=bool)
    edge[0, 0] = True               # earlier in scan order, further away
    theta[0, 0] = 0.2
    edge[4, 4] = True
    theta[4, 4] = -0.9
    out = nearest_edge_theta(EdgeMap(edge, theta), 4, np.array([3 * 9 + 4]))
    assert out.tolist() == [-0.9]


def test_nearest_edge_theta_radius_zero_is_identity():
    rng = np.random.default_rng(35)
    theta = rng.uniform(-1.5, 1.5, (6, 6))
    edge = rng.random((6, 6)) < 0.3
    targets = every_pixel((6, 6))
    out = nearest_edge_theta(EdgeMap(edge, theta), 0, targets)
    assert np.array_equal(out, theta.reshape(-1))
    assert np.array_equal(nearest_edge_theta(EdgeMap(edge, theta), np.int64(0), targets[7:9]),
                          theta.flat[7:9])
    for bad in (-1, 1.5, True):
        with pytest.raises(ContractViolation):
            nearest_edge_theta(EdgeMap(edge, theta), bad, targets)


@pytest.mark.parametrize("targets", [[-1], [1.5], [True, False], [20], [[1, 2]]],
                         ids=["negative", "fraction", "bools", "past-end", "2-D"])
def test_nearest_edge_theta_rejects_targets_off_the_frame(targets):
    """On a 4x5 frame numpy would read -1 as the last pixel, 1.5 as
    pixel 1 and [True, False] as pixels 1 and 0, and 20 would escape as
    an IndexError: each raises ContractViolation naming targets."""
    edges = EdgeMap(np.zeros((4, 5), bool), np.arange(20.0).reshape(4, 5))
    with pytest.raises(ContractViolation, match="targets"):
        nearest_edge_theta(edges, 1, targets)
    assert nearest_edge_theta(edges, 1, [0, 19]).tolist() == [0.0, 19.0]


@settings(max_examples=150, deadline=None)
@given(h=st.integers(1, 12), w=st.integers(1, 12), r_edge=st.integers(0, 5),
       density=st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]),
       targets=st.sampled_from(["all", "none", "border", "random"]),
       seed=st.integers(0, 2**32 - 1))
@example(h=9, w=9, r_edge=5, density=0.02, targets="border", seed=0)
@example(h=1, w=12, r_edge=3, density=0.1, targets="all", seed=1)
@example(h=7, w=7, r_edge=2, density=0.1, targets="none", seed=2)
def test_nearest_edge_theta_matches_the_full_grid_reference(h, w, r_edge, density, targets,
                                                            seed):
    """At every target, in any set of them (every pixel, none, the
    border ring, a random half), the angle is the frozen full-grid
    version's, bit for bit: nearest edge by (distance, dy, dx), first
    hit wins, edge pixels and pixels with no edge in range keep their
    own theta, for r_edge 0-5 on frames smaller than the radius too."""
    rng = np.random.default_rng(seed)
    edge = rng.random((h, w)) < density
    theta = rng.uniform(-np.pi / 2, np.pi / 2, (h, w))
    mask = np.ones((h, w), bool)
    if targets == "none":
        mask[:] = False
    elif targets == "border":
        mask[1:-1, 1:-1] = False
    elif targets == "random":
        mask = rng.random((h, w)) < 0.5
    at = np.flatnonzero(mask)
    got = nearest_edge_theta(EdgeMap(edge, theta), r_edge, at)
    assert got.shape == at.shape and got.dtype == np.float64
    assert np.array_equal(got, ref_nearest_edge_theta(edge, theta, r_edge).flat[at])


def test_theta_units_scale_and_invert():
    theta = np.array([[-math.pi / 2 + 1e-9, 0.0, math.pi / 2]])
    units = theta_to_units(theta)
    assert abs(units[0, 1] - 32767.5) < 1e-9
    assert abs(units[0, 2] - 65535.0) < 1e-9
    back = units / 65535.0 * math.pi - math.pi / 2
    assert np.allclose(back, theta, atol=1e-9)


def test_edge_map_frames_must_match_in_size():
    """An edge map whose flags and angles differ in size fails at
    construction, naming both sizes, instead of feeding a fill that
    reads theta at the wrong pixels."""
    with pytest.raises(ContractViolation) as e:
        EdgeMap(np.zeros((8, 11), bool), np.zeros((8, 8)))
    assert "11x8" in str(e.value) and "8x8" in str(e.value)


@pytest.mark.parametrize("theta", [np.full((8, 8), np.nan), np.full((8, 8), np.inf),
                                   np.full((8, 8), -np.inf), np.full((8, 8), "0.3"),
                                   np.zeros((8, 8), bool), np.zeros((8, 8), complex),
                                   [[0.0] * 8] * 8],
                         ids=["nan", "inf", "-inf", "str", "bool", "complex", "list"])
def test_edge_map_angles_must_be_finite_reals(theta):
    """An edge map whose theta is not an integer or float array, or holds
    NaN or an infinity at one pixel, fails at construction, instead of
    building without error (a string array) or turning a whole edge
    region into HOLE (a NaN angle weighs every source NaN, and NaN > 0
    is false)."""
    EdgeMap(np.zeros((8, 8), bool), np.zeros((8, 8), np.int32))
    if isinstance(theta, np.ndarray) and theta.dtype.kind == "f":
        ok = np.zeros((8, 8))
        ok[5, 2] = theta[0, 0]
        theta = ok
    with pytest.raises(ContractViolation, match="^theta must be"):
        EdgeMap(np.zeros((8, 8), bool), theta)
