"""Sobel gradients, edge orientation, region labels, theta transport."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

from oracles import sobel_at


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


def test_nearest_edge_theta_takes_closest_source():
    theta = np.zeros((5, 5))
    edge = np.zeros((5, 5), dtype=bool)
    edge[1, 1] = True
    theta[1, 1] = 0.3
    edge[1, 3] = True
    theta[1, 3] = 0.7
    out = nearest_edge_theta(EdgeMap(edge, theta), 2)
    assert out[1, 2] == 0.3          # tie at distance 1, row-major first
    assert out[3, 3] == 0.3          # tie at distance 2, row-major first
    assert out[1, 4] == 0.7          # unambiguous
    assert out[1, 1] == 0.3          # edge pixels keep their own angle
    assert out[4, 0] == 0.0          # nothing in range keeps own theta


def test_nearest_edge_theta_distance_beats_scan_order():
    theta = np.zeros((5, 9))
    edge = np.zeros((5, 9), dtype=bool)
    edge[0, 0] = True               # earlier in scan order, further away
    theta[0, 0] = 0.2
    edge[4, 4] = True
    theta[4, 4] = -0.9
    out = nearest_edge_theta(EdgeMap(edge, theta), 4)
    assert out[3, 4] == -0.9


def test_nearest_edge_theta_radius_zero_is_identity():
    rng = np.random.default_rng(35)
    theta = rng.uniform(-1.5, 1.5, (6, 6))
    edge = rng.random((6, 6)) < 0.3
    out = nearest_edge_theta(EdgeMap(edge, theta), 0)
    assert np.array_equal(out, theta)
    assert np.array_equal(nearest_edge_theta(EdgeMap(edge, theta), np.int64(0)), theta)
    for bad in (-1, 1.5, True):
        with pytest.raises(ContractViolation):
            nearest_edge_theta(EdgeMap(edge, theta), bad)


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
