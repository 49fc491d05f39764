"""Windowed extrema, hole-filling closing, and hole-mask expansion."""

import numpy as np
import pytest

from depthrestore import (
    ContractViolation,
    DepthMap,
    StructuringElement,
    close_depth,
    expand_holes,
    hole_mask,
)
from depthrestore.preprocess import chebyshev_dilate, windowed_max, windowed_min


def random_map(rng, shape=(32, 32), hole_fraction=0.1):
    d = rng.uniform(1, 65535, shape)
    d[rng.random(shape) < hole_fraction] = 0.0
    return DepthMap(d)


def test_windowed_extrema_hand_case():
    a = np.array([[5.0, 1.0, 3.0],
                  [2.0, 9.0, 4.0],
                  [8.0, 7.0, 6.0]])
    assert windowed_max(a, 1).tolist() == [[9, 9, 9], [9, 9, 9], [9, 9, 9]]
    assert windowed_min(a, 1).tolist() == [[1, 1, 1], [1, 1, 1], [2, 2, 4]]
    wide = np.array([[4.0, 0.0, 2.0, 7.0, 1.0]])
    assert windowed_max(wide, 1).tolist() == [[4, 4, 7, 7, 7]]
    assert windowed_min(wide, 1).tolist() == [[0, 0, 0, 1, 1]]


def test_windowed_extrema_match_naive_window():
    rng = np.random.default_rng(21)
    a = rng.uniform(0, 100, (12, 9))
    for r in (1, 2, 3):
        got = windowed_max(a, r)
        for y in range(12):
            for x in range(9):
                block = a[max(0, y - r):y + r + 1, max(0, x - r):x + r + 1]
                assert got[y, x] == block.max()


def test_constant_map_closes_to_itself():
    d = DepthMap(np.full((10, 10), 1500.0))
    assert np.array_equal(close_depth(d).samples, d.samples)


def test_single_hole_fills_with_neighbor_depth():
    a = np.full((7, 7), 1000.0)
    a[3, 3] = 0.0
    out = close_depth(DepthMap(a), StructuringElement(2))
    assert out.samples[3, 3] == 1000.0
    assert not hole_mask(out).any()


def test_close_never_touches_valid_pixels():
    rng = np.random.default_rng(22)
    d = random_map(rng)
    out = close_depth(d)
    keep = d.samples != 0
    assert np.array_equal(out.samples[keep], d.samples[keep])


def test_close_is_idempotent():
    rng = np.random.default_rng(23)
    for _ in range(10):
        d = random_map(rng, hole_fraction=0.2)
        once = close_depth(d)
        twice = close_depth(once)
        assert np.array_equal(once.samples, twice.samples)


def test_filled_values_come_from_the_neighborhood():
    rng = np.random.default_rng(24)
    d = random_map(rng, (16, 16), 0.15)
    out = close_depth(d, StructuringElement(2))
    a = d.samples
    for y, x in zip(*np.nonzero((a == 0) & (out.samples != 0))):
        block = a[max(0, y - 4):y + 5, max(0, x - 4):x + 5]
        assert out.samples[y, x] in block


def test_oversized_hole_survives_closing():
    # a hole block wider than 2 * radius in both axes is left alone:
    # dilation shrinks it but erosion grows it right back
    a = np.full((11, 11), 2000.0)
    a[2:9, 2:9] = 0.0  # 7x7 hole vs a 5x5 element
    out = close_depth(DepthMap(a), StructuringElement(2))
    assert np.array_equal(out.samples, a)


def test_narrow_hole_strip_fills_completely():
    a = np.full((11, 11), 2000.0)
    a[4:7, 2:9] = 0.0  # 3 rows tall, well under the 5x5 element
    out = close_depth(DepthMap(a), StructuringElement(2))
    assert not hole_mask(out).any()
    assert np.all(out.samples == 2000.0)


def test_corner_hole_fills_from_clamped_window():
    a = np.full((8, 8), 1300.0)
    a[0, 0] = 0.0
    out = close_depth(DepthMap(a), StructuringElement(2))
    assert out.samples[0, 0] == 1300.0


def test_structuring_element_validation():
    with pytest.raises(ContractViolation):
        StructuringElement(0)
    StructuringElement(1)


def test_hole_mask_is_exact_zero_test():
    d = DepthMap(np.array([[0.0, 5.0], [0.25, 0.0]]))
    assert hole_mask(d).tolist() == [[True, False], [False, True]]


def test_chebyshev_dilate_square_growth():
    m = np.zeros((7, 7), dtype=bool)
    m[3, 3] = True
    got = chebyshev_dilate(m, 2)
    expect = np.zeros((7, 7), dtype=bool)
    expect[1:6, 1:6] = True
    assert np.array_equal(got, expect)
    assert np.array_equal(chebyshev_dilate(m, 0), m)


def test_expand_holes_only_takes_edge_pixels():
    holes = np.zeros((5, 5), dtype=bool)
    holes[2, 2] = True
    edges = np.zeros((5, 5), dtype=bool)
    edges[2, 3] = True   # adjacent edge pixel
    edges[2, 0] = True   # edge pixel out of reach
    got = expand_holes(holes, edges, 1)
    expect = holes.copy()
    expect[2, 3] = True
    assert np.array_equal(got, expect)


def test_expand_holes_keeps_originals_and_radius_zero_is_identity():
    rng = np.random.default_rng(25)
    holes = rng.random((9, 9)) < 0.2
    edges = rng.random((9, 9)) < 0.3
    assert np.array_equal(expand_holes(holes, edges, 0), holes)
    grown = expand_holes(holes, edges, 2)
    assert (grown | holes).sum() == grown.sum()  # nothing un-holed


def test_expand_holes_monotone_in_radius():
    rng = np.random.default_rng(26)
    holes = rng.random((12, 12)) < 0.1
    edges = rng.random((12, 12)) < 0.4
    prev = expand_holes(holes, edges, 0)
    for r in (1, 2, 3):
        cur = expand_holes(holes, edges, r)
        assert not (prev & ~cur).any()
        prev = cur


def test_expand_holes_validation():
    with pytest.raises(ContractViolation):
        expand_holes(np.zeros((2, 2), bool), np.zeros((3, 3), bool), 1)
    for bad in (-1, 1.5, True):
        with pytest.raises(ContractViolation):
            expand_holes(np.zeros((2, 2), bool), np.zeros((2, 2), bool), bad)
    holes = np.eye(4, dtype=bool)
    assert np.array_equal(expand_holes(holes, ~holes, np.int64(1)),
                          expand_holes(holes, ~holes, 1))
