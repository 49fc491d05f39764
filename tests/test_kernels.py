"""Closed forms and symmetries of the scalar weight kernels."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from depthrestore import (
    ContractViolation,
    KernelParams,
    color_range_weight,
    depth_range_weight,
    dgf_weight,
    spatial_weight,
)
from depthrestore.kernels import color_range_table, depth_range_table, rotated_weight, steering

from oracles import ref_rotated_weight

MAX_DIST2 = 3 * 255 * 255


def three_square_triples():
    """Per squared distance k in 0..3 * 255**2: one (a, b, c) in 0..255
    with a*a + b*b + c*c == k, or -1s where k has no such triple
    (k = 4**i * (8j + 7), and a few sums too large for 255)."""
    sq = np.arange(256) ** 2
    ab = np.add.outer(sq, sq).ravel()
    trip = np.full((MAX_DIST2 + 1, 3), -1)
    for c in range(256):
        k = ab + c * c
        new = np.flatnonzero(trip[k, 0] < 0)
        trip[k[new]] = np.stack([new // 256, new % 256, np.full(new.size, c)], axis=1)
    return trip


def test_spatial_unit_at_origin():
    assert spatial_weight(0, 0, 3.0) == 1.0


def test_spatial_one_sigma_closed_form():
    for s in (0.5, 1.0, 3.0, 7.25):
        assert abs(spatial_weight(s, 0.0, s) - math.exp(-0.5)) < 1e-12
        assert abs(spatial_weight(0.0, s, s) - math.exp(-0.5)) < 1e-12


def test_spatial_symmetry():
    w = spatial_weight(2.0, -1.0, 3.0)
    assert spatial_weight(-2.0, 1.0, 3.0) == w
    assert spatial_weight(-1.0, -2.0, 3.0) == w  # radius is all that matters


def test_spatial_monotone_in_distance():
    vals = [spatial_weight(d, 0.0, 3.0) for d in range(8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_color_scalar_closed_forms():
    assert color_range_weight(128.0, 128.0, 25.0) == 1.0
    assert abs(color_range_weight(150.0, 125.0, 25.0) - math.exp(-0.5)) < 1e-12


def test_color_triple_euclidean():
    # squared distance 9 + 16 + 0 = 25, sigma 5 -> exp(-1/2)
    w = color_range_weight((10, 20, 30), (13, 24, 30), 5.0)
    assert abs(w - math.exp(-0.5)) < 1e-12


def test_color_gray_triple_scales_by_sqrt3():
    # equal channels triple the squared distance relative to scalars
    t = color_range_weight((100, 100, 100), (110, 110, 110), 25.0)
    s = color_range_weight(100.0, 110.0 + (math.sqrt(3) - 1) * 10.0, 25.0)
    assert abs(t - s) < 1e-12


def test_depth_closed_forms():
    assert abs(depth_range_weight(1000.0, 1060.0, 30.0) - math.exp(-2.0)) < 1e-12
    assert abs(depth_range_weight(1060.0, 1000.0, 30.0) - math.exp(-2.0)) < 1e-12
    assert depth_range_weight(1234.5, 1234.5, 30.0) == 1.0


def test_depth_sigma_cap_disables_term():
    assert depth_range_weight(0.0, 65535.0, 1e9) == 1.0
    assert depth_range_weight(0.0, 65535.0, 2e9) == 1.0
    assert depth_range_weight(0.0, 65535.0, 1e9 - 1) != 1.0


def test_dgf_closed_form():
    # theta 0: exp(-(dx^2/sx^2 + dy^2/sy^2)/2) = exp(-(1/4)/2)
    assert abs(dgf_weight(1.0, 0.0, 0.0, 2.0, 1.0) - math.exp(-0.125)) < 1e-12


def test_dgf_reduces_to_isotropic_when_widths_equal():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dx, dy = rng.uniform(-5, 5, 2)
        th = rng.uniform(-np.pi / 2, np.pi / 2)
        s = rng.uniform(0.5, 6.0)
        a = dgf_weight(dx, dy, th, s, s)
        b = spatial_weight(dx, dy, s)
        assert abs(a - b) < 1e-12


def test_dgf_rotation_consistency():
    """Rotating the offset into the kernel frame matches theta = 0."""
    rng = np.random.default_rng(12)
    for _ in range(50):
        dx, dy = rng.uniform(-5, 5, 2)
        th = rng.uniform(-np.pi, np.pi)
        xr = dx * math.cos(th) + dy * math.sin(th)
        yr = -dx * math.sin(th) + dy * math.cos(th)
        a = dgf_weight(dx, dy, th, 4.0, 1.5)
        b = dgf_weight(xr, yr, 0.0, 4.0, 1.5)
        assert abs(a - b) < 1e-12


def test_dgf_pi_periodic():
    for th in (-1.2, -0.3, 0.0, 0.7, 1.5):
        a = dgf_weight(2.0, -1.0, th, 4.0, 1.5)
        b = dgf_weight(2.0, -1.0, th + math.pi, 4.0, 1.5)
        assert abs(a - b) < 1e-12


def test_dgf_prefers_the_long_axis():
    along = dgf_weight(3.0, 0.0, 0.0, 5.0, 1.5)
    across = dgf_weight(0.0, 3.0, 0.0, 5.0, 1.5)
    assert along > across


def test_weights_lie_in_unit_interval():
    rng = np.random.default_rng(13)
    for _ in range(200):
        dx, dy = rng.uniform(-9, 9, 2)
        th = rng.uniform(-np.pi, np.pi)
        d = rng.uniform(0, 65535)
        for w in (spatial_weight(dx, dy, 3.0),
                  dgf_weight(dx, dy, th, 5.0, 1.5),
                  depth_range_weight(d, d + rng.uniform(-300, 300), 30.0)):
            assert 0.0 < w <= 1.0


def test_huge_depth_gap_underflows_to_zero():
    # exp of -0.5 * (65000/30)^2 is far below the smallest double;
    # the weight degrades to an exact zero rather than an error.
    assert depth_range_weight(100.0, 65100.0, 30.0) == 0.0


@pytest.mark.parametrize("s", [0.5, 25.0, 1e4])
def test_color_range_table_is_the_kernel_bit_for_bit(s):
    """Entry k of the table is color_range_weight of a float triple at
    squared distance k, exactly, for every k a pair of uint8 colors can
    produce; the k no three squares reach hold the kernel's expression
    all the same."""
    table = color_range_table(s)
    assert table.shape == (MAX_DIST2 + 1,) and table.dtype == np.float64
    trip = three_square_triples()
    reach = trip[:, 0] >= 0
    assert reach[0] and reach[MAX_DIST2]
    diff = trip[reach].T.astype(np.float64)
    assert np.array_equal(table[reach], color_range_weight(diff, np.zeros_like(diff), s))
    rest = np.flatnonzero(~reach).astype(np.float64)
    assert np.array_equal(table[~reach], np.exp(-0.5 * rest / (s * s)))


def test_color_range_table_is_cached_and_read_only():
    table = color_range_table(25.0)
    assert color_range_table(25.0) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0.5


def test_depth_range_weight_on_arrays_leaves_its_inputs():
    dp = np.array([1000.0, 1060.0, 1234.5])
    dq = np.array([1060.0, 1000.0, 1234.5])
    got = depth_range_weight(dp, dq, 30.0)
    assert np.array_equal(got, [depth_range_weight(a, b, 30.0) for a, b in zip(dp, dq)])
    assert np.array_equal(dp, [1000.0, 1060.0, 1234.5])
    assert np.array_equal(dq, [1060.0, 1000.0, 1234.5])
    assert isinstance(depth_range_weight(1000.0, 1060.0, 30.0), float)


@pytest.mark.parametrize("s", [0.3, 30.0, 1e5, 1e9])
def test_depth_range_table_is_the_kernel_bit_for_bit(s):
    """The largest table the engine builds, for the sentinel 2 * 65536
    of depth up to 65535: entry k is depth_range_weight of the depth
    pair (k, 0) and of (0, k), exactly, for every difference of two
    uint16 depths, and every entry of the tail is exactly 0.0; at the
    1e9 cap every entry before the tail is the kernel's exact 1.0."""
    table = depth_range_table(s, 2 * 65536)
    assert table.shape == (2 * 65536 + 1,) and table.dtype == np.float64
    k = np.arange(65536, dtype=np.float64)
    zero = np.zeros_like(k)
    head = table[:65536]
    assert np.array_equal(head, np.broadcast_to(depth_range_weight(k, zero, s), k.shape))
    assert np.array_equal(head, np.broadcast_to(depth_range_weight(zero, k, s), k.shape))
    for j in (0, 1, 2, 29, 30, 31, 1000, 65535):
        assert table[j] == depth_range_weight(float(j), 0.0, s)
        assert table[j] == depth_range_weight(0.0, float(j), s)
    assert (table[65536:] == 0.0).all()


def test_depth_range_table_is_cached_read_only_and_sized():
    table = depth_range_table(30.0, 4096)
    assert depth_range_table(30.0, 4096) is table
    assert table.shape == (4097,)
    assert (table[2048:] == 0.0).all()
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0.5


def test_params_validation():
    KernelParams()
    with pytest.raises(ContractViolation):
        KernelParams(sigma_s=0.0)
    with pytest.raises(ContractViolation):
        KernelParams(sigma_r_color=-1.0)
    with pytest.raises(ContractViolation):
        KernelParams(window_radius=0)
    with pytest.raises(ContractViolation):
        KernelParams(sigma_x=1.0, sigma_y=2.0)
    for bad in (True, 3.0, 2.5, "3", None):
        with pytest.raises(ContractViolation):
            KernelParams(window_radius=bad)


@pytest.mark.parametrize("name", ["sigma_s", "sigma_r_color", "sigma_r_depth",
                                  "sigma_x", "sigma_y"])
def test_sigmas_must_be_real_numbers(name):
    """A bool or a string in a width fails validation instead of running
    as 1.0 or escaping as a TypeError; ints and numpy floats are fine."""
    for bad in (True, False, "25", None, 2 + 0j):
        with pytest.raises(ContractViolation):
            KernelParams(**{name: bad})
    good = {"sigma_x": 9, "sigma_y": 1} if name in ("sigma_x", "sigma_y") else {name: 7}
    KernelParams(**good)
    KernelParams(**{name: np.float64(getattr(KernelParams(), name))})


def test_default_params_are_the_published_ones():
    p = KernelParams()
    assert (p.sigma_s, p.sigma_r_color, p.sigma_r_depth) == (3.0, 25.0, 30.0)
    assert (p.sigma_x, p.sigma_y, p.window_radius) == (5.0, 1.5, 5)


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from([(1,), (7,), (300,), (3, 5), (17, 40)]),
       dx=st.integers(-7, 7), dy=st.integers(-7, 7),
       sigma_x=st.floats(0.3, 12.0), sigma_y=st.floats(0.3, 12.0),
       exact=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(shape=(7,), dx=0, dy=0, sigma_x=5.0, sigma_y=1.5, exact=True, seed=0)
@example(shape=(3, 5), dx=-7, dy=7, sigma_x=0.3, sigma_y=0.3, exact=False, seed=1)
def test_rotated_weight_array_angles_match_the_frozen_expression(shape, dx, dy, sigma_x,
                                                                 sigma_y, exact, seed):
    """With one angle per output (random angles in (-pi, pi], or the
    axis and diagonal angles), the weights are the frozen
    one-temporary-per-operation expression's, bit for bit, and the
    cos and sin arrays are left as they were."""
    rng = np.random.default_rng(seed)
    if exact:
        theta = rng.choice([0.0, np.pi / 2, -np.pi / 2, np.pi / 4, -np.pi / 4, np.pi], shape)
    else:
        theta = rng.uniform(-np.pi, np.pi, shape)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    before = cos_t.copy(), sin_t.copy()
    got = rotated_weight(dx, dy, cos_t, sin_t, sigma_x, sigma_y)
    assert got.dtype == np.float64 and got.shape == shape
    assert np.array_equal(got, ref_rotated_weight(dx, dy, cos_t, sin_t, sigma_x, sigma_y))
    assert np.array_equal(cos_t, before[0]) and np.array_equal(sin_t, before[1])


@settings(max_examples=150, deadline=None)
@given(theta=st.floats(-np.pi, np.pi), dx=st.integers(-5, 5), dy=st.integers(-5, 5),
       sigma_x=st.floats(0.3, 12.0), sigma_y=st.floats(0.3, 12.0),
       form=st.sampled_from(["float", "numpy", "0-d"]))
@example(theta=0.0, dx=3, dy=-2, sigma_x=5.0, sigma_y=1.5, form="numpy")
@example(theta=-0.0, dx=-1, dy=4, sigma_x=3.0, sigma_y=3.0, form="float")
@example(theta=np.pi / 4, dx=5, dy=5, sigma_x=5.0, sigma_y=1.5, form="0-d")
def test_steering_one_angle_gives_the_array_forms_bits_as_floats(theta, dx, dy, sigma_x,
                                                                 sigma_y, form):
    """A 0-d angle (a Python float, a numpy scalar or a 0-d array) steers
    with Python floats, whose bits are the array form's at that angle,
    so rotated_weight on them gives the array form's weight bit for bit
    on the faster scalar arithmetic."""
    angle = {"float": theta, "numpy": np.float64(theta), "0-d": np.array(theta)}[form]
    one = steering(angle)
    many = steering(np.full(17, theta))
    for name in ("cos_t", "sin_t"):
        assert type(one[name]) is float
        assert np.float64(one[name]).tobytes() == many[name][:1].tobytes(), name
    want = rotated_weight(dx, dy, many["cos_t"], many["sin_t"], sigma_x, sigma_y)
    got = rotated_weight(dx, dy, one["cos_t"], one["sin_t"], sigma_x, sigma_y)
    assert np.float64(got).tobytes() == want[:1].tobytes()
