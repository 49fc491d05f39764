"""Raster types, grayscale conversion, and Netpbm byte-level I/O."""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from depthrestore import (
    ColorImage,
    ContractViolation,
    DepthMap,
    FormatError,
    TruncationError,
    UnsupportedFormatError,
    encode_depth_pgm,
    hole_mask,
    load_color_ppm,
    load_depth_pgm,
    quantize,
    save_color_ppm,
    save_depth_pgm,
    save_mask_pgm,
    to_grayscale,
)

from oracles import ref_to_grayscale

PGM_1X1_ZERO = b"P5\n1 1\n65535\n\x00\x00"
PGM_1X1_MAX = b"P5\n1 1\n65535\n\xff\xff"
PGM_2X2 = b"P5\n2 2\n65535\n\x00\x01\x00\x02\x00\x03\x00\x04"
PPM_3X2 = b"P6\n3 2\n255\n" + bytes(range(18))


def write(tmp_path, name, data):
    p = tmp_path / name
    p.write_bytes(data)
    return str(p)


def test_load_pgm_hand_encoded_bytes(tmp_path):
    d = load_depth_pgm(write(tmp_path, "a.pgm", PGM_2X2))
    assert d.samples.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert d.width == 2 and d.height == 2


def test_load_pgm_one_pixel_hole(tmp_path):
    d = load_depth_pgm(write(tmp_path, "z.pgm", PGM_1X1_ZERO))
    assert d.samples.tolist() == [[0.0]]
    assert hole_mask(d).all()


def test_load_pgm_big_endian_order(tmp_path):
    # 0x0102 must read as 258, not 513
    raw = b"P5\n1 1\n65535\n\x01\x02"
    d = load_depth_pgm(write(tmp_path, "b.pgm", raw))
    assert d.samples[0, 0] == 258.0


def test_save_pgm_exact_bytes(tmp_path):
    p = str(tmp_path / "out.pgm")
    save_depth_pgm(DepthMap(np.array([[1.0, 2.0], [3.0, 4.0]])), p)
    assert Path(p).read_bytes() == PGM_2X2
    save_depth_pgm(DepthMap(np.array([[65535.0]])), p)
    assert Path(p).read_bytes() == PGM_1X1_MAX


def test_encode_matches_save(tmp_path):
    d = DepthMap(np.array([[0.0, 500.5], [1000.0, 65535.0]]))
    p = str(tmp_path / "e.pgm")
    save_depth_pgm(d, p)
    assert encode_depth_pgm(d) == Path(p).read_bytes()


def test_header_comments_accepted(tmp_path):
    raw = b"P5\n# made by a scanner\n2 2\n# why not here too\n65535\n" + PGM_2X2[-8:]
    d = load_depth_pgm(write(tmp_path, "c.pgm", raw))
    assert d.samples.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_header_whitespace_variants(tmp_path):
    raw = b"P5  2\t2 \n 65535 " + PGM_2X2[-8:]
    d = load_depth_pgm(write(tmp_path, "w.pgm", raw))
    assert d.samples.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_writer_never_emits_comments(tmp_path):
    p = str(tmp_path / "n.pgm")
    save_depth_pgm(DepthMap(np.zeros((4, 5))), p)
    assert b"#" not in Path(p).read_bytes()


def test_wrong_magic_rejected(tmp_path):
    with pytest.raises(UnsupportedFormatError):
        load_depth_pgm(write(tmp_path, "m.pgm", b"P4\n1 1\n65535\n\x00\x00"))
    with pytest.raises(UnsupportedFormatError):
        load_color_ppm(write(tmp_path, "m.ppm", b"P5\n1 1\n255\n\x00\x00\x00"))


def test_wrong_maxval_rejected(tmp_path):
    with pytest.raises(UnsupportedFormatError):
        load_depth_pgm(write(tmp_path, "m8.pgm", b"P5\n1 1\n255\n\x00"))
    with pytest.raises(UnsupportedFormatError):
        load_color_ppm(write(tmp_path, "m16.ppm", b"P6\n1 1\n65535\n" + b"\x00" * 6))


def test_truncated_payload_reports_counts(tmp_path):
    with pytest.raises(TruncationError) as e:
        load_depth_pgm(write(tmp_path, "t.pgm", PGM_2X2[:-1]))
    assert "expected 8 bytes, got 7" in str(e.value)


def test_trailing_payload_bytes_rejected(tmp_path):
    with pytest.raises(FormatError) as e:
        load_depth_pgm(write(tmp_path, "x.pgm", PGM_2X2 + b"\x00"))
    assert not isinstance(e.value, TruncationError)
    assert "1 bytes after the 8-byte payload" in str(e.value)
    with pytest.raises(FormatError):
        load_color_ppm(write(tmp_path, "x.ppm", PPM_3X2 + b"\x00"))


def test_malformed_header_token(tmp_path):
    with pytest.raises(FormatError):
        load_depth_pgm(write(tmp_path, "x.pgm", b"P5\ntwo 2\n65535\n\x00\x00"))


def test_header_tokens_must_be_ascii_digits(tmp_path):
    # Python's int() would read these as 2 and 10.
    with pytest.raises(FormatError):
        load_depth_pgm(write(tmp_path, "s.pgm", b"P5 +2 1_0 65535\n" + bytes(40)))


def test_nonpositive_dimensions_rejected(tmp_path):
    with pytest.raises(FormatError):
        load_depth_pgm(write(tmp_path, "d0.pgm", b"P5\n0 2\n65535\n"))


HEADERS = st.sampled_from([b"P5", b"P6", b"P5\n", b"P6 3 2\n255\n", b"P5\n2 2\n65535\n",
                           b"P5 1 1", b"P6\n#", b""])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(head=HEADERS, tail=st.binary(max_size=40))
@example(head=b"P5 " + b"9" * 5000 + b" 1 65535\n", tail=b"")
@example(head=b"P6 1 " + b"1" * 5000 + b" 255\n", tail=b"")
def test_arbitrary_bytes_load_or_raise_format_error(tmp_path, head, tail):
    """Any bytes given to either loader give a valid image or a
    FormatError (or a subclass), never any other exception."""
    path = write(tmp_path, "fuzz.pnm", head + tail)
    for load in (load_depth_pgm, load_color_ppm):
        try:
            load(path)
        except FormatError:
            pass


def test_truncation_is_a_format_error():
    assert issubclass(TruncationError, FormatError)
    assert issubclass(UnsupportedFormatError, FormatError)


def test_ppm_layout_row_major_rgb(tmp_path):
    img = load_color_ppm(write(tmp_path, "p.ppm", PPM_3X2))
    assert img.width == 3 and img.height == 2
    assert img.samples[0, 0].tolist() == [0, 1, 2]
    assert img.samples[1, 2].tolist() == [15, 16, 17]


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    img = ColorImage(rng.integers(0, 256, (7, 5, 3), dtype=np.uint8))
    p = str(tmp_path / "rt.ppm")
    save_color_ppm(img, p)
    again = load_color_ppm(p)
    assert np.array_equal(img.samples, again.samples)
    save_color_ppm(again, str(tmp_path / "rt2.ppm"))
    assert Path(p).read_bytes() == (tmp_path / "rt2.ppm").read_bytes()


def test_pgm_round_trip_random(tmp_path):
    rng = np.random.default_rng(9)
    raw = rng.integers(0, 65536, (11, 13)).astype(np.float64)
    p = str(tmp_path / "r.pgm")
    save_depth_pgm(DepthMap(raw), p)
    again = load_depth_pgm(p)
    assert np.array_equal(raw, again.samples)
    p2 = str(tmp_path / "r2.pgm")
    save_depth_pgm(again, p2)
    assert Path(p).read_bytes() == Path(p2).read_bytes()


def test_failed_save_keeps_existing_file(tmp_path):
    class Unwritable(np.ndarray):
        def tobytes(self, *args, **kwargs):
            raise RuntimeError("payload unavailable")

    p = tmp_path / "keep.ppm"
    before = b"P6\n2 2\n255\n" + bytes(range(12))
    p.write_bytes(before)
    broken = ColorImage(np.zeros((2, 2, 3), dtype=np.uint8).view(Unwritable))
    with pytest.raises(RuntimeError):
        save_color_ppm(broken, str(p))
    assert p.read_bytes() == before
    assert os.listdir(tmp_path) == ["keep.ppm"]


def test_failed_rename_removes_the_temporary_file(tmp_path, monkeypatch):
    """A save that fails at the rename, after its temporary sibling is
    written, keeps the old file and leaves no temporary file behind."""
    seen = []

    def refuse(src, dst):
        seen.append(os.path.exists(src))
        raise OSError("rename refused")

    p = tmp_path / "keep.pgm"
    p.write_bytes(PGM_1X1_ZERO)
    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        save_depth_pgm(DepthMap(np.full((2, 2), 1000.0)), str(p))
    assert seen == [True]
    assert p.read_bytes() == PGM_1X1_ZERO
    assert os.listdir(tmp_path) == ["keep.pgm"]


def test_mask_pgm_bytes(tmp_path):
    p = str(tmp_path / "m.pgm")
    save_mask_pgm(np.array([[True, False]]), p)
    assert Path(p).read_bytes() == b"P5\n2 1\n255\n\xff\x00"
    with pytest.raises(ContractViolation):
        save_mask_pgm(np.array([[1, 0]]), p)


def test_depth_map_validation():
    raw = np.array([[0, 1, 65535]], dtype=np.uint16)
    cast = DepthMap(raw).samples
    assert cast.dtype == np.float64 and np.array_equal(cast, raw)
    with pytest.raises(ContractViolation):
        DepthMap(np.array([[-1.0]]))
    with pytest.raises(ContractViolation):
        DepthMap(np.array([[65536.0]]))
    with pytest.raises(ContractViolation):
        DepthMap(np.zeros((2, 2, 2)))


def test_depth_map_rejects_non_finite_samples():
    for bad in ([[np.nan, 1.0]], [[np.inf, 1.0]], [[np.nan, np.inf]]):
        with pytest.raises(ContractViolation):
            DepthMap(np.array(bad))


def test_color_image_validation():
    with pytest.raises(ContractViolation):
        ColorImage(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ContractViolation):
        ColorImage(np.zeros((2, 2, 3), dtype=np.uint16))


def test_grayscale_closed_forms():
    img = ColorImage(np.array([[[255, 255, 255], [0, 0, 0], [100, 150, 200]]],
                              dtype=np.uint8))
    g = to_grayscale(img)
    assert g.samples[0, 0] == 255.0
    assert g.samples[0, 1] == 0.0
    assert abs(g.samples[0, 2] - 140.75) < 1e-12


def test_grayscale_stays_in_range():
    rng = np.random.default_rng(4)
    img = ColorImage(rng.integers(0, 256, (20, 20, 3), dtype=np.uint8))
    g = to_grayscale(img)
    assert g.samples.min() >= 0.0 and g.samples.max() <= 255.0


@settings(max_examples=100, deadline=None)
@given(h=st.integers(3, 33), w=st.integers(3, 40),
       kind=st.sampled_from(["random", "constant", "strided"]), seed=st.integers(0, 2**32 - 1))
@example(h=3, w=3, kind="constant", seed=0)
@example(h=33, w=40, kind="random", seed=1)
def test_grayscale_matches_the_frozen_expression(h, w, kind, seed):
    """On random, constant and strided uint8 guides from 3x3 to 40x33,
    the luma is the frozen float64-copy expression's, bit for bit:
    (0.299 R + 0.587 G) + 0.114 B, each channel exactly as a double."""
    rng = np.random.default_rng(seed)
    if kind == "constant":
        rgb = np.empty((h, w, 3), np.uint8)
        rgb[...] = rng.integers(0, 256, 3, dtype=np.uint8)
    elif kind == "strided":
        rgb = rng.integers(0, 256, (2 * h, w + 3, 3), dtype=np.uint8)[::2, 3:][:, ::-1]
    else:
        rgb = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    before = rgb.copy()
    got = to_grayscale(ColorImage(rgb)).samples
    assert got.dtype == np.float64 and got.shape == (h, w)
    assert np.array_equal(got, ref_to_grayscale(rgb))
    assert np.array_equal(rgb, before)


def test_quantize_rounds_half_up():
    a = np.array([[0.0, 0.4999, 0.5, 1.5, 2.5, 65534.5]])
    assert quantize(a).tolist() == [[0, 0, 1, 2, 3, 65535]]
    assert quantize(a).dtype == np.uint16
