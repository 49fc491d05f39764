"""Raster types and binary Netpbm I/O.

Depth maps travel as 16-bit binary PGM (P5, maxval 65535, big-endian
samples), color guides as binary PPM (P6, maxval 255). The writers emit
one fixed byte layout (single-space separators, newline before the
payload, no comments) so written files are reproducible byte for byte.
Readers tolerate `#` comment lines in headers and reject a payload
shorter or longer than the header's dimensions call for.

Every save writes a temporary file next to the target and renames it
into place, so a save that fails leaves the target as it was.

Depth values are held as float64 internally. A sample of 0 marks a
hole (no sensor return); arithmetic keeps full precision and rounding
to integers happens only when a map is written back to disk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, FormatError, TruncationError, UnsupportedFormatError

DEPTH_MAXVAL = 65535
COLOR_MAXVAL = 255
HOLE = 0


@dataclass(frozen=True)
class DepthMap:
    """A height x width grid of depth samples in millimeters.

    samples is float64 with finite values in [0, 65535]; exactly 0
    means hole.
    """

    samples: np.ndarray

    def __post_init__(self):
        a = self.samples
        if a.ndim != 2:
            raise ContractViolation(f"depth samples must be 2-D, got shape {a.shape}")
        if a.dtype != np.float64:
            object.__setattr__(self, "samples", a.astype(np.float64))
        a = self.samples
        # Written so that NaN, which fails every comparison, is rejected;
        # min/max propagate it, and infinities fall outside the range.
        if a.size and not (a.min() >= 0 and a.max() <= DEPTH_MAXVAL):
            raise ContractViolation(
                f"depth samples must be finite and inside [0, {DEPTH_MAXVAL}]: "
                f"min {a.min()}, max {a.max()}"
            )

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def height(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class ColorImage:
    """Interleaved 8-bit RGB guidance image, shape (h, w, 3), dtype uint8."""

    samples: np.ndarray

    def __post_init__(self):
        a = self.samples
        if a.ndim != 3 or a.shape[2] != 3:
            raise ContractViolation(f"color samples must be (h, w, 3), got {a.shape}")
        if a.dtype != np.uint8:
            raise ContractViolation(f"color samples must be uint8, got {a.dtype}")

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def height(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class GrayImage:
    """Real-valued luminance grid in [0, 255]."""

    samples: np.ndarray


def to_grayscale(img: ColorImage) -> GrayImage:
    """Rec.601 luma: 0.299 R + 0.587 G + 0.114 B, kept real-valued."""
    rgb = img.samples.astype(np.float64)
    lum = 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]
    return GrayImage(lum)


def quantize(samples: np.ndarray) -> np.ndarray:
    """Round float depth to integers, ties away from zero, as uint16.

    Values are already confined to [0, 65535] by the DepthMap invariant,
    so no clamping is needed beyond the round.
    """
    return np.floor(samples + 0.5).astype(np.uint16)


def _read_header(buf: bytes, magic: bytes, path: str):
    """Parse a Netpbm header, returning (width, height, maxval, offset).

    Tokens are whitespace-separated; `#` starts a comment running to end
    of line. Width, height and maxval must be ASCII decimal digits. The
    payload begins one byte after the maxval token's terminating
    whitespace character.
    """
    if not buf.startswith(magic):
        got = buf[:2]
        raise UnsupportedFormatError(
            f"{path}: expected magic {magic.decode()!r}, found {got!r}"
        )
    tokens = []
    i = len(magic)
    n = len(buf)
    while len(tokens) < 3:
        while i < n and buf[i : i + 1].isspace():
            i += 1
        if i < n and buf[i : i + 1] == b"#":
            while i < n and buf[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < n and not buf[i : i + 1].isspace():
            i += 1
        if start == i:
            raise FormatError(f"{path}: header ended before width/height/maxval")
        tokens.append(buf[start:i])
    if i >= n:
        raise FormatError(f"{path}: no payload after header")
    i += 1  # single whitespace byte separates maxval from payload
    for tok in tokens:
        if not tok.isdigit():
            raise FormatError(f"{path}: bad header token {tok!r}")
    try:
        w, h, maxval = map(int, tokens)
    except ValueError:  # more digits than int() converts
        raise FormatError(f"{path}: header number too long") from None
    if w <= 0 or h <= 0:
        raise FormatError(f"{path}: non-positive dimensions {w}x{h}")
    return w, h, maxval, i


def _payload(buf: bytes, off: int, expected: int, path: str) -> bytes:
    """The expected-length payload starting at off; anything shorter or
    longer than the header promises is an error."""
    got = len(buf) - off
    if got < expected:
        raise TruncationError(expected, got)
    if got > expected:
        raise FormatError(f"{path}: {got - expected} bytes after the {expected}-byte payload")
    return buf[off:]


def load_depth_pgm(path: str) -> DepthMap:
    """Read a 16-bit binary PGM depth map.

    Only P5 with maxval 65535 is accepted; samples are big-endian
    unsigned 16-bit.
    """
    with open(path, "rb") as f:
        buf = f.read()
    w, h, maxval, off = _read_header(buf, b"P5", path)
    if maxval != DEPTH_MAXVAL:
        raise UnsupportedFormatError(
            f"{path}: depth PGM must have maxval {DEPTH_MAXVAL}, found {maxval}"
        )
    raw = np.frombuffer(_payload(buf, off, w * h * 2, path), dtype=">u2").reshape(h, w)
    return DepthMap(raw.astype(np.float64))


def _write_atomic(path: str, data: bytes) -> None:
    """Write data to a temporary sibling of path, then rename it over path."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_depth_pgm(depth: DepthMap, path: str) -> None:
    """Write a DepthMap as binary PGM P5, maxval 65535, big-endian."""
    _write_atomic(path, encode_depth_pgm(depth))


def load_color_ppm(path: str) -> ColorImage:
    """Read a binary PPM (P6, maxval 255) color image."""
    with open(path, "rb") as f:
        buf = f.read()
    w, h, maxval, off = _read_header(buf, b"P6", path)
    if maxval != COLOR_MAXVAL:
        raise UnsupportedFormatError(
            f"{path}: color PPM must have maxval {COLOR_MAXVAL}, found {maxval}"
        )
    raw = np.frombuffer(_payload(buf, off, w * h * 3, path), dtype=np.uint8).reshape(h, w, 3)
    return ColorImage(raw.copy())


def save_color_ppm(img: ColorImage, path: str) -> None:
    """Write a ColorImage as binary PPM P6, maxval 255."""
    header = f"P6\n{img.width} {img.height}\n{COLOR_MAXVAL}\n".encode("ascii")
    _write_atomic(path, header + img.samples.tobytes())


def save_mask_pgm(mask: np.ndarray, path: str) -> None:
    """Write a boolean grid as 8-bit PGM with values 0 and 255."""
    if mask.ndim != 2 or mask.dtype != np.bool_:
        raise ContractViolation(f"mask must be 2-D boolean, got {mask.dtype} {mask.shape}")
    h, w = mask.shape
    header = f"P5\n{w} {h}\n{COLOR_MAXVAL}\n".encode("ascii")
    _write_atomic(path, header + np.where(mask, 255, 0).astype(np.uint8).tobytes())


def encode_depth_pgm(depth: DepthMap) -> bytes:
    """Return the exact bytes save_depth_pgm writes."""
    header = f"P5\n{depth.width} {depth.height}\n{DEPTH_MAXVAL}\n".encode("ascii")
    return header + quantize(depth.samples).astype(">u2").tobytes()
