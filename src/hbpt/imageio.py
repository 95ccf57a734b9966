"""Frame and depth raster I/O, color conversion, drawing primitives.

A frame holds its decoded RGB plane, its YUV raster or both. The YUV raster
is derived on first use and kept, so a frame that is only written is never
converted, and writing its RGB plane back is byte-preserving. Once the YUV
raster is derived, a frame whose RGB plane nothing will read again can drop
it (set ``rgb`` to None) and still give its size. The YUV raster is exact
BT.601 full range, rounded half up, computed in integers so it does not
depend on how a matrix product orders its sums. Depth rasters are 16-bit PGM files holding
millimeters, 0 = invalid, handed over as (h, w) int32 arrays. A sequence is
listed up front (``frame_paths``) and decoded one frame at a time
(``read_frame``). PNG rows filtered none, sub or up are undone by whole-row
numpy operations; Average and Paeth rows, left to right, by one lookup per
byte in a table built the first time a process decodes a row of that type
(0.5 and 2.1 MB, never built for PPM input).
"""

import re
import struct
import sys
import zlib
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np

DEPTH_MAX_MM = 10000


@dataclass
class Frame:
    """One color frame: the (h, w, 3) uint8 RGB raster it was decoded from,
    None once dropped, and the YUV raster derived from it, which must exist
    before the RGB raster is dropped."""

    index: int
    rgb: np.ndarray | None  # (h, w, 3) uint8

    @property
    def width(self):
        return self._plane.shape[1]

    @property
    def height(self):
        return self._plane.shape[0]

    @property
    def _plane(self):
        """The RGB plane, or the YUV raster once the RGB plane is dropped."""
        return self.yuv if self.rgb is None else self.rgb

    @cached_property
    def yuv(self):
        """The (h, w, 3) uint8 YUV raster, converted on first use and kept."""
        return rgb_to_yuv_image(self.rgb)

    @cached_property
    def uv_bins(self):
        """Per-pixel joint UV bin index in 0..15 (4x4 bins, edges at 0, 64,
        128, 192, 256), uint8 and read-only.

        Computed on first use and kept: frames are not changed after decode,
        and person tracking, box tracking and their histograms all read it.
        """
        u = self.yuv[:, :, 1] >> 6
        v = self.yuv[:, :, 2] >> 6
        u <<= 2
        u |= v
        u.flags.writeable = False
        return u


# ---------------------------------------------------------------------------
# color conversion (BT.601 full range)

# Channel k of a pixel is (cr*r + cg*g + cb*b + off) // den: the BT.601
# coefficients (0.299, 0.587, 0.114), (-0.168736, -0.331264, 0.5) and
# (0.5, -0.418688, -0.081312) are exactly (cr, cg, cb) / den, and off holds the
# 128 chroma offset plus den/2, so the quotient is the exact value rounded half
# up. It is never below 0; U at (0, 0, 255) and V at (255, 0, 0) reach 256.
_YUV_INT = (
    (299, 587, 114, 500, 1000),
    (-5273, -10352, 15625, 128 * 31250 + 15625, 31250),
    (15625, -13084, -2541, 128 * 31250 + 15625, 31250),
)
_YUV_CHUNK = 32768  # pixels per pass, so that the int32 temporaries stay small


def rgb_to_yuv_image(rgb):
    """RGB -> YUV for an (h, w, 3) uint8 raster.

    Each channel is the exact BT.601 full-range value, rounded half up and
    clamped to 255, computed in integers.
    """
    flat = rgb.reshape(-1, 3)
    n = flat.shape[0]
    out = np.empty((n, 3), np.uint8)
    for start in range(0, n, _YUV_CHUNK):
        px = flat[start : start + _YUV_CHUNK]
        dst = out[start : start + _YUV_CHUNK]
        r, g, b = (px[:, c].astype(np.int32) for c in range(3))
        acc = np.empty_like(r)
        tmp = np.empty_like(r)
        for c, (cr, cg, cb, off, den) in enumerate(_YUV_INT):
            np.multiply(r, cr, out=acc)
            np.multiply(g, cg, out=tmp)
            acc += tmp
            np.multiply(b, cb, out=tmp)
            acc += tmp
            acc += off
            acc //= den
            np.minimum(acc, 255, out=acc)
            dst[:, c] = acc
    return out.reshape(rgb.shape)


# ---------------------------------------------------------------------------
# PNM codecs

def _read_pnm_header(data, magic, path):
    if data[:2] != magic:
        raise ValueError(f"{path}: expected {magic.decode()} header")
    # header tokens may be separated by whitespace and '#' comments
    pos = 2
    fields = []  # width, height, maxval
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token:
            raise ValueError(f"{path}: truncated PNM header")
        if not token.isdigit():
            raise ValueError(f"{path}: bad PNM header field {token!r}")
        fields.append(int(token))
    if fields[0] == 0 or fields[1] == 0:
        raise ValueError(f"{path}: empty PNM image ({fields[0]}x{fields[1]})")
    return fields, pos + 1  # single whitespace after the last header field


class DimensionMismatch(ValueError):
    """A frame or depth raster whose size differs from its sequence's."""


def _check_size(path, width, height, size):
    """Raise ``DimensionMismatch`` naming the file when ``size`` = (width,
    height) is given and (width, height) differs from it."""
    if size is not None and (width, height) != tuple(size):
        raise DimensionMismatch(
            f"dimension mismatch in {path}: {width}x{height} vs {size[0]}x{size[1]}"
        )


def read_ppm(path, size=None):
    """Read a binary PPM (P6, maxval 255) into an (h, w, 3) uint8 array.

    Only the file's first image is read: Netpbm allows several in one file,
    so bytes after the first image's payload are ignored. Given ``size``,
    a header of another size raises ``DimensionMismatch``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    (w, h, maxval), pos = _read_pnm_header(data, b"P6", path)
    if maxval != 255:
        raise ValueError(f"{path}: unsupported PPM maxval {maxval}")
    _check_size(path, w, h, size)
    if len(data) - pos < w * h * 3:
        raise ValueError(f"{path}: truncated PPM payload")
    px = np.frombuffer(data, dtype=np.uint8, count=w * h * 3, offset=pos)
    return px.reshape(h, w, 3).copy()


def write_ppm(path, rgb):
    """Write an (h, w, 3) uint8 array as binary PPM."""
    h, w = rgb.shape[:2]
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(np.ascontiguousarray(rgb, dtype=np.uint8))


def read_pgm16(path):
    """Read a 16-bit big-endian PGM (P5, maxval 65535); like ``read_ppm``,
    only the file's first image."""
    with open(path, "rb") as fh:
        data = fh.read()
    (w, h, maxval), pos = _read_pnm_header(data, b"P5", path)
    if maxval != 65535:
        raise ValueError(f"{path}: depth PGM must have maxval 65535, got {maxval}")
    if len(data) - pos < w * h * 2:
        raise ValueError(f"{path}: truncated PGM payload")
    px = np.frombuffer(data, dtype=">u2", count=w * h, offset=pos)
    return px.reshape(h, w).astype(np.int32)


def write_pgm16(path, z):
    """Write an (h, w) integer array as 16-bit big-endian PGM."""
    h, w = z.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n65535\n" % (w, h))
        f.write(np.ascontiguousarray(z, dtype=">u2").tobytes())


# ---------------------------------------------------------------------------
# minimal PNG decoder (8-bit gray/RGB/RGBA, non-interlaced)

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_PNG_CHANNELS = {0: 1, 2: 3, 6: 4}
_PNG_MAX_SIZE = 2**31 - 1  # the largest width or height a PNG may have


def _png_chunks(data, path):
    """Yield (type, body) of each chunk up to and including IEND."""
    pos = len(_PNG_SIGNATURE)
    while True:
        if pos + 12 > len(data):
            raise ValueError(f"{path}: truncated PNG (no IEND chunk)")
        length, ctype = struct.unpack_from(">I4s", data, pos)
        if pos + 12 + length > len(data):
            raise ValueError(f"{path}: truncated PNG chunk {ctype!r}")
        yield ctype, data[pos + 8 : pos + 8 + length]
        if ctype == b"IEND":
            return
        pos += 12 + length


@cache
def _lookup_table(ftype):
    """The table ``_unfilter_lookup`` reads for Average (3) or Paeth (4) rows.

    Entry ``key + a``, with key from ``_lookup_keys``, is the row
    (v + t) & 0xFF over v = 0..255, where t is the predictor minus c. For
    Average t = (a + b) >> 1 (c = 0), indexed by (b, a). For Paeth t is the
    spec's predictor (ties to a, then b) minus c, indexed by (b - c, a - c),
    on which it depends alone. The entries share 256 row objects: 65,536
    references (0.5 MB) for Average, 261,121 (2.1 MB) for Paeth, built on
    the first row that needs them.
    """
    if ftype == 3:
        a = np.arange(256)
        t = (a + a[:, None]) >> 1
    else:
        da = np.arange(-255, 256)  # a - c
        db = da[:, None]  # b - c
        # with p = a + b - c: pa = |p - a|, pb = |p - b|, pc = |p - c|
        pa, pb, pc = np.abs(db), np.abs(da), np.abs(da + db)
        t = np.where((pa <= pb) & (pa <= pc), da, np.where(pb <= pc, db, 0))
    sums = [bytes(range(s, 256)) + bytes(range(s)) for s in range(256)]
    return tuple(map(sums.__getitem__, (t & 0xFF).astype(np.uint8).tobytes()))


def _lookup_keys(ftype, x, b, c):
    """Per-byte (keys, ys) for ``_unfilter_lookup``, from the filtered bytes
    x and the reconstructed bytes above (b) and above-left (c); ys has the
    dtype of x + c, keys that of b."""
    if ftype == 3:
        return b << 8, x
    return (b - c + 255) * 511 + 255 - c, (x + c) & 0xFF


def _unfilter_lookup(table, keys, ys, channels):
    """Reconstruct an Average or Paeth row left to right: byte i is
    ``table[keys[i] + a][ys[i]]``, a being byte i - channels (0 in the first
    pixel). Returns the row as a uint8 array."""
    rec = bytearray(channels)  # the a of the first pixel
    append = rec.append
    # an iterator over a bytearray reads it by position, so the one over rec
    # trails the appends by one pixel and yields byte i - channels as a
    for key, y, a in zip(keys, ys, rec):
        append(table[key + a][y])
    return np.frombuffer(rec, dtype=np.uint8, offset=channels)


def _unfilter(rows, channels):
    """Undo the per-row filters of an (h, 1 + stride) uint8 scanline array.

    None, sub and up rows are whole-row uint8 numpy ops, which wrap mod 256
    as the PNG arithmetic does. Average and Paeth depend on the reconstructed
    byte to the left, so they run left to right, one table lookup per byte
    (see ``_lookup_table``), on keys and offsets that numpy computes per row
    from the row and the row above.
    """
    height, stride = rows.shape[0], rows.shape[1] - 1
    out = np.empty((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for row, ftype in enumerate(rows[:, 0].tolist()):
        line = rows[row, 1:]
        rec = out[row]
        if ftype == 0:  # none
            rec[:] = line
        elif ftype == 1:  # sub
            np.cumsum(
                line.reshape(-1, channels),
                axis=0,
                dtype=np.uint8,
                out=rec.reshape(-1, channels),
            )
        elif ftype == 2:  # up
            np.add(line, prev, out=rec)
        else:  # average or paeth
            c = np.zeros_like(prev)
            c[channels:] = prev[:-channels]
            keys, ys = _lookup_keys(ftype, line, prev.astype(np.intp), c)
            rec[:] = _unfilter_lookup(_lookup_table(ftype), keys.tolist(), ys.tobytes(), channels)
        prev = rec
    return out


def read_png(path, size=None):
    """Read an 8-bit gray, RGB or RGBA PNG into an (h, w, 3) uint8 array.

    Raises ValueError for anything it cannot decode exactly: unsupported
    formats, compression or filter methods, a width or height beyond PNG's
    2^31 - 1, truncated chunks, a missing IHDR or IDAT, a corrupt or
    truncated zlib stream, image data of the wrong size, or an unknown row
    filter. Given ``size``, a header of another size raises
    ``DimensionMismatch`` before the image data is inflated.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != _PNG_SIGNATURE:
        raise ValueError(f"{path}: not a PNG file")
    header = None
    idat = []
    for ctype, body in _png_chunks(data, path):
        if ctype == b"IHDR":
            if len(body) != 13:
                raise ValueError(f"{path}: bad IHDR length {len(body)}")
            header = struct.unpack(">IIBBBBB", body)
        elif ctype == b"IDAT":
            idat.append(body)
    if header is None:
        raise ValueError(f"{path}: missing IHDR")
    width, height, bit_depth, color_type, compression, filter_method, interlace = header
    if bit_depth != 8 or interlace != 0:
        raise ValueError(f"{path}: only 8-bit non-interlaced PNG supported")
    if compression != 0:
        raise ValueError(f"{path}: unsupported PNG compression method {compression}")
    if filter_method != 0:
        raise ValueError(f"{path}: unsupported PNG filter method {filter_method}")
    if color_type not in _PNG_CHANNELS:
        raise ValueError(f"{path}: unsupported PNG color type {color_type}")
    if width == 0 or height == 0:
        raise ValueError(f"{path}: empty PNG ({width}x{height})")
    if max(width, height) > _PNG_MAX_SIZE:
        raise ValueError(f"{path}: PNG size {width}x{height} exceeds 2^31 - 1")
    _check_size(path, width, height, size)
    if not idat:
        raise ValueError(f"{path}: missing IDAT")
    channels = _PNG_CHANNELS[color_type]
    expected = height * (1 + width * channels)
    stream = zlib.decompressobj()
    try:
        # one byte past the expected size is enough to tell the size is wrong;
        # near PNG's size limit, that is more than a C size can hold
        raw = stream.decompress(b"".join(idat), min(expected + 1, sys.maxsize))
    except zlib.error as exc:
        raise ValueError(f"{path}: corrupt PNG image data ({exc})") from None
    if not stream.eof and len(raw) <= expected:
        raise ValueError(f"{path}: truncated PNG image data")
    if len(raw) != expected:
        raise ValueError(
            f"{path}: PNG image data is not {expected} bytes "
            f"({height} rows of 1 + {width}x{channels})"
        )
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, -1)
    bad = np.flatnonzero(rows[:, 0] > 4)
    if bad.size:
        raise ValueError(f"{path}: bad PNG filter {rows[bad[0], 0]} in row {bad[0]}")
    px = _unfilter(rows, channels).reshape(height, width, channels)
    if channels == 1:
        return np.repeat(px, 3, axis=2)
    if channels == 4:
        return np.ascontiguousarray(px[:, :, :3])
    return px


# ---------------------------------------------------------------------------
# frame sequence loading

_NUM_RE = re.compile(r"(\d+)")


def frame_sort_key(path):
    """Order frame and depth files by the last number in their name."""
    nums = _NUM_RE.findall(path.stem)
    return (int(nums[-1]) if nums else 0, path.name)


def frame_paths(directory, pattern):
    """Paths of the frames matching ``pattern``, ordered by numeric filename index.

    Raises if the directory is missing or nothing matches.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"no such directory: {directory}")
    paths = sorted(directory.glob(pattern), key=frame_sort_key)
    if not paths:
        raise FileNotFoundError(f"no files match {pattern!r} in {directory}")
    return paths


def read_frame(path, index, size=None):
    """Decode one binary PPM or 8-bit PNG frame into a ``Frame``.

    Raises ValueError naming the file when it fails to decode or, given the
    sequence's ``size`` = (width, height), when its header gives another
    size; that is checked before the pixels are decoded.
    """
    reader = read_png if path.suffix.lower() == ".png" else read_ppm
    try:
        rgb = reader(path, size)
    except DimensionMismatch:
        raise
    except ValueError as exc:
        # the readers' messages already start with the path
        raise ValueError(f"cannot decode {exc}") from exc
    return Frame(index=index, rgb=rgb)


def load_depth_raster(path, size=None):
    """Load one 16-bit PGM depth raster as an (h, w) int32 array of
    millimeters; values outside 1..10000 mm become 0.

    Raises ValueError naming the file when, given the frames' ``size`` =
    (width, height), its dimensions differ.
    """
    z = read_pgm16(path)
    _check_size(path, z.shape[1], z.shape[0], size)
    z[z > DEPTH_MAX_MM] = 0
    return z


# ---------------------------------------------------------------------------
# drawing primitives (RGB colors, clipped to the image)

def _read_only(array):
    """The array, made read-only: a cached array is shared by every caller."""
    array.flags.writeable = False
    return array


def _put_pixels(img, xs, ys, color):
    h, w = img.shape[:2]
    keep = (xs >= 0) & (xs < w) & (ys >= 0) & (ys < h)
    img[ys[keep], xs[keep]] = color


def draw_rectangle(img, rect, color):
    """1-px border of rect = (x, y, w, h), clipped to the image."""
    x, y, w, h = (int(round(v)) for v in rect)
    if w <= 0 or h <= 0:
        return
    height, width = img.shape[:2]
    x0, x1 = max(x, 0), min(x + w, width)
    y0, y1 = max(y, 0), min(y + h, height)
    for row in (y, y + h - 1):
        if 0 <= row < height and x0 < x1:
            img[row, x0:x1] = color
    for col in (x, x + w - 1):
        if 0 <= col < width and y0 < y1:
            img[y0:y1, col] = color


@cache
def _unit_circle(n):
    """cos and sin of n angles evenly spaced over a turn, for ``draw_ellipse``."""
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return _read_only(np.cos(t)), _read_only(np.sin(t))


def draw_ellipse(img, center, semi_axes, angle, color):
    """Boundary of an ellipse given center, semi axes (a, b) and rotation."""
    cx, cy = center
    a, b = max(semi_axes[0], 0.5), max(semi_axes[1], 0.5)
    cos_t, sin_t = _unit_circle(max(int(8 * (a + b)), 16))
    ca, sa = np.cos(angle), np.sin(angle)
    ex = a * cos_t
    ey = b * sin_t
    xs = np.rint(cx + ca * ex - sa * ey).astype(int)
    ys = np.rint(cy + sa * ex + ca * ey).astype(int)
    _put_pixels(img, xs, ys, color)


_FONT = {
    # 3x5 bitmap glyphs, rows top to bottom: the person box's "P" and the
    # upper-case part labels
    "1": ("010", "110", "010", "010", "111"),
    "2": ("111", "001", "111", "100", "111"),
    "3": ("111", "001", "111", "001", "111"),
    "4": ("101", "101", "111", "001", "001"),
    "A": ("010", "101", "111", "101", "101"),
    "D": ("110", "101", "101", "101", "110"),
    "E": ("111", "100", "110", "100", "111"),
    "G": ("011", "100", "101", "101", "011"),
    "H": ("101", "101", "111", "101", "101"),
    "L": ("100", "100", "100", "100", "111"),
    "M": ("101", "111", "111", "101", "101"),
    "O": ("010", "101", "101", "101", "010"),
    "P": ("110", "101", "110", "100", "100"),
    "R": ("110", "101", "110", "101", "101"),
    "S": ("011", "100", "010", "001", "110"),
    "T": ("111", "010", "010", "010", "010"),
}


@cache
def _glyph_offsets(text):
    """(dx, dy) int arrays of the set pixels of ``draw_text``'s label, from its
    origin; a character without a glyph leaves a blank."""
    dxs, dys = [], []
    for i, ch in enumerate(text.upper()):
        for dy, row in enumerate(_FONT.get(ch, ())):
            for dx, bit in enumerate(row):
                if bit == "1":
                    dxs.append(4 * i + dx)
                    dys.append(dy)
    return _read_only(np.array(dxs, dtype=int)), _read_only(np.array(dys, dtype=int))


def draw_text(img, origin, text, color):
    """Tiny 3x5 font of the overlay labels, in upper case; a character
    without a glyph leaves a blank."""
    dxs, dys = _glyph_offsets(text)
    _put_pixels(img, int(round(origin[0])) + dxs, int(round(origin[1])) + dys, color)
