"""Small 8-bit RGB PNG writer with a per-row adaptive filter choice.

Each row takes the filter (none, sub, up, average or paeth) whose output has
the smallest sum of absolute values, read as signed bytes. That is libpng's
default heuristic, so files mix all five filter types the way real encoders'
output does, and a decoder has to run every unfilter path.
"""

import struct
import zlib

import numpy as np

FILTER_NAMES = ("none", "sub", "up", "average", "paeth")

# |v| of each byte read as a signed value, libpng's per-byte filter cost
_ABS_SIGNED = np.minimum(np.arange(256), 256 - np.arange(256)).astype(np.uint16)


def _paeth(a, b, c):
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def filter_rows(rgb):
    """Filtered scanlines of an (h, w, 3) uint8 raster.

    Returns (filter types, filtered rows) as an (h,) and an (h, w*3) uint8
    array. All candidates are computed from the unfiltered bytes, as the PNG
    specification defines them, so the whole raster is filtered at once.
    """
    h, w, ch = rgb.shape
    x = rgb.reshape(h, w * ch).astype(np.int16)
    a = np.zeros_like(x)
    a[:, ch:] = x[:, :-ch]
    b = np.zeros_like(x)
    b[1:] = x[:-1]
    c = np.zeros_like(x)
    c[1:, ch:] = x[:-1, :-ch]
    cands = np.stack(
        [x, x - a, x - b, x - (a + b) // 2, x - _paeth(a, b, c)]
    ).astype(np.uint8)
    cost = _ABS_SIGNED[cands].sum(axis=2, dtype=np.int64)  # (5, h)
    types = np.argmin(cost, axis=0).astype(np.uint8)
    return types, cands[types, np.arange(h)]


def _chunk(kind, body):
    crc = zlib.crc32(kind + body) & 0xFFFFFFFF
    return struct.pack(">I", len(body)) + kind + body + struct.pack(">I", crc)


def encode_png(rgb):
    """PNG bytes for an (h, w, 3) uint8 raster; also returns the filter types."""
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    h, w, ch = rgb.shape
    if ch != 3:
        raise ValueError("encode_png expects an RGB raster")
    types, rows = filter_rows(rgb)
    raw = np.concatenate([types[:, None], rows], axis=1).tobytes()
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    data = (
        b"\x89PNG\r\n\x1a\n"
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(raw, 1))
        + _chunk(b"IEND", b"")
    )
    return data, types
