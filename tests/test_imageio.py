import json
import re
import struct
import zlib
from fractions import Fraction

import numpy as np
import pytest

from hbpt import cli
from hbpt import imageio as iio
from hbpt import synthgen as sg
from hbpt.bodyparts import PART_LABELS
from hbpt.config import PipelineConfig


# ---------------------------------------------------------------------------
# RGB -> YUV against an exact reference

# the BT.601 full-range coefficients, in millionths so that int64 holds them exactly
_BT601 = (
    ("0.299", "0.587", "0.114"),
    ("-0.168736", "-0.331264", "0.5"),
    ("0.5", "-0.418688", "-0.081312"),
)
_BT601_E6 = np.array([[int(Fraction(c) * 10**6) for c in row] for row in _BT601], np.int64)


def _reference_rgb_to_yuv_image(rgb):
    """Exact BT.601 full range, rounded half up and clamped to [0, 255]."""
    flat = rgb.reshape(-1, 3).astype(np.int64)
    e6 = sum(flat[:, c, None] * _BT601_E6[:, c] for c in range(3))
    e6 += np.array([0, 128, 128]) * 10**6
    yuv = (e6 + 500_000) // 10**6
    return np.clip(yuv, 0, 255).astype(np.uint8).reshape(rgb.shape)


def _assert_yuv_matches_reference(rgb):
    got = iio.rgb_to_yuv_image(rgb)
    assert got.dtype == np.uint8 and got.shape == rgb.shape
    assert np.array_equal(got, _reference_rgb_to_yuv_image(rgb))


def _tie_mask(rgb):
    """Pixels where some channel is exactly halfway between two integers."""
    r, g, b = (rgb[..., c].astype(np.int64) for c in range(3))
    y = 299 * r + 587 * g + 114 * b  # Y * 1000
    u = -5273 * r - 10352 * g + 15625 * b  # (U - 128) * 31250
    v = 15625 * r - 13084 * g - 2541 * b  # (V - 128) * 31250
    return (y % 1000 == 500) | (u % 31250 == 15625) | (v % 31250 == 15625)


def _r_plane(r):
    """All 65536 colours with red = r as a 256x256 raster (rows: green)."""
    g, b = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    return np.stack([np.full_like(g, r), g, b], axis=-1).astype(np.uint8)


@pytest.fixture(scope="module")
def tie_colours():
    ties = [p[_tie_mask(p)] for p in map(_r_plane, range(256))]
    return np.concatenate(ties)


def test_rgb_to_yuv_black_and_white():
    for rgb, yuv in (
        ((0, 0, 0), (0, 128, 128)),
        ((255, 255, 255), (255, 128, 128)),
        # the two colours whose exact value rounds to 256: U = 255.5 and V = 255.5
        ((0, 0, 255), (29, 255, 107)),
        ((255, 0, 0), (76, 85, 255)),
    ):
        img = np.array([[rgb]], dtype=np.uint8)
        assert tuple(iio.rgb_to_yuv_image(img)[0, 0]) == yuv


def test_scalar_matches_vectorized():
    """Single pixels, as 1x1 rasters, equal the exact reference."""
    rng = np.random.default_rng(1)
    for r, g, b in rng.integers(0, 256, size=(50, 3)):
        _assert_yuv_matches_reference(np.array([[[r, g, b]]], dtype=np.uint8))


def test_rgb_to_yuv_every_tie_colour(tie_colours):
    assert len(tie_colours) == 82318
    # all ties in one raster, in cube order and shuffled
    _assert_yuv_matches_reference(tie_colours.reshape(-1, 1, 3))
    rng = np.random.default_rng(2)
    _assert_yuv_matches_reference(rng.permutation(tie_colours).reshape(1, -1, 3))


def test_rgb_to_yuv_lone_ties(tie_colours):
    """A tie among non-tie pixels, and beside one, is rounded half up."""
    rng = np.random.default_rng(3)
    base = np.full((2, 3, 3), 7, np.uint8)  # (7, 7, 7) is no tie
    assert not _tie_mask(base).any()
    for colour in tie_colours[rng.choice(len(tie_colours), 400, replace=False)]:
        img = base.copy()
        img[rng.integers(2), rng.integers(3)] = colour
        _assert_yuv_matches_reference(img)
        _assert_yuv_matches_reference(np.stack([colour, base[0, 0]]).reshape(1, 2, 3))


@pytest.mark.parametrize("r", [0, 1, 2, 64, 127, 128, 129, 200, 253, 254, 255])
def test_rgb_to_yuv_whole_r_planes(r):
    _assert_yuv_matches_reference(_r_plane(r))


@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 2), (2, 1), (3, 5), (17, 1), (64, 512), (240, 320), (181, 199)]
)
def test_rgb_to_yuv_random_rasters(shape, tie_colours):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    rgb = rng.integers(0, 256, size=(*shape, 3)).astype(np.uint8)
    _assert_yuv_matches_reference(rgb)
    # ties scattered through the raster, and on both sides of every pass boundary
    flat = rgb.reshape(-1, 3)
    n = len(flat)
    spots = rng.choice(n, size=min(n, 40), replace=False)
    chunk = iio._YUV_CHUNK
    edges = [i for k in range(chunk, n, chunk) for i in (k - 1, k)]
    spots = np.union1d(spots, edges).astype(int)
    flat[spots] = tie_colours[rng.choice(len(tie_colours), len(spots))]
    _assert_yuv_matches_reference(rgb)


def test_rgb_to_yuv_synthgen_frames():
    frames, _, _ = sg.generate_scenario(sg.Scenario("carry_box", frames=70, seed=3))
    for f in frames[::7]:
        assert _tie_mask(f.rgb).any()
        _assert_yuv_matches_reference(f.rgb)
        assert np.array_equal(f.yuv, _reference_rgb_to_yuv_image(f.rgb))


def _read_sequence(directory, pattern="frame_*.ppm"):
    """Every frame of a directory, as the scene-learning reader decodes them
    when overlays are written, so that each keeps its RGB plane."""
    paths = iio.frame_paths(directory, pattern)
    return cli._learn_set(PipelineConfig(learn_frames=len(paths), emit_overlays=True), paths)


def test_load_sequence_empty_dir(tmp_path):
    with pytest.raises(FileNotFoundError, match="no files match"):
        iio.frame_paths(tmp_path, "frame_*.ppm")


def test_load_sequence_identical_frames(tmp_path):
    rgb = np.full((24, 32, 3), 77, np.uint8)
    for i in range(30):
        iio.write_ppm(tmp_path / f"frame_{i:06d}.ppm", rgb)
    frames = _read_sequence(tmp_path)
    assert len(frames) == 30
    assert [f.index for f in frames] == list(range(30))
    assert all(f.width == 32 and f.height == 24 for f in frames)


def test_load_sequence_numeric_ordering(tmp_path):
    for i in (10, 2, 1):
        iio.write_ppm(tmp_path / f"frame_{i}.ppm", np.full((4, 4, 3), i, np.uint8))
    frames = _read_sequence(tmp_path)
    assert [f.rgb[0, 0, 0] for f in frames] == [1, 2, 10]


def test_load_sequence_decode_failure_names_file(tmp_path):
    (tmp_path / "frame_000000.ppm").write_bytes(b"not a ppm")
    with pytest.raises(ValueError, match="frame_000000.ppm"):
        iio.read_frame(tmp_path / "frame_000000.ppm", 0)


def test_load_sequence_dimension_mismatch_names_frame(tmp_path):
    iio.write_ppm(tmp_path / "frame_000000.ppm", np.zeros((4, 4, 3), np.uint8))
    iio.write_ppm(tmp_path / "frame_000001.ppm", np.zeros((4, 5, 3), np.uint8))
    with pytest.raises(ValueError, match="frame_000001.ppm: 5x4 vs 4x4"):
        _read_sequence(tmp_path)


@pytest.mark.parametrize("name", ["walker", "carry_box"])
def test_reloaded_frames_match_generator(name, tmp_path):
    """What write_scenario writes reads back as what generate_scenario returns."""
    sc = sg.Scenario(name, frames=34)
    frames, depths, truth = sg.generate_scenario(sc)
    assert sg.write_scenario(sc, tmp_path) == truth
    loaded = _read_sequence(tmp_path)
    assert len(loaded) == 34
    for a, b in zip(frames, loaded):
        assert np.array_equal(a.yuv, b.yuv)
        assert np.array_equal(a.rgb, b.rgb)
    if depths is None:
        assert not list(tmp_path.glob("depth_*.pgm"))
    else:
        assert len(depths) == 34
        for i, z in enumerate(depths):
            assert np.array_equal(iio.load_depth_raster(tmp_path / f"depth_{i:06d}.pgm"), z)
    assert json.loads((tmp_path / "truth.json").read_text()) == truth


def _reference_read_png(path):
    """The original per-byte PNG decoder, kept as the oracle for read_png."""
    data = path.read_bytes()
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    pos = 8
    idat = b""
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        ctype = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if ctype == b"IHDR":
            width, height, _, color_type, _, _, _ = struct.unpack(">IIBBBBB", body)
        elif ctype == b"IDAT":
            idat += body
        elif ctype == b"IEND":
            break
    channels = {0: 1, 2: 3, 6: 4}[color_type]
    raw = zlib.decompress(idat)
    stride = width * channels
    out = np.empty((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    off = 0
    for row in range(height):
        ftype = raw[off]
        line = np.frombuffer(raw, np.uint8, stride, off + 1).astype(np.int32)
        off += 1 + stride
        if ftype == 0:
            rec = line
        elif ftype == 2:  # up
            rec = (line + prev) & 0xFF
        else:  # sub, average, paeth need the previous pixel; scan left to right
            rec = np.zeros(stride, dtype=np.int32)
            for i in range(stride):
                a = rec[i - channels] if i >= channels else 0
                b = int(prev[i])
                if ftype == 1:
                    pred = a
                elif ftype == 3:
                    pred = (a + b) // 2
                else:
                    assert ftype == 4
                    c = int(prev[i - channels]) if i >= channels else 0
                    p = a + b - c
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
                rec[i] = (line[i] + pred) & 0xFF
        prev = rec.astype(np.uint8)
        out[row] = prev
    px = out.reshape(height, width, channels)
    if channels == 1:
        px = np.repeat(px, 3, axis=2)
    elif channels == 4:
        px = px[:, :, :3]
    return px.copy()


def _filter_row(ftype, line, prev, channels):
    """PNG filter ``ftype`` (0-4) applied to one row of unfiltered bytes."""
    x = line.astype(np.int32)
    b = prev.astype(np.int32)
    a = np.zeros_like(x)
    a[channels:] = x[:-channels]
    c = np.zeros_like(x)
    c[channels:] = b[:-channels]
    if ftype == 0:
        pred = 0
    elif ftype == 1:
        pred = a
    elif ftype == 2:
        pred = b
    elif ftype == 3:
        pred = (a + b) // 2
    else:
        p = a + b - c
        pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
        pred = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return ((x - pred) & 0xFF).astype(np.uint8)


def _chunk(tag, body):
    data = tag + body
    return struct.pack(">I", len(body)) + data + struct.pack(">I", zlib.crc32(data))


def _png_bytes(px, filters=None):
    """Minimal PNG encoder used only as a test fixture.

    ``filters`` gives the filter type (0-4) of each row; default all 0.
    """
    h, w = px.shape[:2]
    channels = 1 if px.ndim == 2 else px.shape[2]
    color_type = {1: 0, 3: 2, 4: 6}[channels]
    filters = [0] * h if filters is None else list(filters)
    rows = px.reshape(h, w * channels)
    prev = np.zeros(w * channels, np.uint8)
    raw = b""
    for r, ftype in enumerate(filters):
        raw += bytes([ftype]) + _filter_row(ftype, rows[r], prev, channels).tobytes()
        prev = rows[r]
    return (
        b"\x89PNG\r\n\x1a\n"
        + _chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0))
        + _chunk(b"IDAT", zlib.compress(raw))
        + _chunk(b"IEND", b"")
    )


def _write_png(path, px, filters=None):
    path.write_bytes(_png_bytes(px, filters))


def _as_rgb(px):
    if px.ndim == 2:
        return np.repeat(px[..., None], 3, axis=2)
    return px[..., :3]


@pytest.mark.parametrize("channels", [1, 3, 4])
def test_png_round_trip(tmp_path, channels):
    rng = np.random.default_rng(channels)
    shape = (9, 13) if channels == 1 else (9, 13, channels)
    px = rng.integers(0, 256, size=shape).astype(np.uint8)
    _write_png(tmp_path / "frame_000000.png", px)
    frame = iio.read_frame(tmp_path / "frame_000000.png", 0)
    assert np.array_equal(frame.rgb, _as_rgb(px))


def _check_png_against_reference(path, px, filters):
    _write_png(path, px, filters)
    got = iio.read_png(path)
    assert got.dtype == np.uint8 and got.flags.c_contiguous
    assert np.array_equal(got, _reference_read_png(path))
    assert np.array_equal(got, _as_rgb(px))


@pytest.mark.parametrize("levels", [256, 3])  # 3 levels: many Paeth ties
@pytest.mark.parametrize("channels", [1, 3, 4])
@pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
def test_png_unfilter_matches_reference_per_filter(tmp_path, ftype, channels, levels):
    rng = np.random.default_rng(10 * ftype + channels)
    shape = (7, 11) if channels == 1 else (7, 11, channels)
    px = rng.integers(0, levels, size=shape).astype(np.uint8)
    _check_png_against_reference(tmp_path / "f.png", px, [ftype] * 7)


@pytest.mark.parametrize("channels", [1, 3, 4])
@pytest.mark.parametrize("width", [1, 2, 17])
def test_png_unfilter_matches_reference_mixed_rows(tmp_path, width, channels):
    rng = np.random.default_rng(100 * width + channels)
    shape = (25, width) if channels == 1 else (25, width, channels)
    px = rng.integers(0, 256, size=shape).astype(np.uint8)
    filters = rng.integers(0, 5, size=25)
    _check_png_against_reference(tmp_path / "m.png", px, filters)


@pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
def test_png_unfilter_single_row(tmp_path, ftype):
    px = np.random.default_rng(ftype).integers(0, 256, size=(1, 6, 3)).astype(np.uint8)
    _check_png_against_reference(tmp_path / "r.png", px, [ftype])


def test_png_unfilter_real_frame_mixed_filters(tmp_path):
    frames, _, _ = sg.generate_scenario(sg.Scenario("walker", frames=6))
    rgb = frames[-1].rgb
    filters = np.random.default_rng(5).integers(0, 5, size=rgb.shape[0])
    _check_png_against_reference(tmp_path / "w.png", rgb, filters)


# the Average and Paeth lookup tables against the spec's predictors, for
# every input; rows of _SUMS are (v + t) & 0xFF over v, indexed by t

_SUMS = (np.arange(256) + np.arange(256)[:, None]) & 0xFF


def _table_offsets(table):
    """Each entry's t, after checking that each of its rows is (v + t) & 0xFF."""
    for row in {id(row): row for row in table}.values():
        assert row == bytes(_SUMS[row[0]].astype(np.uint8))
    return np.frombuffer(b"".join(row[:1] for row in table), np.uint8)


def _lookup(table, offsets, ftype, x, a, b, c):
    """table[key + a][y] over int arrays of bytes, with iio's keys."""
    keys, ys = iio._lookup_keys(ftype, x, b, c)
    index = keys + a
    assert index.min() >= 0 and index.max() < len(table)
    assert ys.min() >= 0 and ys.max() <= 255
    return _SUMS[offsets[index], ys]


def test_paeth_table_gives_the_spec_predictor_for_every_a_b_c():
    table = iio._lookup_table(4)
    offsets = _table_offsets(table)
    for c0 in range(0, 256, 16):
        a, b, c = (
            v.ravel()
            for v in np.meshgrid(
                np.arange(256), np.arange(256), np.arange(c0, c0 + 16), indexing="ij"
            )
        )
        p = a + b - c
        pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
        pred = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
        x = (7 * a + 3 * b + 5 * c) & 0xFF
        assert np.array_equal(_lookup(table, offsets, 4, x, a, b, c), (x + pred) & 0xFF)


def test_average_table_gives_the_floor_mean_for_every_a_b():
    table = iio._lookup_table(3)
    a, b = (v.ravel() for v in np.meshgrid(np.arange(256), np.arange(256), indexing="ij"))
    x = (7 * a + 3 * b) & 0xFF
    c = (5 * a + b) & 0xFF  # ignored by Average
    assert np.array_equal(
        _lookup(table, _table_offsets(table), 3, x, a, b, c), (x + ((a + b) >> 1)) & 0xFF
    )


def test_lookup_tables_are_built_once_and_only_for_rows_that_need_them(tmp_path, scenario_dir):
    # each miss of the builder's cache is one build
    iio._lookup_table.cache_clear()
    indir, _ = scenario_dir("walker", frames=32, seed=12)
    assert cli.main(["track", "--input", str(indir), "--output", str(tmp_path / "ppm")]) == 0
    assert iio._lookup_table.cache_info().misses == 0

    pngdir = tmp_path / "png"
    pngdir.mkdir()
    for path in sorted(indir.glob("frame_*.ppm"))[:6]:
        rgb = iio.read_ppm(path)
        _write_png(pngdir / f"{path.stem}.png", rgb, np.arange(rgb.shape[0]) % 5)
    (pngdir / "run.cfg").write_text('pattern = "frame_*.png"\n')
    rc = cli.main(
        ["track", "--input", str(pngdir), "--output", str(tmp_path / "png_out"),
         "--config", str(pngdir / "run.cfg")]
    )
    assert rc == 0
    info = iio._lookup_table.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    assert info.hits == 6 * 2 * 48 - 2  # 48 Average and 48 Paeth rows per frame


def _good_png():
    px = np.random.default_rng(9).integers(0, 256, size=(4, 5, 3)).astype(np.uint8)
    return _png_bytes(px, [0, 1, 3, 4])


def _idat_png(raw, w=5, h=4):
    return (
        b"\x89PNG\r\n\x1a\n"
        + _chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
        + _chunk(b"IDAT", raw)
        + _chunk(b"IEND", b"")
    )


def _raw_rows(ftypes, w=5):
    return b"".join(bytes([t]) + bytes(3 * w) for t in ftypes)


@pytest.mark.parametrize(
    "data, message",
    [
        (_good_png()[:50], "truncated PNG chunk"),
        (_good_png()[:-12], "no IEND"),
        (_idat_png(zlib.compress(_raw_rows([0] * 4))[:-6]), "truncated PNG image data"),
        (_idat_png(b"\x78\x9c\xff\xff\xff\xff"), "corrupt PNG image data"),
        (_idat_png(zlib.compress(_raw_rows([0] * 3))), "not 64 bytes"),
        (_idat_png(zlib.compress(_raw_rows([0] * 5))), "not 64 bytes"),
        (_idat_png(zlib.compress(_raw_rows([0, 1, 5, 0]))), "bad PNG filter 5 in row 2"),
        (_good_png().replace(b"IDAT", b"iDAT"), "missing IDAT"),
        # the largest size PNG allows: more image data than a C size can hold
        (_idat_png(zlib.compress(_raw_rows([0] * 4)), 2**31 - 1, 2**31 - 1), r"not \d+ bytes"),
    ],
    ids=[
        "truncated-chunk",
        "missing-iend",
        "truncated-zlib",
        "corrupt-zlib",
        "short-data",
        "long-data",
        "bad-filter",
        "missing-idat",
        "largest-size",
    ],
)
def test_corrupt_png_raises_value_error(tmp_path, data, message):
    path = tmp_path / "frame_000000.png"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=message):
        iio.read_png(path)
    with pytest.raises(ValueError, match="cannot decode .*frame_000000.png"):
        iio.read_frame(path, 0)


def test_truncated_png_frame_fails_track_cleanly(tmp_path, capsys):
    indir = tmp_path / "in"
    indir.mkdir()
    data = _good_png()
    (indir / "frame_000000.png").write_bytes(data)
    (indir / "frame_000001.png").write_bytes(data[: len(data) // 2])
    (indir / "run.cfg").write_text('pattern = "frame_*.png"\n')
    rc = cli.main(
        ["track", "--input", str(indir), "--output", str(tmp_path / "out"),
         "--config", str(indir / "run.cfg")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot decode") and "frame_000001.png" in err


def _png_with_ihdr(w=5, h=4, compression=0, filter_method=0):
    """_good_png's image data under another IHDR, with a valid CRC."""
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, compression, filter_method, 0)
    data = _good_png()
    return data[:8] + _chunk(b"IHDR", ihdr) + data[8 + 12 + 13 :]


@pytest.mark.parametrize(
    "compression, filter_method, message",
    [
        (1, 0, "unsupported PNG compression method 1"),
        (0, 1, "unsupported PNG filter method 1"),
        (0, 64, "unsupported PNG filter method 64"),
    ],
)
def test_png_with_another_compression_or_filter_method_is_rejected(
    tmp_path, capsys, compression, filter_method, message
):
    indir = tmp_path / "in"
    indir.mkdir()
    path = indir / "frame_000000.png"
    path.write_bytes(_png_with_ihdr(compression=compression, filter_method=filter_method))
    with pytest.raises(ValueError, match=message):
        iio.read_png(path)
    (indir / "run.cfg").write_text('pattern = "frame_*.png"\n')
    out = tmp_path / "out"
    rc = cli.main(
        ["track", "--input", str(indir), "--output", str(out),
         "--config", str(indir / "run.cfg")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot decode") and f"frame_000000.png: {message}" in err
    assert not (out / "blobs.jsonl").exists()


def test_png_beyond_the_size_limit_fails_track_cleanly(tmp_path, capsys):
    """A 4294967295 x 4294967295 header is refused before its image data is
    inflated: the run ends with an ``error:`` line naming the file."""
    indir = tmp_path / "in"
    indir.mkdir()
    bad = indir / "frame_000000.png"
    bad.write_bytes(_png_with_ihdr(2**32 - 1, 2**32 - 1))
    for i in range(1, 4):
        (indir / f"frame_{i:06d}.png").write_bytes(_good_png())
    (indir / "run.cfg").write_text('pattern = "frame_*.png"\n')
    out = tmp_path / "out"
    rc = cli.main(
        ["track", "--input", str(indir), "--output", str(out),
         "--config", str(indir / "run.cfg")]
    )
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: cannot decode {bad}: PNG size 4294967295x4294967295 exceeds 2^31 - 1\n"
    )
    assert not (out / "blobs.jsonl").exists()


def test_png_header_of_another_size_is_refused_before_inflating(tmp_path, monkeypatch):
    """A header claiming 60000 x 60000 in a 5 x 4 sequence gets the dimension
    mismatch message, and zlib is never asked to inflate its image data."""
    path = tmp_path / "frame_000001.png"
    path.write_bytes(_png_with_ihdr(60000, 60000))
    monkeypatch.setattr(iio.zlib, "decompressobj", None)  # any inflate would raise
    with pytest.raises(ValueError) as info:
        iio.read_frame(path, 1, (5, 4))
    assert str(info.value) == f"dimension mismatch in {path}: 60000x60000 vs 5x4"


def test_ppm_with_a_second_image_appended_decodes_to_the_first(tmp_path):
    """Netpbm allows several images in one file; a frame is the first one."""
    first = np.arange(36, dtype=np.uint8).reshape(3, 4, 3)
    path = tmp_path / "frame_000000.ppm"
    iio.write_ppm(path, first)
    path.write_bytes(path.read_bytes() + b"P6\n2 2\n255\n" + bytes(range(12)))
    np.testing.assert_array_equal(iio.read_ppm(path), first)
    np.testing.assert_array_equal(iio.read_frame(path, 0, (4, 3)).rgb, first)


def _ppm_bytes(w=4, h=3):
    return b"P6\n%d %d\n255\n" % (w, h) + bytes(range(3 * w * h))


def _pgm16_bytes(w=4, h=3):
    return b"P5\n%d %d\n65535\n" % (w, h) + bytes(2 * w * h)


@pytest.mark.parametrize(
    "name, data, reason",
    [
        ("frame_000000.png", _good_png()[: len(_good_png()) // 2], "truncated PNG chunk"),
        ("frame_000000.ppm", _ppm_bytes()[:-5], "truncated PPM payload"),
        ("frame_000000.ppm", b"P6\n4", "truncated PNM header"),
    ],
    ids=["png", "ppm-payload", "ppm-header"],
)
def test_decode_error_names_file_once(tmp_path, name, data, reason):
    (tmp_path / name).write_bytes(data)
    with pytest.raises(ValueError) as info:
        iio.read_frame(tmp_path / name, 0)
    message = str(info.value)
    assert message.startswith(f"cannot decode {tmp_path / name}: {reason}")
    assert message.count(name) == 1


@pytest.mark.parametrize(
    "data, message",
    [
        (_ppm_bytes()[:-1], "truncated PPM payload"),
        (_ppm_bytes()[:11], "truncated PPM payload"),  # header only
        (b"P6\n4 3\n255", "truncated PPM payload"),  # no whitespace after maxval
        (b"P6\n4", "truncated PNM header"),
        (b"P6\n4 3\n", "truncated PNM header"),
        (b"P6\n4 3 # comment", "truncated PNM header"),
        (b"P6", "truncated PNM header"),
        (b"P6\n4 x3\n255\n", "bad PNM header field b'x3'"),
        (b"P6\n-4 3\n255\n", "bad PNM header field b'-4'"),
        (b"P6\n0 3\n255\n", "empty PNM image"),
        (b"P5\n4 3\n255\n", "expected P6 header"),
    ],
    ids=[
        "payload-1", "header-only", "no-space-after-maxval", "header-width-only",
        "header-no-maxval", "header-comment-at-end", "magic-only", "bad-field",
        "negative-field", "zero-width", "wrong-magic",
    ],
)
def test_corrupt_ppm_raises_value_error(tmp_path, data, message):
    path = tmp_path / "frame_000000.ppm"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
        iio.read_ppm(path)


@pytest.mark.parametrize(
    "data, message",
    [
        (_pgm16_bytes()[:-1], "truncated PGM payload"),
        (_pgm16_bytes()[:-2], "truncated PGM payload"),
        (b"P5\n4 3", "truncated PNM header"),
        (b"P5\n4 3\n65535", "truncated PGM payload"),
    ],
    ids=["payload-1", "payload-2", "header-no-maxval", "no-space-after-maxval"],
)
def test_corrupt_pgm_raises_value_error(tmp_path, data, message):
    path = tmp_path / "depth_000000.pgm"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
        iio.read_pgm16(path)


@pytest.mark.parametrize(
    "data, message",
    [(_ppm_bytes()[:-7], "truncated PPM payload"), (b"P6\n4", "truncated PNM header")],
    ids=["payload", "header"],
)
def test_truncated_ppm_frame_fails_track_cleanly(tmp_path, capsys, data, message):
    indir = tmp_path / "in"
    indir.mkdir()
    (indir / "frame_000000.ppm").write_bytes(_ppm_bytes())
    (indir / "frame_000001.ppm").write_bytes(data)
    rc = cli.main(["track", "--input", str(indir), "--output", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot decode {indir / 'frame_000001.ppm'}: {message}\n"


@pytest.mark.parametrize(
    "data, message",
    [(_pgm16_bytes()[:-3], "truncated PGM payload"), (b"P5\n4 3", "truncated PNM header")],
    ids=["payload", "header"],
)
def test_truncated_depth_pgm_is_rejected(tmp_path, data, message):
    (tmp_path / "depth_000000.pgm").write_bytes(_pgm16_bytes())
    (tmp_path / "depth_000001.pgm").write_bytes(data)
    bad = tmp_path / "depth_000001.pgm"
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: {re.escape(message)}$"):
        [iio.load_depth_raster(p) for p in cli._depth_paths(tmp_path, 2)]


def _mutants(rng, data, n):
    """``n`` seeded mutations of ``data``: truncations, flips of 1-3 bytes and
    insertions of 1-8 random bytes, each with a label that reproduces it."""
    for i in range(n):
        kind = ("truncate", "flip", "insert")[i % 3]
        if kind == "truncate":
            cut = int(rng.integers(0, len(data)))
            yield f"truncate {cut}", data[:cut]
        elif kind == "flip":
            out = bytearray(data)
            at = rng.integers(0, len(data), size=int(rng.integers(1, 4)))
            for pos in at:
                out[pos] ^= int(rng.integers(1, 256))
            yield f"flip {at.tolist()}", bytes(out)
        else:
            pos = int(rng.integers(0, len(data) + 1))
            extra = rng.integers(0, 256, size=int(rng.integers(1, 9)), dtype=np.uint8)
            yield f"insert {extra.tobytes()!r} at {pos}", data[:pos] + extra.tobytes() + data[pos:]


_MUTATION_SIZE = (7, 5)  # (width, height) of every base file


def _mutation_base(name):
    """The file bytes of one base format, and a function from mutated bytes to
    file bytes. ``png-raw`` mutates the filtered rows and compresses them
    again, so its mutants reach the row filters instead of failing in zlib."""
    w, h = _MUTATION_SIZE
    rng = np.random.default_rng(5)
    rgb = rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)
    filters = [0, 1, 2, 3, 4]
    if name == "ppm":
        return b"P6\n# c\n%d %d\n255\n" % (w, h) + rgb.tobytes(), bytes
    if name == "pgm":
        z = rng.integers(0, 2**16, size=(h, w)).astype(">u2")
        return b"P5\n%d %d\n65535\n" % (w, h) + z.tobytes(), bytes
    if name == "png-raw":
        # the IDAT body sits between the signature, IHDR and the IDAT chunk's
        # length and type (41 bytes) and its CRC and the IEND chunk (16 bytes)
        raw = zlib.decompress(_png_bytes(rgb, filters)[41:-16])
        return raw, lambda mutant: _idat_png(zlib.compress(mutant), w, h)
    channels = {"png-gray": 1, "png-rgb": 3, "png-rgba": 4}[name]
    px = rng.integers(0, 256, size=(h, w, channels)).astype(np.uint8)
    return _png_bytes(px[..., 0] if channels == 1 else px, filters), bytes


@pytest.mark.parametrize("name", ["ppm", "pgm", "png-gray", "png-rgb", "png-rgba", "png-raw"])
def test_mutated_files_decode_or_raise_value_error(tmp_path, name):
    """Every seeded mutant of a PPM, PGM or PNG file either decodes to a
    raster of the expected shape or raises ValueError, with and without the
    sequence size."""
    w, h = _MUTATION_SIZE
    data, wrap = _mutation_base(name)
    path = tmp_path / f"frame.{name[:3]}"
    rng = np.random.default_rng(sum(name.encode()))
    decoded = 0
    for i, (label, mutant) in enumerate(_mutants(rng, data, 1500)):
        path.write_bytes(wrap(mutant))
        size = _MUTATION_SIZE if i % 2 else None
        try:
            if name == "pgm":
                out = iio.load_depth_raster(path, size)
                ok = out.ndim == 2 and out.dtype == np.int32
            else:
                out = iio.read_frame(path, 0, size).rgb
                ok = out.ndim == 3 and out.shape[2] == 3 and out.dtype == np.uint8
        except ValueError:
            continue
        except Exception as exc:  # any other exception fails, naming the mutant
            pytest.fail(f"{name}: {label} raised {exc!r}")
        assert ok and (size is None or out.shape[:2] == (h, w)), f"{name}: {label}"
        decoded += 1
    assert 0 < decoded < 1500  # some mutants decode and some are refused


def test_depth_raster_constant(tmp_path):
    z = np.full((6, 8), 2000, np.int32)
    iio.write_pgm16(tmp_path / "d.pgm", z)
    d = iio.load_depth_raster(tmp_path / "d.pgm")
    assert d.shape == (6, 8) and d.dtype == np.int32
    assert (d == 2000).all()


def test_depth_raster_clamps_invalid(tmp_path):
    z = np.array([[65535, 10001, 10000, 1, 0]], np.int32)
    iio.write_pgm16(tmp_path / "d.pgm", z)
    d = iio.load_depth_raster(tmp_path / "d.pgm")
    assert d.tolist() == [[0, 0, 10000, 1, 0]]


def test_depth_raster_round_trip_exact(tmp_path, scenario_dir):
    indir, _ = scenario_dir("approach_box", frames=40)
    frames, depths, _ = sg.generate_scenario(sg.Scenario("approach_box", frames=40))
    loaded = iio.load_depth_raster(indir / "depth_000035.pgm")
    assert np.array_equal(loaded, depths[35])


def test_depth_raster_rejects_8bit(tmp_path):
    (tmp_path / "d.pgm").write_bytes(b"P5\n2 2\n255\n\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="65535"):
        iio.load_depth_raster(tmp_path / "d.pgm")


def test_pnm_header_comment_handling(tmp_path):
    body = bytes(range(12))
    (tmp_path / "c.ppm").write_bytes(b"P6\n# comment\n2 2\n# another\n255\n" + body)
    rgb = iio.read_ppm(tmp_path / "c.ppm")
    assert rgb.shape == (2, 2, 3)
    assert rgb.tobytes() == body


def test_write_unannotated_is_byte_preserving(tmp_path):
    rng = np.random.default_rng(3)
    rgb = rng.integers(0, 256, size=(20, 30, 3)).astype(np.uint8)
    src = tmp_path / "frame_000000.ppm"
    iio.write_ppm(src, rgb)
    frame = iio.read_frame(src, 0)
    out = tmp_path / "copy.ppm"
    iio.write_ppm(out, cli._annotate(frame, None, None, None, None))
    assert out.read_bytes() == src.read_bytes()
    assert np.array_equal(frame.rgb, rgb)


def test_rectangle_overlay_touches_only_border():
    rgb = np.zeros((20, 20, 3), np.uint8)
    got = rgb.copy()
    iio.draw_rectangle(got, (5, 6, 8, 7), (255, 220, 0))
    changed = np.nonzero((got != rgb).any(axis=2))
    for y, x in zip(*changed):
        on_border = (
            (x in (5, 12) and 6 <= y <= 12) or (y in (6, 12) and 5 <= x <= 12)
        )
        assert on_border, (x, y)
    assert (got[6, 5:13] == (255, 220, 0)).all()


def _reference_draw_rectangle(img, rect, color):
    """The border as four clipped pixel lists."""
    x, y, w, h = (int(round(v)) for v in rect)
    if w <= 0 or h <= 0:
        return
    xs = np.arange(x, x + w)
    ys = np.arange(y, y + h)
    iio._put_pixels(img, xs, np.full_like(xs, y), color)
    iio._put_pixels(img, xs, np.full_like(xs, y + h - 1), color)
    iio._put_pixels(img, np.full_like(ys, x), ys, color)
    iio._put_pixels(img, np.full_like(ys, x + w - 1), ys, color)


def test_draw_rectangle_matches_pixel_list_reference():
    """Slice writes give the pixel-list border byte for byte: rects partly
    or wholly outside, negative origins, 1-px and empty sides."""
    rng = np.random.default_rng(4)
    sides = [0, 1, 2]
    for _ in range(2000):
        x, y = rng.uniform(-30, 40, 2)
        w, h = (float(rng.choice(sides)) if rng.random() < 0.3 else rng.uniform(-2, 45) for _ in range(2))
        img = rng.integers(0, 256, size=(int(rng.integers(1, 25)), int(rng.integers(1, 35)), 3)).astype(np.uint8)
        want = img.copy()
        _reference_draw_rectangle(want, (x, y, w, h), (7, 200, 99))
        iio.draw_rectangle(img, (x, y, w, h), (7, 200, 99))
        assert img.tobytes() == want.tobytes(), (x, y, w, h, img.shape)


def test_ellipse_overlay_within_1px_of_analytic():
    rgb = np.zeros((60, 80, 3), np.uint8)
    center, axes, angle = (40.0, 30.0), (18.0, 9.0), 0.6
    got = rgb.copy()
    iio.draw_ellipse(got, center, axes, angle, (0, 255, 0))
    ys, xs = np.nonzero((got != rgb).any(axis=2))
    t = np.linspace(0, 2 * np.pi, 4000)
    ex = center[0] + np.cos(angle) * axes[0] * np.cos(t) - np.sin(angle) * axes[1] * np.sin(t)
    ey = center[1] + np.sin(angle) * axes[0] * np.cos(t) + np.cos(angle) * axes[1] * np.sin(t)
    for x, y in zip(xs, ys):
        d = np.hypot(ex - x, ey - y).min()
        assert d <= 1.0 + 1e-6, (x, y, d)
    # and the analytic boundary is covered by drawn pixels
    for px, py in zip(ex[::50], ey[::50]):
        assert np.hypot(xs - px, ys - py).min() <= 1.0 + 1e-6


def _reference_draw_text(img, origin, text, color):
    """One pixel write per set glyph bit."""
    x0, y0 = int(round(origin[0])), int(round(origin[1]))
    for ch in text.upper():
        glyph = iio._FONT.get(ch)
        if glyph is not None:
            for dy, row in enumerate(glyph):
                for dx, bit in enumerate(row):
                    if bit == "1":
                        iio._put_pixels(img, np.array([x0 + dx]), np.array([y0 + dy]), color)
        x0 += 4


def test_draw_text_matches_per_pixel_reference(monkeypatch):
    """Byte-identical to the per-pixel writes, with one _put_pixels call per label."""
    rng = np.random.default_rng(9)
    chars = "".join(iio._FONT) + "?z"
    calls = []
    put_pixels = iio._put_pixels
    for _ in range(200):
        text = "".join(rng.choice(list(chars), size=int(rng.integers(0, 6))))
        origin = (rng.uniform(-12, 30), rng.uniform(-8, 22))
        img = rng.integers(0, 256, size=(16, 24, 3)).astype(np.uint8)
        want = img.copy()
        _reference_draw_text(want, origin, text, (250, 1, 128))
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(iio, "_put_pixels", lambda *args: calls.append(1) or put_pixels(*args))
            iio.draw_text(img, origin, text, (250, 1, 128))
        assert img.tobytes() == want.tobytes(), (text, origin)
        assert len(calls) == 1


def test_font_holds_the_glyphs_of_the_overlay_labels():
    """Overlays write "P" on the person box and each part label, upper-cased;
    every character of those has a glyph, and the font holds no other."""
    chars = set("P").union(*(label.upper() for label in PART_LABELS))
    assert set(iio._FONT) == chars
