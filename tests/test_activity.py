import copy
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from hbpt import activity as act
from hbpt import imageio as iio
from hbpt import synthgen as sg
from hbpt import tracker as tr
from hbpt.blobmodel import GaussianBlob
from hbpt.config import PipelineConfig, parse_config_text

from conftest import frame_from_rgb, step_in_memory

CFG = PipelineConfig()  # the pipeline's default settings


def scene_with_box(box_color=(220, 200, 40), rect=(30, 20, 16, 12), w=120, h=90):
    rgb = np.full((h, w, 3), (120, 130, 115), np.uint8)
    x, y, bw, bh = rect
    rgb[y : y + bh, x : x + bw] = box_color
    return frame_from_rgb(rgb), rect


def stub_model(torso_mu=(60.0, 60.0), hand=(40, 30), arm="armR"):
    """Minimal body model with a torso blob and one arm pixel set."""
    torso = GaussianBlob(mu=torso_mu, K=((4.0, 0.0), (0.0, 4.0)), color_mean=(0, 0, 0), area=50, label="torso")
    blobs = {"torso": torso}
    part_pixels = {}
    if hand is not None:
        arm_blob = GaussianBlob(
            mu=(float(hand[0]), float(hand[1])),
            K=((1.0, 0.0), (0.0, 1.0)),
            color_mean=(0, 0, 0),
            area=9,
            label=arm,
        )
        blobs[arm] = arm_blob
        px = [(hand[0] - dx, hand[1]) for dx in range(3)]
        part_pixels[arm] = np.array(px, dtype=int)
    from hbpt.bodyparts import BodyPartModel

    return BodyPartModel(blobs=blobs, part_pixels=part_pixels)


def flat_depth(z, w=120, h=90):
    return np.full((h, w), z, np.int32)


# ---------------------------------------------------------------------------
# histograms

def test_hist16_uniform_rect_single_bin():
    frame, rect = scene_with_box()
    hist = tr.color_hist16(frame, rect)
    assert np.count_nonzero(hist) == 1
    assert hist.max() == pytest.approx(1.0)


def test_hist16_matches_counting_oracle():
    rng = np.random.default_rng(0)
    rgb = rng.integers(0, 256, size=(40, 50, 3)).astype(np.uint8)
    frame = frame_from_rgb(rgb)
    for _ in range(100):
        w, h = rng.integers(1, 20, 2)
        x = rng.integers(0, 50 - w)
        y = rng.integers(0, 40 - h)
        hist = tr.color_hist16(frame, (int(x), int(y), int(w), int(h)))
        counts = np.zeros(16)
        for yy in range(y, y + h):
            for xx in range(x, x + w):
                u = frame.yuv[yy, xx, 1] // 64
                v = frame.yuv[yy, xx, 2] // 64
                counts[u * 4 + v] += 1
        assert np.array_equal(hist, counts / counts.sum())
        assert hist.sum() == pytest.approx(1.0, abs=1e-12)


def test_hist_distance_examples():
    h1 = np.zeros(16)
    h1[0] = 1.0
    assert act.hist_distance(h1, h1) == 0.0
    h2 = np.zeros(16)
    h2[1] = 1.0
    assert act.hist_distance(h1, h2) == 1.0
    h3 = np.zeros(16)
    h3[0] = 0.5
    h3[1] = 0.5
    assert act.hist_distance(h1, h3) == pytest.approx(math.sqrt(1 - math.sqrt(0.5)), abs=1e-4)
    assert act.hist_distance(h1, h3) == pytest.approx(0.5412, abs=1e-4)


def test_hist_distance_properties():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.random(16)
        b = rng.random(16)
        a /= a.sum()
        b /= b.sum()
        dab = act.hist_distance(a, b)
        assert 0.0 <= dab <= 1.0
        assert dab == pytest.approx(act.hist_distance(b, a))
    a = rng.random(16)
    a /= a.sum()
    assert act.hist_distance(a, a) == pytest.approx(0.0, abs=1e-7)
    with pytest.raises(ValueError):
        act.hist_distance(np.full(16, 0.2), a)


# ---------------------------------------------------------------------------
# box region tracking

def test_static_box_tracking_is_stable():
    frame, rect = scene_with_box()
    box = act.make_box_region(frame, rect)
    rng = np.random.default_rng(2)
    for _ in range(50):
        noisy = np.clip(frame.rgb + rng.normal(0, 2, frame.rgb.shape), 0, 255).astype(np.uint8)
        box = act.track_box_region(box, frame_from_rgb(noisy))
    assert abs(box.tracked_rect[0] - rect[0]) <= 1
    assert abs(box.tracked_rect[1] - rect[1]) <= 1


def test_moving_box_is_followed():
    rect0 = (10, 30, 16, 12)
    frames = []
    for step in range(12):
        rgb = np.full((90, 140, 3), (120, 130, 115), np.uint8)
        x = rect0[0] + 4 * step
        rgb[rect0[1] : rect0[1] + 12, x : x + 16] = (220, 200, 40)
        frames.append(frame_from_rgb(rgb))
    box = act.make_box_region(frames[0], rect0)
    for i, frame in enumerate(frames[1:], 1):
        box = act.track_box_region(box, frame)
        assert abs(box.tracked_rect[0] - (rect0[0] + 4 * i)) <= 2
        assert abs(box.tracked_rect[1] - rect0[1]) <= 2


def test_boxless_scene_flags_lost():
    frame, rect = scene_with_box()
    box = act.make_box_region(frame, rect)
    plain = frame_from_rgb(np.full((90, 120, 3), (120, 130, 115), np.uint8))
    tracked0 = box.tracked_rect
    box = act.track_box_region(box, plain)
    assert box.lost
    assert box.tracked_rect == tracked0


# ---------------------------------------------------------------------------
# approach

def test_approach_fires_after_sustained_contact():
    frame, rect = scene_with_box()
    box = act.make_box_region(frame, rect)
    model = stub_model(hand=(rect[0] - 5, rect[1] + 4))
    state = act.ActivityState()
    events = []
    for i in range(4):
        ev = act.detect_approach(model, box, None, state, i, CFG)
        if ev:
            events.append(ev)
    assert [e.frame_index for e in events] == [2]  # third consecutive frame
    assert state.fired == {"Approach"}
    assert events[0].payload["depth_used"] is False


def test_approach_depth_gate_blocks_distant_hand():
    frame, rect = scene_with_box()
    box = act.make_box_region(frame, rect)
    hand = (rect[0] + 4, rect[1] + 4)  # overlapping in 2D
    model = stub_model(hand=hand)
    z = np.full((90, 120), 2000, np.int32)
    x, y, w, h = rect
    z[y : y + h, x : x + w] = 2000
    # person plane 1500 mm behind the box
    z[hand[1] - 4 : hand[1] + 5, hand[0] - 6 : hand[0] + 3] = 3500
    state = act.ActivityState()
    for i in range(10):
        assert act.detect_approach(model, box, z, state, i, CFG) is None
    assert state.fired == set()


def test_approach_depth_gate_passes_same_plane():
    frame, rect = scene_with_box()
    box = act.make_box_region(frame, rect)
    model = stub_model(hand=(rect[0] - 5, rect[1] + 4))
    depth = flat_depth(2000)
    state = act.ActivityState()
    events = [
        act.detect_approach(model, box, depth, state, i, CFG) for i in range(3)
    ]
    fired = [e for e in events if e]
    assert len(fired) == 1
    assert fired[0].payload["depth_used"] is True
    assert fired[0].payload["z_hand_mm"] == 2000
    assert fired[0].payload["distance_mm"] == 0


def test_approach_streak_resets_on_gap():
    frame, rect = scene_with_box()
    box = act.make_box_region(frame, rect)
    near = stub_model(hand=(rect[0] - 5, rect[1] + 4))
    far = stub_model(hand=(rect[0] - 80, rect[1] + 4))
    state = act.ActivityState()
    assert act.detect_approach(near, box, None, state, 0, CFG) is None
    assert act.detect_approach(near, box, None, state, 1, CFG) is None
    assert act.detect_approach(far, box, None, state, 2, CFG) is None  # resets
    assert state.streaks["Approach"] == 0
    assert act.detect_approach(near, box, None, state, 3, CFG) is None
    assert act.detect_approach(near, box, None, state, 4, CFG) is None
    ev = act.detect_approach(near, box, None, state, 5, CFG)
    assert ev is not None and ev.kind == "Approach"


# ---------------------------------------------------------------------------
# open

def _opened_frame(rect):
    frame, _ = scene_with_box(box_color=(150, 40, 180), rect=rect)
    return frame


def test_open_requires_prior_approach():
    frame, rect = scene_with_box()
    box = act.make_box_region(frame, rect)
    state = act.ActivityState()
    changed = _opened_frame(rect)
    for i in range(20):
        assert act.detect_open(box, changed, state, i, CFG) is None
    assert state.fired == set()


def test_open_fires_after_sustained_change():
    frame, rect = scene_with_box()
    box = act.make_box_region(frame, rect)
    state = act.ActivityState()
    state.fired.add("Approach")
    changed = _opened_frame(rect)
    events = [act.detect_open(box, changed, state, i, CFG) for i in range(6)]
    fired = [e for e in events if e]
    assert len(fired) == 1
    assert fired[0].frame_index == 4  # fifth consecutive frame
    assert state.fired == {"Approach", "Open"}
    # no re-fire afterwards
    assert act.detect_open(box, changed, state, 9, CFG) is None


def test_open_ignores_unchanged_box():
    frame, rect = scene_with_box()
    box = act.make_box_region(frame, rect)
    state = act.ActivityState()
    state.fired.add("Approach")
    for i in range(50):
        assert act.detect_open(box, frame, state, i, CFG) is None


# ---------------------------------------------------------------------------
# Lucas-Kanade flow

def _textured_frame(rng, w=90, h=70):
    base = rng.integers(40, 220, size=(h // 3 + 1, w // 3 + 1)).astype(np.uint8)
    gray = np.repeat(np.repeat(base, 3, axis=0), 3, axis=1)[:h, :w]
    rgb = np.stack([gray, gray, gray], axis=2)
    return rgb


def _reference_blur_decimate(img):
    """The original full-resolution blur, decimated afterwards."""
    p = np.pad(img, 1, mode="edge")
    rows = 0.25 * p[:-2, 1:-1] + 0.5 * p[1:-1, 1:-1] + 0.25 * p[2:, 1:-1]
    p2 = np.pad(rows, ((0, 0), (1, 1)), mode="edge")
    full = 0.25 * p2[:, :-2] + 0.5 * p2[:, 1:-1] + 0.25 * p2[:, 2:]
    return full[::2, ::2]


def _reference_pyramid(gray, levels):
    pyr = [gray]
    for _ in range(levels - 1):
        if min(pyr[-1].shape) < 8:
            break
        pyr.append(_reference_blur_decimate(pyr[-1]))
    return pyr


def _reference_sample(img, gx, gy):
    """The original bilinear sampler (2-D fancy indexing)."""
    h, w = img.shape
    gx = np.clip(gx, 0.0, w - 1.001)
    gy = np.clip(gy, 0.0, h - 1.001)
    x0 = np.floor(gx).astype(int)
    y0 = np.floor(gy).astype(int)
    fx = gx - x0
    fy = gy - y0
    top = (1 - fx) * img[y0, x0] + fx * img[y0, x0 + 1]
    bot = (1 - fx) * img[y0 + 1, x0] + fx * img[y0 + 1, x0 + 1]
    return (1 - fy) * top + fy * bot


def _reference_lk_flow(prev_frame, frame, points, paths=None):
    """The original per-point pyramidal LK, kept as the oracle for lk_flow.

    When ``paths`` is a list, one ``(point, level, what)`` tuple is appended
    per point and level, ``what`` being "coarse-flat", "lost-flat",
    "diverged" or the number of solver iterations run.
    """
    # the pipeline's settings, written out here so that a changed
    # activity.LK_* constant fails the comparison
    window, levels, iters, min_eig = 15, 3, 20, 1e-3
    g0 = prev_frame.yuv[:, :, 0].astype(np.float64) / 255.0
    g1 = frame.yuv[:, :, 0].astype(np.float64) / 255.0
    pyr0 = _reference_pyramid(g0, levels)
    pyr1 = _reference_pyramid(g1, levels)
    half = window // 2
    offs = np.arange(-half, half + 1, dtype=np.float64)
    oy, ox = np.meshgrid(offs, offs, indexing="ij")
    npx = window * window
    out = np.array(points, dtype=np.float64).reshape(-1, 2).copy()
    status = np.ones(len(out), dtype=bool)
    note = paths.append if paths is not None else lambda item: None

    for pi in range(len(out)):
        px, py = out[pi]
        flow = np.zeros(2)
        lost = False
        for lvl in range(len(pyr0) - 1, -1, -1):
            scale = 2.0**lvl
            lx, ly = px / scale, py / scale
            i0, i1 = pyr0[lvl], pyr1[lvl]
            gxs = lx + ox
            gys = ly + oy
            ix = (_reference_sample(i0, gxs + 1, gys) - _reference_sample(i0, gxs - 1, gys)) / 2.0
            iy = (_reference_sample(i0, gxs, gys + 1) - _reference_sample(i0, gxs, gys - 1)) / 2.0
            t0 = _reference_sample(i0, gxs, gys)
            gxx = float((ix * ix).sum())
            gxy = float((ix * iy).sum())
            gyy = float((iy * iy).sum())
            tr2 = (gxx + gyy) / 2.0
            det = gxx * gyy - gxy * gxy
            lam_min = tr2 - math.sqrt(max(tr2 * tr2 - det, 0.0))
            if lam_min / npx < min_eig:
                if lvl == 0:
                    note((pi, lvl, "lost-flat"))
                    lost = True
                    break
                note((pi, lvl, "coarse-flat"))
                flow *= 2.0
                continue
            v = np.zeros(2)
            n_iter = 0
            for _ in range(iters):
                n_iter += 1
                t1 = _reference_sample(i1, gxs + flow[0] + v[0], gys + flow[1] + v[1])
                r = t0 - t1
                bx = float((r * ix).sum())
                by = float((r * iy).sum())
                dvx = (gyy * bx - gxy * by) / det
                dvy = (gxx * by - gxy * bx) / det
                v += (dvx, dvy)
                if dvx * dvx + dvy * dvy < 1e-4:
                    break
            if np.hypot(v[0], v[1]) > window:
                note((pi, lvl, "diverged"))
                lost = True
                break
            note((pi, lvl, n_iter))
            flow = (flow + v) * 2.0 if lvl > 0 else flow + v
        nx, ny = px + flow[0], py + flow[1]
        h, w = g1.shape
        if lost or not (half <= nx < w - half and half <= ny < h - half):
            status[pi] = False
        else:
            out[pi] = (nx, ny)
    return out, status


def _gray_frame(gray):
    gray = np.asarray(gray, dtype=np.uint8)
    return frame_from_rgb(np.stack([gray, gray, gray], axis=2))


def _assert_lk_matches_reference(f0, f1, pts):
    """lk_flow equals the oracle exactly, from the previous frame's
    lk_pyramid or from the pyramid an earlier call returned for it.

    Returns the oracle's per-point paths and status.
    """
    paths = []
    ref_pts, ref_status = _reference_lk_flow(f0, f1, pts, paths=paths)
    out, status, pyr1 = act.lk_flow(act.lk_pyramid(f0), f1, pts)
    assert np.array_equal(out, ref_pts)
    assert np.array_equal(status, ref_status)
    gray1 = f1.yuv[:, :, 0].astype(np.float64) / 255.0
    assert all(np.array_equal(a, b) for a, b in zip(pyr1, _reference_pyramid(gray1, 3)))
    # the pyramid a call returns for its frame, passed back as the previous one
    _, _, pyr0 = act.lk_flow(act.lk_pyramid(f1), f0, [])
    out, status, _ = act.lk_flow(pyr0, f1, pts)
    assert np.array_equal(out, ref_pts)
    assert np.array_equal(status, ref_status)
    return paths, ref_status


def test_pyramid_matches_reference():
    rng = np.random.default_rng(11)
    for h, w in [(240, 320), (70, 90), (33, 17), (9, 8), (8, 40), (7, 7), (1, 5)]:
        gray = rng.random((h, w))
        for levels in (1, 3, 6):
            got = act._pyramid(gray, levels)
            ref = _reference_pyramid(gray, levels)
            assert len(got) == len(ref)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_lk_identical_frames_zero_flow():
    rng = np.random.default_rng(3)
    rgb = _textured_frame(rng)
    f = frame_from_rgb(rgb)
    pts = [(30.0, 30.0), (45.0, 25.0), (60.0, 40.0)]
    out, status, _ = act.lk_flow(act.lk_pyramid(f), f, pts)
    assert status.all()
    assert np.allclose(out, pts, atol=1e-3)


def test_lk_recovers_integer_shift_vs_ssd():
    rng = np.random.default_rng(4)
    rgb = _textured_frame(rng)
    shift = (3, -2)
    moved = np.roll(rgb, (shift[1], shift[0]), axis=(0, 1))
    f0 = frame_from_rgb(rgb)
    f1 = frame_from_rgb(moved)
    pts = [(30.0, 35.0), (50.0, 30.0), (40.0, 45.0)]
    out, status, _ = act.lk_flow(act.lk_pyramid(f0), f1, pts)
    assert status.all()
    g0 = rgb[:, :, 0].astype(float)
    g1 = moved[:, :, 0].astype(float)
    for (x0, y0), (x1, y1) in zip(pts, out):
        xi, yi = int(x0), int(y0)
        patch = g0[yi - 7 : yi + 8, xi - 7 : xi + 8]
        best = min(
            ((dx, dy) for dx in range(-6, 7) for dy in range(-6, 7)),
            key=lambda d: (
                (g1[yi + d[1] - 7 : yi + d[1] + 8, xi + d[0] - 7 : xi + d[0] + 8] - patch) ** 2
            ).sum(),
        )
        assert best == shift  # SSD oracle confirms the scripted shift
        assert abs((x1 - x0) - best[0]) <= 0.25
        assert abs((y1 - y0) - best[1]) <= 0.25


def test_lk_flat_region_is_lost():
    rgb = np.full((60, 60, 3), 128, np.uint8)
    f = frame_from_rgb(rgb)
    out, status, _ = act.lk_flow(act.lk_pyramid(f), f, [(30.0, 30.0)])
    assert not status.any()


def _smooth_gray(dx=0.0, dy=0.0, w=90, h=70):
    """Smooth texture translated by a sub-pixel (dx, dy)."""
    y, x = np.mgrid[0:h, 0:w].astype(np.float64)
    x, y = x - dx, y - dy
    g = 128 + 50 * np.sin(0.35 * x + 0.2 * y) + 40 * np.cos(0.27 * y - 0.15 * x)
    return np.rint(g).astype(np.uint8)


def _iteration_counts(paths, level=0):
    return [what for _, lvl, what in paths if lvl == level and isinstance(what, int)]


_GRID = [(float(x), float(y)) for x in range(14, 78, 9) for y in range(14, 58, 9)]


def test_lk_matches_reference_identical_frames():
    f = frame_from_rgb(_textured_frame(np.random.default_rng(3)))
    _, status = _assert_lk_matches_reference(f, f, _GRID)
    assert status.all()


@pytest.mark.parametrize("shift", [(3, -2), (-1, 4), (0, 1)])
def test_lk_matches_reference_integer_shift(shift):
    rgb = _textured_frame(np.random.default_rng(4))
    moved = np.roll(rgb, (shift[1], shift[0]), axis=(0, 1))
    _assert_lk_matches_reference(frame_from_rgb(rgb), frame_from_rgb(moved), _GRID)


@pytest.mark.parametrize("shift", [(0.4, -0.3), (1.7, 0.6), (-2.25, 1.5)])
def test_lk_matches_reference_subpixel_shift(shift):
    f0 = _gray_frame(_smooth_gray())
    f1 = _gray_frame(_smooth_gray(*shift))
    paths, status = _assert_lk_matches_reference(f0, f1, _GRID)
    assert status.all()
    # points stop iterating after different numbers of solver steps
    assert len(set(_iteration_counts(paths))) > 1


def test_lk_matches_reference_flat_patch_lost_at_level_0():
    f = _gray_frame(np.full((60, 60), 128))
    paths, status = _assert_lk_matches_reference(f, f, [(30.0, 30.0), (20.5, 41.25)])
    assert not status.any()
    assert {(lvl, what) for _, lvl, what in paths} == {
        (2, "coarse-flat"), (1, "coarse-flat"), (0, "lost-flat")
    }


def test_lk_matches_reference_flat_only_at_coarse_levels():
    # Period-4 stripes have a gradient at level 0 but blur to period-2
    # stripes (zero central difference) at level 1 and to a constant at
    # level 2, so those levels only double the flow. The right half keeps an
    # ordinary texture, so one call mixes both kinds of point.
    y, x = np.mgrid[0:70, 0:100]
    stripes = 60 + 60 * ((x % 4) < 2) + 60 * ((y % 4) < 2)
    rgb = _textured_frame(np.random.default_rng(5), w=100, h=70)[:, :, 0]
    gray = np.where(x < 50, stripes, rgb)
    moved = np.roll(gray, (1, 1), axis=(0, 1))
    pts = [(20.0, 20.0), (24.0, 36.0), (30.0, 30.0), (70.0, 25.0), (80.0, 40.0)]
    paths, status = _assert_lk_matches_reference(_gray_frame(gray), _gray_frame(moved), pts)
    coarse_flat = {(pi, lvl) for pi, lvl, what in paths if what == "coarse-flat"}
    assert coarse_flat == {(pi, lvl) for pi in range(3) for lvl in (1, 2)}
    assert len(_iteration_counts(paths)) == len(pts)
    assert status[:3].all()


# Pixel noise rolled along x: blurred down to the coarsest level it is flat
# under most of the 54 points, and at least one solve there runs off by more
# than a window; the flat points carry on to solve at levels 1 and 0. Each
# scene (noise seed, roll in px) maps to its (diverged, coarse-flat, tracked)
# counts at the pipeline's LK settings.
_DIVERGENT_COUNTS = {(11, 23): (1, 53, 43), (22, 25): (1, 51, 45),
                     (34, 19): (1, 52, 46), (55, 23): (8, 39, 41)}


@pytest.mark.parametrize("kwargs", [{"seed": s, "roll": r} for s, r in _DIVERGENT_COUNTS])
def test_lk_matches_reference_divergent_solves(kwargs):
    a = np.random.default_rng(kwargs["seed"]).integers(0, 256, (60, 80))
    pts = [(float(x), float(y)) for x in range(10, 72, 7) for y in range(10, 52, 7)]
    paths, status = _assert_lk_matches_reference(
        _gray_frame(a), _gray_frame(np.roll(a, kwargs["roll"], axis=1)), pts
    )
    diverged, coarse_flat, tracked = _DIVERGENT_COUNTS[kwargs["seed"], kwargs["roll"]]
    assert sum(what == "diverged" for _, _, what in paths) == diverged
    assert sum(what == "coarse-flat" for _, _, what in paths) == coarse_flat
    assert status.sum() == tracked


def test_lk_matches_reference_points_leaving_frame():
    rgb = _textured_frame(np.random.default_rng(6))
    h = rgb.shape[0]
    moved = np.roll(rgb, (3, -4), axis=(0, 1))
    # x = 10 moves to 6 and y = h - 10 to h - 7, both inside the 7 px margin
    pts = [(10.0, 30.0), (40.0, float(h - 10)), (40.0, 30.0), (11.5, 20.0)]
    paths, status = _assert_lk_matches_reference(frame_from_rgb(rgb), frame_from_rgb(moved), pts)
    assert status.tolist() == [False, False, True, True]
    # lost by leaving the frame, not by the solver
    assert all(isinstance(what, int) for _, _, what in paths)


def test_lk_matches_reference_near_border():
    # the patch reaches outside the image at the coarser levels (and, for the
    # last five points, at level 0 too), so _sample clamps it
    rgb = _textured_frame(np.random.default_rng(7))
    h, w = rgb.shape[:2]
    moved = np.roll(rgb, (1, -1), axis=(0, 1))
    pts = [
        (10.0, 9.0), (10.5, float(h - 11)), (float(w - 11), 10.25), (float(w - 12), float(h - 11)),
        (0.0, 0.0), (2.5, 30.0), (float(w - 1), 20.0), (-3.0, 15.0), (float(w + 2), 40.0),
    ]
    _, status = _assert_lk_matches_reference(frame_from_rgb(rgb), frame_from_rgb(moved), pts)
    assert status[:4].all() and not status[4:].any()


@pytest.mark.parametrize("pts", [[], [(40.0, 30.0)]], ids=["0-points", "1-point"])
def test_lk_matches_reference_point_counts(pts):
    rgb = _textured_frame(np.random.default_rng(8))
    moved = np.roll(rgb, (1, 2), axis=(0, 1))
    _, status = _assert_lk_matches_reference(frame_from_rgb(rgb), frame_from_rgb(moved), pts)
    assert status.shape == (len(pts),)


def test_lk_matches_reference_small_frame_fewer_levels():
    gray = _smooth_gray(w=20, h=14)
    assert len(act._pyramid(gray / 255.0, 3)) == 2
    f0 = _gray_frame(gray)
    f1 = _gray_frame(_smooth_gray(0.5, 0.25, w=20, h=14))
    paths, _ = _assert_lk_matches_reference(f0, f1, [(9.0, 7.0), (10.5, 6.5), (3.0, 3.0)])
    assert {lvl for _, lvl, _ in paths} == {0, 1}


# ---------------------------------------------------------------------------
# carry

def _advance_track(track, dx, dy):
    prev = track.centroid
    track.points = track.points + np.array([dx, dy])
    track.prev_centroid = prev
    return track


def test_carry_fires_on_sustained_joint_motion():
    state = act.ActivityState()
    state.fired.add("Approach")
    track = act.seed_object_points((40, 40, 12, 10))
    model = stub_model(torso_mu=(70.0, 60.0), hand=(48, 44))
    events = []
    for i in range(7):
        _advance_track(track, 3.0, 0.0)
        model = stub_model(torso_mu=(70.0 + 3 * i, 60.0), hand=(48 + 3 * (i + 1), 44))
        ev = act.detect_carry(model, track, None, state, i, CFG)
        if ev:
            events.append(ev)
    assert [e.frame_index for e in events] == [4]
    assert state.fired == {"Approach", "Carry"}


def test_carry_requires_motion():
    state = act.ActivityState()
    state.fired.add("Approach")
    track = act.seed_object_points((40, 40, 12, 10))
    model = stub_model(hand=(48, 44))
    for i in range(20):
        track.prev_centroid = track.centroid  # static object
        assert act.detect_carry(model, track, None, state, i, CFG) is None


def test_carry_requires_hand_nearby():
    state = act.ActivityState()
    state.fired.add("Approach")
    track = act.seed_object_points((40, 40, 12, 10))
    model = stub_model(hand=(110, 5))  # permanently > 30 px from the object row
    for i in range(20):
        _advance_track(track, 3.0, 0.0)
        assert act.detect_carry(model, track, None, state, i, CFG) is None


def test_carry_gated_without_approach():
    state = act.ActivityState()
    track = act.seed_object_points((40, 40, 12, 10))
    model = stub_model(hand=(48, 44))
    for i in range(10):
        _advance_track(track, 3.0, 0.0)
        assert act.detect_carry(model, track, None, state, i, CFG) is None
    assert state.fired == set()


def test_carry_depth_rate_gate():
    state = act.ActivityState()
    state.fired.add("Approach")
    track = act.seed_object_points((40, 40, 12, 10))
    # object depth jumps 600 mm/frame while the hand depth stays: rejected
    zs = [2000, 2600, 3200, 3800, 4400, 5000, 5600, 6200]
    for i in range(8):
        _advance_track(track, 3.0, 0.0)
        cx, cy = track.centroid
        # hand 15 px right of the object; torso farther right so the inward
        # depth nudge moves the sample away from the object's depth patch
        hand = (int(cx) + 15, int(cy))
        model = stub_model(torso_mu=(cx + 45.0, cy), hand=hand)
        z = np.full((90, 160), 2000, np.int32)
        z[int(cy) - 2 : int(cy) + 3, int(cx) - 2 : int(cx) + 3] = zs[i]
        assert act.detect_carry(model, track, z, state, i, CFG) is None
    assert state.fired == {"Approach"}


def test_open_never_follows_carry():
    """Once Carry has fired, a box that then changes colour does not fire Open."""
    frame, rect = scene_with_box()
    box = act.make_box_region(frame, rect)
    state = act.ActivityState()
    near = stub_model(hand=(rect[0] - 5, rect[1] + 4))
    kinds = [act.detect_approach(near, box, None, state, i, CFG) for i in range(3)]
    track = act.seed_object_points(rect)
    for i in range(3, 8):
        _advance_track(track, 3.0, 0.0)
        cx, cy = track.centroid
        model = stub_model(torso_mu=(cx + 30.0, cy), hand=(int(cx) + 10, int(cy)))
        kinds.append(act.detect_carry(model, track, None, state, i, CFG))
    assert [(i, e.kind) for i, e in enumerate(kinds) if e] == [(2, "Approach"), (7, "Carry")]
    changed = _opened_frame(rect)
    for i in range(8, 30):
        assert act.detect_open(box, changed, state, i, CFG) is None


# ---------------------------------------------------------------------------
# monitor

def test_monitor_without_box_is_inert():
    mon = act.ActivityMonitor(PipelineConfig())
    frame, _ = scene_with_box()
    assert mon.process(0, frame, stub_model(), None) == []
    assert mon.events == []


@pytest.mark.parametrize("gap", ["no model", "no torso"])
def test_monitor_resets_streaks_on_a_frame_without_torso(gap):
    """A frame with no model, or a model without a torso, breaks the
    Approach streak: Approach then needs a full new streak."""
    frame, rect = scene_with_box()
    mon = act.ActivityMonitor(PipelineConfig(box_rect=list(rect), box_ref_frame=0))
    near = stub_model(hand=(rect[0] - 5, rect[1] + 4))
    blank = None if gap == "no model" else stub_model(hand=None)
    if blank is not None:
        del blank.blobs["torso"]
    n = CFG.activity_approach_frames
    calls = [near] * (n - 1) + [blank] + [near] * n
    fired = {
        i: [e.kind for e in mon.process(i, frame, model, None)] for i, model in enumerate(calls)
    }
    assert {i: kinds for i, kinds in fired.items() if kinds} == {2 * n - 1: ["Approach"]}


# ---------------------------------------------------------------------------
# monitor over a carry_box run

def _monitor_calls(name, frames):
    """Config and the (frame_index, frame, model, depth) arguments of every
    ActivityMonitor.process call in a short run of scenario ``name``, stepped
    in memory."""
    frames, depths, truth = sg.generate_scenario(sg.Scenario(name, frames=frames))
    cfg = PipelineConfig(box_rect=truth["box"]["rect"], box_ref_frame=truth["box"]["ref_frame"])
    calls = []
    process = act.ActivityMonitor.process

    def spy(self, *args):
        calls.append(args)
        return process(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(act.ActivityMonitor, "process", spy)
        step_in_memory(cfg, frames, depths)
    return cfg, calls


@pytest.fixture(scope="module")
def carry_monitor_calls():
    """The monitor calls of a short carry_box run."""
    return _monitor_calls("carry_box", 112)


@pytest.fixture(scope="module")
def open_monitor_calls():
    """The monitor calls of a short open_box run."""
    return _monitor_calls("open_box", 112)


def _replay(mon, calls, kill=None, after_call=None):
    """Drive a monitor over recorded calls; ``kill`` indexes the object points
    marked dead right after they are seeded. Returns, per frame, the fired
    events, the alive flags and the centroid."""
    seeded = False
    per_frame = []
    for args in calls:
        fired = mon.process(*args)
        if mon.track is not None and not seeded:
            seeded = True
            if kill is not None:
                mon.track.alive[kill] = False
        track = mon.track
        per_frame.append(
            (
                [asdict(e) for e in fired],
                None if track is None else track.alive.tolist(),
                None if track is None else track.centroid,
            )
        )
        if after_call is not None:
            after_call()
    return per_frame


def test_monitor_builds_one_pyramid_per_frame_and_tracks_alive_points(
    carry_monitor_calls, monkeypatch
):
    cfg, calls = carry_monitor_calls
    mon = act.ActivityMonitor(cfg)
    builds = []
    pyramid, lk_flow = act._pyramid, act.lk_flow
    monkeypatch.setattr(act, "_pyramid", lambda *a: builds.append(1) or pyramid(*a))
    received = []

    def spy_lk(prev_pyramid, frame, points):
        assert np.array_equal(points, mon.track.points[mon.track.alive])
        received.append(len(points))
        return lk_flow(prev_pyramid, frame, points)

    monkeypatch.setattr(act, "lk_flow", spy_lk)
    per_call = []
    frames = _replay(
        mon,
        calls,
        kill=slice(None, None, 3),
        after_call=lambda: per_call.append(len(builds) - sum(per_call)),
    )

    # one pyramid on the Approach frame, then one per LK frame: the new frame's
    builds_per_frame = [n for n in per_call if n]
    assert len(builds_per_frame) == len(received) + 1 >= 31
    assert set(builds_per_frame) == {1}
    assert max(received) < len(mon.track.alive)  # the killed points never went in
    assert [e["kind"] for f in frames for e in f[0]] == ["Approach", "Carry"]


def test_monitor_matches_reference_lk(carry_monitor_calls, monkeypatch):
    cfg, calls = carry_monitor_calls
    every_third = slice(None, None, 3)
    fast = _replay(act.ActivityMonitor(cfg), calls)
    fast_killed = _replay(act.ActivityMonitor(cfg), calls, kill=every_third)
    # the oracle works on frames, so each frame stands in for its pyramid
    monkeypatch.setattr(act, "lk_pyramid", lambda frame: frame)
    monkeypatch.setattr(
        act,
        "lk_flow",
        lambda prev_frame, frame, points: (*_reference_lk_flow(prev_frame, frame, points), frame),
    )
    assert fast == _replay(act.ActivityMonitor(cfg), calls)
    assert fast_killed == _replay(act.ActivityMonitor(cfg), calls, kill=every_third)
    assert sum(f[1] is not None for f in fast) >= 30


def test_monitor_skips_lk_without_alive_points(carry_monitor_calls, monkeypatch):
    cfg, calls = carry_monitor_calls
    lk_calls = []
    lk_flow = act.lk_flow
    monkeypatch.setattr(act, "lk_flow", lambda *a: lk_calls.append(1) or lk_flow(*a))
    frames = _replay(act.ActivityMonitor(cfg), calls, kill=slice(None))
    assert lk_calls == []
    seeded = [f for f in frames if f[1] is not None]
    assert seeded and all(not any(alive) and centroid is None for _, alive, centroid in seeded)


def test_monitor_tracks_points_from_approach_through_carry_only(
    carry_monitor_calls, monkeypatch
):
    """LK runs on every frame after Approach up to and including the Carry
    frame and on none after it; the events equal those of a monitor that
    keeps moving the points after Carry."""
    cfg, calls = carry_monitor_calls
    lk_frames = []
    lk_flow = act.lk_flow

    def spy(prev_pyramid, frame, points):
        lk_frames.append(frame.index)
        return lk_flow(prev_pyramid, frame, points)

    monkeypatch.setattr(act, "lk_flow", spy)
    events = [e for f in _replay(act.ActivityMonitor(cfg), calls) for e in f[0]]
    fired = {e["kind"]: e["frame_index"] for e in events}
    last = calls[-1][0]
    assert list(fired) == ["Approach", "Carry"] and fired["Carry"] < last
    assert lk_frames == list(range(fired["Approach"] + 1, fired["Carry"] + 1))

    lk_frames.clear()
    keeps = act.ActivityMonitor(cfg)
    kept = []
    for args in calls:
        if "Carry" in keeps.state.fired:  # the point step process skips
            keeps._track_points(args[1])
        kept += [asdict(e) for e in keeps.process(*args)]
    assert lk_frames == list(range(fired["Approach"] + 1, last + 1))
    assert kept == events


def test_box_rect_is_drawn_and_moves_after_carry(tmp_path, monkeypatch):
    from hbpt import cli

    truth = sg.write_scenario(sg.Scenario("carry_box", frames=118), tmp_path / "in")
    box = truth["box"]
    (tmp_path / "box.cfg").write_text(
        f"box.rect = {box['rect']}\nbox.ref_frame = {box['ref_frame']}\n"
    )
    drawn = {}
    annotate = cli._annotate

    def spy(frame, person, disc, model, box):
        drawn[frame.index] = None if box is None else box.tracked_rect
        return annotate(frame, person, disc, model, box)

    monkeypatch.setattr(cli, "_annotate", spy)
    out = tmp_path / "out"
    argv = ["track", "--input", str(tmp_path / "in"), "--output", str(out)]
    assert cli.main(argv + ["--config", str(tmp_path / "box.cfg"), "--overlays"]) == 0
    events = json.loads((out / "events.json").read_text())
    carry = [e["frame_index"] for e in events if e["kind"] == "Carry"]
    assert len(carry) == 1 and carry[0] + 8 <= 117
    after = [drawn[i] for i in range(carry[0] + 1, 118)]
    assert all(rect is not None for rect in after)
    assert len(set(after)) > 1  # the tracked box still moves
    for i in (carry[0] + 1, 117):
        (x, y, w, h) = drawn[i]
        rgb = iio.read_ppm(out / f"out_{i:06d}.ppm")
        assert tuple(rgb[y, x]) == tuple(rgb[y + h - 1, x + w - 1]) == (255, 60, 60)


# ---------------------------------------------------------------------------
# the recognizer settings reach the stage through the config

def _depth_ramp(calls, mm_per_px=5):
    """The calls with depth growing to the right by ``mm_per_px`` per column,
    so that hand and box, and the moves of hand and object, differ in depth."""
    out = []
    for frame_index, frame, model, depth in calls:
        ramp = np.arange(depth.shape[1], dtype=np.int32) * mm_per_px
        z = np.where(depth > 0, depth + ramp, 0).astype(np.int32)
        out.append((frame_index, frame, model, z))
    return out


@pytest.mark.parametrize(
    "line, run",
    [
        ("activity.d_xy = 5", "carry"),
        ("activity.z_gate_mm = 50", "carry"),
        ("activity.approach_frames = 12", "carry"),
        ("activity.carry_frames = 12", "carry"),
        ("activity.carry_min_disp = 6", "carry"),
        ("activity.carry_z_rate_mm = 1", "carry"),
        # the box's histogram distance jumps from ~0 to ~1 when it opens, so
        # theta_open shows in the Open event's threshold rather than its frame
        ("activity.theta_open = 0.9", "open"),
        ("activity.open_frames = 1", "open"),
    ],
)
def test_config_value_changes_what_the_stage_returns(
    line, run, carry_monitor_calls, open_monitor_calls
):
    """A non-default value set through a config file changes what
    ActivityMonitor returns on the same input."""
    def with_line(default):
        """A copy of ``default`` with the one field the line sets."""
        name = line.split("=")[0].strip().replace(".", "_")
        cfg = copy.deepcopy(default)
        setattr(cfg, name, getattr(parse_config_text(line), name))
        return cfg

    default, calls = carry_monitor_calls if run == "carry" else open_monitor_calls
    if run == "carry":
        calls = _depth_ramp(calls)
    cfg = with_line(default)
    want = _replay(act.ActivityMonitor(default), calls)
    assert len([e for f in want for e in f[0]]) == 2  # Approach, then Carry or Open
    assert _replay(act.ActivityMonitor(cfg), calls) != want
