import copy

import numpy as np
import pytest

from hbpt import maskops as mo
from hbpt import scene as sm
from hbpt import synthgen as sg
from hbpt import tracker as tr

from conftest import frame_from_rgb, person_component
from test_maskops import flood_fill_oracle


def _square_person_frame(size=31, left=40, top=30, w=120, h=90):
    """Flat scene with a uniformly colored square target; centroid = center."""
    rgb = np.full((h, w, 3), (120, 130, 115), np.uint8)
    rgb[top : top + size, left : left + size] = sg.SHIRT
    frame = frame_from_rgb(rgb)
    fg = np.zeros((h, w), bool)
    fg[top : top + size, left : left + size] = True
    return frame, fg


# ---------------------------------------------------------------------------
# histograms and backprojection

def test_color_hist_uniform_rect_single_bin():
    frame, _ = _square_person_frame()
    hist = tr.color_hist16(frame, (40, 30, 31, 31))
    assert np.count_nonzero(hist) == 1
    assert hist.sum() == pytest.approx(1.0, abs=1e-12)


def test_back_project_uniform_hist_constant():
    frame, _ = _square_person_frame()
    weights = tr.back_project(frame, np.full(16, 1.0 / 16))
    assert (weights == 1.0 / 16).all()


def test_back_project_single_bin_indicator():
    frame, fg = _square_person_frame()
    hist = np.zeros(16)
    plane = frame.uv_bins
    target_bin = plane[40, 50]  # inside the square
    hist[target_bin] = 1.0
    weights = tr.back_project(frame, hist)
    assert ((weights == 1.0) == (plane == target_bin)).all()


def test_back_project_rejects_unnormalized():
    frame, _ = _square_person_frame()
    with pytest.raises(ValueError):
        tr.back_project(frame, np.full(16, 0.2))


def test_back_project_separates_patch_from_scene():
    frames, _, _ = sg.generate_scenario(sg.Scenario("walker", frames=35))
    frame = frames[32]
    truth_mask = None
    # histogram from the person bbox via foreground detection
    model = sm.learn_scene(frames[:30], var_floor=4.0)
    fg = sm.detect_foreground(model, frame, tau=4.0)
    refined, _, _ = mo.refine_mask(fg.bits, 300, (3, 3), 1)
    hist = tr.hist16_of_bins(frame.uv_bins[refined])
    weights = tr.back_project(frame, hist)
    inside = weights[refined].mean()
    outside = weights[~refined].mean()
    assert inside >= 5 * outside


# ---------------------------------------------------------------------------
# detection

def test_detect_person_no_components():
    frame, _ = _square_person_frame()
    assert tr.detect_person(*person_component(np.zeros((10, 10), bool)), frame, 50) is None


def test_detect_person_too_small():
    m = np.zeros((10, 10), bool)
    m[2:4, 2:4] = True
    frame = frame_from_rgb(np.zeros((10, 10, 3), np.uint8))
    assert tr.detect_person(*person_component(m), frame, 50) is None


def test_detect_person_centroid_matches_flood_fill_oracle():
    frames, _, _ = sg.generate_scenario(sg.Scenario("walker", frames=33))
    frame = frames[32]
    model = sm.learn_scene(frames[:30], var_floor=4.0)
    fg = sm.detect_foreground(model, frame, tau=4.0).bits
    refined, component, silhouette = mo.refine_mask(fg, 300, (3, 3), 1)
    person = tr.detect_person(component, silhouette, frame, 700)
    assert person is not None
    labels, count = flood_fill_oracle(refined[::1, ::1])
    areas = [(labels == i + 1).sum() for i in range(count)]
    big = int(np.argmax(areas)) + 1
    ys, xs = np.nonzero(labels == big)
    assert person.centroid == (pytest.approx(xs.mean()), pytest.approx(ys.mean()))
    assert person.ref_hist.sum() == pytest.approx(1.0, abs=1e-12)
    assert person.confidence == 1.0


# ---------------------------------------------------------------------------
# mean shift

def test_mean_shift_symmetric_bump_fixed_point():
    w = np.zeros((40, 40))
    w[18:23, 18:23] = 1.0
    win, iters, converged = tr.mean_shift(w, (15, 15, 11, 11))
    assert converged and iters == 1
    assert win == (15, 15, 11, 11)


def test_mean_shift_finds_offset_gaussian_peak():
    ys, xs = np.mgrid[0:60, 0:60]
    rng = np.random.default_rng(0)
    for _ in range(10):
        px, py = rng.uniform(20, 40, 2)
        w = np.exp(-((xs - px) ** 2 + (ys - py) ** 2) / (2 * 4.0**2))
        x0, y0 = int(px - 7) - 5, int(py - 7) + 5  # offset ~5 px
        win, _, converged = tr.mean_shift(w, (x0, y0, 15, 15))
        assert converged
        # exhaustive windowed-sum maximization oracle
        best = max(
            ((x, y) for x in range(45) for y in range(45)),
            key=lambda p: w[p[1] : p[1] + 15, p[0] : p[0] + 15].sum(),
        )
        assert abs(win[0] - best[0]) <= 1 and abs(win[1] - best[1]) <= 1


def test_mean_shift_all_zero_weights():
    w = np.zeros((30, 30))
    win, iters, converged = tr.mean_shift(w, (5, 5, 8, 8))
    assert win == (5, 5, 8, 8)
    assert not converged and iters == 0


def test_mean_shift_weight_sum_non_decreasing():
    rng = np.random.default_rng(1)
    for _ in range(200):
        w = rng.random((30, 30)) ** 3
        x0, y0 = rng.integers(0, 20, 2)
        trace = []
        tr.mean_shift(w, (int(x0), int(y0), 9, 9), trace=trace)
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))


# ---------------------------------------------------------------------------
# mean shift from the last window, fusion and coasting

def test_mspf_static_noiseless_fixed_point():
    frame, fg = _square_person_frame()
    component, silhouette = person_component(fg)
    person = tr.detect_person(component, silhouette, frame, 100)
    out = tr.mspf_track(person, frame, fg, component)
    assert out.bbox == person.bbox
    assert out.centroid == person.centroid
    assert out.confidence == pytest.approx(1.0)
    assert out.velocity == (0.0, 0.0)


def test_mspf_deterministic_with_seed():
    """Two runs over the same seeded scenario track the same persons."""
    frames, _, _ = sg.generate_scenario(sg.Scenario("walker", frames=45, seed=11))
    model = sm.learn_scene(frames[:30], var_floor=4.0)

    def run():
        person = None
        outs = []
        for f in frames[30:]:
            fg = sm.detect_foreground(model, f, tau=4.0).bits
            refined, component, silhouette = mo.refine_mask(fg, 300, (3, 3), 1)
            if person is None:
                person = tr.detect_person(component, silhouette, f, 700)
            else:
                person = tr.mspf_track(person, f, refined, component)
            outs.append((person.bbox, person.centroid, person.confidence))
        return outs

    assert run() == run()


def test_mspf_coasting_on_empty_foreground():
    frame, fg = _square_person_frame()
    person = tr.detect_person(*person_component(fg), frame, 100)
    person.velocity = (2.0, -1.0)
    person.confidence = 1.0
    empty = np.zeros_like(fg)
    cur = person
    for k in range(1, 6):
        cur = tr.mspf_track(cur, frame, empty, None)
        assert cur.velocity == (2.0, -1.0)
        assert cur.centroid == (person.centroid[0] + 2.0 * k, person.centroid[1] - 1.0 * k)
        assert cur.confidence == pytest.approx(0.8**k)


def test_torso_disc_from_person():
    person = tr.PersonBlob(
        bbox=(80, 40, 40, 120), centroid=(100.0, 100.0), area=100, ref_hist=np.full(16, 1 / 16)
    )
    disc = tr.torso_from_person(person)
    assert disc.center == (100.0, 100.0)
    assert disc.radius == 20.0


def test_torso_disc_horizontally_inside_bbox():
    rng = np.random.default_rng(2)
    for _ in range(30):
        x, y = rng.integers(0, 50, 2)
        w, h = rng.integers(10, 60, 2)
        cx = x + rng.uniform(0.3, 0.7) * w
        person = tr.PersonBlob(
            bbox=(int(x), int(y), int(w), int(h)),
            centroid=(float(cx), float(y + h / 2)),
            area=10,
            ref_hist=np.full(16, 1 / 16),
        )
        disc = tr.torso_from_person(person)
        assert disc.center[0] - disc.radius >= x - w / 2
        assert disc.center[0] + disc.radius <= x + 1.5 * w


# ---------------------------------------------------------------------------
# the uint8 bin plane and the gathered backprojection against the int64 plane
# and np.where they replace

def _reference_uv_bin_plane(frame):
    u = frame.yuv[:, :, 1] >> 6
    v = frame.yuv[:, :, 2] >> 6
    return (u.astype(np.intp) << 2) | v.astype(np.intp)


def test_uv_bin_plane_is_uint8_and_matches_int64_reference():
    # every (U, V) pair once, then random frames
    u, v = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    yuv = np.stack([np.zeros_like(u), u, v], axis=-1).astype(np.uint8)
    frame = frame_from_rgb(np.zeros((256, 256, 3), np.uint8))
    frame.yuv = yuv
    rng = np.random.default_rng(5)
    frames = [frame] + [
        frame_from_rgb(rng.integers(0, 256, size=shape).astype(np.uint8))
        for shape in ((1, 1, 3), (7, 3, 3), (240, 320, 3))
    ]
    for f in frames:
        plane = f.uv_bins
        assert plane.dtype == np.uint8
        assert np.array_equal(plane, _reference_uv_bin_plane(f))
    assert set(np.unique(frame.uv_bins)) == set(range(16))


def test_uv_bin_plane_is_cached_on_the_frame():
    frame, _ = _square_person_frame()
    plane = frame.uv_bins
    assert frame.uv_bins is plane
    assert not plane.flags.writeable
    hist = tr.color_hist16(frame, (40, 30, 31, 31))
    weights = tr.back_project(frame, hist)
    assert weights.dtype == np.float64
    assert weights.tobytes() == hist[_reference_uv_bin_plane(frame)].tobytes()
    assert frame.uv_bins is plane


def _walker_steps(frames=60):
    """(prev, frame, fg, component) for each tracked walker frame."""
    frames, _, _ = sg.generate_scenario(sg.Scenario("walker", frames=frames, seed=4))
    model = sm.learn_scene(frames[:30], var_floor=4.0)
    person = None
    for f in frames[30:]:
        fg = sm.detect_foreground(model, f, tau=4.0).bits
        refined, component, silhouette = mo.refine_mask(fg, 300, (3, 3), 1)
        if person is None:
            person = tr.detect_person(component, silhouette, f, 700)
            continue
        yield person, f, refined, component
        person = tr.mspf_track(person, f, refined, component)


def _reference_window(prev):
    """``prev``'s bbox size, at least 2 px, centred on its centroid with
    np.rint (half to even)."""
    w, h = max(2, prev.bbox[2]), max(2, prev.bbox[3])
    x = int(np.rint(prev.centroid[0] - (w - 1) / 2.0))
    y = int(np.rint(prev.centroid[1] - (h - 1) / 2.0))
    return (x, y, w, h)


def test_mspf_track_matches_int64_where_reference(monkeypatch):
    """Mean shift starts from the last window, and backprojection and blob
    equal those of the int64 plane and the full-frame np.where."""
    seen = []
    mean_shift = tr.mean_shift

    def spy(weights, window, *args, **kwargs):
        seen.append((weights, window))
        return mean_shift(weights, window, *args, **kwargs)

    monkeypatch.setattr(tr, "mean_shift", spy)
    compared = 0
    for prev, frame, fg, component in _walker_steps():
        seen.clear()
        out = tr.mspf_track(prev, frame, fg, component)
        ((wimg, window),) = seen
        assert window == _reference_window(prev)
        want = np.where(fg, prev.ref_hist[_reference_uv_bin_plane(frame)], 0.0)
        assert wimg.dtype == np.float64 and wimg.tobytes() == want.tobytes()
        ref_frame = copy.copy(frame)
        ref_frame.uv_bins = _reference_uv_bin_plane(frame)
        ref_out = tr.mspf_track(prev, ref_frame, fg, component)
        for key in ("bbox", "centroid", "area", "confidence", "velocity"):
            assert getattr(out, key) == getattr(ref_out, key)
        compared += 1
    assert compared >= 20


def test_last_window_rounds_half_to_even_and_mean_shift_clips_it():
    rng = np.random.default_rng(29)
    for k in range(5000):
        w, h = (int(v) for v in rng.integers(0, 400, 2))
        cx, cy = rng.uniform(-20, 340), rng.uniform(-20, 260)
        if k % 3 == 0:  # exact .5 corners, where rounding ties
            cx = np.floor(cx) + 0.5 + (max(2, w) - 1) / 2.0 % 1.0
            cy = np.floor(cy) + 0.5 + (max(2, h) - 1) / 2.0 % 1.0
        prev = tr.PersonBlob(bbox=(0, 0, w, h), centroid=(float(cx), float(cy)), area=1,
                             ref_hist=np.full(16, 1 / 16))
        window = tr._last_window(prev)
        assert window == _reference_window(prev), (w, h, cx, cy)
        # an all-zero weight image leaves mean shift's clipped start window
        got, _, _ = tr.mean_shift(np.zeros((240, 320)), window)
        assert got == tr._clip_rect(window, 320, 240)


def test_coasting_out_of_the_frame_ends_the_track():
    frame, fg = _square_person_frame()
    empty = np.zeros_like(fg)
    for velocity, inside in (((9.0, 0.0), True), ((10.5, 0.0), False), ((0.0, -51.0), False)):
        prev = tr.PersonBlob(
            bbox=(100, 30, 20, 40), centroid=(110.0, 50.0), area=800,
            ref_hist=np.full(16, 1 / 16), velocity=velocity,
        )
        person = tr.mspf_track(prev, frame, empty, None)
        if inside:
            assert person.centroid == (119.0, 50.0)
        else:
            assert person is None
