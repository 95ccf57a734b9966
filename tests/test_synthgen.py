import json
import sys
import tracemalloc

import numpy as np
import pytest

from hbpt import imageio as iio
from hbpt import scene as sm
from hbpt import synthgen as sg
from hbpt.bodyparts import PART_LABELS
from hbpt.config import PipelineConfig, check_box
from hbpt.tracker import TorsoDisc

from conftest import connected_components
from test_bodyparts import _reference_partition_regions


def test_same_seed_is_bit_identical():
    a_frames, a_depths, a_truth = sg.generate_scenario(sg.Scenario("approach_box", frames=40, seed=5))
    b_frames, b_depths, b_truth = sg.generate_scenario(sg.Scenario("approach_box", frames=40, seed=5))
    for fa, fb in zip(a_frames, b_frames):
        assert np.array_equal(fa.rgb, fb.rgb)
        assert np.array_equal(fa.yuv, fb.yuv)
    for da, db in zip(a_depths, b_depths):
        assert np.array_equal(da, db)
    assert json.dumps(a_truth, sort_keys=True) == json.dumps(b_truth, sort_keys=True)


def test_different_seed_differs():
    a, _, _ = sg.generate_scenario(sg.Scenario("walker", frames=35, seed=1))
    b, _, _ = sg.generate_scenario(sg.Scenario("walker", frames=35, seed=2))
    assert not np.array_equal(a[0].rgb, b[0].rgb)


def test_background_scenario_feeds_scene_learning():
    frames, depths, truth = sg.generate_scenario(sg.Scenario("background", frames=35))
    assert depths is None
    assert all(not e["person_visible"] for e in truth["per_frame"])
    model = sm.learn_scene(frames[:30], var_floor=4.0)
    for f in frames[30:]:
        assert sm.detect_foreground(model, f, tau=4.0).bits.mean() < 0.01


def test_walker_path_is_scripted_piecewise_linear():
    _, _, truth = sg.generate_scenario(sg.Scenario("walker", frames=120))
    xs = [e["person_x"] for e in truth["per_frame"] if e["person_visible"]]
    deltas = {b - a for a, b in zip(xs, xs[1:])}
    assert all(abs(d) <= 3 for d in deltas)  # walk speed, shorter at reflections
    cents = [e["person_centroid"] for e in truth["per_frame"] if e["person_visible"]]
    for (x0, y0), (x1, y1), dx in zip(cents, cents[1:], np.diff(xs)):
        assert x1 - x0 == pytest.approx(dx)  # centroid rides the script exactly
        assert y1 == pytest.approx(y0)


def test_clean_silhouette_is_connected():
    for pose in ("down", "star", "reach", "reach_hidden"):
        mask = sg.render_person_mask(np.zeros((240, 320), bool), 160, 60, pose)
        assert connected_components(mask).count == 1, pose


def test_depth_values_in_sensor_range():
    _, depths, _ = sg.generate_scenario(sg.Scenario("carry_box", frames=40))
    for d in depths:
        valid = d[d > 0]
        assert valid.min() >= 500
        assert valid.max() <= 10000


def test_occlusion_script_toggles_visibility():
    _, _, truth = sg.generate_scenario(sg.Scenario("occluded_arm", frames=160))
    vis = {
        e["frame"]: e["parts"]["armR"]["visible"]
        for e in truth["per_frame"]
        if e["person_visible"]
    }
    assert vis[50] and vis[99]
    assert not vis[100] and not vis[149]
    assert vis[150]


def test_scripted_event_frames():
    for name, kinds in (
        ("approach_box", ["Approach"]),
        ("open_box", ["Approach", "Open"]),
        ("carry_box", ["Approach", "Carry"]),
        ("null_walk", []),
    ):
        _, _, truth = sg.generate_scenario(sg.Scenario(name, frames=40))
        assert [e["kind"] for e in truth["events"]] == kinds


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        sg.Scenario("warp_field")
    with pytest.raises(ValueError):
        sg.Scenario("walker", frames=1)


@pytest.mark.parametrize("name", sg.SCENARIO_NAMES)
def test_frames_and_box_fit_the_truth_size(name):
    """Every frame and depth raster has the truth's width and height, and a
    box scenario's truth box passes the pipeline's box check at that size
    and frame count."""
    frames, depths, truth = sg.generate_scenario(sg.Scenario(name, frames=sg.BOX_REF_FRAME + 1))
    shape = (truth["height"], truth["width"])
    assert all(f.rgb.shape == shape + (3,) for f in frames)
    assert depths is None or all(d.shape == shape for d in depths)
    if truth["box"] is not None:
        cfg = PipelineConfig(box_rect=truth["box"]["rect"], box_ref_frame=truth["box"]["ref_frame"])
        check_box(cfg, truth["width"], truth["height"], truth["frames"])


def test_write_scenario_layout(tmp_path):
    sg.write_scenario(sg.Scenario("open_box", frames=36, seed=9), tmp_path)
    assert (tmp_path / "truth.json").exists()
    assert len(list(tmp_path.glob("frame_*.ppm"))) == 36
    assert len(list(tmp_path.glob("depth_*.pgm"))) == 36
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert truth["box"]["rect"] == list(sg.BOX_RECT)


def test_write_scenario_converts_no_frame_to_yuv(tmp_path, monkeypatch):
    """Frames that are only written keep their YUV plane underived."""
    calls = []

    def spy(rgb, _real=iio.rgb_to_yuv_image):
        calls.append(rgb)
        return _real(rgb)

    monkeypatch.setattr(iio, "rgb_to_yuv_image", spy)
    sg.write_scenario(sg.Scenario("carry_box", frames=36, seed=9), tmp_path)
    assert calls == []
    # a decoded frame converts on first use, once
    frame = iio.read_frame(tmp_path / "frame_000035.ppm", 35)
    assert calls == []
    assert frame.yuv is frame.yuv and len(calls) == 1 and calls[0] is frame.rgb


def test_write_scenario_memory_does_not_grow_with_frame_count(tmp_path):
    """Each frame and depth raster is written as it is rendered, so the peak
    holds one frame whatever the sequence length; and a frame is drawn in
    uint8, so the peak stays below 2.5 float64 frame planes.

    Each length is written twice and the lower peak kept: a run interns a
    few strings through pathlib, whatever its length, and one run can hold
    a one-off resize of the interpreter's table of interned strings (1.8 MiB
    late in a full test session), which does not fall into both runs."""
    peaks = []
    for frames in (40, 120):
        runs = []
        for _ in range(2):
            tracemalloc.start()
            try:
                sg.write_scenario(sg.Scenario("carry_box", frames=frames, seed=2), tmp_path / f"{frames}")
                runs.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        peaks.append(min(runs))
    assert peaks[1] <= 1.1 * peaks[0], [p / 2**20 for p in peaks]
    f64_plane = sg.WIDTH * sg.HEIGHT * 3 * 8
    assert max(peaks) <= 2.5 * f64_plane, [p / f64_plane for p in peaks]


def test_write_scenario_interns_no_string_per_frame(tmp_path, monkeypatch):
    """Frame and depth file names are built as strings, so pathlib parses
    and interns no path component per frame: the count does not grow with
    the sequence length."""
    counts = []
    intern = sys.intern
    for frames in (40, 120):
        calls = []
        monkeypatch.setattr(sys, "intern", lambda s: calls.append(s) or intern(s))
        sg.write_scenario(sg.Scenario("carry_box", frames=frames, seed=2), tmp_path / f"{frames}")
        monkeypatch.setattr(sys, "intern", intern)
        counts.append(len(calls))
    assert counts[0] == counts[1], counts


def _reference_truth_for_frame(sc, f, mask, script, box):
    """Ground truth for one frame from a full-frame partition of the mask."""
    entry = {"frame": f, "person_visible": script is not None}
    if box is not None:
        entry["box_rect"] = list(box["rect"])
        entry["box_opened"] = box["opened"]
    if script is None:
        return entry
    ys, xs = np.nonzero(mask)
    cx, cy = float(xs.mean()), float(ys.mean())
    bbox = (
        int(xs.min()),
        int(ys.min()),
        int(xs.max() - xs.min() + 1),
        int(ys.max() - ys.min() + 1),
    )
    entry["person_centroid"] = [cx, cy]
    entry["person_x"] = script["ox"]
    entry["bbox"] = list(bbox)
    tr = sg._TORSO
    entry["torso_rect"] = [
        script["ox"] + tr[1],
        script["oy"] + tr[2],
        tr[3] - tr[1],
        tr[4] - tr[2],
    ]
    hand = sg._hand_tip(script)
    entry["hand"] = list(hand) if hand else None
    disc = TorsoDisc(center=(cx, cy), radius=bbox[2] / 2.0)
    partition = _reference_partition_regions(mask, disc, bbox)
    parts = {}
    for label in PART_LABELS:
        region = partition.masks[label]
        area = int(region.sum())
        if area >= 15:
            rys, rxs = np.nonzero(region)
            parts[label] = {
                "centroid": [float(rxs.mean()), float(rys.mean())],
                "area": area,
                "visible": True,
            }
        else:
            parts[label] = {"centroid": None, "area": area, "visible": False}
    entry["parts"] = parts
    return entry


def _scenario_masks(sc):
    """(frame, clean person mask, script, box) for every frame of a scenario."""
    for f in range(sc.frames):
        script = sg._person_script(sc, f)
        mask = np.zeros((sg.HEIGHT, sg.WIDTH), dtype=bool)
        if script is not None:
            sg.render_person_mask(mask, script["ox"], script["oy"], script["pose"])
        yield f, mask, script, sg._box_script(sc, f)


@pytest.mark.parametrize("name", sg.SCENARIO_NAMES)
def test_truth_matches_full_frame_reference(name):
    sc = sg.Scenario(name)
    for f, mask, script, box in _scenario_masks(sc):
        got = sg._truth_for_frame(sc, f, mask, script, box)
        want = _reference_truth_for_frame(sc, f, mask, script, box)
        assert json.dumps(got) == json.dumps(want), f


def test_generated_truth_matches_full_frame_reference():
    sc = sg.Scenario("occluded_arm", frames=110, seed=3)
    _, _, truth = sg.generate_scenario(sc)
    want = [_reference_truth_for_frame(sc, *args) for args in _scenario_masks(sc)]
    assert json.dumps(truth["per_frame"]) == json.dumps(want)


def _reference_stamp(img, prim, ox, oy, value):
    """Stamp on a canvas padded far enough that nothing leaves it, then crop."""
    pad = 200
    big = np.zeros((img.shape[0] + 2 * pad, img.shape[1] + 2 * pad) + img.shape[2:], img.dtype)
    big[pad:-pad, pad:-pad] = img
    kind = prim[0]
    if kind == "rect":
        _, x0, y0, x1, y1 = prim
        big[pad + oy + y0 : pad + oy + y1, pad + ox + x0 : pad + ox + x1] = value
    else:
        _, cx, cy, r = prim
        ys, xs = np.mgrid[-r : r + 1, -r : r + 1]
        disc = xs * xs + ys * ys <= r * r
        y0, x0 = pad + oy + cy - r, pad + ox + cx - r
        big[y0 : y0 + 2 * r + 1, x0 : x0 + 2 * r + 1][disc] = value
    img[...] = big[pad:-pad, pad:-pad]


@pytest.mark.parametrize("prim", [sg._HEAD, sg._TORSO, sg._ARM_R_EXT, ("disc", 0, 0, 1)])
def test_stamp_clips_primitives_at_every_edge(prim):
    h, w = 40, 50
    for ox in range(-50, 100, 3):
        for oy in range(-120, 50, 7):
            for shape, value in (((h, w), True), ((h, w, 3), (9, 8, 7))):
                got = np.zeros(shape, np.uint8 if len(shape) == 3 else bool)
                want = got.copy()
                sg._stamp(got, prim, ox, oy, value)
                _reference_stamp(want, prim, ox, oy, value)
                assert got.tobytes() == want.tobytes(), (ox, oy)


def test_figure_leaving_the_frame_is_rendered_clipped_and_then_invisible(monkeypatch):
    def exit_right(sc, f):
        if f < sg.LEARN_FRAMES:
            return None
        return {"ox": 250 + 10 * (f - sg.LEARN_FRAMES), "oy": 150, "pose": "star"}

    monkeypatch.setattr(sg, "_person_script", exit_right)
    sc = sg.Scenario("walker", frames=45, seed=5)
    _, _, truth = sg.generate_scenario(sc)
    visible = [e["person_visible"] for e in truth["per_frame"]]
    # ox 360 at frame 41 still shows the extended left arm (x 315-319)
    assert visible == [False] * 30 + [True] * 12 + [False] * 3
    last = truth["per_frame"][41]
    assert last["bbox"][0] == 315 and last["bbox"][0] + last["bbox"][2] == 320
    # while the legs show they are cut at the frame's bottom edge (oy + 114 > 240)
    assert all(e["bbox"][1] + e["bbox"][3] == 240 for e in truth["per_frame"][30:38])
    assert "person_centroid" not in truth["per_frame"][44]


def _reference_render_box(rgb, box):
    """Draw the whole box on a canvas padded far enough that nothing leaves it, then crop."""
    pad = 64
    big = np.zeros((rgb.shape[0] + 2 * pad, rgb.shape[1] + 2 * pad, 3), rgb.dtype)
    big[pad:-pad, pad:-pad] = rgb
    x, y, w, h = box["rect"]
    pal = (sg.BOX_OPEN_A, sg.BOX_OPEN_B) if box["opened"] else (sg.BOX_A, sg.BOX_B)
    ys, xs = np.mgrid[0:h, 0:w]
    checker = ((xs // 3) + (ys // 3)) % 2
    big[pad + y : pad + y + h, pad + x : pad + x + w] = np.where(
        checker[..., None] == 0, pal[0], pal[1]
    )
    rgb[...] = big[pad:-pad, pad:-pad]


@pytest.mark.parametrize(
    "rect",
    [(310, 112, 24, 20), (-6, 112, 24, 20), (100, -7, 24, 20), (100, 230, 24, 20),
     (-30, -25, 24, 20), (320, 50, 24, 20), (-5, 225, 331, 20)],
    ids=["right", "left", "top", "bottom", "outside-top-left", "outside-right", "wide"],
)
def test_render_box_clips_at_the_frame_edge(rect):
    for opened in (False, True):
        box = {"rect": rect, "opened": opened}
        got = np.full((240, 320, 3), 7, np.uint8)
        want = got.copy()
        sg._render_box(got, box)
        _reference_render_box(want, box)
        assert got.tobytes() == want.tobytes()


def test_depth_of_a_box_at_the_frame_edge_is_clipped(monkeypatch):
    rects = [(310, 112, 24, 20), (-6, 112, 24, 20), (100, -7, 24, 20), (100, 230, 24, 20)]
    monkeypatch.setattr(sg, "_box_script", lambda sc, f: {"rect": rects[f % 4], "opened": False})
    sc = sg.Scenario("carry_box", frames=8, seed=2)
    _, depths, _ = sg.generate_scenario(sc)
    for f, d in enumerate(depths[:4]):  # no figure in the learning frames
        want = np.full((240, 320), sg.BG_DEPTH_MM, np.int32)
        x, y, w, h = rects[f]
        want[max(y, 0) : y + h, max(x, 0) : x + w] = sg.BOX_DEPTH_MM
        assert np.array_equal(d, want), rects[f]
