import math

import numpy as np
import pytest

from hbpt import baseline as bl
from hbpt import maskops as mo
from hbpt import synthgen as sg
from hbpt.synthgen import render_person_mask


def rect_mask(w, h, left=10, top=5, shape=(80, 60)):
    m = np.zeros(shape, bool)
    m[top : top + h, left : left + w] = True
    return m


def outer_contour(mask):
    return mo.extract_contours(mask)[0]


# ---------------------------------------------------------------------------
# geometry and projections

def test_upright_rectangle_axis_and_projection():
    m = rect_mask(20, 60)
    centroid, axis, hist = bl.silhouette_geometry(m)
    assert centroid == (pytest.approx(19.5), pytest.approx(34.5))
    assert abs(axis[0]) < 1e-9 and axis[1] == pytest.approx(1.0)
    # rows all hold 20 pixels; the resampled band is constant at 20
    occupied = hist.horizontal[hist.horizontal > 0]
    assert (occupied == 20).all()
    assert (hist.horizontal[20:80] == 20).all()


def test_symmetric_mask_projection_symmetric():
    # 100 px wide so the rescale to length 100 is exact
    m = np.zeros((140, 100), bool)
    m[10:120, 30:70] = True
    m[40:70, 0:100] = True  # symmetric cross, taller than wide
    _, _, hist = bl.silhouette_geometry(m)
    v = hist.vertical
    nz = np.nonzero(v)[0]
    lo, hi = nz.min(), nz.max()
    assert lo + hi == pytest.approx(2 * hist.median_index, abs=1)
    band = v[lo : hi + 1]
    assert np.array_equal(band, band[::-1])


def test_unscaled_projection_sums_to_area():
    rng = np.random.default_rng(0)
    for _ in range(25):
        m = rng.random((30, 30)) < rng.uniform(0.2, 0.6)
        if not m.any():
            continue
        _, _, hist = bl.silhouette_geometry(m)
        assert hist.horizontal_native.sum() == m.sum()
        assert hist.vertical_native.sum() == m.sum()


def rotation_projection_oracle(mask, centroid, axis, length=100):
    """Rotate pixel coordinates explicitly, then bin and rescale the same way."""
    ys, xs = np.nonzero(mask)
    theta = math.atan2(axis[1], axis[0])
    rot = np.array(
        [[math.cos(-theta), -math.sin(-theta)], [math.sin(-theta), math.cos(-theta)]]
    )
    rel = np.stack([xs - centroid[0], ys - centroid[1]])
    uv = rot @ rel  # row 0 along the axis, row 1 along (-sin, cos)
    out = []
    for coords in (uv[0], uv[1]):
        hist, native = bl._project(coords, length)
        out.append((hist, native))
    return out


def test_projections_match_rotation_oracle():
    rng = np.random.default_rng(1)
    done = 0
    while done < 100:
        m = rng.random((24, 28)) < rng.uniform(0.2, 0.6)
        if m.sum() < 3:
            continue
        centroid, axis, hist = bl.silhouette_geometry(m)
        (h_ref, h_nat), (v_ref, v_nat) = rotation_projection_oracle(m, centroid, axis)
        assert np.array_equal(hist.horizontal, h_ref)
        assert np.array_equal(hist.vertical, v_ref)
        assert np.array_equal(hist.horizontal_native, h_nat)
        assert np.array_equal(hist.vertical_native, v_nat)
        done += 1


def test_empty_mask_rejected():
    with pytest.raises(ValueError, match="empty"):
        bl.silhouette_geometry(np.zeros((5, 5), bool))


def test_geometry_of_crop_equals_full_frame():
    rng = np.random.default_rng(4)
    masks = [render_person_mask(np.zeros((240, 320), bool), 160, 60, pose)
             for pose in ("star", "reach", "reach_hidden", "down")]
    for _ in range(60):
        m = np.zeros((240, 320), bool)
        y, x = rng.integers(0, 200), rng.integers(0, 270)
        m[y : y + 37, x : x + 45] = rng.random((37, 45)) < rng.uniform(0.2, 0.7)
        masks.append(m)
    shifted_after_mean = 0
    for m in masks:
        ys, xs = np.nonzero(m)
        x0, y0 = int(xs.min()), int(ys.min())
        crop = m[y0 : ys.max() + 1, x0 : xs.max() + 1]
        centroid, axis, hist = bl.silhouette_geometry(m)
        c_centroid, c_axis, c_hist = bl.silhouette_geometry(crop, (x0, y0))
        assert c_centroid == centroid and c_axis == axis
        for field in ("vertical", "horizontal", "vertical_native", "horizontal_native"):
            assert np.array_equal(getattr(c_hist, field), getattr(hist, field)), field
        cys, cxs = np.nonzero(crop)
        shifted_after_mean += (float(cxs.mean()) + x0, float(cys.mean()) + y0) != centroid
    assert shifted_after_mean  # adding the origin after the mean would show


# ---------------------------------------------------------------------------
# hull vertices

def test_convex_contour_has_no_concave_vertices():
    m = rect_mask(20, 14)
    vs = bl.hull_vertices(outer_contour(m))
    assert vs.concave == []
    assert len(vs.convex) == 4


def star_mask(cx=40, cy=40, r_out=30, r_in=11, tips=5, shape=(80, 80)):
    ys, xs = np.mgrid[0 : shape[0], 0 : shape[1]]
    ang = np.arctan2(ys - cy, xs - cx)
    rad = np.hypot(xs - cx, ys - cy)
    # radius threshold oscillates between r_in and r_out
    period = (ang + np.pi) * tips / (2 * np.pi)
    frac = np.abs(period - np.round(period)) * 2  # 0 at tip angle, 1 at notch
    limit = r_out - (r_out - r_in) * frac
    return rad <= limit


def test_star_has_five_tips_and_notches():
    m = star_mask()
    vs = bl.hull_vertices(outer_contour(m), d_min=3.0)
    hull_pts = np.array(vs.convex, float)
    # tips sit at 36 + 72k degrees; cluster hull vertices accordingly
    ang = np.degrees(np.arctan2(hull_pts[:, 1] - 40, hull_pts[:, 0] - 40)) % 360
    clusters = set(np.floor(((ang - 36 + 36) % 360) / 72.0).astype(int))
    assert len(clusters) == 5
    assert len(vs.concave) == 5
    notch_r = [math.hypot(x - 40, y - 40) for x, y in vs.concave]
    assert max(notch_r) < 22  # notches sit well inside the tips


def test_rasterized_circle_has_no_concave_vertices():
    ys, xs = np.mgrid[0:60, 0:60]
    m = (xs - 30) ** 2 + (ys - 30) ** 2 <= 22**2
    vs = bl.hull_vertices(outer_contour(m), d_min=3.0)
    assert vs.concave == []


def hull_contains(hull, p):
    """True when p is inside or on a counter-clockwise hull of 3+ vertices."""
    return all(
        (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) >= 0
        for a, b in zip(hull, hull[1:] + hull[:1])
    )


def test_concave_vertices_strictly_inside_hull():
    m = star_mask()
    contour = outer_contour(m)
    vs = bl.hull_vertices(contour)
    hull = mo.convex_hull(contour.points)
    assert len(hull) >= 3 and vs.concave
    for p in vs.concave:
        assert hull_contains(hull, p)
        assert p not in hull


def test_degenerate_contour_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        bl.hull_vertices([(0, 0), (1, 1)])


# ---------------------------------------------------------------------------
# part labeling

def starfish_setup():
    mask = render_person_mask(np.zeros((240, 320), bool), 160, 60, "star")
    contour = outer_contour(mask)
    centroid, _, _ = bl.silhouette_geometry(mask)
    vertices = bl.hull_vertices(contour)
    return mask, centroid, vertices


def test_starfish_labels():
    mask, centroid, vertices = starfish_setup()
    labels = bl.label_parts_by_distance(vertices, centroid, mask)
    assert labels.head is not None and labels.head[1] <= 62  # top of the head disc
    assert abs(labels.head[0] - 160) <= 8
    assert len(labels.feet) == 2
    assert all(y >= 165 for _, y in labels.feet)
    xs = sorted(x for x, _ in labels.feet)
    assert xs[0] < 160 < xs[1]
    assert len(labels.hands) == 2
    hand_xs = sorted(x for x, _ in labels.hands)
    assert hand_xs[0] <= 120 and hand_xs[1] >= 200
    assert labels.torso == centroid


def test_upright_rectangle_tiebreak_and_no_hands():
    mask = rect_mask(20, 60, left=20, top=10)
    contour = outer_contour(mask)
    centroid, _, _ = bl.silhouette_geometry(mask)
    labels = bl.label_parts_by_distance(bl.hull_vertices(contour), centroid, mask)
    assert labels.head == (20, 10)  # top-left vertex by tie-break
    assert labels.hands == []


def test_labels_lie_on_contour():
    mask, centroid, vertices = starfish_setup()
    contour_pts = set(outer_contour(mask).points)
    labels = bl.label_parts_by_distance(vertices, centroid, mask)
    for p in [labels.head, *labels.feet, *labels.hands]:
        assert tuple(p) in contour_pts


def test_walker_head_tracking_accuracy():
    hits = 0
    frames = range(30, 90)
    for f in frames:
        ox = sg._ping_pong(40, 40, 230, 3, f - 30)
        mask = render_person_mask(np.zeros((240, 320), bool), ox, 100, "down")
        contour = outer_contour(mask)
        centroid, _, _ = bl.silhouette_geometry(mask)
        labels = bl.label_parts_by_distance(bl.hull_vertices(contour), centroid, mask)
        if labels.head is not None:
            if math.hypot(labels.head[0] - ox, labels.head[1] - 100) <= 10:
                hits += 1
    assert hits / len(frames) >= 0.9
