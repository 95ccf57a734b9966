import numpy as np
import pytest

from hbpt import maskops as mo
from hbpt import scene as sm
from hbpt import synthgen as sg

from conftest import (
    connected_components,
    fill_holes,
    largest_index,
    nesting_masks,
    person_component,
)


# ---------------------------------------------------------------------------
# oracles

def window_filter_oracle(mask, op, se=(3, 3)):
    """Brute-force per-pixel max/min filter over the in-frame window."""
    h, w = mask.shape
    ry, rx = se[0] // 2, se[1] // 2
    out = np.zeros_like(mask, dtype=bool)
    for y in range(h):
        for x in range(w):
            vals = []
            for dy in range(-ry, ry + 1):
                for dx in range(-rx, rx + 1):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w:
                        vals.append(mask[yy, xx])
            out[y, x] = any(vals) if op == "dilate" else all(vals)
    return out


def flood_fill_oracle(mask, connectivity=8):
    """Label components by BFS flood fill."""
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=int)
    if connectivity == 8:
        neigh = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    else:
        neigh = [(-1, 0), (0, -1), (0, 1), (1, 0)]
    next_label = 0
    for y in range(h):
        for x in range(w):
            if mask[y, x] and labels[y, x] == 0:
                next_label += 1
                stack = [(y, x)]
                labels[y, x] = next_label
                while stack:
                    cy, cx = stack.pop()
                    for dy, dx in neigh:
                        ny, nx = cy + dy, cx + dx
                        if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and labels[ny, nx] == 0:
                            labels[ny, nx] = next_label
                            stack.append((ny, nx))
    return labels, next_label


def extreme_edge_hull_oracle(points):
    """O(n^3) hull: an ordered pair (a, b) is an edge when every other point
    is strictly left of it or collinear strictly between a and b."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) == 1:
        return [pts[0]]

    def cross(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def between(a, b, c):
        return (
            min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
            and c != a
            and c != b
        )

    edges = {}
    for a in pts:
        for b in pts:
            if a == b:
                continue
            ok = True
            for c in pts:
                if c in (a, b):
                    continue
                cr = cross(a, b, c)
                if cr < 0 or (cr == 0 and not between(a, b, c)):
                    ok = False
                    break
            if ok:
                edges[a] = b
    if not edges:
        return []
    start = min(pts, key=lambda p: (p[1], p[0]))
    hull = [start]
    cur = edges[start]
    while cur != start:
        hull.append(cur)
        cur = edges[cur]
    return hull


def canonical_labels(labels):
    """Relabel components in scan order of their first pixel."""
    out = np.zeros_like(labels)
    mapping = {}
    for y in range(labels.shape[0]):
        for x in range(labels.shape[1]):
            v = labels[y, x]
            if v:
                if v not in mapping:
                    mapping[v] = len(mapping) + 1
                out[y, x] = mapping[v]
    return out


# ---------------------------------------------------------------------------
# morphology

def test_dilate_empty_is_empty():
    assert not mo.morph(np.zeros((8, 8), bool), "dilate", (3, 3), 1).any()


def test_dilate_single_pixel_makes_block():
    m = np.zeros((7, 7), bool)
    m[3, 3] = True
    d = mo.morph(m, "dilate", (3, 3), 1)
    assert d.sum() == 9 and d[2:5, 2:5].all()


def test_morph_matches_window_filter_oracle():
    rng = np.random.default_rng(0)
    for trial in range(6):
        m = rng.random((64, 64)) < rng.uniform(0.2, 0.7)
        for op in ("dilate", "erode"):
            assert np.array_equal(mo.morph(m, op, (3, 3), 1), window_filter_oracle(m, op)), (trial, op)


def test_morph_rectangular_se_and_iterations():
    rng = np.random.default_rng(1)
    m = rng.random((20, 20)) < 0.5
    two = mo.morph(m, "dilate", (3, 5), 2)
    step = mo.morph(mo.morph(m, "dilate", (3, 5), 1), "dilate", (3, 5), 1)
    assert np.array_equal(two, step)
    assert np.array_equal(
        mo.morph(m, "erode", (1, 5), 1), window_filter_oracle(m, "erode", (1, 5))
    )


def test_morph_rejects_bad_args():
    m = np.zeros((4, 4), bool)
    with pytest.raises(ValueError):
        mo.morph(m, "open", (3, 3), 1)


def test_closing_properties():
    rng = np.random.default_rng(2)

    def close(m):
        return mo.morph(mo.morph(m, "dilate", (3, 3), 1), "erode", (3, 3), 1)

    for _ in range(40):
        m = rng.random((24, 24)) < rng.uniform(0.2, 0.6)
        c = close(m)
        assert (m <= c).all()  # extensive
        assert np.array_equal(close(c), c)  # idempotent
        sub = m & (rng.random((24, 24)) < 0.8)
        assert (close(sub) <= c).all()  # increasing


# ---------------------------------------------------------------------------
# the component oracle (conftest.connected_components), and the choice of the
# person component

def test_components_empty_and_single():
    empty = connected_components(np.zeros((5, 5), bool))
    assert empty.count == 0 and not empty.stats
    single = np.zeros((5, 5), bool)
    single[2, 3] = True
    got = connected_components(single)
    assert got.count == 1
    assert got.stats[0].area == 1
    assert got.stats[0].centroid == (3.0, 2.0)
    assert got.stats[0].bbox == (3, 2, 1, 1)


def test_components_match_flood_fill_oracle():
    rng = np.random.default_rng(3)
    for _ in range(120):
        m = rng.random((14, 18)) < rng.uniform(0.2, 0.7)
        got = connected_components(m)
        oracle_labels, oracle_count = flood_fill_oracle(m)
        assert got.count == oracle_count
        assert np.array_equal(canonical_labels(got.labels), canonical_labels(oracle_labels))


def test_component_stats_consistent_with_raster():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = rng.random((16, 16)) < 0.45
        got = connected_components(m)
        for i, s in enumerate(got.stats):
            ys, xs = np.nonzero(got.labels == i + 1)
            assert s.area == xs.size
            assert s.bbox == (xs.min(), ys.min(), xs.max() - xs.min() + 1, ys.max() - ys.min() + 1)
            assert s.centroid == (xs.mean(), ys.mean())


def test_largest_component_first_on_ties():
    assert largest_index(connected_components(np.zeros((5, 5), bool))) is None
    m = np.zeros((8, 12), bool)
    m[0:2, 9:11] = True  # area 4, label 1 (first in scan order)
    m[5:7, 0:2] = True  # area 4, label 3
    m[3, 4:7] = True  # area 3, label 2
    comps = connected_components(m)
    assert [s.area for s in comps.stats] == [4, 3, 4]
    assert largest_index(comps) == 0
    # refinement with a 1x1 element keeps these components as they are
    assert mo.refine_mask(m, 1, (1, 1), 1)[1] == comps.stats[0]
    m[7, 0] = True  # the last component grows to 5
    comps = connected_components(m)
    assert largest_index(comps) == 2
    assert mo.refine_mask(m, 1, (1, 1), 1)[1] == comps.stats[2]


# ---------------------------------------------------------------------------
# convex hull

def test_hull_triangle_ccw():
    hull = mo.convex_hull([(0, 0), (2, 0), (1, 1)])
    assert hull == [(0, 0), (2, 0), (1, 1)]


def test_hull_collinear_returns_extremes():
    hull = mo.convex_hull([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)])
    assert hull == [(0, 0), (4, 0)]


def test_hull_single_and_empty():
    assert mo.convex_hull([(5, 7)]) == [(5, 7)]
    with pytest.raises(ValueError):
        mo.convex_hull([])


def test_hull_matches_extreme_edge_oracle():
    rng = np.random.default_rng(8)
    for trial in range(200):
        n = rng.integers(1, 51)
        pts = [tuple(p) for p in rng.integers(0, 30, size=(n, 2))]
        got = mo.convex_hull(pts)
        expect = extreme_edge_hull_oracle(pts)
        assert got == expect, (trial, pts)


def test_hull_starts_at_lowest_then_leftmost():
    rng = np.random.default_rng(10)
    for _ in range(30):
        pts = [tuple(p) for p in rng.integers(0, 25, size=(20, 2))]
        hull = mo.convex_hull(pts)
        assert hull[0] == min(hull, key=lambda p: (p[1], p[0]))


# ---------------------------------------------------------------------------
# refinement

def test_refine_empty_mask():
    refined, stats, silhouette = mo.refine_mask(np.zeros((10, 10), bool), 1, (3, 3), 1)
    assert not refined.any() and stats is None and silhouette is None


def test_refine_bridges_two_px_gap():
    m = np.zeros((20, 30), bool)
    m[5:15, 5:12] = True
    m[5:15, 14:20] = True  # 2 px gap
    refined, _, _ = mo.refine_mask(m, 10, (3, 3), 1)
    assert connected_components(refined).count == 1


def test_refine_fragmented_silhouette():
    rng = np.random.default_rng(11)
    clean = np.zeros((120, 90), bool)
    clean[10:30, 38:52] = True  # head-ish
    clean[30:80, 25:65] = True  # body
    clean[80:110, 30:42] = True
    clean[80:110, 48:60] = True
    frag = clean & (rng.random(clean.shape) > 0.25)  # speckle dropout
    refined, _, _ = mo.refine_mask(frag, 40, (3, 3), 1)
    assert connected_components(refined).count == 1
    inter = (refined & clean).sum()
    union = (refined | clean).sum()
    assert inter / union >= 0.9


def test_refine_never_increases_components():
    rng = np.random.default_rng(12)
    for _ in range(30):
        m = rng.random((24, 24)) < rng.uniform(0.15, 0.5)
        before = connected_components(m).count
        after = connected_components(mo.refine_mask(m, 1, (3, 3), 1)[0]).count
        assert after <= before


def test_refine_fills_holes_and_filters_small():
    m = np.zeros((30, 30), bool)
    m[4:20, 4:20] = True
    m[8:12, 8:12] = False  # hole
    m[25, 25] = True  # speck below min_area
    refined, _, _ = mo.refine_mask(m, 50, (3, 3), 1)
    assert refined[9, 9]
    assert not refined[23:29, 23:29].any()


# ---------------------------------------------------------------------------
# the bounding-box-cropped refinement and its person component against the
# full-frame code they replace

def _reference_refine_mask(mask, min_area, se, iterations):
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return np.zeros_like(mask)
    m = mo.morph(mask, "dilate", se, iterations)
    m = mo.morph(m, "erode", se, iterations)
    m = mo.morph(m, "dilate", se, iterations)
    comps = connected_components(m)
    out = np.zeros_like(mask)
    for i in range(comps.count):
        x, y, w, h = comps.stats[i].bbox
        sub = fill_holes(comps.labels[y : y + h, x : x + w] == i + 1)
        if int(sub.sum()) >= min_area:
            out[y : y + h, x : x + w] |= sub
    return out


def _edge_masks(rng):
    """Empty, full and random masks, among them blobs touching each frame edge
    and specks one pixel in from it."""
    yield np.zeros((30, 40), bool)
    yield np.ones((30, 40), bool)
    yield np.ones((1, 1), bool)
    for _ in range(40):
        h, w = (int(v) for v in rng.integers(6, 48, 2))
        m = rng.random((h, w)) < rng.choice([0.03, 0.2, 0.5, 0.85])
        yield m
        for edge in range(4):
            blob = np.zeros((h, w), bool)
            y, x = int(rng.integers(0, h)), int(rng.integers(0, w))
            blob[max(y - 3, 0) : y + 4, max(x - 4, 0) : x + 5] = True
            if edge == 0:
                blob[0, x] = True
            elif edge == 1:
                blob[h - 1, x] = True
            elif edge == 2:
                blob[y, 0] = True
            else:
                blob[y, w - 1] = True
            speck = rng.random((h, w)) < 0.02
            yield blob | speck


def _same_person(stats, silhouette, refined):
    """``refine_mask``'s person component is the oracle's largest component
    of the refined mask: the same stats, to the last bit of the centroid, and
    the same pixels in a frame-sized bool mask."""
    want_stats, want_silhouette = person_component(refined)
    if want_stats is None:
        assert stats is None and silhouette is None
        return
    assert (stats.area, stats.bbox, stats.centroid) == (
        want_stats.area, want_stats.bbox, want_stats.centroid
    )
    assert all(type(v) is int for v in (stats.area, *stats.bbox))
    assert all(type(v) is float for v in stats.centroid)
    assert silhouette.dtype == bool and silhouette.shape == refined.shape
    assert silhouette.tobytes() == want_silhouette.tobytes()


@pytest.mark.parametrize("iterations", [1, 2])
@pytest.mark.parametrize("se", [1, 3, 5])
def test_refine_mask_matches_full_frame_reference(se, iterations):
    rng = np.random.default_rng(22 + se + iterations)
    for m in _edge_masks(rng):
        min_area = int(rng.integers(1, 30))
        # the second area is 0.5% of the frame, mask.min_area_frac's default
        for area in (min_area, int(round(0.005 * m.size))):
            got, stats, silhouette = mo.refine_mask(m, area, (se, se), iterations)
            want = _reference_refine_mask(m, area, (se, se), iterations)
            assert got.tobytes() == want.tobytes()
            _same_person(stats, silhouette, got)


def test_cropped_mask_ops_match_reference_on_carry_box():
    frames, _, _ = sg.generate_scenario(sg.Scenario("carry_box", frames=120, seed=3))
    model = sm.learn_scene(frames[:30], var_floor=4.0)
    for f in frames[30:]:
        fg = sm.detect_foreground(model, f, tau=4.0).bits
        refined, stats, silhouette = mo.refine_mask(fg, 384, (3, 3), 1)
        assert refined.tobytes() == _reference_refine_mask(fg, 384, (3, 3), 1).tobytes()
        _same_person(stats, silhouette, refined)
        sm.update_scene(model, f, refined, 0.05, 4.0)


def _kept_count(mask, min_area, se, iterations):
    """How many filled components of the dilated mask clear ``min_area``."""
    comps = connected_components(mo.morph(mask, "dilate", se, iterations))
    kept = 0
    for i, (x, y, w, h) in enumerate(s.bbox for s in comps.stats):
        kept += int(fill_holes(comps.labels[y : y + h, x : x + w] == i + 1).sum()) >= min_area
    return kept


def test_refine_mask_hands_over_the_largest_component_of_its_result():
    rng = np.random.default_rng(23)
    nested = found = 0
    for m in nesting_masks(rng, 6000):
        se = [(1, 1), (3, 3), (3, 1), (1, 3)][int(rng.integers(0, 4))]
        iterations = int(rng.integers(1, 3))
        min_area = int(rng.choice([1, 2, 5, 12, 40]))
        got, stats, silhouette = mo.refine_mask(m, min_area, se, iterations)
        _same_person(stats, silhouette, got)
        found += stats is not None
        # a kept component in another's filled hole is no component of its own
        nested += _kept_count(m, min_area, se, iterations) > connected_components(got).count
    assert found >= 4500 and nested >= 300, (found, nested)
    # nothing to keep: an empty mask, and specks all below min_area
    specks = np.zeros((12, 14), bool)
    specks[1, 1] = specks[6, 9] = specks[10, 3] = True
    for m, min_area in ((np.zeros((12, 14), bool), 1), (specks, 10)):
        got, stats, silhouette = mo.refine_mask(m, min_area, (3, 3), 1)
        assert not got.any() and stats is None and silhouette is None
    assert mo.refine_mask(specks, 9, (3, 3), 1)[1].area == 9


def test_label_passes_are_counted_through_the_module_attribute(monkeypatch):
    calls = []
    label = mo.ndimage.label

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return label(*args, **kwargs)

    monkeypatch.setattr(mo.ndimage, "label", counted)
    m = np.zeros((20, 30), bool)
    m[4:9, 6:12] = True
    mo.refine_mask(m, 1, (3, 3), 1)
    mo.refine_mask(np.zeros((20, 30), bool), 1, (3, 3), 1)
    # the dilated 7x8 crop, then the mosaic of its one component's 7x8 crop;
    # nothing for the empty mask
    assert calls == [(7, 8), (9, 10)]


# ---------------------------------------------------------------------------
# one labelling pass over a mosaic of crops against one pass per crop, and
# the single dilation against the dilate/erode/dilate it replaces

def _hole_crops(rng):
    """Random masks of many sizes, C-shapes, nested rings and 1x1 crops."""
    for _ in range(30):
        h, w = (int(v) for v in rng.integers(1, 24, 2))
        yield rng.random((h, w)) < rng.choice([0.1, 0.4, 0.6, 0.9])
    yield np.ones((1, 1), bool)
    yield np.zeros((1, 1), bool)
    yield np.zeros((4, 9), bool)
    yield np.ones((3, 2), bool)
    c = np.zeros((9, 8), bool)  # open to the right: no hole
    c[1:8, 1:7] = True
    c[3:6, 3:8] = False
    yield c
    closed = c.copy()
    closed[3:6, 6] = True  # the C closed: a 3x3 hole
    yield closed
    rings = np.zeros((15, 15), bool)  # rings around rings around a dot
    for r in range(0, 7, 2):
        rings[r : 15 - r, r : 15 - r] = r % 4 == 0
    yield rings
    edge = np.ones((6, 6), bool)  # a hole reaching the crop border is no hole
    edge[2:4, 0:3] = False
    yield edge


def test_fill_holes_many_matches_fill_holes_per_crop():
    rng = np.random.default_rng(31)
    crops = list(_hole_crops(rng))
    assert mo.fill_holes_many([]) == []
    for batch in (crops, crops[::-1], crops[-8:], crops[:1]):
        got = mo.fill_holes_many(batch)
        assert len(got) == len(batch)
        for m, g in zip(batch, got):
            want = fill_holes(m)
            assert g.shape == m.shape and g.dtype == bool
            assert np.array_equal(g, want)
    rings = crops[-2]
    assert not rings.all() and mo.fill_holes_many([rings])[0].all()


def _reference_largest_components(masks):
    """One labelling pass per mask."""
    out = []
    for m in masks:
        comps = connected_components(m)
        best = largest_index(comps)
        if best is None:
            out.append(None)
            continue
        x, y, w, h = comps.stats[best].bbox
        out.append((y, x, comps.labels[y : y + h, x : x + w] == best + 1))
    return out


def _same_largest(got, want, masks):
    """The same component pixels; each crop lies in its mask, holds the
    component's bounding box and nothing of any other component."""
    assert len(got) == len(want)
    for g, w, m in zip(got, want, masks):
        if w is None:
            assert g is None
            continue
        (gy, gx, gc), (wy, wx, wc) = g, w
        ys, xs = np.nonzero(gc)
        assert gc.dtype == bool
        assert gy + gc.shape[0] <= m.shape[0] and gx + gc.shape[1] <= m.shape[1]
        assert np.array_equal(ys + gy, np.nonzero(wc)[0] + wy)
        assert np.array_equal(xs + gx, np.nonzero(wc)[1] + wx)


def test_largest_components_match_per_mask_labelling():
    rng = np.random.default_rng(32)
    masks = list(_hole_crops(rng))
    tie = np.zeros((6, 12), bool)  # two 4-px blobs: the first in raster order wins
    tie[1:3, 7:9] = True
    tie[3:5, 1:3] = True
    masks.append(tie)
    for batch in (masks, masks[::-1], [np.zeros((5, 5), bool)], [tie]):
        _same_largest(mo.largest_components(batch), _reference_largest_components(batch), batch)
    ((y, x, comp),) = mo.largest_components([tie])
    assert (y, x) == (1, 1) and comp[0:2, 6:8].all()


_RECT_SES = [(1, 1), (1, 3), (3, 1), (3, 3), (5, 3), (3, 5), (5, 5), (7, 5), (5, 7)]


@pytest.mark.parametrize("se", _RECT_SES)
def test_one_dilation_equals_dilate_erode_dilate(se):
    rng = np.random.default_rng(33 + se[0] * 10 + se[1])
    for m in _edge_masks(rng):
        for iterations in (1, 2, 3):
            once = mo.morph(m, "dilate", se, iterations)
            three = mo.morph(mo.morph(once, "erode", se, iterations), "dilate", se, iterations)
            assert once.tobytes() == three.tobytes()


@pytest.mark.parametrize("se", [(7, 5), (5, 7), (1, 3)])
def test_refine_mask_matches_three_pass_reference_rectangular_se(se):
    rng = np.random.default_rng(34 + se[0] + se[1])
    for m in _edge_masks(rng):
        for iterations in (1, 3):
            got, _, _ = mo.refine_mask(m, 10, se, iterations)
            assert got.tobytes() == _reference_refine_mask(m, 10, se, iterations).tobytes()
