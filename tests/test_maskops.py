import numpy as np
import pytest

from hbpt import maskops as mo


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
    assert not mo.morph(np.zeros((8, 8), bool), "dilate").any()


def test_dilate_single_pixel_makes_block():
    m = np.zeros((7, 7), bool)
    m[3, 3] = True
    d = mo.morph(m, "dilate")
    assert d.sum() == 9 and d[2:5, 2:5].all()


def test_morph_matches_window_filter_oracle():
    rng = np.random.default_rng(0)
    for trial in range(6):
        m = rng.random((64, 64)) < rng.uniform(0.2, 0.7)
        for op in ("dilate", "erode"):
            assert np.array_equal(mo.morph(m, op), window_filter_oracle(m, op)), (trial, op)


def test_morph_rectangular_se_and_iterations():
    rng = np.random.default_rng(1)
    m = rng.random((20, 20)) < 0.5
    two = mo.morph(m, "dilate", (3, 5), 2)
    step = mo.morph(mo.morph(m, "dilate", (3, 5)), "dilate", (3, 5))
    assert np.array_equal(two, step)
    assert np.array_equal(
        mo.morph(m, "erode", (1, 5)), window_filter_oracle(m, "erode", (1, 5))
    )


def test_morph_rejects_bad_args():
    m = np.zeros((4, 4), bool)
    with pytest.raises(ValueError):
        mo.morph(m, "open")
    with pytest.raises(ValueError):
        mo.morph(m, "dilate", iterations=0)
    with pytest.raises(ValueError):
        mo.morph(m, "dilate", se=(2, 3))


def test_closing_properties():
    rng = np.random.default_rng(2)

    def close(m):
        return mo.morph(mo.morph(m, "dilate"), "erode")

    for _ in range(40):
        m = rng.random((24, 24)) < rng.uniform(0.2, 0.6)
        c = close(m)
        assert (m <= c).all()  # extensive
        assert np.array_equal(close(c), c)  # idempotent
        sub = m & (rng.random((24, 24)) < 0.8)
        assert (close(sub) <= c).all()  # increasing


# ---------------------------------------------------------------------------
# connected components

def test_components_empty_and_single():
    empty = mo.connected_components(np.zeros((5, 5), bool))
    assert empty.count == 0 and not empty.stats
    single = np.zeros((5, 5), bool)
    single[2, 3] = True
    got = mo.connected_components(single)
    assert got.count == 1
    assert got.stats[0].area == 1
    assert got.stats[0].centroid == (3.0, 2.0)
    assert got.stats[0].bbox == (3, 2, 1, 1)


def test_components_match_flood_fill_oracle():
    rng = np.random.default_rng(3)
    for _ in range(120):
        m = rng.random((14, 18)) < rng.uniform(0.2, 0.7)
        got = mo.connected_components(m)
        oracle_labels, oracle_count = flood_fill_oracle(m)
        assert got.count == oracle_count
        assert np.array_equal(canonical_labels(got.labels), canonical_labels(oracle_labels))


def test_component_stats_consistent_with_raster():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = rng.random((16, 16)) < 0.45
        got = mo.connected_components(m)
        for i, s in enumerate(got.stats):
            ys, xs = np.nonzero(got.labels == i + 1)
            assert s.area == xs.size
            assert s.bbox == (xs.min(), ys.min(), xs.max() - xs.min() + 1, ys.max() - ys.min() + 1)
            assert s.centroid == (xs.mean(), ys.mean())


def test_largest_component_first_on_ties():
    assert mo.largest_component(mo.connected_components(np.zeros((5, 5), bool))) is None
    m = np.zeros((8, 12), bool)
    m[0:2, 9:11] = True  # area 4, label 1 (first in scan order)
    m[5:7, 0:2] = True  # area 4, label 3
    m[3, 4:7] = True  # area 3, label 2
    comps = mo.connected_components(m)
    assert [s.area for s in comps.stats] == [4, 3, 4]
    assert mo.largest_component(comps) == 0
    m[7, 0] = True  # the last component grows to 5
    assert mo.largest_component(mo.connected_components(m)) == 2


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
    assert not mo.refine_mask(np.zeros((10, 10), bool), 1).any()


def test_refine_bridges_two_px_gap():
    m = np.zeros((20, 30), bool)
    m[5:15, 5:12] = True
    m[5:15, 14:20] = True  # 2 px gap
    refined = mo.refine_mask(m, min_area=10)
    assert mo.connected_components(refined).count == 1


def test_refine_fragmented_silhouette():
    rng = np.random.default_rng(11)
    clean = np.zeros((120, 90), bool)
    clean[10:30, 38:52] = True  # head-ish
    clean[30:80, 25:65] = True  # body
    clean[80:110, 30:42] = True
    clean[80:110, 48:60] = True
    frag = clean & (rng.random(clean.shape) > 0.25)  # speckle dropout
    refined = mo.refine_mask(frag, min_area=40)
    assert mo.connected_components(refined).count == 1
    inter = (refined & clean).sum()
    union = (refined | clean).sum()
    assert inter / union >= 0.9


def test_refine_never_increases_components():
    rng = np.random.default_rng(12)
    for _ in range(30):
        m = rng.random((24, 24)) < rng.uniform(0.15, 0.5)
        before = mo.connected_components(m).count
        after = mo.connected_components(mo.refine_mask(m, min_area=1)).count
        assert after <= before


def test_refine_fills_holes_and_filters_small():
    m = np.zeros((30, 30), bool)
    m[4:20, 4:20] = True
    m[8:12, 8:12] = False  # hole
    m[25, 25] = True  # speck below min_area
    refined = mo.refine_mask(m, min_area=50)
    assert refined[9, 9]
    assert not refined[23:29, 23:29].any()
