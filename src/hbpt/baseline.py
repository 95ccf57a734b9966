"""Silhouette-contour baseline: centroid/major-axis geometry, projection
histograms, convex/concave boundary vertices, and centroid-distance part
labeling."""

import math
from dataclasses import dataclass

import numpy as np

from .maskops import convex_hull
from .blobmodel import eig2x2_sym

PROJECTION_LENGTH = 100
DEFAULT_DEFECT_DEPTH = 3.0  # px, minimum convexity-defect depth
HEAD_BAND_FRAC = 0.25
FEET_SEP_FRAC = 0.15
HAND_BAND_FRAC = 0.40
HAND_Y_BAND_FRAC = 0.35  # hands live near centroid height, not at bbox corners


@dataclass
class ProjectionHistograms:
    vertical: np.ndarray  # counts along the axis perpendicular to the major axis
    horizontal: np.ndarray  # counts along the major axis
    length: int = PROJECTION_LENGTH
    median_index: int = PROJECTION_LENGTH // 2
    vertical_native: np.ndarray | None = None  # 1-px bins before rescaling
    horizontal_native: np.ndarray | None = None


@dataclass
class VertexSet:
    convex: list  # [(x, y)] on the contour
    concave: list  # [(x, y)] on the contour


@dataclass
class PartLabels:
    torso: tuple
    head: tuple | None = None
    feet: list = None
    hands: list = None

    def to_dict(self):
        return {
            "torso": list(self.torso),
            "head": list(self.head) if self.head else None,
            "feet": [list(p) for p in (self.feet or [])],
            "hands": [list(p) for p in (self.hands or [])],
        }


def _project(coords, length):
    """1-px native bins rescaled to ``length`` entries, median at the center."""
    cmin = coords.min()
    native_n = int(round(coords.max() - cmin)) + 1
    idx = np.rint(coords - cmin).astype(int)
    native = np.bincount(np.clip(idx, 0, native_n - 1), minlength=native_n)
    if native_n == 1:
        scaled = np.full(length, native[0], dtype=np.int64)
        src = np.zeros(length, dtype=int)
    else:
        src = np.rint(np.arange(length) * (native_n - 1) / (length - 1)).astype(int)
        scaled = native[src]
    med_native = int(round(float(np.median(coords)) - cmin))
    med_scaled = int(np.argmin(np.abs(src - med_native)))
    shift = length // 2 - med_scaled
    out = np.zeros(length, dtype=np.int64)
    lo = max(0, shift)
    hi = min(length, length + shift)
    out[lo:hi] = scaled[lo - shift : hi - shift]
    return out, native


def silhouette_geometry(mask, origin=(0, 0)):
    """Centroid, major-axis unit vector, and median-aligned projections.

    The major axis is the principal eigenvector of the mask's second central
    moments, normalized to an angle in (-pi/2, pi/2]. The horizontal
    histogram bins pixel coordinates along the major axis; the vertical one
    bins them along the perpendicular axis. Both are rescaled to a fixed
    length of 100 with the median coordinate aligned at index 50.

    ``origin`` is the integer frame position of ``mask[0, 0]`` when ``mask``
    is a crop; the centroid is in frame coordinates.
    """
    m = mask.bits if hasattr(mask, "bits") else np.asarray(mask)
    ys, xs = np.nonzero(m)
    if xs.size == 0:
        raise ValueError("cannot analyze an empty mask")
    # shift as ints before any mean, so a crop gives the full-frame floats
    xs += origin[0]
    ys += origin[1]
    cx, cy = float(xs.mean()), float(ys.mean())
    dx = xs - cx
    dy = ys - cy
    n = xs.size
    kxx = float(dx @ dx) / n
    kxy = float(dx @ dy) / n
    kyy = float(dy @ dy) / n
    _, (v1, _) = eig2x2_sym(kxx, kxy, kyy)
    theta = math.atan2(v1[1], v1[0])
    if theta <= -math.pi / 2.0:
        theta += math.pi
    elif theta > math.pi / 2.0:
        theta -= math.pi
    axis = (math.cos(theta), math.sin(theta))
    perp = (-axis[1], axis[0])
    along = dx * axis[0] + dy * axis[1]
    across = dx * perp[0] + dy * perp[1]
    horizontal, h_native = _project(along, PROJECTION_LENGTH)
    vertical, v_native = _project(across, PROJECTION_LENGTH)
    hist = ProjectionHistograms(
        vertical=vertical,
        horizontal=horizontal,
        vertical_native=v_native,
        horizontal_native=h_native,
    )
    return (cx, cy), axis, hist


def _point_line_distance(p, a, b):
    ab = (b[0] - a[0], b[1] - a[1])
    norm = math.hypot(*ab)
    if norm == 0:
        return math.hypot(p[0] - a[0], p[1] - a[1])
    return abs(ab[0] * (p[1] - a[1]) - ab[1] * (p[0] - a[0])) / norm


def hull_vertices(contour, d_min=DEFAULT_DEFECT_DEPTH):
    """Convex hull vertices plus the deepest defect point per hull edge.

    Concave vertices are contour points of maximal perpendicular distance
    (at least ``d_min``) from the chord between consecutive hull vertices in
    contour order.
    """
    pts = contour.points if hasattr(contour, "points") else list(contour)
    if len(pts) < 3:
        raise ValueError(f"contour with {len(pts)} points is degenerate")
    hull = convex_hull(pts)
    first_at = {}
    for i, p in enumerate(pts):
        first_at.setdefault(p, i)
    anchors = sorted(set(first_at[v] for v in hull))
    concave = []
    n = len(pts)
    for k, i0 in enumerate(anchors):
        i1 = anchors[(k + 1) % len(anchors)]
        a, b = pts[i0], pts[i1]
        span = (i1 - i0) % n
        best, best_d = None, d_min
        for s in range(1, span):
            p = pts[(i0 + s) % n]
            d = _point_line_distance(p, a, b)
            if d > best_d:
                best, best_d = p, d
        if best is not None:
            concave.append(best)
    return VertexSet(convex=list(hull), concave=concave)


def label_parts_by_distance(vertices, centroid, mask):
    """Assign head, feet and hands from convex vertices by centroid geometry.

    head: highest vertex within a quarter bounding-box width of the centroid
    column, falling back to the highest vertex overall when that band holds
    no vertex. feet: up to two below-centroid vertices of maximal centroid
    distance, horizontally separated. hands: up to two vertices reaching
    laterally beyond 0.4 bounding-box width at roughly centroid height
    (absent in arms-down postures). Ties prefer smaller x, then smaller y.
    """
    if not vertices.convex:
        raise ValueError("no vertices to label")
    m = mask.bits if hasattr(mask, "bits") else np.asarray(mask)
    ys, xs = np.nonzero(m)
    bw = int(xs.max() - xs.min() + 1) if xs.size else 1
    bh = int(ys.max() - ys.min() + 1) if ys.size else 1
    cx, cy = centroid

    head_cands = [p for p in vertices.convex if abs(p[0] - cx) <= HEAD_BAND_FRAC * bw]
    if not head_cands:
        head_cands = vertices.convex
    head = min(head_cands, key=lambda p: (p[1], p[0]))

    feet = []
    foot_cands = [p for p in vertices.convex if p[1] > cy]
    foot_cands.sort(key=lambda p: (-math.hypot(p[0] - cx, p[1] - cy), p[0], p[1]))
    for p in foot_cands:
        if len(feet) == 2:
            break
        if feet and abs(p[0] - feet[0][0]) < FEET_SEP_FRAC * bw:
            continue
        feet.append(p)

    hand_cands = [
        p
        for p in vertices.convex
        if abs(p[0] - cx) > HAND_BAND_FRAC * bw and abs(p[1] - cy) <= HAND_Y_BAND_FRAC * bh
    ]
    hands = []
    for side in (lambda p: p[0] < cx, lambda p: p[0] >= cx):  # one hand per side
        side_cands = sorted(
            (p for p in hand_cands if side(p)),
            key=lambda p: (-abs(p[0] - cx), p[0], p[1]),
        )
        if side_cands:
            hands.append(side_cands[0])
    hands.sort(key=lambda p: (-abs(p[0] - cx), p[0], p[1]))

    return PartLabels(torso=(cx, cy), head=head, feet=feet, hands=hands)
