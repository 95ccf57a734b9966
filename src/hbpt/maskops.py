"""Binary mask machinery: box morphology, hole filling, the largest
8-connected component of a mask, convex hulls, and the silhouette
refinement step (one dilation, which equals the paper's dilate/erode/dilate),
which also hands over the person component.

A list of crops is labelled in one pass over a mosaic of them
(``fill_holes_many``, ``largest_components``) rather than one pass per crop.
Labelling and bounding boxes come from hbpt's own ``ndimage`` module, bound
here as ``ndimage``, so a caller can count labelling passes by wrapping
``maskops.ndimage.label``.
"""

from dataclasses import dataclass

import numpy as np

from . import ndimage

_STRUCT4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_STRUCT8 = np.ones((3, 3), dtype=bool)


@dataclass
class ComponentStats:
    area: int
    bbox: tuple  # (x, y, w, h)
    centroid: tuple  # (x, y) float


def morph(mask, op, se, iterations):
    """Apply box dilation or erosion over the window clipped to the frame.

    Out-of-frame cells are neutral for each op (background for dilation, so
    nothing grows in from outside; foreground for erosion, so the border is
    not eaten just for lying next to the frame edge). This keeps closing
    extensive and idempotent. ``se`` (odd sizes) and ``iterations`` (>= 1)
    come checked from ``config.check_ranges``.
    """
    if op not in ("dilate", "erode"):
        raise ValueError(f"unknown morphology op {op!r}")
    sh, sw = se
    ry, rx = sh // 2, sw // 2
    out = mask.astype(bool)
    h, w = out.shape
    for _ in range(iterations):
        padded = np.full((h + 2 * ry, w + 2 * rx), op == "erode", dtype=bool)
        padded[ry : ry + h, rx : rx + w] = out
        windows = [
            padded[dy : dy + h, dx : dx + w] for dy in range(sh) for dx in range(sw)
        ]
        stacked = np.stack(windows)
        out = stacked.any(axis=0) if op == "dilate" else stacked.all(axis=0)
    return out


def foreground_box(mask, my=0, mx=0):
    """(y0, y1, x0, x1) of the mask's foreground bounding box grown by ``my``
    rows and ``mx`` columns and clipped to the frame; None for an empty mask."""
    rows = np.flatnonzero(mask.any(axis=1))
    if not rows.size:
        return None
    h, w = mask.shape
    y0, y1 = max(int(rows[0]) - my, 0), min(int(rows[-1]) + 1 + my, h)
    cols = np.flatnonzero(mask[rows[0] : rows[-1] + 1].any(axis=0))
    x0, x1 = max(int(cols[0]) - mx, 0), min(int(cols[-1]) + 1 + mx, w)
    return y0, y1, x0, x1


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points):
    """Minimal convex polygon, counter-clockwise, collinear points dropped.

    Output starts at the lowest-y (then lowest-x) vertex. Exact for integer
    inputs. Degenerate inputs return 1 or 2 points.
    """
    pts = sorted(set(tuple(p) for p in points))
    if not pts:
        raise ValueError("convex hull of empty point set")
    if len(pts) == 1:
        return [pts[0]]
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if not hull:  # all points collinear
        hull = [pts[0], pts[-1]]
    start = min(range(len(hull)), key=lambda i: (hull[i][1], hull[i][0]))
    return hull[start:] + hull[:start]


def _mosaic(masks):
    """Stack the masks top to bottom into one zeroed mosaic.

    Mask k sits at rows ``tops[k]`` to ``tops[k] + h_k``, columns 1 to
    ``1 + w_k``. Row 0, column 0, the last row and the row between two masks
    stay empty, so every mask has a 1-px empty frame, and no 8-connected
    component spans two masks. Returns (mosaic, tops).
    """
    heights = [m.shape[0] for m in masks]
    tops = np.cumsum([1] + [h + 1 for h in heights[:-1]]).tolist()
    width = max(m.shape[1] for m in masks) + 2
    mosaic = np.zeros((sum(heights) + len(masks) + 1, width), dtype=bool)
    for m, top in zip(masks, tops):
        mosaic[top : top + m.shape[0], 1 : 1 + m.shape[1]] = m
    return mosaic, tops


def fill_holes_many(masks):
    """Each mask with its holes filled, from one labelling of their mosaic.

    A hole is a 4-connected background region that does not reach the mask's
    border; it is set to foreground.

    Every mask's 1-px empty frame joins column 0 of the mosaic, so all the
    background that reaches a mask's border is one component, the one at
    [0, 0]; every other background component is a hole. Returns views into
    one array, one per mask.
    """
    if not masks:
        return []
    mosaic, tops = _mosaic(masks)
    bg_labels, _ = ndimage.label(~mosaic, structure=_STRUCT4)
    filled = bg_labels != bg_labels[0, 0]
    return [filled[t : t + m.shape[0], 1 : 1 + m.shape[1]] for m, t in zip(masks, tops)]


def largest_components(masks):
    """The largest 8-connected component of each mask, the first in raster
    order on ties, from one labelling of all the masks.

    Each mask is cropped to its foreground bounding box and the crops are
    labelled as one mosaic. Labels follow raster order, so the labels of a
    crop are one run, numbered as a labelling of the crop alone would number
    them. Returns one ``(y, x, component)`` per mask: ``component`` is a bool
    crop whose top-left pixel is row ``y``, column ``x`` of the mask, or None
    for an empty mask.
    """
    boxes = [foreground_box(m) for m in masks]
    crops = [m[b[0] : b[1], b[2] : b[3]] for m, b in zip(masks, boxes) if b is not None]
    if not crops:
        return [None] * len(masks)
    mosaic, tops = _mosaic(crops)
    labels, _ = ndimage.label(mosaic, structure=_STRUCT8)
    areas = np.bincount(labels.ravel())
    picked = iter(zip(crops, tops))
    out = []
    lo = 1
    for box in boxes:
        if box is None:
            out.append(None)
            continue
        crop, top = next(picked)
        sub = labels[top : top + crop.shape[0], 1 : 1 + crop.shape[1]]
        hi = int(sub.max())
        best = lo + int(np.argmax(areas[lo : hi + 1]))
        out.append((box[0], box[2], sub == best))
        lo = hi + 1
    return out


def refine_mask(mask, min_area, se, iterations):
    """Consolidate a noisy silhouette into few large filled components, and
    pick the person component.

    Dilate with the box element, then keep every 8-connected component,
    holes filled, whose filled area clears ``min_area``. The paper dilates,
    erodes and dilates again; that is the same mask, because ``morph``'s
    dilation and erosion are an adjoint pair, for which dilate-erode-dilate
    equals one dilation.

    Returns ``(refined, stats, silhouette)``: the refined mask, and the
    ``ComponentStats`` and frame-sized pixel mask of its largest 8-connected
    component, the first in raster order on ties, or None, None when no
    component is kept. That is the largest kept filled component: two kept
    components touch only when one lies in the other's filled hole, so each
    component of the refined mask is one kept filled component, and one that
    lies in another's hole is smaller than that one.
    """
    mask = np.asarray(mask, dtype=bool)
    out = np.zeros_like(mask)
    # Work on the foreground's bounding box grown by the dilation's reach,
    # r*iterations px (r = se // 2 per axis), and clipped at the frame. Past
    # an inner crop edge there is no foreground within that reach, so the
    # crop's background padding there acts as the frame's real background.
    my, mx = ((s // 2) * iterations for s in se)
    box = foreground_box(mask, my, mx)
    if box is None:
        return out, None, None
    y0, y1, x0, x1 = box
    labels, _ = ndimage.label(
        morph(mask[y0:y1, x0:x1], "dilate", se, iterations), structure=_STRUCT8
    )
    slices = ndimage.find_objects(labels)  # each component's bounding box
    subs = [labels[sl] == i for i, sl in enumerate(slices, 1)]
    crop = out[y0:y1, x0:x1]
    best = None  # (area, slice, filled crop); ">" keeps the first in raster order on ties
    for sl, sub in zip(slices, fill_holes_many(subs)):
        area = int(sub.sum())
        if area >= min_area:
            crop[sl] |= sub
            if best is None or area > best[0]:
                best = area, sl, sub
    if best is None:
        return out, None, None
    area, (rows, cols), sub = best
    silhouette = np.zeros_like(mask)
    silhouette[y0:y1, x0:x1][rows, cols] = sub
    y, x = y0 + rows.start, x0 + cols.start
    ys, xs = np.nonzero(sub)
    ys += y  # frame coordinates as ints, so the centroid means stay exact
    xs += x
    stats = ComponentStats(
        area=area,
        bbox=(x, y, sub.shape[1], sub.shape[0]),
        centroid=(float(xs.mean()), float(ys.mean())),
    )
    return out, stats, silhouette
