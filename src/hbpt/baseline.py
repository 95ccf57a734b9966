"""Contour-vertex baseline labeler: head, feet and hands at convex-hull
vertices of the silhouette, chosen by their position relative to the
centroid.

The hull is taken over each silhouette row's leftmost and rightmost pixel:
a hull vertex of a pixel set cannot lie between two pixels of its row, so
these row extremes have the same hull as the whole silhouette and its
boundary.
"""

import math

from .maskops import convex_hull

HEAD_BAND_FRAC = 0.25
FEET_SEP_FRAC = 0.15
HAND_BAND_FRAC = 0.40
HAND_Y_BAND_FRAC = 0.35  # hands live near centroid height, not at bbox corners


def label_silhouette(silhouette, component):
    """Part labels of one silhouette as a dict, or None below 3 pixels.

    ``silhouette`` is a frame-sized bool mask holding exactly the 8-connected
    component whose ``ComponentStats`` are ``component``, as
    ``maskops.refine_mask`` returns the person component; the torso label is
    that component's centroid.
    """
    if component.area < 3:
        return None
    x, y, w, h = component.bbox
    crop = silhouette[y : y + h, x : x + w]
    # an 8-connected component has pixels in every row of its bounding box
    left = crop.argmax(axis=1) + x
    right = (x + w - 1) - crop[:, ::-1].argmax(axis=1)
    rows = list(range(y, y + h))
    hull = convex_hull(zip(left.tolist() + right.tolist(), rows + rows))
    return label_parts_by_distance(hull, component.centroid, w, h)


def label_parts_by_distance(hull, centroid, width, height):
    """Assign head, feet and hands from hull vertices by centroid geometry.

    Returns a dict of [x, y] lists: "torso" (the centroid), "head", and
    "feet" and "hands", each a list of up to two points. ``width`` and
    ``height`` are the silhouette's bounding-box size.
    head: highest vertex within a quarter bounding-box width of the centroid
    column, falling back to the highest vertex overall when that band holds
    no vertex. feet: up to two below-centroid vertices of maximal centroid
    distance, horizontally separated. hands: up to two vertices reaching
    laterally beyond 0.4 bounding-box width at roughly centroid height
    (absent in arms-down postures). Ties prefer smaller x, then smaller y.
    """
    cx, cy = centroid

    head_cands = [p for p in hull if abs(p[0] - cx) <= HEAD_BAND_FRAC * width]
    if not head_cands:
        head_cands = hull
    head = min(head_cands, key=lambda p: (p[1], p[0]))

    feet = []
    foot_cands = [p for p in hull if p[1] > cy]
    foot_cands.sort(key=lambda p: (-math.hypot(p[0] - cx, p[1] - cy), p[0], p[1]))
    for p in foot_cands:
        if len(feet) == 2:
            break
        if feet and abs(p[0] - feet[0][0]) < FEET_SEP_FRAC * width:
            continue
        feet.append(p)

    hand_cands = [
        p
        for p in hull
        if abs(p[0] - cx) > HAND_BAND_FRAC * width and abs(p[1] - cy) <= HAND_Y_BAND_FRAC * height
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

    return {
        "torso": [cx, cy],
        "head": list(head),
        "feet": [list(p) for p in feet],
        "hands": [list(p) for p in hands],
    }
