import math

import numpy as np

from hbpt import baseline as bl
from hbpt import synthgen as sg
from hbpt.synthgen import render_person_mask

from conftest import connected_components


def rect_mask(w, h, left=10, top=5, shape=(80, 60)):
    m = np.zeros(shape, bool)
    m[top : top + h, left : left + w] = True
    return m


def labels_of(mask):
    """Baseline labels of a mask holding a single 8-connected component."""
    comps = connected_components(mask)
    assert comps.count == 1
    return bl.label_silhouette(mask, comps.stats[0])


def centroid_of(mask):
    ys, xs = np.nonzero(mask)
    return [xs.mean(), ys.mean()]


# ---------------------------------------------------------------------------
# part labeling

def starfish_mask():
    return render_person_mask(np.zeros((240, 320), bool), 160, 60, "star")


def test_starfish_labels():
    mask = starfish_mask()
    labels = labels_of(mask)
    assert labels["head"] is not None and labels["head"][1] <= 62  # top of the head disc
    assert abs(labels["head"][0] - 160) <= 8
    assert len(labels["feet"]) == 2
    assert all(y >= 165 for _, y in labels["feet"])
    xs = sorted(x for x, _ in labels["feet"])
    assert xs[0] < 160 < xs[1]
    assert len(labels["hands"]) == 2
    hand_xs = sorted(x for x, _ in labels["hands"])
    assert hand_xs[0] <= 120 and hand_xs[1] >= 200
    assert labels["torso"] == centroid_of(mask)


def test_upright_rectangle_tiebreak_and_no_hands():
    labels = labels_of(rect_mask(20, 60, left=20, top=10))
    assert labels["head"] == [20, 10]  # top-left vertex by tie-break
    assert labels["hands"] == []


def test_labels_lie_on_contour():
    """Every label is a silhouette pixel with a 4-neighbour outside it."""
    mask = starfish_mask()
    labels = labels_of(mask)
    padded = np.pad(mask, 1)  # padded[y + 1, x + 1] is mask[y, x]
    for x, y in [labels["head"], *labels["feet"], *labels["hands"]]:
        assert mask[y, x]
        neighbours = (padded[y, x + 1], padded[y + 2, x + 1], padded[y + 1, x], padded[y + 1, x + 2])
        assert not all(neighbours)


def test_degenerate_contour_rejected():
    """Silhouettes of 1 or 2 pixels get no labels; 3 pixels are enough."""
    m = np.zeros((6, 6), bool)
    m[5, 5] = True
    assert labels_of(m) is None
    m[4, 4] = True
    assert labels_of(m) is None
    m[3, 3] = True
    assert labels_of(m) == {"torso": [4.0, 4.0], "head": [3, 3], "feet": [[5, 5]], "hands": []}


def test_walker_head_tracking_accuracy():
    hits = 0
    frames = range(30, 90)
    for f in frames:
        ox = sg._ping_pong(40, 40, 230, 3, f - 30)
        mask = render_person_mask(np.zeros((240, 320), bool), ox, 100, "down")
        head = labels_of(mask)["head"]
        if head is not None and math.hypot(head[0] - ox, head[1] - 100) <= 10:
            hits += 1
    assert hits / len(frames) >= 0.9
