"""hbpt.ndimage against scipy.ndimage: the same labels, count and slices."""

import numpy as np
import pytest
from scipy import ndimage as sp

from hbpt import maskops as mo
from hbpt import ndimage as nd

CROSS = sp.generate_binary_structure(2, 1)  # 4-connectivity
SQUARE = sp.generate_binary_structure(2, 2)  # 8-connectivity


def assert_matches_scipy(mask):
    for structure in (CROSS, SQUARE):
        got, count = nd.label(mask, structure)
        want, want_count = sp.label(mask, structure=structure)
        assert type(count) is int and count == want_count
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want)
        if mask.size:  # scipy's find_objects cannot take a zero-size array
            assert nd.find_objects(got) == sp.find_objects(want)


# ---------------------------------------------------------------------------
# shapes

def checkerboard(h, w, phase):
    return (np.add.outer(np.arange(h), np.arange(w)) + phase) % 2 == 1


def staircase(n, step):
    """Blocks of ``step`` px that meet only at their corners, down a diagonal."""
    m = np.zeros((n * step, n * step), bool)
    for k in range(n):
        m[k * step : (k + 1) * step, k * step : (k + 1) * step] = True
    return m


def spiral(n):
    """A 1-px square spiral wall of side n with a 1-px gap between its turns."""
    m = np.zeros((n, n), bool)
    y, x, dy, dx = 0, 0, 0, 1
    length = n - 1
    first = True
    while length > 0:
        for _ in range(2 if not first else 3):
            for _ in range(length):
                m[y, x] = True
                y, x = y + dy, x + dx
            dy, dx = dx, -dy
        first = False
        length -= 2
    m[y, x] = True
    return m


def snake(h, w, vertical):
    """A 1-px path sweeping back and forth: along rows joined at alternate
    ends, or, transposed, along columns joined alternately at the bottom and
    top, so every row holds many runs that merge far below or above."""
    if vertical:
        return snake(w, h, False).T.copy()
    m = np.zeros((h, w), bool)
    m[::2] = True
    for k, y in enumerate(range(1, h, 2)):
        m[y, w - 1 if k % 2 == 0 else 0] = True
    return m


def letters(arms, depth, width):
    """U (two arms) or W (three or more): 1-px-wide arms of staggered heights
    that merge ``depth`` rows down in one bottom bar."""
    w = 2 * arms * width
    m = np.zeros((depth + 2 + arms, w), bool)
    for k in range(arms):
        x = 2 * k * width
        m[k % 3 : depth + arms, x : x + width] = True
    m[depth + arms :, : 2 * (arms - 1) * width + width] = True
    return m


def rings(count):
    """Nested square 1-px rings with a 1-px gap between neighbours."""
    n = 4 * count + 1
    m = np.zeros((n, n), bool)
    for k in range(count):
        a, b = 2 * k, n - 1 - 2 * k
        m[a, a : b + 1] = m[b, a : b + 1] = True
        m[a : b + 1, a] = m[a : b + 1, b] = True
    return m


SHAPES = {
    **{f"checker{h}x{w}p{p}": checkerboard(h, w, p) for h, w in ((1, 7), (6, 6), (9, 14)) for p in (0, 1)},
    "eye": np.eye(9, dtype=bool),
    "anti_eye": np.eye(9, dtype=bool)[:, ::-1].copy(),
    "eye_tall": np.eye(12, 5, dtype=bool),
    **{f"stairs{n}x{s}": staircase(n, s) for n, s in ((4, 1), (5, 2), (3, 4))},
    "stairs_flipped": staircase(6, 2)[:, ::-1].copy(),
    **{f"spiral{n}": spiral(n) for n in (5, 8, 21, 40)},
    **{f"snake{h}x{w}{'v' if v else 'h'}": snake(h, w, v) for h, w in ((31, 9), (9, 31), (60, 60)) for v in (0, 1)},
    **{f"letter{a}x{d}x{w}": letters(a, d, w) for a, d, w in ((2, 5, 1), (2, 30, 3), (3, 12, 1), (5, 20, 2), (9, 3, 1))},
    **{f"rings{c}": rings(c) for c in (1, 3, 8)},
    "1x1_on": np.ones((1, 1), bool),
    "1x1_off": np.zeros((1, 1), bool),
    "1xN": np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], bool),
    "Nx1": np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], bool).T.copy(),
    "1xN_full": np.ones((1, 13), bool),
    "Nx1_full": np.ones((13, 1), bool),
    "empty": np.zeros((17, 23), bool),
    "full": np.ones((17, 23), bool),
    "zero_rows": np.zeros((0, 5), bool),
    "zero_cols": np.zeros((4, 0), bool),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_label_and_find_objects_match_scipy_on_shapes(name):
    mask = SHAPES[name]
    assert_matches_scipy(mask)
    assert_matches_scipy(~mask)


def test_shapes_separate_the_connectivities():
    """The diagonal shapes are one 8-connected component and many 4-connected ones."""
    for name in ("checker6x6p0", "eye", "anti_eye", "stairs5x2", "stairs_flipped"):
        assert nd.label(SHAPES[name], SQUARE)[1] == 1
        assert nd.label(SHAPES[name], CROSS)[1] > 1
    # the spiral and snakes are one component whichever the connectivity
    for name in ("spiral40", "snake60x60h", "snake60x60v", "letter9x3x1"):
        assert nd.label(SHAPES[name], CROSS)[1] == 1


@pytest.mark.parametrize("seed", range(4))
def test_label_and_find_objects_match_scipy_on_random_masks(seed):
    rng = np.random.default_rng(seed)
    for _ in range(300):
        h, w = (int(v) for v in rng.integers(1, 70, 2))
        assert_matches_scipy(rng.random((h, w)) < rng.choice([0.03, 0.2, 0.45, 0.6, 0.8, 0.97]))


def test_label_matches_scipy_on_maskops_mosaics():
    """Mosaics as fill_holes_many (the background, 4-connected) and
    largest_components (the foreground, 8-connected) label them."""
    rng = np.random.default_rng(11)
    for _ in range(60):
        masks = [
            rng.random((int(rng.integers(1, 30)), int(rng.integers(1, 30)))) < rng.uniform(0.1, 0.9)
            for _ in range(int(rng.integers(1, 7)))
        ]
        mosaic, _ = mo._mosaic(masks + [SHAPES["spiral8"], SHAPES["rings3"]])
        assert_matches_scipy(mosaic)


def test_find_objects_matches_scipy_with_absent_labels():
    """Labels of any layout, some values absent, as scipy numbers them."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        h, w = (int(v) for v in rng.integers(1, 25, 2))
        labels = rng.integers(0, int(rng.integers(1, 9)), size=(h, w)).astype(np.int32)
        labels[rng.random((h, w)) < 0.5] = 0
        assert nd.find_objects(labels) == sp.find_objects(labels)


def test_label_refuses_other_structures_and_dimensions():
    mask = np.ones((4, 4), bool)
    for structure in (np.ones((3, 3, 3), bool), np.eye(3, dtype=bool), np.ones((5, 5), bool)):
        with pytest.raises(ValueError, match="structure"):
            nd.label(mask, structure)
    with pytest.raises(ValueError, match="2-D"):
        nd.label(np.ones((2, 2, 2), bool), SQUARE)
    with pytest.raises(ValueError, match="2-D"):
        nd.find_objects(np.ones(4, np.int32))
