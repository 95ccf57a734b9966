"""Metamorphic checks over the whole frame step: a shifted or mirrored
sequence gives the shifted or mirrored records (Chen, Cheung and Yiu,
HKUST-CS98-01, 1998; Segura et al., IEEE TSE 2016).

Each sequence is transformed frame by frame, stepped in memory through
``FrameStep`` with the default config, and its records are mapped back onto
the original's. No truth is needed, so the checks also catch output that is
wrong but stable, which the golden digests cannot.
"""

import numpy as np
import pytest

from hbpt import synthgen as sg
from hbpt.config import PipelineConfig
from hbpt.imageio import Frame

from conftest import step_in_memory

FRAMES = 60
TOL_PX = 1e-9
# a mirrored person's left parts are the original's right ones
MIRRORED_LABEL = {
    "armL": "armR", "armR": "armL", "leg1": "leg2", "leg2": "leg1", "leg3": "leg4", "leg4": "leg3",
}


def _roll(dx, dy):
    """Shift the frames by (dx, dy) px, wrapping at the edges; a point maps
    back by subtracting the shift."""
    def frames(rgb):
        return np.roll(rgb, (dy, dx), axis=(0, 1))

    def back(x, y, width):
        return x - dx, y - dy

    return frames, back, {}


def _mirror():
    """Mirror the frames left to right; x maps back to width - 1 - x, and
    each part's label to its mirror image's."""
    def frames(rgb):
        return np.ascontiguousarray(rgb[:, ::-1])

    def back(x, y, width):
        return width - 1 - x, y

    return frames, back, MIRRORED_LABEL


TRANSFORMS = {
    "roll (16, 0)": _roll(16, 0),
    "roll (5, 3)": _roll(5, 3),
    "mirror": _mirror(),
}


def _records(frames):
    _, out = step_in_memory(PipelineConfig(), frames)
    return [record for record, _, _ in out]


@pytest.fixture(scope="module")
def original():
    """(frames, records) of each scenario at seed 1, made once per module."""
    cache = {}

    def run(name):
        if name not in cache:
            frames, _, _ = sg.generate_scenario(sg.Scenario(name, frames=FRAMES, seed=1))
            cache[name] = frames, _records(frames)
        return cache[name]

    return run


@pytest.mark.parametrize("transform", TRANSFORMS)
@pytest.mark.parametrize("name", ["walker", "occluded_arm"])
def test_transformed_sequence_gives_the_transformed_records(original, name, transform):
    frames, want = original(name)
    move, back, relabel = TRANSFORMS[transform]
    width = frames[0].width
    got = _records([Frame(index=f.index, rgb=move(f.rgb)) for f in frames])

    assert [r["tracked"] for r in got] == [r["tracked"] for r in want]
    assert sum(r["tracked"] for r in want) >= 20
    for g, w in zip(got, want):
        if not w["tracked"]:
            continue
        where = f"{name} {transform} frame {w['frame']}"
        gx, gy = back(*g["person"]["centroid"], width)
        wx, wy = w["person"]["centroid"]
        assert abs(gx - wx) <= TOL_PX and abs(gy - wy) <= TOL_PX, (where, (gx, gy), (wx, wy))
        parts = {relabel.get(label, label): blob for label, blob in g["parts"].items()}
        assert sorted(parts) == sorted(w["parts"]), where
        for label, blob in parts.items():
            gx, gy = back(*blob["mu"], width)
            wx, wy = w["parts"][label]["mu"]
            assert abs(gx - wx) <= TOL_PX and abs(gy - wy) <= TOL_PX, (where, label)
