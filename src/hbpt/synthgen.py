"""Deterministic synthetic scenarios: 320x240 color frames, depth rasters and
ground truth for an articulated stick figure over a textured static background.

Every scenario is reproducible bit for bit from (name, params, seed). The
figure is drawn from rectangles plus a disc head, with chrominance picked so
person, box and background land in distinct UV histogram bins. Ground-truth
part centroids come from partitioning the clean, noise-free mask with the
true centroid and width, so end-to-end tests measure tracking quality rather
than rendering details.
"""

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bodyparts import PART_LABELS, partition_regions
from .imageio import Frame, write_pgm16, write_ppm
from .tracker import TorsoDisc

_DEFAULT_FRAMES = {
    "background": 130,
    "walker": 300,
    "starfish": 60,
    "occluded_arm": 210,
    "approach_box": 140,
    "open_box": 170,
    "carry_box": 160,
    "null_walk": 150,
}
SCENARIO_NAMES = tuple(_DEFAULT_FRAMES)
# scenarios with a box, which also come with depth rasters
_BOX_SCENARIOS = ("approach_box", "open_box", "carry_box", "null_walk")

# palette (RGB); chosen for well-separated UV bins
BG_BASE = (120, 130, 115)
SHIRT = (200, 40, 40)
PANTS = (40, 60, 190)
SKIN = (230, 180, 140)
BOX_A = (220, 200, 40)
BOX_B = (190, 170, 30)
BOX_OPEN_A = (150, 40, 180)
BOX_OPEN_B = (120, 30, 150)

# frame size; every script below places the figure and box in these pixels
WIDTH, HEIGHT = 320, 240

BG_DEPTH_MM = 4000
PERSON_DEPTH_MM = 2000
BOX_DEPTH_MM = 2000

BOX_RECT = (230, 112, 24, 20)
BOX_REF_FRAME = 35

NOISE_SIGMA = 2.0  # per-channel Gaussian pixel noise
LEARN_FRAMES = 30  # person-free frames at the start of every scenario
WALK_SPEED = 3  # px per frame

# figure primitives in local coordinates (origin at top-center of the head)
_HEAD = ("disc", 0, 7, 7)
_TORSO = ("rect", -15, 14, 15, 69)
_ARM_L_DOWN = ("rect", -21, 16, -15, 51)
_ARM_R_DOWN = ("rect", 15, 16, 21, 51)
_ARM_L_EXT = ("rect", -45, 18, -15, 26)
_ARM_R_EXT = ("rect", 15, 18, 45, 26)
_LEG_L = ("rect", -13, 69, -3, 114)
_LEG_R = ("rect", 3, 69, 13, 114)

_POSES = {
    "down": {"armL": _ARM_L_DOWN, "armR": _ARM_R_DOWN},
    "star": {"armL": _ARM_L_EXT, "armR": _ARM_R_EXT},
    "reach": {"armL": _ARM_L_DOWN, "armR": _ARM_R_EXT},
    "reach_hidden": {"armL": _ARM_L_DOWN, "armR": None},
}


@dataclass
class Scenario:
    name: str
    frames: int | None = None
    seed: int = 7

    def __post_init__(self):
        if self.name not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario {self.name!r}")
        if self.frames is None:
            self.frames = _DEFAULT_FRAMES[self.name]
        if self.frames < 2:
            raise ValueError(f"scenario needs at least 2 frames, got {self.frames}")
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")


def _ping_pong(start, lo, hi, step, t):
    """Position after t steps bouncing between lo and hi."""
    span = hi - lo
    x = (start - lo + step * t) % (2 * span)
    return lo + (x if x <= span else 2 * span - x)


def _person_script(sc, f):
    """Scripted figure placement for frame f, or None when absent."""
    if sc.name == "background" or f < LEARN_FRAMES:
        return None
    t = f - LEARN_FRAMES
    if sc.name == "walker":
        return {"ox": _ping_pong(40, 40, 230, WALK_SPEED, t), "oy": 100, "pose": "down"}
    if sc.name == "starfish":
        return {"ox": 160, "oy": 70, "pose": "star"}
    if sc.name == "occluded_arm":
        hidden = 100 <= f < 150
        return {"ox": 140, "oy": 100, "pose": "reach_hidden" if hidden else "reach"}
    if sc.name in ("approach_box", "open_box", "carry_box"):
        ox = min(60 + WALK_SPEED * t, 177)
        if sc.name == "carry_box" and f >= 100:
            ox = max(177 - WALK_SPEED * (f - 100), 87)
        return {"ox": ox, "oy": 100, "pose": "reach"}
    if sc.name == "null_walk":
        return {"ox": _ping_pong(40, 40, 150, WALK_SPEED, t), "oy": 100, "pose": "reach"}
    return None


def _box_script(sc, f):
    """Current box rectangle and appearance, or None when absent."""
    if sc.name not in _BOX_SCENARIOS:
        return None
    if f < LEARN_FRAMES:
        return None
    x, y, w, h = BOX_RECT
    opened = sc.name == "open_box" and f >= 100
    if sc.name == "carry_box" and f >= 100:
        x = max(BOX_RECT[0] - WALK_SPEED * (f - 100), BOX_RECT[0] - 90)
    return {"rect": (x, y, w, h), "opened": opened}


def _part_primitives(pose):
    prims = {"head": _HEAD, "torso": _TORSO, "legL": _LEG_L, "legR": _LEG_R}
    prims["armL"] = _POSES[pose]["armL"]
    prims["armR"] = _POSES[pose]["armR"]
    return prims


def _stamp(mask_or_img, prim, ox, oy, value):
    """Draw one primitive at offset (ox, oy), clipped to the frame."""
    kind = prim[0]
    if kind == "rect":
        _, x0, y0, x1, y1 = prim
        x0, y0, x1, y1 = ox + x0, oy + y0, ox + x1, oy + y1
        shape = None
    else:
        _, cx, cy, r = prim
        x0, y0, x1, y1 = ox + cx - r, oy + cy - r, ox + cx + r + 1, oy + cy + r + 1
        ys, xs = np.mgrid[-r : r + 1, -r : r + 1]
        shape = xs * xs + ys * ys <= r * r
    h, w = mask_or_img.shape[:2]
    cx0, cy0, cx1, cy1 = max(x0, 0), max(y0, 0), min(x1, w), min(y1, h)
    if cx0 >= cx1 or cy0 >= cy1:
        return
    sl = np.s_[cy0:cy1, cx0:cx1]
    if shape is None:
        mask_or_img[sl] = value
    else:
        mask_or_img[sl][shape[cy0 - y0 : cy1 - y0, cx0 - x0 : cx1 - x0]] = value


def render_person_mask(mask, ox, oy, pose):
    """Stamp the clean figure silhouette for a pose into a boolean mask."""
    for prim in _part_primitives(pose).values():
        if prim is not None:
            _stamp(mask, prim, ox, oy, True)
    return mask


def _render_person(rgb, mask, script):
    ox, oy, pose = script["ox"], script["oy"], script["pose"]
    prims = _part_primitives(pose)
    colors = {
        "legL": PANTS,
        "legR": PANTS,
        "torso": SHIRT,
        "armL": SHIRT,
        "armR": SHIRT,
        "head": SKIN,
    }
    for part in ("legL", "legR", "torso", "armL", "armR", "head"):
        prim = prims[part]
        if prim is not None:
            _stamp(rgb, prim, ox, oy, colors[part])
    render_person_mask(mask, ox, oy, pose)


def _clip_rect(rect, shape):
    """(y0, y1, x0, x1) of rect = (x, y, w, h) clipped to a frame of ``shape``."""
    x, y, w, h = rect
    return max(y, 0), min(y + h, shape[0]), max(x, 0), min(x + w, shape[1])


def _render_box(rgb, box):
    """Draw the checkered box, clipped to the frame; the checker is anchored
    at the box origin wherever that lies."""
    x, y, _, _ = box["rect"]
    y0, y1, x0, x1 = _clip_rect(box["rect"], rgb.shape)
    if y0 >= y1 or x0 >= x1:
        return
    pal = (BOX_OPEN_A, BOX_OPEN_B) if box["opened"] else (BOX_A, BOX_B)
    ys, xs = np.mgrid[y0 - y : y1 - y, x0 - x : x1 - x]
    checker = ((xs // 3) + (ys // 3)) % 2
    tile = np.where(checker[..., None] == 0, pal[0], pal[1])
    rgb[y0:y1, x0:x1] = tile


def _hand_tip(script):
    prim = _part_primitives(script["pose"])["armR"]
    if prim is None or prim is _ARM_R_DOWN:
        return None
    _, x0, y0, x1, y1 = prim
    return (script["ox"] + x1 - 1, script["oy"] + (y0 + y1) // 2)


def _truth_for_frame(sc, f, mask, script, box):
    # a figure scripted wholly outside the frame is not visible
    entry = {"frame": f, "person_visible": script is not None and bool(mask.any())}
    if box is not None:
        entry["box_rect"] = list(box["rect"])
        entry["box_opened"] = box["opened"]
    if not entry["person_visible"]:
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
    tr = _TORSO
    entry["torso_rect"] = [
        script["ox"] + tr[1],
        script["oy"] + tr[2],
        tr[3] - tr[1],
        tr[4] - tr[2],
    ]
    hand = _hand_tip(script)
    entry["hand"] = list(hand) if hand else None
    disc = TorsoDisc(center=(cx, cy), radius=bbox[2] / 2.0)
    partition = partition_regions(mask, disc, bbox)
    parts = {}
    for label in PART_LABELS:
        region = partition.masks[label]
        area = int(region.sum())
        if area >= 15:
            rys, rxs = np.nonzero(region)
            # frame coordinates as ints before the mean, as over the full frame
            rxs += bbox[0]
            rys += bbox[1]
            parts[label] = {
                "centroid": [float(rxs.mean()), float(rys.mean())],
                "area": area,
                "visible": True,
            }
        else:
            parts[label] = {"centroid": None, "area": area, "visible": False}
    entry["parts"] = parts
    return entry


def _scripted_events(sc):
    if sc.name == "approach_box":
        return [{"kind": "Approach", "frame_index": 62}]
    if sc.name == "open_box":
        return [{"kind": "Approach", "frame_index": 62}, {"kind": "Open", "frame_index": 100}]
    if sc.name == "carry_box":
        return [{"kind": "Approach", "frame_index": 62}, {"kind": "Carry", "frame_index": 100}]
    return []


def _add_noise(rgb, rng):
    """The uint8 ``rgb`` plus Gaussian pixel noise, rounded and clipped to uint8.

    The frame is added into the float64 noise array, which is rounded and
    clipped in place: the one full-frame float64 array, freed on return. The
    sums are those of adding the noise to a float64 frame, since IEEE
    addition is commutative.
    """
    noisy = rng.normal(0.0, NOISE_SIGMA, size=rgb.shape)
    noisy += rgb
    np.rint(noisy, out=noisy)
    return np.clip(noisy, 0, 255, out=noisy).astype(np.uint8)


def render_frames(sc):
    """Render a scenario one frame at a time, in frame order.

    Yields (frame, depth, entry) per frame: the ``Frame``, its (h, w) int32
    millimeter depth raster or None for scenarios without a box, and its
    ``truth.json`` ``per_frame`` entry. Only one frame is held at a time.

    Frames are drawn in uint8 (see ``_add_noise``).
    """
    w, h = WIDTH, HEIGHT
    rng = np.random.default_rng(sc.seed)
    blocks = rng.integers(-12, 13, size=(h // 8 + 1, w // 8 + 1, 3))
    # the blocks are clipped before they are tiled, which gives the same pixels
    tiles = np.clip(np.array(BG_BASE) + blocks, 0, 255).astype(np.uint8)
    background = np.repeat(np.repeat(tiles, 8, axis=0), 8, axis=1)[:h, :w]

    for f in range(sc.frames):
        rgb = background.copy()
        mask = np.zeros((h, w), dtype=bool)
        box = _box_script(sc, f)
        if box is not None:
            _render_box(rgb, box)
        script = _person_script(sc, f)
        if script is not None:
            _render_person(rgb, mask, script)
        out = _add_noise(rgb, rng)
        z = None
        if sc.name in _BOX_SCENARIOS:
            z = np.full((h, w), BG_DEPTH_MM, dtype=np.int32)
            if box is not None:
                y0, y1, x0, x1 = _clip_rect(box["rect"], z.shape)
                z[y0:y1, x0:x1] = BOX_DEPTH_MM
            if script is not None:
                z[mask] = PERSON_DEPTH_MM
        yield Frame(index=f, rgb=out), z, _truth_for_frame(sc, f, mask, script, box)


def _truth(sc, per_frame):
    return {
        "scenario": sc.name,
        "width": WIDTH,
        "height": HEIGHT,
        "frames": sc.frames,
        "seed": sc.seed,
        "noise_sigma": NOISE_SIGMA,
        "learn_frames": LEARN_FRAMES,
        "box": (
            {"rect": list(BOX_RECT), "ref_frame": BOX_REF_FRAME}
            if sc.name in _BOX_SCENARIOS
            else None
        ),
        "events": _scripted_events(sc),
        "per_frame": per_frame,
    }


def generate_scenario(scenario):
    """Render all frames, depth rasters and ground truth for a scenario.

    Returns (frames, depths, truth): depths is a list of (h, w) int32
    millimeter arrays, or None for scenarios without a box. The same (name,
    params, seed) always produces identical output.
    """
    frames, depths, per_frame = (list(col) for col in zip(*render_frames(scenario)))
    if scenario.name not in _BOX_SCENARIOS:
        depths = None
    return frames, depths, _truth(scenario, per_frame)


def write_scenario(scenario, outdir):
    """Write frame_%06d.ppm and depth_%06d.pgm as each frame is rendered,
    then truth.json; returns the truth."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    base = os.fspath(outdir)  # per-frame names as strings: no pathlib parse per file
    per_frame = []
    for frame, z, entry in render_frames(scenario):
        write_ppm(os.path.join(base, f"frame_{frame.index:06d}.ppm"), frame.rgb)
        if z is not None:
            write_pgm16(os.path.join(base, f"depth_{frame.index:06d}.pgm"), z)
        per_frame.append(entry)
    truth = _truth(scenario, per_frame)
    with open(outdir / "truth.json", "w") as fh:
        json.dump(truth, fh)
    return truth
