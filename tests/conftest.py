import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from hbpt import cli
from hbpt import maskops as mo
from hbpt import scene as sm
from hbpt import synthgen as sg
from hbpt.config import PipelineConfig
from hbpt.imageio import Frame

# the scenarios the acceptance criteria track, each at its default seed (7)
ACCEPTANCE_SCENARIOS = (
    "walker", "occluded_arm", "approach_box", "open_box", "carry_box", "null_walk",
)


@pytest.fixture(scope="session")
def scenario_dir(tmp_path_factory):
    """Generate each requested scenario once per session."""
    root = tmp_path_factory.mktemp("scenarios")
    cache = {}

    def build(name, **params):
        key = (name, tuple(sorted(params.items())))
        if key not in cache:
            out = root / f"{name}_{len(cache)}"
            truth = sg.write_scenario(sg.Scenario(name, **params), out)
            cache[key] = (out, truth)
        return cache[key]

    return build


def run_scenario(root, name):
    """Render scenario ``name`` at its default seed into root/in and track it,
    with default settings and the box from its truth, into root/out. Returns
    (root, truth, the ``evaluate`` summary)."""
    indir = root / "in"
    truth = sg.write_scenario(sg.Scenario(name), indir)
    box = truth.get("box") or {}
    cfg = PipelineConfig(
        input=str(indir),
        output=str(root / "out"),
        box_rect=box.get("rect", []),
        box_ref_frame=box.get("ref_frame", 0),
    )
    cli.run_pipeline(cfg)
    return root, truth, cli.evaluate(root / "out", indir / "truth.json")


@pytest.fixture(scope="session")
def acceptance_run(tmp_path_factory):
    """``run_scenario`` of each acceptance scenario, made once per session,
    so the acceptance criteria and the golden digests read the same files."""
    cache = {}

    def run(name):
        if name not in cache:
            cache[name] = run_scenario(tmp_path_factory.mktemp(f"acc_{name}"), name)
        return cache[name]

    return run


def frame_from_rgb(rgb, index=0):
    return Frame(index=index, rgb=np.asarray(rgb, dtype=np.uint8))


def flat_frame(color, width=40, height=30, index=0):
    rgb = np.tile(np.array(color, np.uint8), (height, width, 1))
    return frame_from_rgb(rgb, index)


def fill_holes(mask):
    """Set enclosed background regions (4-connected, off-border) to
    foreground: the hole-fill oracle of ``maskops.fill_holes_many``."""
    bg_labels, bg_count = ndimage.label(~mask)
    if not bg_count:
        return mask.copy()
    border = np.zeros(mask.shape, dtype=bool)
    border[0, :] = border[-1, :] = True
    border[:, 0] = border[:, -1] = True
    outside = sorted(int(v) for v in np.unique(bg_labels[border]) if v != 0)
    filled = mask.copy()
    filled[(~mask) & ~np.isin(bg_labels, outside)] = True
    return filled


def nesting_masks(rng, count):
    """Random masks of many sizes and densities; every other one has a 1-px
    ring drawn near its border around random pixels 2-4 px inside it, so
    that components lie in the ring's hole."""
    for k in range(count):
        h, w = (int(v) for v in rng.integers(3, 26, 2))
        m = rng.random((h, w)) < rng.choice([0.02, 0.1, 0.3, 0.6])
        if k % 2 and h >= 9 and w >= 9:
            y0, x0 = (int(v) for v in rng.integers(0, 3, 2))
            y1, x1 = h - int(rng.integers(0, 3)), w - int(rng.integers(0, 3))
            m[y0:y1, x0:x1] = False
            m[y0:y1, (x0, x1 - 1)] = True
            m[(y0, y1 - 1), x0:x1] = True
            g = int(rng.integers(2, 5))
            inner = m[y0 + g : y1 - g, x0 + g : x1 - g]
            inner[...] = rng.random(inner.shape) < rng.uniform(0.1, 0.6)
        yield m


@dataclass
class Components:
    labels: np.ndarray  # (h, w) int32, 0 = background
    stats: list  # maskops.ComponentStats, index i -> label i+1

    @property
    def count(self):
        return len(self.stats)


def connected_components(mask):
    """Label the 8-connected components of the whole frame, in the raster
    order of each component's first pixel, with their stats: the component
    oracle of ``maskops.refine_mask``'s person component."""
    labels, count = ndimage.label(mask, structure=np.ones((3, 3), bool))
    labels = labels.astype(np.int32)
    stats = []
    if count:
        ys, xs = np.nonzero(labels)
        vals = labels[ys, xs]
        order = np.argsort(vals, kind="stable")
        ys, xs, vals = ys[order], xs[order], vals[order]
        bounds = np.searchsorted(vals, np.arange(1, count + 2))
        for i in range(count):
            sy = ys[bounds[i] : bounds[i + 1]]
            sx = xs[bounds[i] : bounds[i + 1]]
            x0, x1 = int(sx.min()), int(sx.max())
            y0, y1 = int(sy.min()), int(sy.max())
            stats.append(
                mo.ComponentStats(
                    area=int(sx.size),
                    bbox=(x0, y0, x1 - x0 + 1, y1 - y0 + 1),
                    centroid=(float(sx.mean()), float(sy.mean())),
                )
            )
    return Components(labels=labels, stats=stats)


def largest_index(comps):
    """Index of the largest component, the first one on ties; None when there is none."""
    if not comps.count:
        return None
    return max(range(comps.count), key=lambda i: comps.stats[i].area)


def person_component(mask):
    """Stats and frame-sized pixel mask of the mask's largest component, or
    (None, None): what ``maskops.refine_mask`` hands over with a refined mask."""
    comps = connected_components(mask)
    best = largest_index(comps)
    if best is None:
        return None, None
    return comps.stats[best], comps.labels == best + 1


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def frame_step(cfg, frames):
    """A ``cli.FrameStep`` over the scene learned from the first
    ``learn_frames`` of ``frames``, as ``track`` makes it."""
    model = sm.learn_scene(frames[: cfg.learn_frames], cfg.scene_var_floor)
    return cli.FrameStep(cfg, model, defaultdict(float))


def step_in_memory(cfg, frames, depths=None):
    """Step ``frames`` (and ``depths``) through ``frame_step(cfg, frames)``,
    as ``track`` does, without reading or writing a file. Returns the step
    and what each ``step`` call returned."""
    step = frame_step(cfg, frames)
    return step, [step.step(f, d) for f, d in zip(frames, depths or [None] * len(frames))]
