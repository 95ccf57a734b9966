"""Golden digests: the pipeline's inputs and outputs are byte-identical to the
ones recorded in ``golden_outputs.json``.

- Seed 1: every synthetic scenario is rendered and stepped in memory through
  a ``cli.FrameStep`` with ``baseline_mode`` and overlays on and, where the
  scenario has one, the box from its truth. Each frame has one entry: the
  digests of its RGB raster, its depth raster ("-" when there is none), its
  ``blobs.jsonl`` line, its ``baseline.jsonl`` line and its overlay raster.
  ``truth.json`` and ``events.json`` have one digest each.
- Seed 7: each ``blobs.jsonl`` line and the ``events.json`` that the
  acceptance runs (conftest's ``acceptance_run``) write.
- PNG: every 30th ``occluded_arm`` frame at seed 1 is encoded as RGB PNG,
  row r with filter type r % 5, and ``read_png`` must return the rendered
  raster exactly. With an exact decoder, tracking PNG frames gives the
  outputs of tracking the PPM ones.

A digest is the first 8 hex digits of the sha256 of the bytes. A failure
names the first scenario, seed, frame and file that differ. The file also
records the Python, numpy and scipy versions it was made with, and the test
fails on others. When outputs move by design, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py

and name each changed output in CHANGES.md.
"""

import dataclasses
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from hbpt import imageio as iio
from hbpt import synthgen as sg
from hbpt.config import PipelineConfig

from conftest import ACCEPTANCE_SCENARIOS, frame_step, run_scenario
from test_imageio import _png_bytes

GOLDEN = Path(__file__).with_name("golden_outputs.json")
PNG_SCENARIO, PNG_EVERY = "occluded_arm", 30


def _versions():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:8]


def _line(record):
    """A record as ``track`` writes it to a .jsonl file."""
    return (json.dumps(record, separators=(",", ":")) + "\n").encode()


def _png_decodes_exactly(frame):
    """Whether ``read_png`` gives back the frame's raster from it encoded as
    PNG, row r filtered with type r % 5."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"frame_{frame.index:06d}.png"
        path.write_bytes(_png_bytes(frame.rgb, np.arange(frame.height) % 5))
        return np.array_equal(iio.read_png(path), frame.rgb)


def _png_failure(name, bad):
    """What to report when the sampled PNG frames ``bad`` of ``name`` decode wrong."""
    return (
        f"{name} seed 1 frame {bad[0]}: frame_{bad[0]:06d}.png (row filter r % 5) decodes "
        f"to other pixels, as do {len(bad) - 1} more of the sampled frames"
    )


def seed_1_digests(name):
    """(digests, bad PNG frames) of scenario ``name`` at seed 1: the digests
    as the golden file holds them, and the sampled frames whose PNG does not
    decode to their raster (always [] but for PNG_SCENARIO)."""
    frames, depths, truth = sg.generate_scenario(sg.Scenario(name, seed=1))
    box = truth["box"] or {}
    cfg = PipelineConfig(
        baseline_mode=True,
        emit_overlays=True,
        box_rect=box.get("rect", []),
        box_ref_frame=box.get("ref_frame", 0),
    )
    step = frame_step(cfg, frames)
    rows, png_bad = [], []
    for i, (frame, depth) in enumerate(zip(frames, depths or [None] * len(frames))):
        record, labels, overlay = step.step(frame, depth)
        rows.append(" ".join([
            _digest(frame.rgb.tobytes()),
            "-" if depth is None else _digest(depth.tobytes()),
            _digest(_line(record)),
            _digest(_line({"frame": i, "labels": labels})),
            _digest(overlay.tobytes()),
        ]))
        if name == PNG_SCENARIO and i % PNG_EVERY == 0 and not _png_decodes_exactly(frame):
            png_bad.append(i)
        frames[i] = None  # drop each frame's planes once it is stepped
    events = [dataclasses.asdict(e) for e in step.monitor.events]
    digests = {
        "truth.json": _digest(json.dumps(truth).encode()),
        "frames": rows,
        "events.json": _digest(json.dumps(events, indent=1).encode()),
    }
    return digests, png_bad


def seed_7_digests(root):
    """The golden digests of the acceptance run whose files are under root/out."""
    out = root / "out"
    lines = (out / "blobs.jsonl").read_bytes().splitlines(keepends=True)
    return {
        "blobs.jsonl": [_digest(line) for line in lines],
        "events.json": _digest((out / "events.json").read_bytes()),
    }


def _frame_files(key, i):
    """The files each digest of entry ``i`` of list ``key`` stands for."""
    if key == "frames":
        return (f"frame_{i:06d}.ppm", f"depth_{i:06d}.pgm", "blobs.jsonl", "baseline.jsonl",
                f"out_{i:06d}.ppm")
    return (key,)


def first_difference(label, want, got):
    """Where the digests ``got`` of the run ``label`` ("walker seed 1") first
    differ from the golden ``want``, or None when they do not."""
    if list(want) != list(got):
        return f"{label}: the golden file holds {list(want)}, the run gives {list(got)}"
    for key, w in want.items():
        g = got[key]
        if isinstance(w, str):
            if w != g:
                return f"{label}: {key} differs (golden {w}, now {g})"
            continue
        for i, (wi, gi) in enumerate(zip(w, g)):
            for file, a, b in zip(_frame_files(key, i), wi.split(), gi.split()):
                if a != b:
                    return f"{label} frame {i}: {file} differs (golden {a}, now {b})"
        if len(w) != len(g):
            return f"{label}: {key} has {len(w)} frames in the golden file, {len(g)} now"
    return None


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_was_made_with_these_versions(golden):
    assert golden["versions"] == _versions(), (
        f"{GOLDEN.name} was made with {golden['versions']}, this is {_versions()}: "
        "outputs may differ for that reason alone"
    )


@pytest.mark.parametrize("name", sg.SCENARIO_NAMES)
def test_seed_1_outputs_match_golden(golden, name):
    digests, png_bad = seed_1_digests(name)
    assert not png_bad, _png_failure(name, png_bad)
    diff = first_difference(f"{name} seed 1", golden["seed 1"][name], digests)
    assert diff is None, diff


def test_seed_7_acceptance_outputs_match_golden(golden, acceptance_run):
    for name in ACCEPTANCE_SCENARIOS:
        root, _, _ = acceptance_run(name)
        diff = first_difference(f"{name} seed 7", golden["seed 7"][name], seed_7_digests(root))
        assert diff is None, diff


def main():
    """Rewrite the golden file from the current source."""
    golden = {"versions": _versions(), "seed 1": {}, "seed 7": {}}
    for name in sg.SCENARIO_NAMES:
        golden["seed 1"][name], png_bad = seed_1_digests(name)
        if png_bad:
            sys.exit(_png_failure(name, png_bad))
    with tempfile.TemporaryDirectory() as tmp:
        for name in ACCEPTANCE_SCENARIOS:
            root, _, _ = run_scenario(Path(tmp) / name, name)
            golden["seed 7"][name] = seed_7_digests(root)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
