"""Command line front end: synth, track and eval.

``track`` wires the full pipeline: scene learning, foreground detection and
refinement, person tracking, torso-relative part modeling, scene adaptation
and activity recognition, writing blobs.jsonl, events.json and metrics.json.
With ``baseline_mode = true`` it also runs the contour-vertex labeler on the
same person component the part model uses and writes baseline.jsonl.

``FrameStep`` is the per-frame core: its ``step(frame, depth)`` returns the
frame's record, baseline labels and overlay without touching a file, so tests
can drive it in memory. ``run_pipeline`` decodes frames and depth rasters one
at a time as the loop reaches them (the scene-learning frames are decoded
first and then fed to the loop), steps each one and appends its records to
``blobs.jsonl.partial`` and ``baseline.jsonl.partial``, which are renamed to
their final names once every frame is stepped and removed if the run fails.
"""

import argparse
import json
import math
import os
import sys
import time
from collections import defaultdict, deque
from contextlib import ExitStack, contextmanager
from dataclasses import asdict
from pathlib import Path

from . import activity as act
from . import baseline as bl
from . import bodyparts as bp
from . import imageio as iio
from . import maskops as mo
from . import scene as sm
from . import synthgen as sg
from . import tracker as tr
from .blobmodel import blob_ellipse
from .config import PipelineConfig, check_box, check_ranges, load_config


def _depth_paths(directory, n_frames):
    """The depth rasters paired with ``n_frames`` frames, or [] when there are none."""
    paths = sorted(Path(directory).glob("depth_*.pgm"), key=iio.frame_sort_key)
    if paths and len(paths) != n_frames:
        raise ValueError(f"{len(paths)} depth rasters for {n_frames} frames in {directory}")
    return paths


def _learn_set(cfg, paths):
    """Decode the first ``learn.frames`` frames; all must share the first
    one's size, which ``box.rect`` is checked against before the rest are
    decoded.

    Each frame's YUV raster is derived as the frame is decoded. Unless
    overlays are written, its RGB plane is then dropped: ``_annotate`` is
    the only reader of a frame's RGB plane once its YUV raster exists.
    """
    frames = []
    size = None
    for i in range(min(cfg.learn_frames, len(paths))):
        frame = iio.read_frame(paths[i], i, size)
        if size is None:
            size = (frame.width, frame.height)
            check_box(cfg, *size, len(paths))
        frame.yuv  # derived now, so that the RGB plane can go
        if not cfg.emit_overlays:
            frame.rgb = None
        frames.append(frame)
    return frames


def _annotate(frame, person, disc, model, box):
    """A copy of the frame's RGB raster with the person box, torso disc, part
    ellipses and box rectangles drawn on it; labels are white."""
    out = frame.rgb.copy()
    white = (255, 255, 255)
    if person is not None:
        x, y = person.bbox[:2]
        iio.draw_rectangle(out, person.bbox, (0, 200, 255))
        iio.draw_text(out, (x, y - 7), "P", white)
    if disc is not None:
        iio.draw_ellipse(out, disc.center, (disc.radius, disc.radius), 0.0, (255, 255, 0))
    if model is not None:
        for label, blob in model.blobs.items():
            (cx, cy), axes, angle = blob_ellipse(blob)
            iio.draw_ellipse(out, (cx, cy), axes, angle, (0, 255, 0))
            iio.draw_text(out, (cx + 3, cy - 7), label, white)
    if box is not None:
        iio.draw_rectangle(out, box.rect, (255, 220, 0))
        iio.draw_rectangle(out, box.tracked_rect, (255, 60, 60))
    return out


@contextmanager
def _timed(stage_ms, stage):
    """Add the block's wall time, in milliseconds, to ``stage_ms[stage]``."""
    t = time.perf_counter()
    yield
    stage_ms[stage] += (time.perf_counter() - t) * 1e3


class FrameStep:
    """The per-frame core over a scene model. It keeps the scene model,
    person, particles and activity monitor from one ``step`` to the next and
    adds each stage's time to ``stage_ms``. Every layer is called through its
    module (``sm.detect_foreground``, ``tr.mspf_track``, ``_annotate``, ...),
    so a function replaced there is the one called."""

    def __init__(self, cfg, model, stage_ms):
        self.cfg, self.model, self.stage_ms = cfg, model, stage_ms
        area = model.width * model.height
        self.refine_min_area = max(1, int(round(cfg.mask_min_area_frac * area)))
        self.person_min_area = max(1, int(round(cfg.person_min_area_frac * area)))
        self.person = self.particles = None
        self.monitor = act.ActivityMonitor(cfg)

    def step(self, frame, depth):
        """Step the next frame and its depth raster (or None). Returns the
        frame's ``blobs.jsonl`` record, its baseline labels (None unless
        ``baseline_mode`` is on and a person is tracked) and its overlay
        raster (None unless ``emit_overlays`` is on)."""
        cfg, ms = self.cfg, self.stage_ms
        with _timed(ms, "foreground"):
            fg = sm.detect_foreground(self.model, frame, cfg.scene_tau)
        with _timed(ms, "refine"):
            se = (cfg.mask_se, cfg.mask_se)
            # with the person component: the largest one, or None when nothing is kept
            refined, component, silhouette = mo.refine_mask(
                fg.bits, self.refine_min_area, se, cfg.mask_iterations
            )

        with _timed(ms, "track"):
            if self.person is None:
                self.person = tr.detect_person(component, silhouette, frame, self.person_min_area)
                if self.person is not None:
                    self.particles = tr.init_particles(self.person, cfg.particles_n, cfg.seed)
            else:
                self.person, self.particles = tr.mspf_track(
                    self.person, self.particles, frame, refined, component, cfg
                )
        person = self.person

        disc = part_model = None
        with _timed(ms, "parts"):
            if person is None:
                silhouette = None  # no labels; the scene update keeps out the whole mask
            elif silhouette is not None and person.bbox[2] >= 2:
                disc = tr.torso_from_person(person)
                partition = bp.partition_regions(silhouette, disc, component.bbox)
                part_model = bp.build_part_model(partition, frame, cfg.parts_min_area)
        with _timed(ms, "scene_update"):
            fg_mask = refined if silhouette is None else silhouette
            sm.update_scene(self.model, frame, fg_mask, cfg.scene_alpha, cfg.scene_var_floor)
        with _timed(ms, "activity"):
            self.monitor.process(frame.index, frame, part_model, depth)

        record = {
            "frame": frame.index,
            "tracked": person is not None,
            "person": None if person is None else {
                "bbox": [int(v) for v in person.bbox],
                "centroid": [float(person.centroid[0]), float(person.centroid[1])],
                "area": int(person.area),
                "confidence": float(person.confidence),
            },
            "torso_disc": None if disc is None else {
                "center": [float(disc.center[0]), float(disc.center[1])],
                "radius": float(disc.radius),
            },
            "parts": {} if part_model is None else {
                label: blob.to_dict() for label, blob in part_model.blobs.items()
            },
            "starfish": part_model is not None and bp.detect_starfish(part_model, disc),
        }
        labels = overlay = None
        if cfg.baseline_mode and silhouette is not None:
            with _timed(ms, "baseline"):
                labels = bl.label_silhouette(silhouette, component)
        if cfg.emit_overlays:
            with _timed(ms, "overlays"):
                overlay = _annotate(frame, person, disc, part_model, self.monitor.box)
        return record, labels, overlay


def run_pipeline(cfg):
    """Run the full tracking pipeline; returns the path of the output dir.
    Records stream to ``.partial`` files that take their final names at the end."""
    check_ranges(cfg)
    outdir = Path(cfg.output)
    outdir.mkdir(parents=True, exist_ok=True)
    # a run must not leave an earlier run's results looking like its own (nor
    # an evaluation of them), nor a killed run's partial records
    for name in ("blobs.jsonl", "events.json", "metrics.json", "baseline.jsonl", "eval.json"):
        (outdir / name).unlink(missing_ok=True)
        (outdir / f"{name}.partial").unlink(missing_ok=True)
    for path in outdir.glob("out_*.ppm"):
        path.unlink()
    stage_ms = defaultdict(float)

    t0 = time.perf_counter()
    with _timed(stage_ms, "load"):
        paths = iio.frame_paths(cfg.input, cfg.pattern)
        n = len(paths)
        depth_paths = _depth_paths(cfg.input, n)
        for dp, fp in zip(depth_paths, paths):  # paired by number, not by position
            if iio.frame_sort_key(dp)[0] != iio.frame_sort_key(fp)[0]:
                raise ValueError(f"{dp} does not match {fp}")
        head = deque(_learn_set(cfg, paths))
    size = (head[0].width, head[0].height)
    with _timed(stage_ms, "learn"):
        model = sm.learn_scene(head, cfg.scene_var_floor)
    step = FrameStep(cfg, model, stage_ms)

    names = ("blobs.jsonl", "baseline.jsonl") if cfg.baseline_mode else ("blobs.jsonl",)
    partials = [outdir / f"{name}.partial" for name in names]
    tracked = 0  # frames with a person
    try:
        with ExitStack() as stack:
            # line-buffered, so each record is in the file once it is written
            files = [stack.enter_context(open(p, "w", buffering=1)) for p in partials]
            for fi in range(n):
                with _timed(stage_ms, "load"):
                    # the read-ahead frames go first; each is dropped once stepped
                    frame = head.popleft() if head else iio.read_frame(paths[fi], fi, size)
                    depth = iio.load_depth_raster(depth_paths[fi], size) if depth_paths else None
                record, labels, overlay = step.step(frame, depth)
                tracked += record["tracked"]
                with _timed(stage_ms, "write"):
                    for fh, rec in zip(files, (record, {"frame": fi, "labels": labels})):
                        fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
                if overlay is not None:
                    with _timed(stage_ms, "overlays"):
                        # a string, so pathlib parses no path per frame
                        iio.write_ppm(os.path.join(outdir, f"out_{fi:06d}.ppm"), overlay)
        for partial, name in zip(partials, names):
            os.replace(partial, outdir / name)
    except BaseException:
        for partial in partials:
            partial.unlink(missing_ok=True)
        raise

    with _timed(stage_ms, "write"), open(outdir / "events.json", "w") as fh:
        json.dump([asdict(e) for e in step.monitor.events], fh, indent=1)
    wall = time.perf_counter() - t0
    learn_ms = stage_ms.pop("learn")  # once, not per frame
    stage_ms["other"] = wall * 1e3 - learn_ms - sum(stage_ms.values())
    metrics = {"frames": n, "tracked_frames": tracked, "wall_time_s": wall, "fps": n / wall}
    metrics["learn_ms"] = learn_ms
    metrics["stage_ms"] = {k: v / n for k, v in sorted(stage_ms.items())}
    with open(outdir / "metrics.json", "w") as fh:
        json.dump(metrics, fh, indent=1)
    return outdir


# ---------------------------------------------------------------------------
# evaluation against ground truth

_PART_CHECKS = ("head", "torso", "leg1", "leg2", "leg3", "leg4")


@contextmanager
def _fields_of(path):
    """Report a missing or mistyped field in what is read from ``path`` as a
    ValueError that names the file."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed ({type(exc).__name__}: {exc})") from None


def _sized(value, n):
    """``value``, checked to hold ``n`` items."""
    if len(value) != n:
        raise ValueError(f"expected {n} values, got {value!r}")
    return value


def _visible_truth(truth):
    """(frame, person centroid, torso rect or None, centroids of the visible
    checked parts, armR visibility or None) of each truth frame that shows
    the person."""
    for entry in truth["per_frame"]:
        if entry.get("person_visible"):
            parts = entry.get("parts", {})
            gt_parts = {
                label: _sized(parts[label]["centroid"], 2)
                for label in _PART_CHECKS
                if parts.get(label) and parts[label].get("visible")
            }
            arm = parts.get("armR")
            rect = entry.get("torso_rect")
            yield (
                entry["frame"],
                _sized(entry["person_centroid"], 2),
                _sized(rect, 4) if rect else None,
                gt_parts,
                None if arm is None else arm["visible"],
            )


def _record_fields(rec):
    """(person centroid when tracked, torso disc center, part means, whether
    armR is present) of one blobs.jsonl record."""
    parts = rec.get("parts", {})
    tracked = rec.get("tracked") and rec.get("person")
    return (
        _sized(rec["person"]["centroid"], 2) if tracked else None,
        _sized(rec["torso_disc"]["center"], 2) if rec.get("torso_disc") else None,
        {label: _sized(blob["mu"], 2) for label, blob in parts.items() if blob},
        "armR" in parts,
    )


def evaluate(output_dir, truth_path):
    """Compare pipeline outputs with scenario ground truth. A missing or
    mistyped field in truth.json, blobs.jsonl or events.json raises a
    ValueError that names the file."""
    output_dir = Path(output_dir)
    blobs_path, events_path = output_dir / "blobs.jsonl", output_dir / "events.json"
    with open(truth_path) as fh, _fields_of(truth_path):
        truth = json.load(fh)
        scenario = truth.get("scenario")
        visible = list(_visible_truth(truth))
        scripted = [(ev["kind"], ev["frame_index"]) for ev in truth.get("events", [])]
    with open(blobs_path) as fh, _fields_of(blobs_path):
        records = (json.loads(line) for line in fh if line.strip())
        by_frame = {r["frame"]: _record_fields(r) for r in records}
    with open(events_path) as fh, _fields_of(events_path):
        events = [(e["kind"], e["frame_index"]) for e in json.load(fh)]

    sq_err, n_err = 0.0, 0
    torso_in_rect, torso_frames = 0, 0
    part_hits = defaultdict(int)
    part_totals = defaultdict(int)
    arm_match, arm_total = 0, 0

    for frame, (gx, gy), torso_rect, gt_parts, gt_arm in visible:
        rec = by_frame.get(frame)
        if rec is None:
            continue
        person, disc, part_mus, has_arm = rec
        tol = 0.15 * (torso_rect[2] if torso_rect else 30)
        if person is not None:
            px, py = person
            sq_err += (px - gx) ** 2 + (py - gy) ** 2
            n_err += 1
        if disc is not None and torso_rect is not None:
            cx, cy = disc
            x, y, w, h = torso_rect
            torso_frames += 1
            if x <= cx <= x + w - 1 and y <= cy <= y + h - 1:
                torso_in_rect += 1
        for label, (tx, ty) in gt_parts.items():
            part_totals[label] += 1
            mu = part_mus.get(label)
            if mu is not None and math.hypot(mu[0] - tx, mu[1] - ty) <= tol:
                part_hits[label] += 1
        if gt_arm is not None:
            arm_total += 1
            arm_match += gt_arm == has_arm

    event_matches = []
    for kind, scripted_frame in scripted:
        found = [f for k, f in events if k == kind and abs(f - scripted_frame) <= 5]
        event_matches.append(
            {
                "kind": kind,
                "scripted_frame": scripted_frame,
                "fired_frame": found[0] if found else None,
                "matched": bool(found),
            }
        )
    approach_frames = [f for k, f in events if k == "Approach"]
    gate_ok = all(
        k == "Approach" or (approach_frames and f >= min(approach_frames))
        for k, f in events
    )

    summary = {
        "scenario": scenario,
        "frames_compared": n_err,
        "centroid_rms_px": math.sqrt(sq_err / n_err) if n_err else None,
        "torso_center_in_rect": torso_in_rect / torso_frames if torso_frames else None,
        "part_agreement": {
            label: (part_hits[label] / part_totals[label])
            for label in _PART_CHECKS
            if part_totals[label]
        },
        "armR_presence_accuracy": arm_match / arm_total if arm_total else None,
        "events_fired": len(events),
        "event_matches": event_matches,
        "extra_events": len(events) - sum(m["matched"] for m in event_matches),
        "state_gate_ok": gate_ok,
    }
    with open(output_dir / "eval.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    return summary


# ---------------------------------------------------------------------------
# argument parsing

_FLAGS = {
    "config": {"help": "flat key=value config file"},
    "input": {"help": "input frame directory"},
    "output": {"help": "output directory"},
    "seed": {"type": int, "help": "random seed"},
    "overlays": {"action": "store_true", "help": "write annotated frames"},
}


def _add_flags(p, *names):
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])


def _build_config(args):
    """The config file, if given, with track's flags on top."""
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.input:
        cfg.input = args.input
    if args.output:
        cfg.output = args.output
    if args.seed is not None:
        cfg.seed = args.seed
    if args.overlays:
        cfg.emit_overlays = True
    return cfg


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hbpt",
        description="Body-parts tracking pipeline over recorded frame sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic scenario")
    _add_flags(p_synth, "output", "seed")
    p_synth.add_argument("--scenario", required=True, choices=sg.SCENARIO_NAMES)
    p_synth.add_argument("--frames", type=int, help="frame count override")

    p_track = sub.add_parser("track", help="run the full tracking pipeline")
    _add_flags(p_track, "config", "input", "output", "seed", "overlays")

    p_eval = sub.add_parser("eval", help="compare outputs against truth.json")
    _add_flags(p_eval, "output")
    p_eval.add_argument("--truth", required=True, help="path to truth.json")

    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            given = {k: getattr(args, k) for k in ("frames", "seed")}
            sc = sg.Scenario(args.scenario, **{k: v for k, v in given.items() if v is not None})
            truth = sg.write_scenario(sc, args.output or ".")
            print(f"wrote {truth['frames']} frames of {sc.name} to {args.output or '.'}")
        elif args.command == "track":
            cfg = _build_config(args)
            outdir = run_pipeline(cfg)
            with open(outdir / "metrics.json") as fh:
                metrics = json.load(fh)
            print(
                f"tracked a person in {metrics['tracked_frames']} of {metrics['frames']} "
                f"frames at {metrics['fps']:.1f} fps -> {outdir}"
            )
        elif args.command == "eval":
            summary = evaluate(args.output or ".", args.truth)
            for key in ("scenario", "frames_compared", "centroid_rms_px",
                        "torso_center_in_rect", "armR_presence_accuracy", "events_fired",
                        "state_gate_ok"):
                print(f"{key}: {summary[key]}")
            for label, value in summary["part_agreement"].items():
                print(f"part_agreement {label}: {value}")
            for m in summary["event_matches"]:
                print(
                    f"event {m['kind']}: scripted {m['scripted_frame']}, "
                    f"fired {m['fired_frame']}, matched {m['matched']}"
                )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
