"""Command line front end: synth, learn, track, baseline and eval.

``track`` wires the full pipeline: scene learning, foreground detection and
refinement, person tracking, torso-relative part modeling, scene adaptation
and activity recognition, writing blobs.jsonl, events.json and metrics.json.
``baseline`` is the same run with the contour-vertex labeler switched on; it
labels the same person component the part model uses.
Frames and depth rasters are decoded one at a time as the loop reaches them,
apart from the scene-learning frames, which are decoded first and then fed
to the loop.
"""

import argparse
import json
import math
import sys
import time
from collections import defaultdict, deque
from dataclasses import asdict
from pathlib import Path

import numpy as np

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


def _learn_set(paths, count):
    """Decode the first ``count`` frames; all must share the first one's size."""
    first = iio.read_frame(paths[0], 0)
    size = (first.width, first.height)
    return [first] + [iio.read_frame(paths[i], i, size) for i in range(1, count)]


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


def run_pipeline(cfg):
    """Run the full tracking pipeline; returns the path of the output dir."""
    check_ranges(cfg)
    outdir = Path(cfg.output)
    outdir.mkdir(parents=True, exist_ok=True)
    # a run that fails must not leave an earlier run's results looking like its own
    for name in ("blobs.jsonl", "events.json", "metrics.json", "baseline.jsonl"):
        (outdir / name).unlink(missing_ok=True)
    for path in outdir.glob("out_*.ppm"):
        path.unlink()
    stage_ms = defaultdict(float)

    def timed(stage, fn, *args, **kwargs):
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        stage_ms[stage] += (time.perf_counter() - t) * 1e3
        return out

    t0 = time.perf_counter()
    paths = timed("load", iio.frame_paths, cfg.input, cfg.pattern)
    n = len(paths)
    depth_paths = timed("load", _depth_paths, cfg.input, n)
    # with a scene file only the first frame is read ahead, for its size
    head = deque(
        timed("load", _learn_set, paths, 1 if cfg.scene_file else min(cfg.learn_frames, n))
    )
    size = (head[0].width, head[0].height)
    check_box(cfg, *size, n)
    frame_area = size[0] * size[1]
    refine_min_area = max(1, int(round(cfg.mask_min_area_frac * frame_area)))
    person_min_area = max(1, int(round(cfg.person_min_area_frac * frame_area)))

    if cfg.scene_file:
        model = sm.load_scene(cfg.scene_file)
        if (model.width, model.height) != size:
            raise ValueError(
                f"{cfg.scene_file}: scene is {model.width}x{model.height}, "
                f"frames are {size[0]}x{size[1]}"
            )
        # the file stores var_floor as float32
        if np.float32(cfg.scene_var_floor) != np.float32(model.var_floor):
            raise ValueError(
                f"{cfg.scene_file}: scene was learned with scene.var_floor = "
                f"{model.var_floor:g}, the config sets {cfg.scene_var_floor:g}"
            )
    else:
        model = timed("learn", sm.learn_scene, head, cfg.scene_var_floor)

    monitor = act.ActivityMonitor(cfg)

    person = None
    particles = None
    se = (cfg.mask_se, cfg.mask_se)
    records = []
    baseline_records = []

    for fi in range(n):
        # the read-ahead frames go first; each is dropped once stepped
        frame = head.popleft() if head else timed("load", iio.read_frame, paths[fi], fi, size)
        depth = (
            timed("load", iio.load_depth_raster, depth_paths[fi], size) if depth_paths else None
        )
        fg = timed("foreground", sm.detect_foreground, model, frame, cfg.scene_tau)
        refined = timed(
            "refine", mo.refine_mask, fg.bits, refine_min_area, se, cfg.mask_iterations
        )
        comps = timed("components", mo.connected_components, refined)
        # the person component: the largest one, or None on an empty mask
        largest = mo.largest_component(comps)
        component = None if largest is None else comps.stats[largest]

        t = time.perf_counter()
        silhouette = None if component is None else comps.labels == largest + 1
        if person is None:
            person = tr.detect_person(component, silhouette, frame, person_min_area)
            if person is not None:
                particles = tr.init_particles(person, cfg.particles_n, cfg.seed)
        else:
            person, particles = tr.mspf_track(person, particles, frame, refined, component, cfg)
        stage_ms["track"] += (time.perf_counter() - t) * 1e3

        disc = None
        t = time.perf_counter()
        if person is None:
            silhouette = None  # no labels; the scene update keeps out the whole mask
        elif silhouette is not None and person.bbox[2] >= 2:
            disc = tr.torso_from_person(person)
        if disc is not None:
            partition = bp.partition_regions(silhouette, disc, component.bbox)
            part_model = bp.build_part_model(partition, frame, cfg.parts_min_area)
        else:
            part_model = None
        stage_ms["parts"] += (time.perf_counter() - t) * 1e3

        t = time.perf_counter()
        sm.update_scene(
            model, frame, refined if silhouette is None else silhouette, cfg.scene_alpha
        )
        stage_ms["scene_update"] += (time.perf_counter() - t) * 1e3

        t = time.perf_counter()
        monitor.process(fi, frame, part_model, depth)
        stage_ms["activity"] += (time.perf_counter() - t) * 1e3

        rec = {
            "frame": fi,
            "tracked": person is not None,
            "person": None
            if person is None
            else {
                "bbox": [int(v) for v in person.bbox],
                "centroid": [float(person.centroid[0]), float(person.centroid[1])],
                "area": int(person.area),
                "confidence": float(person.confidence),
            },
            "torso_disc": None
            if disc is None
            else {
                "center": [float(disc.center[0]), float(disc.center[1])],
                "radius": float(disc.radius),
            },
            "parts": {}
            if part_model is None
            else {label: blob.to_dict() for label, blob in part_model.blobs.items()},
            "starfish": part_model is not None and bp.detect_starfish(part_model, disc),
        }
        records.append(rec)

        if cfg.baseline_mode:
            labels = (
                timed("baseline", bl.label_silhouette, silhouette, component)
                if silhouette is not None
                else None
            )
            baseline_records.append({"frame": fi, "labels": labels})

        if cfg.emit_overlays:
            t = time.perf_counter()
            rgb = _annotate(frame, person, disc, part_model, monitor.box)
            iio.write_ppm(outdir / f"out_{fi:06d}.ppm", rgb)
            stage_ms["overlays"] += (time.perf_counter() - t) * 1e3

    t = time.perf_counter()
    with open(outdir / "blobs.jsonl", "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
    if cfg.baseline_mode:
        with open(outdir / "baseline.jsonl", "w") as fh:
            for rec in baseline_records:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
    with open(outdir / "events.json", "w") as fh:
        json.dump([asdict(e) for e in monitor.events], fh, indent=1)
    stage_ms["write"] += (time.perf_counter() - t) * 1e3
    wall = time.perf_counter() - t0
    learn_ms = stage_ms.pop("learn", 0.0)  # once, not per frame
    stage_ms["other"] = wall * 1e3 - learn_ms - sum(stage_ms.values())
    metrics = {
        "frames": n,
        "wall_time_s": wall,
        "fps": n / wall,
        "learn_ms": learn_ms,
        "stage_ms": {k: v / n for k, v in sorted(stage_ms.items())},
    }
    with open(outdir / "metrics.json", "w") as fh:
        json.dump(metrics, fh, indent=1)
    return outdir


# ---------------------------------------------------------------------------
# evaluation against ground truth

def _read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def evaluate(output_dir, truth_path):
    """Compare pipeline outputs with scenario ground truth."""
    output_dir = Path(output_dir)
    with open(truth_path) as fh:
        truth = json.load(fh)
    records = _read_jsonl(output_dir / "blobs.jsonl")
    with open(output_dir / "events.json") as fh:
        events = json.load(fh)
    by_frame = {r["frame"]: r for r in records}

    sq_err, n_err = 0.0, 0
    torso_in_rect, torso_frames = 0, 0
    part_hits = defaultdict(int)
    part_totals = defaultdict(int)
    arm_match, arm_total = 0, 0
    part_checks = ("head", "torso", "leg1", "leg2", "leg3", "leg4")

    for entry in truth["per_frame"]:
        if not entry.get("person_visible"):
            continue
        rec = by_frame.get(entry["frame"])
        if rec is None:
            continue
        tw = entry["torso_rect"][2] if entry.get("torso_rect") else 30
        tol = 0.15 * tw
        if rec.get("tracked") and rec.get("person"):
            gx, gy = entry["person_centroid"]
            px, py = rec["person"]["centroid"]
            sq_err += (px - gx) ** 2 + (py - gy) ** 2
            n_err += 1
        if rec.get("torso_disc") and entry.get("torso_rect"):
            cx, cy = rec["torso_disc"]["center"]
            x, y, w, h = entry["torso_rect"]
            torso_frames += 1
            if x <= cx <= x + w - 1 and y <= cy <= y + h - 1:
                torso_in_rect += 1
        parts = rec.get("parts", {})
        for label in part_checks:
            gt = entry.get("parts", {}).get(label)
            if not gt or not gt.get("visible"):
                continue
            part_totals[label] += 1
            blob = parts.get(label)
            if blob:
                bx, by = blob["mu"]
                gx, gy = gt["centroid"]
                if math.hypot(bx - gx, by - gy) <= tol:
                    part_hits[label] += 1
        gt_arm = entry.get("parts", {}).get("armR")
        if gt_arm is not None:
            arm_total += 1
            if (gt_arm["visible"]) == ("armR" in parts):
                arm_match += 1

    event_matches = []
    for gt_ev in truth.get("events", []):
        found = [
            e
            for e in events
            if e["kind"] == gt_ev["kind"]
            and abs(e["frame_index"] - gt_ev["frame_index"]) <= 5
        ]
        event_matches.append(
            {
                "kind": gt_ev["kind"],
                "scripted_frame": gt_ev["frame_index"],
                "fired_frame": found[0]["frame_index"] if found else None,
                "matched": bool(found),
            }
        )
    approach_frames = [e["frame_index"] for e in events if e["kind"] == "Approach"]
    gate_ok = all(
        e["kind"] == "Approach"
        or (approach_frames and e["frame_index"] >= min(approach_frames))
        for e in events
    )

    summary = {
        "scenario": truth.get("scenario"),
        "frames_compared": n_err,
        "centroid_rms_px": math.sqrt(sq_err / n_err) if n_err else None,
        "torso_center_in_rect": torso_in_rect / torso_frames if torso_frames else None,
        "part_agreement": {
            label: (part_hits[label] / part_totals[label])
            for label in part_checks
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
    """The config file, if given, with the flags the subcommand took on top."""
    cfg = PipelineConfig()
    if args.config:
        cfg = load_config(args.config, base=cfg)
    if args.input:
        cfg.input = args.input
    if args.output:
        cfg.output = args.output
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "overlays", False):
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
    p_synth.add_argument("--width", type=int, default=320)
    p_synth.add_argument("--height", type=int, default=240)

    p_learn = sub.add_parser("learn", help="learn and persist a scene model")
    _add_flags(p_learn, "config", "input", "output")
    p_learn.add_argument("--scene-out", default="scene.bin", help="scene file name")

    pipeline_flags = ("config", "input", "output", "seed", "overlays")
    p_track = sub.add_parser("track", help="run the full tracking pipeline")
    _add_flags(p_track, *pipeline_flags)

    p_base = sub.add_parser("baseline", help="contour-vertex part labeler")
    _add_flags(p_base, *pipeline_flags)

    p_eval = sub.add_parser("eval", help="compare outputs against truth.json")
    _add_flags(p_eval, "output")
    p_eval.add_argument("--truth", required=True, help="path to truth.json")

    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            sc = sg.Scenario(
                name=args.scenario,
                width=args.width,
                height=args.height,
                frames=args.frames,
                seed=args.seed if args.seed is not None else 7,
            )
            truth = sg.write_scenario(sc, args.output or ".")
            print(f"wrote {truth['frames']} frames of {sc.name} to {args.output or '.'}")
        elif args.command == "learn":
            cfg = _build_config(args)
            check_ranges(cfg)
            paths = iio.frame_paths(cfg.input, cfg.pattern)
            model = sm.learn_scene(
                _learn_set(paths, min(cfg.learn_frames, len(paths))), cfg.scene_var_floor
            )
            out = Path(cfg.output or ".")
            out.mkdir(parents=True, exist_ok=True)
            sm.save_scene(model, out / args.scene_out)
            print(f"learned scene from {model.frames_seen} frames -> {out / args.scene_out}")
        elif args.command == "track":
            cfg = _build_config(args)
            outdir = run_pipeline(cfg)
            with open(outdir / "metrics.json") as fh:
                metrics = json.load(fh)
            print(
                f"tracked {metrics['frames']} frames at {metrics['fps']:.1f} fps -> {outdir}"
            )
        elif args.command == "baseline":
            cfg = _build_config(args)
            cfg.baseline_mode = True
            outdir = run_pipeline(cfg)
            print(f"baseline labels -> {outdir / 'baseline.jsonl'}")
        elif args.command == "eval":
            summary = evaluate(args.output or ".", args.truth)
            for key in (
                "scenario",
                "centroid_rms_px",
                "torso_center_in_rect",
                "armR_presence_accuracy",
                "events_fired",
                "state_gate_ok",
            ):
                print(f"{key}: {summary[key]}")
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
