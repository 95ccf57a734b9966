"""End-to-end and per-layer benchmark for ``hbpt track``.

Usage (from the repository root):

    python3 perfbench/run.py --workload carry_box --seed 1 --seconds 52 --trace 0

The workload is rendered with hbpt.synthgen from --seed into a scratch
directory in the checkout. Each ``track`` run is a fresh process
(perfbench/child.py) that calls hbpt.cli.main with the OpenBLAS/OpenMP pool at
one thread. Every run's outputs are checked against the generator's
truth.json, and all runs of a set must write identical blobs.jsonl and
events.json.

--trace 0 repeats untraced runs whose only probe is the frame clock until
--seconds have been spent, and reports the end-to-end metrics as medians.
--trace 1 makes one traced run for the per-layer metrics, plus untraced runs
with and without the frame clock to measure what tracing and the clock cost.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Everything above it is for people: the run
environment, one line per run with the host's CPU steal and idle ticks, and
a table of every metric with its unit.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from pngwrite import FILTER_NAMES, encode_png

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0  # a whole invocation must end within 180 s

# Why each workload: see BENCHMARK.json. All are 320x240. Both are sized so
# that a run takes about 20 s or less and a 52 s measurement holds at least
# two whole runs.
WORKLOADS = {
    # frames from Approach (frame 62) on run LK: 138 of 200, most of the
    # sequence, so the frame-step median lies among the LK frames
    "carry_box": {"scenario": "carry_box", "frames": 200},
    # the arm is hidden in frames 100-149; 20 frames after it shows again
    "occluded_png": {
        "scenario": "occluded_arm",
        "frames": 170,
        "png": True,
        "overlays": True,
        "config": ["baseline_mode = true", 'pattern = "frame_*.png"'],
    },
}

# a frame fails when the tracked centroid is further than this share of the
# true torso width from the true centroid (the tolerance hbpt eval applies to
# part centroids)
CENTROID_TOL = 0.15

# layer functions reported with FUNC_STATS; other per-layer metrics are
# computed one by one in layer_metrics
TIMED_FUNCS = {
    "imageio": ("read_png", "read_ppm", "rgb_to_yuv_image", "load_depth_raster",
                "write_annotated_frame"),
    "scene": ("learn_scene", "detect_foreground", "update_scene"),
    "maskops": ("refine_mask", "connected_components", "fill_holes",
                "extract_contours"),
    "tracker": ("detect_person", "mspf_track"),
    "blobmodel": (),
    "bodyparts": ("partition_regions", "build_part_model"),
    "activity": ("process", "track_box_region", "lk_flow"),
    "baseline": ("silhouette_geometry", "hull_vertices", "label_parts_by_distance"),
    "cli": (),
}
FUNC_STATS = ("calls", "ms_p50", "ms_p95", "self_ms_per_frame")


# ---------------------------------------------------------------------------
# environment

def cpu_ticks():
    """(steal, idle) ticks of all CPUs from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]), int(fields[4])


def environment():
    import scipy

    def blas(mod):
        try:
            return mod.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError, TypeError):
            return None

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(np),
        "scipy_openblas": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
    }


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


# ---------------------------------------------------------------------------
# inputs

def render(workload, seed, indir):
    """Write the workload's frames, depth rasters, truth.json and config.

    Returns the truth and a list of decode errors found by reading frames
    back with the program's own decoder.
    """
    from hbpt import imageio as iio
    from hbpt import synthgen as sg

    spec = WORKLOADS[workload]
    sc = sg.Scenario(spec["scenario"], frames=spec["frames"], seed=seed)
    errors = []
    if spec.get("png"):
        indir.mkdir(parents=True)
        frames, depths, truth = sg.generate_scenario(sc)
        counts = [0] * len(FILTER_NAMES)
        for f in frames:
            data, types = encode_png(f.rgb)
            (indir / f"frame_{f.index:06d}.png").write_bytes(data)
            for t in types.tolist():
                counts[t] += 1
        with open(indir / "truth.json", "w") as fh:
            json.dump(truth, fh)
        print("png filter rows:", dict(zip(FILTER_NAMES, counts)))
        if counts[1] + counts[3] + counts[4] == 0:
            raise RuntimeError("PNG frames use no sub/average/paeth rows")
        # the decoder must return the source raster exactly
        for f in (frames[0], frames[len(frames) // 2]):
            got = iio.read_png(indir / f"frame_{f.index:06d}.png")
            if got.shape != f.rgb.shape or not (got == f.rgb).all():
                errors.append(f"read_png does not return frame {f.index} exactly")
        del frames
    else:
        truth = sg.write_scenario(sc, indir)
    lines = list(spec.get("config", []))
    if truth.get("box"):
        lines.append("box.rect = [%s]" % ", ".join(str(v) for v in truth["box"]["rect"]))
        lines.append(f"box.ref_frame = {truth['box']['ref_frame']}")
    (indir / "bench.cfg").write_text("".join(line + "\n" for line in lines))
    return truth, errors


# ---------------------------------------------------------------------------
# one run

def run_child(mode, workload, indir, outdir, result_path, deadline):
    if outdir.exists():
        shutil.rmtree(outdir)
    args = ["--input", str(indir), "--output", str(outdir),
            "--config", str(indir / "bench.cfg")]
    if WORKLOADS[workload].get("overlays"):
        args.append("--overlays")
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(SRC), str(result_path), *args]
    before = cpu_ticks()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc = None
    after = cpu_ticks()
    res = {"mode": mode, "ok": False}
    if before and after:
        res["steal_ticks"] = after[0] - before[0]
        res["idle_ticks"] = after[1] - before[1]
    if proc is None:
        res["error"] = "timed out"
    elif proc.returncode != 0 or not result_path.exists():
        res["error"] = (proc.stderr or proc.stdout).strip()[-2000:]
    else:
        with open(result_path) as fh:
            res.update(json.load(fh))
        res["ok"] = res["rc"] == 0
        result_path.unlink()
    return res


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(outdir, truth_path, truth):
    """Per-frame failures and accuracy of one run's outputs against the truth."""
    from hbpt.cli import evaluate

    per_frame = truth["per_frame"]
    check = {"attempted": len(per_frame), "failed": len(per_frame)}
    blobs, events = outdir / "blobs.jsonl", outdir / "events.json"
    if not (blobs.exists() and events.exists()):
        return check
    by_frame = {}
    with open(blobs) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                by_frame[rec["frame"]] = rec
    failed = 0
    for entry in per_frame:
        rec = by_frame.get(entry["frame"])
        if rec is None:
            failed += 1
        elif entry.get("person_visible"):
            person = rec.get("person") if rec.get("tracked") else None
            if person is None:
                failed += 1
            else:
                gx, gy = entry["person_centroid"]
                px, py = person["centroid"]
                if math.hypot(px - gx, py - gy) > CENTROID_TOL * entry["torso_rect"][2]:
                    failed += 1
    summary = evaluate(outdir, truth_path)
    parts = summary["part_agreement"]
    check.update(
        failed=failed,
        event_errors=sum(not m["matched"] for m in summary["event_matches"])
        + summary["extra_events"],
        centroid_rms_px=summary["centroid_rms_px"],
        part_agreement=sum(parts.values()) / len(parts) if parts else 0.0,
        digests=(sha256(blobs), sha256(events)),
    )
    return check


def timings(res, frames):
    wall = res["t_end"] - res["t_call"]
    out = {"fps": frames / wall, "peak_rss_mb": res["maxrss_kb"] / 1024.0}
    if res["stamps"]:
        out["setup_s"] = res["stamps"][0] - res["t_call"]
    return out


def describe(i, res):
    parts = [f"run {i} {res['mode']}:"]
    if "fps" in res and res["mode"] != "setup":
        parts.append(f"{res['fps']:.3f} fps")
    if "setup_s" in res:
        parts.append(f"setup {res['setup_s']:.3f} s")
    if "cpu_s" in res:
        parts.append(f"cpu/wall {res['cpu_s'] / (res['t_end'] - res['t_call']):.3f}")
    if "peak_rss_mb" in res:
        parts.append(f"rss {res['peak_rss_mb']:.1f} MB")
    if "steal_ticks" in res:
        parts.append(f"steal +{res['steal_ticks']} idle +{res['idle_ticks']} ticks")
    if "threads" in res:
        parts.append(f"threads {res['threads']}")
    check = res.get("check", {})
    if check:
        parts.append(f"failed {check['failed']}/{check['attempted']}")
    if "event_errors" in check:
        parts.append(f"event_errors {check['event_errors']}")
    if "digests" in check:
        parts.append("blobs %s events %s" % tuple(d[:12] for d in check["digests"]))
    if not res["ok"]:
        parts.append(f"ERROR {res.get('error', 'track returned %s' % res.get('rc'))}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# per-layer metrics from one traced run

def percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(traced, frames):
    spans = traced["spans"]
    child_ms = [0.0] * len(spans)
    for name, start, end, parent, frame, _ in spans:
        if parent >= 0:
            child_ms[parent] += (end - start) * 1e3
    durations = defaultdict(list)
    self_ms = defaultdict(float)
    module_self_ms = defaultdict(float)
    for i, (name, start, end, parent, frame, _) in enumerate(spans):
        ms = (end - start) * 1e3
        durations[name].append(ms)
        self_ms[name] += ms - child_ms[i]
        module_self_ms[name.split(".")[0]] += ms - child_ms[i]

    m = {}
    for mod, funcs in TIMED_FUNCS.items():
        for fn in funcs:
            name = f"{mod}.{fn}"
            m[f"{name}.calls"] = len(durations[name])
            m[f"{name}.ms_p50"] = percentile(durations[name], 50)
            m[f"{name}.ms_p95"] = percentile(durations[name], 95)
            m[f"{name}.self_ms_per_frame"] = self_ms[name] / frames
        m[f"{mod}.self_ms_per_frame"] = module_self_ms[mod] / frames

    def probes(name):
        return [s[5] for s in spans if s[0] == name]

    fg = probes("scene.detect_foreground")
    m["scene.fg_frac"] = statistics.fmean(fg) if fg else 0.0
    m["maskops.label_passes_per_frame"] = traced["label_calls"] / frames
    ms_info = probes("tracker.mean_shift")
    m["tracker.mean_shift.iters_mean"] = (
        statistics.fmean(i for i, _ in ms_info) if ms_info else 0.0)
    m["tracker.mean_shift.converged_frac"] = (
        statistics.fmean(c for _, c in ms_info) if ms_info else 0.0)
    m["blobmodel.fit_blob.calls"] = len(durations["blobmodel.fit_blob"])
    labels = {}
    for name, _, _, _, frame, value in spans:
        if name == "bodyparts.build_part_model":
            labels[frame] = set(value)
    churn = sum(
        len(labels.get(f, set()) ^ labels.get(f - 1, set())) for f in range(1, frames)
    )
    m["bodyparts.part_churn"] = churn / frames
    lk = probes("activity.lk_flow")
    m["activity.lk_flow.points_in"] = statistics.fmean(n for n, _ in lk) if lk else 0.0
    m["activity.lk_flow.alive_frac"] = statistics.fmean(a for _, a in lk) if lk else 0.0

    last = frames - 1
    pipeline_end = max(s[2] for s in spans if s[0] == "cli.run_pipeline")
    last_layer_end = max(
        s[2] for s in spans if s[4] == last and not s[0].startswith("cli.")
    )
    m["cli.write_outputs_ms"] = (pipeline_end - last_layer_end) * 1e3
    return m


def frame_steps_ms(runs):
    steps = []
    for r in runs:
        st = r["stamps"]
        steps.extend((b - a) * 1e3 for a, b in zip(st, st[1:]))
    return steps


def measure(args, indir, outdir, result_path, truth, deadline):
    """Run track until --seconds are spent; returns one dict per run.

    The first round always runs whole. Another round starts only when it is
    expected to end within --seconds; with --trace 0, time too short for a
    whole run is filled with set-up-only runs, so set-up is timed repeatedly.
    """
    runs, durations = [], defaultdict(list)

    def run(mode):
        t = time.monotonic()
        res = run_child(mode, args.workload, indir, outdir, result_path, deadline)
        durations[mode].append(time.monotonic() - t)
        if res["ok"]:
            res.update(timings(res, truth["frames"]))
        if mode != "setup":
            res["check"] = check_outputs(outdir, indir / "truth.json", truth)
        runs.append(res)
        print(describe(len(runs), res), flush=True)
        return res["ok"]

    def expected(mode):
        if durations[mode]:
            return statistics.median(durations[mode])
        # a set-up run costs a whole run less the frame loop and output writing
        full = [r for r in runs if r["mode"] == "clock" and r["ok"]]
        return statistics.median(
            d - (r["t_end"] - r["t_call"]) + r["setup_s"]
            for d, r in zip(durations["clock"], full)
        )

    t0 = time.monotonic()
    first = ["clock"] if args.trace == 0 else ["clock", "trace", "plain"]
    again = ["clock"] if args.trace == 0 else ["clock", "plain"]
    if not all(run(mode) for mode in first):
        return runs
    while True:
        left = args.seconds - (time.monotonic() - t0)
        if left >= sum(expected(mode) for mode in again):
            ok = all(run(mode) for mode in again)
        elif args.trace == 0 and left >= expected("setup"):
            ok = run("setup")
        else:
            break
        if not ok:
            break
    return runs


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    if not (SRC / "hbpt" / "cli.py").is_file():
        print(f"error: no hbpt sources under {SRC}", file=sys.stderr)
        return 2
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end" if args.trace == 0 else "per_layer"]}
    sys.path.insert(0, str(SRC))

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("env:", json.dumps(environment()))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        indir, outdir, result_path = work / "in", work / "out", work / "result.json"
        truth, decode_errors = render(args.workload, args.seed, indir)
        for err in decode_errors:
            print("error:", err)
        frames = truth["frames"]
        print(f"rendered {frames} frames in {time.monotonic() - t_start:.1f} s")

        runs = measure(args, indir, outdir, result_path, truth, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = [r["check"] for r in runs if r["mode"] != "setup"]
    digests = {c.get("digests") for c in checks}
    event_errors = max(c.get("event_errors", 1) for c in checks)
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    correct = (
        not decode_errors
        and all(r["ok"] for r in runs)
        and failed == 0
        and event_errors == 0
        and len(digests) == 1
        and None not in digests
    )
    print(f"digests agree across {len(checks)} checked runs: {len(digests) == 1}")
    if len(digests) == 1 and None not in digests:
        print("blobs.jsonl sha256 %s\nevents.json sha256 %s" % next(iter(digests)))
    print(f"error_rate {failed / attempted:.6f} (failed/attempted frames)")
    print(f"event_errors {event_errors} count")

    clock_runs = [r for r in runs if r["mode"] == "clock" and r["ok"]]
    metrics = {}
    if args.trace == 0:
        if clock_runs:
            for key in ("fps", "peak_rss_mb"):
                metrics[key] = statistics.median(r[key] for r in clock_runs)
            metrics["setup_s"] = statistics.median(
                r["setup_s"] for r in runs if r["mode"] in ("clock", "setup") and r["ok"])
            metrics["centroid_rms_px"] = checks[0].get("centroid_rms_px")
            metrics["part_agreement"] = checks[0].get("part_agreement")
    else:
        traced = [r for r in runs if r["mode"] == "trace" and r["ok"]]
        plain = [r for r in runs if r["mode"] == "plain" and r["ok"]]
        if traced and clock_runs and plain:
            metrics = layer_metrics(traced[0], frames)
            steps = frame_steps_ms(clock_runs)
            metrics["cli.frame_step.ms_p50"] = percentile(steps, 50)
            metrics["cli.frame_step.ms_p95"] = percentile(steps, 95)
            clock_fps = statistics.median(r["fps"] for r in clock_runs)
            plain_fps = statistics.median(r["fps"] for r in plain)
            metrics["trace.overhead_fps"] = clock_fps - traced[0]["fps"]
            metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_fps"] / clock_fps
            metrics["clock.overhead_fps"] = plain_fps - clock_fps
            metrics["clock.overhead_pct"] = 100.0 * metrics["clock.overhead_fps"] / plain_fps
            print(f"untraced fps {clock_fps:.3f} (clock, median of {len(clock_runs)}), "
                  f"{plain_fps:.3f} (no clock, median of {len(plain)}), "
                  f"traced {traced[0]['fps']:.3f}")

    if metrics and sorted(metrics) != sorted(units):
        print("error: metric names differ from BENCHMARK.json", file=sys.stderr)
        return 2
    for name in units:
        if metrics.get(name) is not None:
            print(f"{name:44s} {metrics[name]:14.6f} {units[name]}")
    if len(metrics) != len(units) or None in metrics.values():
        correct = False
        metrics = {k: v for k, v in metrics.items() if v is not None}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
