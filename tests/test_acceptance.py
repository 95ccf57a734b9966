"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion. Expensive pipeline
runs are made once per session by conftest's ``acceptance_run``, whose files
the golden digests of ``test_golden`` read too; everything is driven by the
synthetic scenario generator's ground truth.
"""

import json
import math

import numpy as np
import pytest

from hbpt import activity as act
from hbpt import blobmodel as bm
from hbpt import maskops as mo
from hbpt import scene as sm
from hbpt import synthgen as sg
from hbpt import tracker as tr
from hbpt.cli import run_pipeline
from hbpt.config import PipelineConfig

from conftest import frame_from_rgb, read_jsonl
from test_maskops import extreme_edge_hull_oracle, flood_fill_oracle
from test_blobmodel import moment_oracle, random_cluster


def _report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. throughput

def test_criterion_1_throughput(acceptance_run):
    root, truth, _ = acceptance_run("walker")  # 300 frames
    metrics = json.loads((root / "out" / "metrics.json").read_text())
    ok = metrics["frames"] == 300 and metrics["fps"] >= 10.0
    _report(
        "throughput",
        ok,
        f"{metrics['fps']:.1f} fps over {metrics['frames']} frames at 320x240 (>= 10 required)",
    )


# ---------------------------------------------------------------------------
# 2. background learning

def test_criterion_2_background_learning():
    frames, _, _ = sg.generate_scenario(sg.Scenario("background"))  # 130 frames
    model = sm.learn_scene(frames[:30], var_floor=4.0)
    held_out = frames[30:130]
    assert len(held_out) == 100
    worst = max(sm.detect_foreground(model, f, tau=4.0).bits.mean() for f in held_out)
    ok = worst < 0.01
    _report(
        "background-learning",
        ok,
        f"worst held-out false-positive rate {worst:.4%} over 100 frames (< 1% required)",
    )


# ---------------------------------------------------------------------------
# 3. tracking accuracy

def test_criterion_3_tracking_accuracy(acceptance_run):
    _, _, summary = acceptance_run("walker")
    rms = summary["centroid_rms_px"]
    torso_frac = summary["torso_center_in_rect"]
    parts = summary["part_agreement"]
    worst_part = min(parts.values())
    ok = rms <= 2.0 and torso_frac >= 0.95 and worst_part >= 0.90
    _report(
        "tracking-accuracy",
        ok,
        f"rms {rms:.2f} px (<= 2), torso-in-rect {torso_frac:.1%} (>= 95%), "
        f"worst part agreement {worst_part:.1%} (>= 90%) over {sorted(parts)}",
    )


# ---------------------------------------------------------------------------
# 4. occlusion contract

def test_criterion_4_occlusion_contract(acceptance_run):
    root, truth, summary = acceptance_run("occluded_arm")
    records = {r["frame"]: r for r in read_jsonl(root / "out" / "blobs.jsonl")}
    scripted = {}
    for e in truth["per_frame"]:
        if e["person_visible"]:
            scripted[e["frame"]] = e["parts"]["armR"]["visible"]
    frames = sorted(scripted)
    transitions = [
        f for prev, f in zip(frames, frames[1:]) if scripted[prev] != scripted[f]
    ]
    assert transitions == [100, 150]
    detected = {f: "armR" in records[f]["parts"] for f in frames}
    agree = np.mean([detected[f] == scripted[f] for f in frames])
    lag_ok = True
    for t in transitions:  # settled to the scripted state within 2 frames
        before = [f for f in frames if t - 6 <= f <= t - 3]
        after = [f for f in frames if t + 3 <= f <= t + 6]
        lag_ok &= all(detected[f] == scripted[t - 1] for f in before)
        lag_ok &= all(detected[f] == scripted[t] for f in after)
    ok = agree >= 0.95 and lag_ok
    _report(
        "occlusion-contract",
        ok,
        f"armR presence accuracy {agree:.1%} (>= 95%), transitions settle within 2 frames: {lag_ok}",
    )


# ---------------------------------------------------------------------------
# 5. oracle equivalence

def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(101)
    hull_ok = all(
        mo.convex_hull(pts) == extreme_edge_hull_oracle(pts)
        for pts in (
            [tuple(p) for p in rng.integers(0, 30, size=(int(rng.integers(1, 51)), 2))]
            for _ in range(200)
        )
    )

    # peel the largest component off each mask until it is empty: the peeled
    # components are the oracle's, by falling area with raster-order ties
    cc_ok = True
    for _ in range(500):
        m = rng.random((14, 18)) < rng.uniform(0.15, 0.7)
        labels, count = flood_fill_oracle(m)
        want = sorted((labels == i for i in range(1, count + 1)), key=lambda c: -c.sum())
        peeled = []
        rest = m.copy()
        while rest.any():
            ((y, x, comp),) = mo.largest_components([rest])
            got = np.zeros_like(m)
            got[y : y + comp.shape[0], x : x + comp.shape[1]] = comp
            peeled.append(got)
            rest &= ~got
        cc_ok &= len(peeled) == count and all(
            np.array_equal(g, w) for g, w in zip(peeled, want)
        )

    fit_ok = True
    for _ in range(300):
        pixels = random_cluster(rng)
        blob = bm.fit_blob(pixels)
        (mx, my), (kxx, kxy, kyy) = moment_oracle(pixels)
        fit_ok &= blob.mu == (mx, my) and blob.K == ((kxx, kxy), (kxy, kyy))

    lk_worst = 0.0
    base = rng.integers(40, 220, size=(24, 30)).astype(np.uint8)
    for trial in range(50):
        texture = np.repeat(np.repeat(base, 3, axis=0), 3, axis=1)
        rgb = np.stack([texture] * 3, axis=2)
        dx, dy = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
        moved = np.roll(rgb, (dy, dx), axis=(0, 1))
        f0, f1 = frame_from_rgb(rgb), frame_from_rgb(moved)
        px = float(rng.integers(25, 55))
        py = float(rng.integers(25, 45))
        out, status, _ = act.lk_flow(act.lk_pyramid(f0), f1, [(px, py)])
        assert status.all()
        g0 = rgb[:, :, 0].astype(float)
        g1 = moved[:, :, 0].astype(float)
        xi, yi = int(px), int(py)
        patch = g0[yi - 7 : yi + 8, xi - 7 : xi + 8]
        ssd_best = min(
            ((cx, cy) for cx in range(-6, 7) for cy in range(-6, 7)),
            key=lambda d: (
                (g1[yi + d[1] - 7 : yi + d[1] + 8, xi + d[0] - 7 : xi + d[0] + 8] - patch)
                ** 2
            ).sum(),
        )
        assert ssd_best == (dx, dy)
        lk_worst = max(
            lk_worst,
            abs(out[0][0] - px - ssd_best[0]),
            abs(out[0][1] - py - ssd_best[1]),
        )
        base = rng.integers(40, 220, size=(24, 30)).astype(np.uint8)
    lk_ok = lk_worst <= 0.25

    ok = hull_ok and cc_ok and fit_ok and lk_ok
    _report(
        "oracle-equivalence",
        ok,
        f"hull 200 sets exact: {hull_ok}; components 500 masks exact: {cc_ok}; "
        f"moments 300 clusters exact: {fit_ok}; LK worst error {lk_worst:.3f} px (<= 0.25)",
    )


# ---------------------------------------------------------------------------
# 6. numerical checks

def test_criterion_6_numerical_checks():
    rng = np.random.default_rng(202)
    quad_worst = 0.0
    for _ in range(20):
        l1 = rng.uniform(2.0, 40.0)
        l2 = rng.uniform(2.0, l1)
        th = rng.uniform(0, math.pi)
        c, s = math.cos(th), math.sin(th)
        kxx = l1 * c * c + l2 * s * s
        kyy = l1 * s * s + l2 * c * c
        kxy = (l1 - l2) * c * s
        blob = bm.GaussianBlob(
            mu=(0.0, 0.0), K=((kxx, kxy), (kxy, kyy)), color_mean=(0, 0, 0), area=1
        )
        r = int(math.ceil(6 * math.sqrt(l1)))
        ys, xs = np.mgrid[-r : r + 1, -r : r + 1]
        det = kxx * kyy - kxy * kxy
        q = (kyy * xs**2 - 2 * kxy * xs * ys + kxx * ys**2) / det
        total = float((np.exp(-0.5 * q) / (2 * math.pi * math.sqrt(det))).sum())
        spot = bm.blob_density(blob, (1.0, 2.0))
        expect = math.exp(-0.5 * (kyy - 4 * kxy + 4 * kxx) / det) / (
            2 * math.pi * math.sqrt(det)
        )
        assert spot == pytest.approx(expect, rel=1e-12)
        quad_worst = max(quad_worst, abs(total - 1.0))
    quad_ok = quad_worst < 1e-2

    ms_ok = True
    for _ in range(200):
        w = rng.random((28, 28)) ** 2
        trace = []
        tr.mean_shift(w, (int(rng.integers(0, 18)), int(rng.integers(0, 18)), 9, 9), trace=trace)
        ms_ok &= all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    close_ok = True
    for _ in range(200):
        m = rng.random((22, 22)) < rng.uniform(0.2, 0.65)
        c1 = mo.morph(mo.morph(m, "dilate", (3, 3), 1), "erode", (3, 3), 1)
        c2 = mo.morph(mo.morph(c1, "dilate", (3, 3), 1), "erode", (3, 3), 1)
        close_ok &= bool((c1 == c2).all()) and bool((m <= c1).all())

    ok = quad_ok and ms_ok and close_ok
    _report(
        "numerical-checks",
        ok,
        f"density quadrature worst |sum-1| {quad_worst:.2e} (< 1e-2); "
        f"mean-shift monotone 200 images: {ms_ok}; closing idempotent+extensive 200 masks: {close_ok}",
    )


# ---------------------------------------------------------------------------
# 7. activity events

def test_criterion_7_activity_events(acceptance_run):
    details = []
    ok = True
    for name in ("approach_box", "open_box", "carry_box", "null_walk"):
        root, truth, summary = acceptance_run(name)
        events = json.loads((root / "out" / "events.json").read_text())
        fired = [(e["kind"], e["frame_index"]) for e in events]
        expect = [(e["kind"], e["frame_index"]) for e in truth["events"]]
        matched = len(fired) == len(expect) and all(
            fk == ek and abs(ff - ef) <= 5 for (fk, ff), (ek, ef) in zip(fired, expect)
        )
        approaches = [f for k, f in fired if k == "Approach"]
        gate = all(
            k == "Approach" or (approaches and f >= approaches[0]) for k, f in fired
        )
        ok &= matched and gate
        details.append(f"{name}: fired {fired} vs scripted {expect} (gate {gate})")
    _report("activity-events", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. determinism

def test_criterion_8_determinism(tmp_path_factory):
    root = tmp_path_factory.mktemp("acc_determinism")
    indir = root / "in"
    truth = sg.write_scenario(sg.Scenario("approach_box"), indir)
    box = truth["box"]
    outputs = []
    for run in ("a", "b"):
        cfg = PipelineConfig(
            input=str(indir),
            output=str(root / run),
            box_rect=box["rect"],
            box_ref_frame=box["ref_frame"],
        )
        run_pipeline(cfg)
        outputs.append(
            (
                (root / run / "blobs.jsonl").read_bytes(),
                (root / run / "events.json").read_bytes(),
            )
        )
    blobs_same = outputs[0][0] == outputs[1][0]
    events_same = outputs[0][1] == outputs[1][1]
    ok = blobs_same and events_same
    _report(
        "determinism",
        ok,
        f"blobs.jsonl identical: {blobs_same}; events.json identical: {events_same} "
        f"({len(outputs[0][0])} bytes of per-frame records)",
    )
