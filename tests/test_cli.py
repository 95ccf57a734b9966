import ctypes
import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hbpt import activity as act
from hbpt import baseline as bl
from hbpt import bodyparts as bp
from hbpt import cli
from hbpt import imageio as iio
from hbpt import maskops as mo
from hbpt import scene as sm
from hbpt import synthgen as sg
from hbpt import tracker as tr
from hbpt.blobmodel import GaussianBlob, blob_ellipse
from hbpt.config import PipelineConfig, check_ranges, load_config, parse_config_text

from conftest import frame_from_rgb, person_component, read_jsonl, step_in_memory
from test_baseline import labels_of
from test_bodyparts import _reference_build_part_model, _reference_partition_regions


# ---------------------------------------------------------------------------
# config parsing

def test_config_defaults():
    cfg = PipelineConfig()
    assert cfg.learn_frames == 30
    assert cfg.scene_tau == 4.0
    assert cfg.scene_alpha == 0.05
    assert cfg.particles_n == 100
    assert cfg.activity_d_xy == 30.0
    assert cfg.activity_theta_open == 0.4
    assert cfg.parts_min_area == 15


CONFIG_KEYS = (
    "input", "output", "pattern", "seed", "learn.frames", "scene.var_floor",
    "scene.tau", "scene.alpha", "mask.min_area_frac", "mask.se",
    "mask.iterations", "person.min_area_frac", "particles.n", "particles.sigma_xy",
    "particles.sigma_scale", "particles.iou_gate", "parts.min_area", "activity.d_xy",
    "activity.z_gate_mm", "activity.approach_frames", "activity.theta_open",
    "activity.open_frames", "activity.carry_frames", "activity.carry_min_disp",
    "activity.carry_z_rate_mm", "box.rect", "box.ref_frame", "emit_overlays",
    "baseline_mode",
)


def test_config_keys_name_every_field_once():
    """Each of the 29 keys sets its own field, and together they set all of them."""
    fields = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}
    names = [key.replace(".", "_") for key in CONFIG_KEYS]
    assert len(fields) == 29 and sorted(names) == sorted(fields)
    values = {bool: "true", int: "7", float: "0.5", str: '"x"', list: "[1, 2, 3, 4]"}
    default = PipelineConfig()
    for key, name in zip(CONFIG_KEYS, names):
        cfg = parse_config_text(f"{key} = {values[fields[name]]}")
        assert [f for f in fields if getattr(cfg, f) != getattr(default, f)] == [name], key


def test_config_parsing_and_types(tmp_path):
    text = """
# pipeline settings
scene.tau = 3.5
particles.n = 64
box.rect = [10, 20, 30, 40]
emit_overlays = true
pattern = "frame_*.png"
"""
    cfg = parse_config_text(text)
    assert cfg.scene_tau == 3.5
    assert cfg.particles_n == 64
    assert cfg.box_rect == [10, 20, 30, 40]
    assert cfg.emit_overlays is True
    assert cfg.pattern == "frame_*.png"
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert load_config(path).scene_tau == 3.5


def test_config_rejects_unknown_key():
    # a field name, a section alone and a dotted non-section are no second spelling
    for key in (
        "scene.gamma", "scene_tau", "activity_d_xy", "scene", "emit.overlays", "scene.file",
    ):
        with pytest.raises(ValueError, match=rf"line 1: unknown config key '{re.escape(key)}'"):
            parse_config_text(f"{key} = 2")


def test_config_rejects_bad_line():
    with pytest.raises(ValueError, match="key = value"):
        parse_config_text("just some words")


def test_config_bench_files_parse_unchanged():
    cfg = parse_config_text(
        'baseline_mode = true\npattern = "frame_*.png"\n'
        "box.rect = [230, 112, 24, 20]\nbox.ref_frame = 35\n"
    )
    assert cfg.baseline_mode is True
    assert cfg.pattern == "frame_*.png"
    assert cfg.box_rect == [230, 112, 24, 20]
    assert cfg.box_ref_frame == 35 and type(cfg.box_ref_frame) is int


def test_config_converts_numbers_to_field_type():
    cfg = parse_config_text("particles.n = 64.0\nscene.tau = 3\nbox.rect = []")
    assert cfg.particles_n == 64 and type(cfg.particles_n) is int
    assert cfg.scene_tau == 3.0 and type(cfg.scene_tau) is float
    assert cfg.box_rect == []
    cfg = parse_config_text("box.rect = [230.0, 112, 24, 20.0]")
    assert cfg.box_rect == [230, 112, 24, 20] and all(type(v) is int for v in cfg.box_rect)


@pytest.mark.parametrize(
    "line, message",
    [
        ("emit_overlays = no", "emit_overlays expects true/false"),
        ("emit_overlays = 1", "emit_overlays expects true/false"),
        ("particles.n = 50.7", "particles.n expects an integer"),
        ("particles.n = true", "particles.n expects an integer"),
        ("mask.se = five", "mask.se expects an integer"),
        ("scene.tau = false", "scene.tau expects a number"),
        ("scene.alpha = [1]", "scene.alpha expects a number"),
        ("box.rect = [1, 2]", "box.rect expects"),
        ("box.rect = [1, 2, 3, x]", "box.rect expects"),
        ("box.rect = 5", "box.rect expects"),
        (
            "box.rect = [230.5, 112.25, 24, 20]",
            "box.rect expects [] or 4 integers, got [230.5, 112.25, 24, 20]",
        ),
        ("input = 2.5", "input expects a string, got 2.5"),
        ("output = [1, 2]", "output expects a string, got [1, 2]"),
        ("pattern = true", "pattern expects a string, got True"),
    ],
)
def test_config_rejects_wrong_types(line, message):
    with pytest.raises(ValueError, match=rf"line 2: {re.escape(message)}"):
        parse_config_text("seed = 1\n" + line)


def test_config_hash_inside_quotes_is_kept():
    cfg = parse_config_text(
        'output = "runs/#3"  # third run\n'
        "pattern = 'frame_#*.ppm'\n"
        "input = data # a comment\n"
        '# output = "unterminated\n'
    )
    assert cfg.output == "runs/#3"
    assert cfg.pattern == "frame_#*.ppm"
    assert cfg.input == "data"


def test_config_rejects_unterminated_quote():
    with pytest.raises(ValueError, match=r"^line 2: unterminated quote in 'output = \"runs/#3'$"):
        parse_config_text('seed = 1\noutput = "runs/#3')


# ---------------------------------------------------------------------------
# CLI wiring

def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{synth,track,eval}" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--scenario", "walker", "--config", "run.cfg"],
        ["synth", "--scenario", "walker", "--input", "seq"],
        ["synth", "--scenario", "walker", "--overlays"],
        ["synth", "--scenario", "walker", "--width", "200"],
        ["synth", "--scenario", "walker", "--height", "200"],
        ["track", "--input", "seq", "--scene-out", "scene.bin"],
        ["synth", "--scenario", "walker", "--scene-out", "scene.bin"],
        ["eval", "--truth", "truth.json", "--config", "run.cfg"],
        ["eval", "--truth", "truth.json", "--input", "seq"],
        ["eval", "--truth", "truth.json", "--seed", "3"],
        ["eval", "--truth", "truth.json", "--overlays"],
    ],
)
def test_subcommands_reject_flags_they_do_not_read(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_baseline_is_not_a_subcommand(tmp_path, monkeypatch, capsys):
    """Baseline labels come from ``track`` with ``baseline_mode = true``, and
    ``track`` learns the scene model itself, so neither ``baseline`` nor
    ``learn`` is a subcommand."""
    monkeypatch.chdir(tmp_path)
    for command in ("baseline", "learn"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--input", "seq", "--output", "out"])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-1"], "error: seed must not be negative, got -1\n"),
        (["--frames", "1"], "error: scenario needs at least 2 frames, got 1\n"),
    ],
    ids=["seed", "frames"],
)
def test_synth_rejects_bad_scenario_before_writing(flags, message, tmp_path, capsys):
    out = tmp_path / "seq"
    argv = ["synth", "--scenario", "walker", "--frames", "3", "--output", str(out)]
    assert cli.main(argv + flags) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_synth_defaults_are_the_scenarios(tmp_path):
    """Flags not given fall through to Scenario's own defaults."""
    out = tmp_path / "seq"
    assert cli.main(["synth", "--scenario", "walker", "--frames", "31", "--output", str(out)]) == 0
    sg.write_scenario(sg.Scenario("walker", frames=31), tmp_path / "direct")
    assert (out / "truth.json").read_bytes() == (tmp_path / "direct" / "truth.json").read_bytes()


def test_missing_input_directory_errors(tmp_path, capsys):
    rc = cli.main(
        ["track", "--input", str(tmp_path / "nope"), "--output", str(tmp_path / "out")]
    )
    assert rc == 1
    assert "nope" in capsys.readouterr().err


def test_synth_track_eval_round_trip(tmp_path, capsys):
    indir = tmp_path / "seq"
    outdir = tmp_path / "out"
    rc = cli.main(
        ["synth", "--scenario", "walker", "--frames", "60", "--output", str(indir), "--seed", "3"]
    )
    assert rc == 0
    rc = cli.main(["track", "--input", str(indir), "--output", str(outdir)])
    assert rc == 0
    records = read_jsonl(outdir / "blobs.jsonl")
    assert len(records) == 60
    assert json.loads((outdir / "events.json").read_text()) == []
    metrics = json.loads((outdir / "metrics.json").read_text())
    assert metrics["frames"] == 60
    assert metrics["fps"] == pytest.approx(60 / metrics["wall_time_s"], rel=0.01)
    capsys.readouterr()
    rc = cli.main(
        ["eval", "--output", str(outdir), "--truth", str(indir / "truth.json")]
    )
    assert rc == 0
    summary = json.loads((outdir / "eval.json").read_text())
    assert summary["scenario"] == "walker"
    assert summary["centroid_rms_px"] < 2.5
    # eval prints the frame count and per-label part agreement of eval.json
    lines = capsys.readouterr().out.splitlines()
    assert summary["frames_compared"] > 0 and summary["part_agreement"]
    assert f"frames_compared: {summary['frames_compared']}" in lines
    assert [line for line in lines if line.startswith("part_agreement ")] == [
        f"part_agreement {label}: {value}" for label, value in summary["part_agreement"].items()
    ]


_EVAL_RECORD = {"frame": 0, "tracked": True, "person": {"centroid": [10.0, 20.0]}}
_EVAL_TRUTH = {
    "scenario": "x",
    "per_frame": [{"frame": 0, "person_visible": True, "person_centroid": [10.0, 23.0]}],
}


@pytest.mark.parametrize(
    "bad, truth, record",
    [
        (None, _EVAL_TRUTH, _EVAL_RECORD),
        ("truth.json", {"scenario": "x"}, _EVAL_RECORD),
        ("truth.json", [1, 2], _EVAL_RECORD),
        (
            "truth.json",
            {"scenario": "x", "per_frame": [{"frame": 0, "person_visible": True}]},
            _EVAL_RECORD,
        ),
        ("blobs.jsonl", _EVAL_TRUTH, {"tracked": False}),
    ],
    ids=["well-formed", "no per_frame", "truth not an object", "no person_centroid", "no frame"],
)
def test_eval_rejects_malformed_input(bad, truth, record, tmp_path, capsys):
    """hbpt eval ends in an error naming the malformed file, not a traceback."""
    out = tmp_path / "out"
    out.mkdir()
    (tmp_path / "truth.json").write_text(json.dumps(truth))
    (out / "blobs.jsonl").write_text(json.dumps(record) + "\n")
    (out / "events.json").write_text("[]")
    paths = {"truth.json": tmp_path / "truth.json", "blobs.jsonl": out / "blobs.jsonl"}
    rc = cli.main(["eval", "--output", str(out), "--truth", str(paths["truth.json"])])
    err = capsys.readouterr().err
    if bad is None:
        assert rc == 0 and err == ""
        assert json.loads((out / "eval.json").read_text())["centroid_rms_px"] == 3.0
    else:
        assert rc == 1
        assert err.startswith(f"error: {paths[bad]}: malformed "), err


def test_track_runs_are_byte_identical(tmp_path):
    indir = tmp_path / "seq"
    sg.write_scenario(sg.Scenario("walker", frames=45, seed=4), indir)
    outs = []
    for run in ("a", "b"):
        outdir = tmp_path / run
        cli.run_pipeline(PipelineConfig(input=str(indir), output=str(outdir), seed=7))
        outs.append(
            (
                (outdir / "blobs.jsonl").read_bytes(),
                (outdir / "events.json").read_bytes(),
            )
        )
    assert outs[0] == outs[1]


def test_overlays_written_when_enabled(tmp_path):
    indir = tmp_path / "seq"
    sg.write_scenario(sg.Scenario("walker", frames=34, seed=6), indir)
    cfg = PipelineConfig(input=str(indir), output=str(tmp_path / "out"), emit_overlays=True)
    cli.run_pipeline(cfg)
    overlays = sorted((tmp_path / "out").glob("out_*.ppm"))
    assert len(overlays) == 34


def test_annotate_draws_labels_over_their_ellipses_on_a_copy():
    rgb = np.full((80, 120, 3), 90, np.uint8)
    frame = iio.Frame(index=0, rgb=rgb.copy())
    blobs = {
        "head": GaussianBlob((30.0, 25.0), ((25.0, 0.0), (0.0, 6.25)), (0, 0, 0), 40, "head"),
        "armR": GaussianBlob((60.0, 55.0), ((16.0, 0.0), (0.0, 4.0)), (0, 0, 0), 30, "armR"),
    }
    person = tr.PersonBlob((10, 15, 80, 60), (50.0, 45.0), 900, np.full(16, 1 / 16))
    disc = tr.TorsoDisc((40.0, 50.0), 10.0)
    box = act.BoxRegion((90, 10, 20, 20), np.full(16, 1 / 16), (92, 12, 20, 20))
    out = cli._annotate(frame, person, disc, bp.BodyPartModel(blobs, {}), box)
    assert np.array_equal(frame.rgb, rgb)
    for label, blob in blobs.items():
        x0, y0 = round(blob.mu[0] + 3), round(blob.mu[1] - 7)
        glyph = {
            (x0 + 4 * i + dx, y0 + dy)
            for i, ch in enumerate(label.upper())
            for dy, row in enumerate(iio._FONT[ch])
            for dx, bit in enumerate(row)
            if bit == "1"
        }
        alone = np.zeros_like(rgb)
        iio.draw_ellipse(alone, *blob_ellipse(blob), (0, 255, 0))
        ys, xs = np.nonzero(alone.any(axis=2))
        assert glyph & set(zip(xs.tolist(), ys.tolist())), label  # the label overlaps its ellipse
        assert all(tuple(out[y, x]) == (255, 255, 255) for x, y in glyph), label


def _baseline_config(tmp_path, *lines):
    """A config file that turns ``baseline_mode`` on, followed by ``lines``."""
    path = tmp_path / "baseline.cfg"
    path.write_text("".join(f"{line}\n" for line in ("baseline_mode = true", *lines)))
    return path


def test_baseline_subcommand(tmp_path):
    """What the removed ``baseline`` subcommand wrote, ``track`` now writes with
    ``baseline_mode = true``: one label entry per frame beside its own outputs."""
    indir = tmp_path / "seq"
    sg.write_scenario(sg.Scenario("walker", frames=40, seed=8), indir)
    out = tmp_path / "out"
    assert _track(indir, out, "--config", str(_baseline_config(tmp_path))) == 0
    entries = read_jsonl(out / "baseline.jsonl")
    assert len(entries) == 40
    labeled = [e for e in entries if e["labels"]]
    assert len(labeled) >= 8
    for e in labeled:
        assert e["labels"]["torso"] is not None
        assert e["labels"]["head"] is not None
    # the track run's own outputs, over the same frames
    assert len(read_jsonl(out / "blobs.jsonl")) == 40
    assert isinstance(json.loads((out / "events.json").read_text()), list)
    assert json.loads((out / "metrics.json").read_text())["frames"] == 40


def test_baseline_mode_flag_emits_labels_during_track(tmp_path):
    indir = tmp_path / "seq"
    sg.write_scenario(sg.Scenario("walker", frames=36, seed=10), indir)
    cfg = PipelineConfig(input=str(indir), output=str(tmp_path / "out"), baseline_mode=True)
    cli.run_pipeline(cfg)
    entries = read_jsonl(tmp_path / "out" / "baseline.jsonl")
    assert len(entries) == 36
    assert any(e["labels"] for e in entries)


def test_record_shape(tmp_path):
    indir = tmp_path / "seq"
    sg.write_scenario(sg.Scenario("walker", frames=36, seed=9), indir)
    cli.run_pipeline(PipelineConfig(input=str(indir), output=str(tmp_path / "out")))
    records = read_jsonl(tmp_path / "out" / "blobs.jsonl")
    tracked = [r for r in records if r["tracked"]]
    assert tracked
    r = tracked[-1]
    assert set(r) == {"frame", "tracked", "person", "torso_disc", "parts", "starfish"}
    assert len(r["person"]["bbox"]) == 4
    assert "torso" in r["parts"]
    blob = r["parts"]["torso"]
    assert set(blob) == {"label", "mu", "K", "color", "area"}


def test_depth_rasters_follow_numeric_frame_order(tmp_path):
    for i in (10, 2, 1):
        iio.write_pgm16(tmp_path / f"depth_{i}.pgm", np.full((3, 4), 1000 + i, np.int32))
    depths = [iio.load_depth_raster(p) for p in cli._depth_paths(tmp_path, 3)]
    assert [int(d[0, 0]) for d in depths] == [1001, 1002, 1010]


def test_baseline_honours_mask_config(tmp_path, monkeypatch):
    indir = tmp_path / "seq"
    sg.write_scenario(sg.Scenario("walker", frames=32, seed=11), indir)
    calls = []
    real = mo.refine_mask

    def spy(mask, min_area, se, iterations):
        calls.append((se, iterations))
        return real(mask, min_area, se, iterations)

    monkeypatch.setattr(mo, "refine_mask", spy)
    cfg_path = _baseline_config(tmp_path, "mask.se = 5", "mask.iterations = 2")
    assert _track(indir, tmp_path / "out", "--config", str(cfg_path)) == 0
    assert (tmp_path / "out" / "baseline.jsonl").exists()
    assert len(calls) == 32
    assert set(calls) == {((5, 5), 2)}


# ---------------------------------------------------------------------------
# config ranges, checked before the frame loop

@pytest.mark.parametrize(
    "line, key",
    [
        ("scene.alpha = 0", "scene.alpha"),
        ("scene.alpha = 1.0", "scene.alpha"),
        ("scene.alpha = -0.5", "scene.alpha"),
        ("mask.se = 4", "mask.se"),
        ("mask.se = 0", "mask.se"),
        ("mask.se = -3", "mask.se"),
        ("mask.iterations = 0", "mask.iterations"),
        ("particles.n = 0", "particles.n"),
        ("scene.tau = 0", "scene.tau"),
        ("scene.tau = -2", "scene.tau"),
        ("scene.var_floor = 0", "scene.var_floor"),
        ("scene.var_floor = -1", "scene.var_floor"),
        ("learn.frames = 1", "learn.frames"),
        ("learn.frames = 0", "learn.frames"),
        ("box.rect = [10, 10, 0, 5]", "box.rect"),
        ("box.rect = [10, 10, 5, -1]", "box.rect"),
        ("box.rect = [310, 100, 24, 20]", "box.rect"),
        ("box.rect = [-1, 0, 5, 5]", "box.rect"),
        ("box.rect = [0, 230, 5, 20]", "box.rect"),
        ("box.rect = [230, 112, 24, 20]\nbox.ref_frame = 500", "box.ref_frame"),
        ("box.rect = [230, 112, 24, 20]\nbox.ref_frame = 32", "box.ref_frame"),
        ("box.rect = [230, 112, 24, 20]\nbox.ref_frame = -1", "box.ref_frame"),
        ("person.min_area_frac = 7", "person.min_area_frac"),
        ("person.min_area_frac = -0.01", "person.min_area_frac"),
        ("mask.min_area_frac = -1", "mask.min_area_frac"),
        ("mask.min_area_frac = 1.5", "mask.min_area_frac"),
        ("parts.min_area = -3", "parts.min_area"),
        ("particles.sigma_xy = -1", "particles.sigma_xy"),
        ("particles.sigma_scale = -0.02", "particles.sigma_scale"),
        ("particles.iou_gate = 1", "particles.iou_gate"),
        ("particles.iou_gate = -0.1", "particles.iou_gate"),
        ("activity.approach_frames = 0", "activity.approach_frames"),
        ("activity.open_frames = 0", "activity.open_frames"),
        ("activity.carry_frames = -2", "activity.carry_frames"),
        ("activity.theta_open = 1.0", "activity.theta_open"),
        ("activity.theta_open = -0.4", "activity.theta_open"),
        ("activity.d_xy = -30", "activity.d_xy"),
        ("activity.z_gate_mm = -1", "activity.z_gate_mm"),
        ("activity.carry_min_disp = -0.5", "activity.carry_min_disp"),
        ("activity.carry_z_rate_mm = -200", "activity.carry_z_rate_mm"),
        ("seed = -1", "seed"),
        ("scene.tau = inf", "scene.tau"),
    ],
)
def test_track_rejects_out_of_range_config(tmp_path, capsys, scenario_dir, line, key):
    indir, _ = scenario_dir("walker", frames=32, seed=12)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(line + "\n")
    out = tmp_path / "out"
    rc = cli.main(
        ["track", "--input", str(indir), "--output", str(out), "--config", str(cfg_path)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} "), err
    assert "Traceback" not in err
    assert not (out / "blobs.jsonl").exists()


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}
FLOAT_KEYS = [key for key in CONFIG_KEYS if _FIELD_TYPES[key.replace(".", "_")] is float]


@pytest.mark.parametrize("value", ["inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_config_rejects_infinite_float_values(key, value):
    """Every float key must be finite; ``scene.tau = inf``, for one, would
    flag no pixel as foreground and track nothing."""
    cfg = parse_config_text(f"{key} = {value}")
    with pytest.raises(ValueError, match=f"^{re.escape(key)} must be finite, got {value}$"):
        check_ranges(cfg)


@pytest.mark.parametrize("key", ["input", "output", "pattern"])
def test_track_rejects_non_string_config(tmp_path, capsys, key):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"seed = 1\n{key} = 5\n")
    rc = cli.main(
        ["track", "--input", str(tmp_path), "--output", str(tmp_path / "out"),
         "--config", str(cfg_path)]
    )
    assert rc == 1
    assert capsys.readouterr().err == f"error: line 2: {key} expects a string, got 5\n"
    assert not (tmp_path / "out").exists()


def test_baseline_rejects_out_of_range_config(tmp_path, capsys, scenario_dir):
    """``track`` in baseline mode stops before writing anything."""
    indir, _ = scenario_dir("walker", frames=32, seed=12)
    for line, key in (
        ("mask.se = 4", "mask.se"),
        ("scene.tau = -2", "scene.tau"),
        ("scene.var_floor = 0", "scene.var_floor"),
        ("learn.frames = 1", "learn.frames"),
    ):
        cfg_path = _baseline_config(tmp_path, line)
        rc = cli.main(
            ["track", "--input", str(indir), "--output", str(tmp_path / "out"),
             "--config", str(cfg_path)]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {key} ")
        assert not (tmp_path / "out").exists()


def test_track_accepts_box_at_frame_border(tmp_path, scenario_dir):
    indir, _ = scenario_dir("walker", frames=32, seed=12)
    cfg = PipelineConfig(
        input=str(indir), output=str(tmp_path / "out"), box_rect=[296, 220, 24, 20],
        box_ref_frame=31,
    )
    cli.run_pipeline(cfg)
    assert len(read_jsonl(tmp_path / "out" / "blobs.jsonl")) == 32


@pytest.mark.parametrize(
    "lines, message",
    [
        ("box.rect = [300, 112, 24, 20]",
         "box.rect [300, 112, 24, 20] does not fit the 320x240 frame"),
        ("box.rect = [-1, 112, 24, 20]",
         "box.rect [-1, 112, 24, 20] does not fit the 320x240 frame"),
        ("box.rect = [230, 112, 0, 20]",
         "box.rect needs a positive width and height, got [230, 112, 0, 20]"),
        ("box.rect = [230, 112, 24, 20]\nbox.ref_frame = 200",
         "box.ref_frame must lie in [0, 200) for 200 frames, got 200"),
    ],
)
def test_track_rejects_a_box_that_does_not_fit(
    tmp_path, capsys, monkeypatch, scenario_dir, lines, message
):
    """``config.check_box`` is the one check of ``box.rect`` and
    ``box.ref_frame``; it runs once frame 0 gives the sequence size, before
    the other learning frames are decoded."""
    indir, _ = scenario_dir("carry_box", frames=200, seed=1)
    decoded = []
    real_read_frame = iio.read_frame

    def spy(path, index, size):
        decoded.append(index)
        return real_read_frame(path, index, size)

    monkeypatch.setattr(iio, "read_frame", spy)
    cfg_path = tmp_path / "box.cfg"
    cfg_path.write_text(lines + "\n")
    out = tmp_path / "out"
    assert _track(indir, out, "--config", str(cfg_path)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert decoded == [0]
    assert not (out / "blobs.jsonl").exists()


# ---------------------------------------------------------------------------
# faulty and degenerate inputs through hbpt track

def _track(indir, outdir, *extra):
    return cli.main(["track", "--input", str(indir), "--output", str(outdir), *extra])


def test_track_rejects_depth_count_mismatch(tmp_path, capsys, scenario_dir):
    src, truth = scenario_dir("carry_box", frames=40, seed=3)
    indir = tmp_path / "in"
    shutil.copytree(src, indir)
    for i in range(10, 40):
        (indir / f"depth_{i:06d}.pgm").unlink()
    box = truth["box"]
    cfg = tmp_path / "box.cfg"
    cfg.write_text(f"box.rect = {box['rect']}\nbox.ref_frame = {box['ref_frame']}\n")
    assert _track(indir, tmp_path / "out", "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: 10 depth rasters for 40 frames in {indir}"), err
    assert not (tmp_path / "out" / "blobs.jsonl").exists()


def test_track_rejects_depth_rasters_numbered_off_their_frames(tmp_path, capsys, scenario_dir):
    src, truth = scenario_dir("carry_box", frames=40, seed=3)
    indir = tmp_path / "in"
    shutil.copytree(src, indir)
    for i in reversed(range(40)):  # depth_000001 .. depth_000040: one frame late
        (indir / f"depth_{i:06d}.pgm").rename(indir / f"depth_{i + 1:06d}.pgm")
    assert _track(indir, tmp_path / "out", "--config", str(_box_config(tmp_path, truth))) == 1
    err = capsys.readouterr().err
    want = f"error: {indir / 'depth_000001.pgm'} does not match {indir / 'frame_000000.ppm'}\n"
    assert err == want
    assert not (tmp_path / "out" / "blobs.jsonl").exists()


def test_track_rejects_single_frame_input(tmp_path, capsys, scenario_dir):
    src, _ = scenario_dir("walker", frames=32, seed=12)
    indir = tmp_path / "in"
    indir.mkdir()
    shutil.copy(src / "frame_000000.ppm", indir)
    assert _track(indir, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err == "error: need at least 2 frames to learn a scene, got 1\n"
    assert not (tmp_path / "out" / "blobs.jsonl").exists()


def test_track_person_free_sequence(tmp_path, scenario_dir):
    indir, truth = scenario_dir("background", frames=45, seed=2)
    assert not any(e["person_visible"] for e in truth["per_frame"])
    assert _track(indir, tmp_path / "out") == 0
    records = read_jsonl(tmp_path / "out" / "blobs.jsonl")
    assert [r["frame"] for r in records] == list(range(45))
    assert not any(r["tracked"] or r["person"] or r["parts"] for r in records)
    assert json.loads((tmp_path / "out" / "events.json").read_text()) == []


@pytest.mark.parametrize("scenario", ["background", "walker"])
def test_track_summary_counts_the_frames_with_a_person(tmp_path, capsys, scenario_dir, scenario):
    indir, _ = scenario_dir(scenario, frames=45, seed=2)
    out = tmp_path / "out"
    assert _track(indir, out) == 0
    tracked = sum(r["tracked"] for r in read_jsonl(out / "blobs.jsonl"))
    assert (tracked > 0) == (scenario == "walker")
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["frames"] == 45 and metrics["tracked_frames"] == tracked
    want = rf"tracked a person in {tracked} of 45 frames at \d+\.\d fps -> {re.escape(str(out))}\n"
    assert re.fullmatch(want, capsys.readouterr().out)


@pytest.mark.parametrize("fault", ["corrupt", "dimensions"])
def test_track_fails_on_bad_frame_after_learn_set(tmp_path, capsys, scenario_dir, fault):
    """A bad frame past the read-ahead learning frames stops the run mid-loop."""
    src, _ = scenario_dir("walker", frames=32, seed=12)
    indir = tmp_path / "in"
    shutil.copytree(src, indir)
    bad = indir / "frame_000031.ppm"
    if fault == "corrupt":
        bad.write_bytes(bad.read_bytes()[:-7])
        message = f"cannot decode {bad}: truncated PPM payload"
    else:
        iio.write_ppm(bad, np.zeros((4, 4, 3), np.uint8))
        message = f"dimension mismatch in {bad}: 4x4 vs 320x240"
    out = tmp_path / "out"
    assert _track(indir, out, "--overlays") == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert len(list(out.glob("out_*.ppm"))) == 31  # frames 0-30 were stepped
    assert not (out / "blobs.jsonl").exists()


def test_failed_run_leaves_no_earlier_results(tmp_path, capsys, scenario_dir):
    """A run that stops mid-loop removes the results of an earlier run first."""
    src, _ = scenario_dir("walker", frames=60, seed=12)
    out = tmp_path / "out"
    results = ("blobs.jsonl", "events.json", "metrics.json", "baseline.jsonl")
    baseline = ("--config", str(_baseline_config(tmp_path)))
    assert _track(src, out, *baseline) == 0
    assert all((out / name).exists() for name in results)
    indir = tmp_path / "in"
    shutil.copytree(src, indir)
    bad = indir / "frame_000050.ppm"
    bad.write_bytes(bad.read_bytes()[:-7])
    assert _track(indir, out, *baseline) == 1
    assert capsys.readouterr().err == f"error: cannot decode {bad}: truncated PPM payload\n"
    assert not [name for name in results if (out / name).exists()]


def test_track_removes_an_earlier_evaluation(tmp_path, scenario_dir):
    """eval.json describes the blobs.jsonl it was computed from, so a new run
    removes it."""
    src, _ = scenario_dir("walker", frames=32, seed=12)
    out = tmp_path / "out"
    assert _track(src, out) == 0
    assert cli.main(["eval", "--output", str(out), "--truth", str(src / "truth.json")]) == 0
    assert (out / "eval.json").exists()
    assert _track(src, out, "--seed", "5") == 0
    assert not (out / "eval.json").exists()


@pytest.mark.parametrize("command", ["track"])
def test_frame_of_another_size_in_the_learning_set_stops_the_run(
    tmp_path, capsys, scenario_dir, command
):
    """Each learning frame's size is checked as it is decoded, before learning."""
    src, _ = scenario_dir("walker", frames=32, seed=12)
    indir = tmp_path / "in"
    shutil.copytree(src, indir)
    bad = indir / "frame_000005.ppm"
    iio.write_ppm(bad, np.zeros((4, 4, 3), np.uint8))
    out = tmp_path / "out"
    assert cli.main([command, "--input", str(indir), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: dimension mismatch in {bad}: 4x4 vs 320x240\n"
    assert not (out / "blobs.jsonl").exists()


def test_track_removes_overlays_of_an_earlier_run(tmp_path, scenario_dir):
    indir, _ = scenario_dir("walker", frames=32, seed=12)
    out = tmp_path / "out"
    assert _track(indir, out, "--overlays") == 0
    assert len(list(out.glob("out_*.ppm"))) == 32
    (out / "notes.txt").write_text("kept")
    assert _track(indir, out) == 0
    assert not list(out.glob("out_*.ppm"))
    assert (out / "notes.txt").read_text() == "kept"


def test_track_ends_when_the_person_leaves_the_frame(tmp_path, monkeypatch):
    """A walker leaving through the right edge: every frame that shows part of
    the figure is tracked within 0.15 torso widths of the true centroid, and
    the frames after the exit are untracked."""

    def exit_right(sc, f):
        if f < sg.LEARN_FRAMES:
            return None
        return {"ox": 200 + 6 * (f - sg.LEARN_FRAMES), "oy": 100, "pose": "down"}

    monkeypatch.setattr(sg, "_person_script", exit_right)
    indir = tmp_path / "in"
    truth = sg.write_scenario(sg.Scenario("walker", frames=80, seed=5), indir)
    visible = [e["frame"] for e in truth["per_frame"] if e["person_visible"]]
    assert visible == list(range(30, visible[-1] + 1)) and visible[-1] < 60
    assert _track(indir, tmp_path / "out", "--overlays") == 0
    records = read_jsonl(tmp_path / "out" / "blobs.jsonl")
    for rec in records:
        if rec["tracked"]:
            x, y = rec["person"]["centroid"]
            assert 0 <= x <= 319 and 0 <= y <= 239, rec["frame"]
    for entry in truth["per_frame"][30 : visible[-1] + 1]:
        rec = records[entry["frame"]]
        assert rec["tracked"], entry["frame"]
        (x, y), (gx, gy) = rec["person"]["centroid"], entry["person_centroid"]
        assert math.hypot(x - gx, y - gy) <= 0.15 * entry["torso_rect"][2], entry["frame"]
    assert not any(r["tracked"] for r in records[visible[-1] + 1 :])


def test_person_one_pixel_wide_is_tracked_without_a_torso_disc():
    """``FrameStep`` skips the part stage for a person under 2 px wide, the
    one place that rule is checked."""
    cfg = PipelineConfig(mask_se=1, mask_min_area_frac=0.001, person_min_area_frac=0.001)
    frames = []
    for i in range(36):
        rgb = np.full((240, 320, 3), 90, np.uint8)
        if i >= 30:  # after the learning frames
            rgb[60:180, 100 + i] = (250, 30, 30)  # a 1-px strip, 120 px tall
        frames.append(frame_from_rgb(rgb, i))
    _, stepped = step_in_memory(cfg, frames)
    records = [record for record, _, _ in stepped]
    assert not any(r["tracked"] for r in records[:30])
    for r in records[30:]:
        assert r["tracked"] and r["person"]["bbox"][2] == 1, r
        assert r["torso_disc"] is None and r["parts"] == {}, r


# ---------------------------------------------------------------------------
# streaming: every file decoded once, memory independent of sequence length

def test_each_frame_and_depth_raster_is_decoded_once(tmp_path, monkeypatch, scenario_dir):
    indir, truth = scenario_dir("carry_box", frames=40, seed=3)
    calls = dict.fromkeys(("read_ppm", "rgb_to_yuv_image", "load_depth_raster"), 0)
    for name in calls:
        def spy(*args, _name=name, _real=getattr(iio, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(iio, name, spy)
    cfg = PipelineConfig(
        input=str(indir), output=str(tmp_path / "out"), box_rect=truth["box"]["rect"],
        box_ref_frame=truth["box"]["ref_frame"],
    )
    cli.run_pipeline(cfg)
    assert calls == {"read_ppm": 40, "rgb_to_yuv_image": 40, "load_depth_raster": 40}


@pytest.mark.parametrize("overlays", [False, True])
def test_learning_frames_keep_their_rgb_plane_only_for_overlays(
    tmp_path, monkeypatch, scenario_dir, overlays
):
    """Each learning frame holds its YUV raster; it keeps its RGB plane only
    when overlays are written, since ``_annotate`` is the one reader of it."""
    indir, truth = scenario_dir("carry_box", frames=40, seed=3)
    held = []
    real_learn_scene = sm.learn_scene

    def spy(frames, var_floor):
        model = real_learn_scene(frames, var_floor)
        held.extend((f.rgb is not None, "yuv" in vars(f)) for f in frames)
        return model

    monkeypatch.setattr(sm, "learn_scene", spy)
    cfg = PipelineConfig(
        input=str(indir), output=str(tmp_path / "out"), box_rect=truth["box"]["rect"],
        box_ref_frame=truth["box"]["ref_frame"], emit_overlays=overlays,
    )
    cli.run_pipeline(cfg)
    assert held == [(overlays, True)] * cfg.learn_frames


def test_peak_memory_does_not_grow_with_sequence_length(tmp_path, scenario_dir):
    """Frames are decoded as the loop reaches them, so the peak does not grow
    with the sequence length; and with overlays off a learning frame holds
    only its YUV raster, so the peak stays below 60 frame planes.

    Each length is tracked twice and the lower peak kept: a run interns a
    few dozen strings through pathlib, whatever its length, and one run can
    hold a one-off resize of the interpreter's table of interned strings
    (1.8 MiB late in a full test session). After a resize the table has
    room for far more strings than the four runs intern, so it does not
    fall into both runs of one length."""
    # carry_box at 120 frames also loads depth, builds parts, runs LK and
    # fires Approach and Carry
    for name in ("background", "carry_box"):
        peaks = []
        for frames in (40, 120):
            indir, truth = scenario_dir(name, frames=frames, seed=2)
            box = truth["box"] or {"rect": [], "ref_frame": 0}
            cfg = PipelineConfig(
                input=str(indir),
                output=str(tmp_path / f"{name}_{frames}"),
                box_rect=box["rect"],
                box_ref_frame=box["ref_frame"],
            )
            runs = []
            for _ in range(2):
                tracemalloc.start()
                try:
                    cli.run_pipeline(cfg)
                    runs.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            peaks.append(min(runs))
        assert peaks[1] <= 1.1 * peaks[0], (name, [p / 2**20 for p in peaks])
        plane = sg.WIDTH * sg.HEIGHT * 3  # one uint8 RGB or YUV raster
        assert max(peaks) <= 60 * plane, (name, [p / plane for p in peaks])


def test_overlay_runs_intern_no_string_per_frame(tmp_path, monkeypatch, scenario_dir):
    """Overlay file names are built as strings, so pathlib parses and interns
    no path component per frame: the count does not grow with the length."""
    counts = []
    intern = sys.intern
    for frames in (40, 120):
        indir, _ = scenario_dir("walker", frames=frames, seed=2)
        cfg = PipelineConfig(input=str(indir), output=str(tmp_path / f"{frames}"), emit_overlays=True)
        calls = []
        monkeypatch.setattr(sys, "intern", lambda s: calls.append(s) or intern(s))
        cli.run_pipeline(cfg)
        monkeypatch.setattr(sys, "intern", intern)
        assert len(list((tmp_path / f"{frames}").glob("out_*.ppm"))) == frames
        counts.append(len(calls))
    assert counts[0] == counts[1], counts


# heap: track pins glibc's mmap and trim thresholds

def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


# Runs ``hbpt track`` with the given arguments in a fresh interpreter and
# prints the process's minor page faults as the call starts and at each
# ``scene.detect_foreground`` call, the first layer call of every frame.
_FAULT_PROBE = """
import json, resource, sys
from hbpt import cli, scene

def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

faults = []
detect = scene.detect_foreground

def probe(*args):
    faults.append(minflt())
    return detect(*args)

scene.detect_foreground = probe
start = minflt()
rc = cli.main(["track", *sys.argv[1:]])
print(json.dumps([rc, start, faults]))
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_track_makes_few_page_faults_in_set_up_and_after_the_learning_frames(
    tmp_path, scenario_dir
):
    """A fresh glibc process maps and trims every temporary of 128 KiB or
    more until a large free raises its thresholds, so each full-frame
    temporary costs fresh page faults. Left to glibc, with full-frame sums
    in ``learn_scene``, this run takes 7,800-11,700 faults in set-up and
    30-60 per frame after the learning frames; with the thresholds pinned
    by ``track`` and the sums made block by block, about 2,400 and 0.5, the
    loop's almost all from the heap's first growth as the person shows."""
    indir, truth = scenario_dir("carry_box", frames=150, seed=1)
    box = truth["box"]
    cfg = tmp_path / "box.cfg"
    cfg.write_text(f"box.rect = {box['rect']}\nbox.ref_frame = {box['ref_frame']}\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE, "--input", str(indir),
         "--output", str(tmp_path / "out"), "--config", str(cfg)],
        env=env, capture_output=True, text=True, check=True,
    )
    rc, start, faults = json.loads(out.stdout.splitlines()[-1])
    assert rc == 0 and len(faults) == 150
    setup = faults[0] - start
    learn = PipelineConfig().learn_frames
    loop = (faults[-1] - faults[learn]) / (len(faults) - 1 - learn)
    assert setup <= 5000, (setup, loop)
    assert loop <= 1.0, (setup, loop)


@pytest.mark.parametrize("cdll", ["raises", "no_mallopt"])
def test_track_runs_where_the_c_library_has_no_mallopt(
    tmp_path, monkeypatch, scenario_dir, cdll
):
    indir, truth = scenario_dir("carry_box", frames=40, seed=3)
    box = truth["box"]
    cfg = tmp_path / "box.cfg"
    cfg.write_text(f"box.rect = {box['rect']}\nbox.ref_frame = {box['ref_frame']}\n")
    assert _track(indir, tmp_path / "pinned", "--config", str(cfg)) == 0
    opened = []

    def fake_cdll(name):
        opened.append(name)
        if cdll == "raises":
            raise OSError("no C library")
        return object()  # a library without mallopt

    monkeypatch.setattr(cli.ctypes, "CDLL", fake_cdll)
    assert _track(indir, tmp_path / "unpinned", "--config", str(cfg)) == 0
    assert opened == [None]
    for name in ("blobs.jsonl", "events.json"):
        pinned = (tmp_path / "pinned" / name).read_bytes()
        assert (tmp_path / "unpinned" / name).read_bytes() == pinned, name


def test_frame_step_in_memory_matches_the_files_run_pipeline_writes(tmp_path, scenario_dir):
    """FrameStep driven over the generator's frames and depth rasters, with no
    file read or written, gives the lines track writes to blobs.jsonl and
    baseline.jsonl, and the same events."""
    indir, truth = scenario_dir("carry_box", frames=40, seed=3)
    box = dict(box_rect=truth["box"]["rect"], box_ref_frame=truth["box"]["ref_frame"])
    out = tmp_path / "out"
    cli.run_pipeline(PipelineConfig(input=str(indir), output=str(out), baseline_mode=True, **box))

    frames, depths, _ = sg.generate_scenario(sg.Scenario("carry_box", frames=40, seed=3))
    cfg = PipelineConfig(output=str(tmp_path / "unused"), baseline_mode=True, **box)
    step, stepped = step_in_memory(cfg, frames, depths)
    assert not (tmp_path / "unused").exists()

    def line(rec):
        return json.dumps(rec, separators=(",", ":")) + "\n"

    assert "".join(line(rec) for rec, _, _ in stepped) == (out / "blobs.jsonl").read_text()
    baseline = [line({"frame": i, "labels": labels}) for i, (_, labels, _) in enumerate(stepped)]
    assert "".join(baseline) == (out / "baseline.jsonl").read_text()
    assert sum(labels is not None for _, labels, _ in stepped) >= 5
    events = [dataclasses.asdict(e) for e in step.monitor.events]
    assert events == json.loads((out / "events.json").read_text())


def test_records_stream_to_partial_files_that_replace_the_results_at_the_end(
    tmp_path, capsys, monkeypatch, scenario_dir
):
    """When frame k is stepped, blobs.jsonl.partial and baseline.jsonl.partial
    hold exactly the k complete records of the frames before it, and no
    result file exists yet. A run that succeeds leaves no .partial file; so
    does a run that fails on a bad frame or is interrupted, and neither
    leaves blobs.jsonl."""
    src, _ = scenario_dir("walker", frames=32, seed=12)
    out = tmp_path / "out"
    out.mkdir()
    for name in ("blobs.jsonl.partial", "baseline.jsonl.partial"):
        (out / name).write_text("left by a killed run\n")  # stale: removed at the start
    assert _track(src, out) == 0
    assert not list(out.glob("*.partial"))
    assert len(read_jsonl(out / "blobs.jsonl")) == 32

    seen = []
    detect = sm.detect_foreground
    interrupt_at = None

    def spy(model, frame, tau):
        k = frame.index
        if k == interrupt_at:
            raise KeyboardInterrupt
        for name in ("blobs.jsonl", "baseline.jsonl"):
            text = (out / f"{name}.partial").read_text()
            assert text.count("\n") == k and text.endswith("\n") == (k > 0), (name, k)
            assert [json.loads(x)["frame"] for x in text.splitlines()] == list(range(k))
            assert not (out / name).exists()
        seen.append(k)
        return detect(model, frame, tau)

    monkeypatch.setattr(sm, "detect_foreground", spy)
    baseline = ("--config", str(_baseline_config(tmp_path)))
    assert _track(src, out, *baseline) == 0
    assert seen == list(range(32))
    assert not list(out.glob("*.partial"))
    assert len(read_jsonl(out / "baseline.jsonl")) == 32

    indir = tmp_path / "in"
    shutil.copytree(src, indir)
    bad = indir / "frame_000031.ppm"
    bad.write_bytes(bad.read_bytes()[:-7])
    assert _track(indir, out, *baseline) == 1
    assert capsys.readouterr().err == f"error: cannot decode {bad}: truncated PPM payload\n"
    assert not list(out.glob("*.partial")) and not (out / "blobs.jsonl").exists()

    interrupt_at = 20
    with pytest.raises(KeyboardInterrupt):
        _track(src, out, *baseline)
    assert not list(out.glob("*.partial")) and not (out / "blobs.jsonl").exists()


def test_bench_frame_clock_sees_every_frame_and_its_exception(tmp_path, monkeypatch, scenario_dir):
    """perfbench/child.py times a run by replacing hbpt.scene.detect_foreground
    on the module: one timestamp per call is its frame clock, from which the
    bench's per-frame step times come, and its setup mode raises from the
    first call to measure setup_s. So the pipeline must call it through the
    module exactly once per frame, and let an exception from it out of
    ``hbpt track`` without leaving a .partial file."""
    indir, _ = scenario_dir("walker", frames=32, seed=12)
    detect = sm.detect_foreground
    calls = []

    def clocked(*args, **kwargs):
        calls.append(time.perf_counter())
        return detect(*args, **kwargs)

    monkeypatch.setattr(sm, "detect_foreground", clocked)
    assert _track(indir, tmp_path / "out") == 0
    assert len(calls) == 32

    class ClockStop(Exception):
        """Private to this test, so nothing in hbpt can catch it by name."""

    def setup_only(*args, **kwargs):
        raise ClockStop

    monkeypatch.setattr(sm, "detect_foreground", setup_only)
    with pytest.raises(ClockStop):
        _track(indir, tmp_path / "out")
    assert not list((tmp_path / "out").glob("*.partial"))
    assert not (tmp_path / "out" / "blobs.jsonl").exists()


# ---------------------------------------------------------------------------
# metrics.json stage accounting

def test_metrics_time_load_baseline_and_learn_once(tmp_path, scenario_dir):
    indir, _ = scenario_dir("walker", frames=32, seed=12)
    cfg = PipelineConfig(input=str(indir), output=str(tmp_path / "out"), baseline_mode=True)
    cli.run_pipeline(cfg)
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    stages = metrics["stage_ms"]
    assert {"load", "baseline", "parts", "foreground", "write", "other"} <= set(stages)
    assert "learn" not in stages
    assert metrics["learn_ms"] > 0
    assert all(v > 0 for v in stages.values())
    # the per-frame stage means and learning add up to the wall time per frame
    n = metrics["frames"]
    assert sum(stages.values()) + metrics["learn_ms"] / n == pytest.approx(
        1e3 * metrics["wall_time_s"] / n, rel=1e-9
    )


def test_metrics_write_stage_times_the_output_files(tmp_path, scenario_dir, monkeypatch):
    """Writing blobs.jsonl, baseline.jsonl and events.json is ``write``, not ``other``."""
    indir, _ = scenario_dir("walker", frames=32, seed=12)
    dumps = json.dumps

    def slow_dumps(*args, **kwargs):
        time.sleep(0.002)
        return dumps(*args, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", slow_dumps)  # one call per output line
    cfg = PipelineConfig(input=str(indir), output=str(tmp_path / "out"), baseline_mode=True)
    cli.run_pipeline(cfg)
    monkeypatch.undo()
    stages = json.loads((tmp_path / "out" / "metrics.json").read_text())["stage_ms"]
    assert stages["write"] >= 2 * 2.0  # 64 lines of 2 ms over 32 frames
    assert stages["other"] < stages["write"]


# ---------------------------------------------------------------------------
# baseline labeler against the contour-tracing reference

# Moore neighbourhood, clockwise starting east, as (dx, dy)
_MOORE = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
_DIR_CODE = {d: i for i, d in enumerate(_MOORE)}


def _reference_trace_boundary(region, start):
    """Clockwise Moore boundary trace from the region's topmost-leftmost pixel.

    The walk keeps a backtrack cell (the background cell examined just before
    the current pixel was found). States (pixel, backtrack) are finite and the
    transition is deterministic, so the walk settles in a cycle covering the
    boundary; that cycle is the chain. 1-px-wide limbs are walked on both
    sides, so points may repeat within the chain.
    """
    h, w = region.shape
    sx, sy = start

    def is_fg(x, y):
        return 0 <= x < w and 0 <= y < h and region[y, x]

    px, py = sx, sy
    bx, by = sx - 1, sy  # start was entered from the west by scan order
    seen = {}
    pixels = []
    while True:
        state = (px, py, bx, by)
        if state in seen:
            cycle = pixels[seen[state] :]
            break
        seen[state] = len(pixels)
        pixels.append((px, py))
        bdir = _DIR_CODE[(bx - px, by - py)]
        found = None
        for k in range(1, 9):
            d = (bdir + k) % 8
            dx, dy = _MOORE[d]
            nx, ny = px + dx, py + dy
            if is_fg(nx, ny):
                pdx, pdy = _MOORE[(bdir + k - 1) % 8]
                found = (nx, ny, px + pdx, py + pdy)
                break
        if found is None:
            return [(sx, sy)]  # isolated pixel
        px, py, bx, by = found
    j = min(range(len(cycle)), key=lambda t: (cycle[t][1], cycle[t][0]))
    return cycle[j:] + cycle[:j]


def _reference_label_silhouette(sil):
    """The contour-tracing labeler: Moore-trace the outer contour of the single
    component in ``sil``, take the convex hull of the contour points, and
    label it around the mean of the silhouette's pixel coordinates."""
    ys, xs = np.nonzero(sil)
    x0, y0 = int(xs.min()), int(ys.min())
    bw, bh = int(xs.max()) - x0 + 1, int(ys.max()) - y0 + 1
    crop = sil[y0 : y0 + bh, x0 : x0 + bw]
    cys, cxs = np.nonzero(crop)
    k = np.lexsort((cxs, cys))[0]  # topmost, then leftmost
    chain = _reference_trace_boundary(crop, (int(cxs[k]), int(cys[k])))
    if len(chain) < 3:
        return None
    hull = mo.convex_hull([(cx + x0, cy + y0) for cx, cy in chain])
    centroid = (float(xs.mean()), float(ys.mean()))
    return bl.label_parts_by_distance(hull, centroid, bw, bh)


def _silhouettes():
    shape = (240, 320)
    for pose in ("star", "reach", "reach_hidden", "down"):
        yield pose, sg.render_person_mask(np.zeros(shape, bool), 150, 70, pose)
    for name, ox, oy in (("left", 45, 60), ("right", 275, 60), ("top", 150, 0),
                         ("bottom", 150, 126), ("left-top", 45, 0)):
        yield f"star-{name}", sg.render_person_mask(np.zeros(shape, bool), ox, oy, "star")
    for corner in ((slice(0, 30), slice(0, 24)), (slice(210, 240), slice(296, 320))):
        m = np.zeros(shape, bool)
        m[corner] = True
        yield "corner", m
    m = np.zeros(shape, bool)
    m[100:130, 40:60] = True
    m[115, 0:40] = True  # 1-px-wide limb to the left edge
    yield "thin-limb", m
    m = np.zeros(shape, bool)
    m[100:130, 40:70] = True
    m[108:122, 48:62] = False  # enclosed hole
    yield "ring", m
    for n in (1, 2, 3):
        m = np.zeros(shape, bool)
        m[239, 319 - n + 1 :] = True  # tiny silhouettes in the corner
        yield f"pixels-{n}", m
    m = np.zeros(shape, bool)
    m[0, 0:25] = True  # a 1-px line, walked on both sides
    yield "line", m


def test_label_silhouette_crop_matches_full_frame():
    seen = set()
    for name, sil in _silhouettes():
        got = labels_of(sil)
        assert got == _reference_label_silhouette(sil), name
        seen.add(got is None)
    assert seen == {True, False}  # degenerate contours are covered too


def _random_silhouettes(kind, rng, count=250, shape=(18, 22)):
    h, w = shape
    for _ in range(count):
        m = np.zeros(shape, bool)
        if kind == "speck":  # 1-3 px, often on the frame edge
            y, x = int(rng.integers(0, h)), int(rng.integers(0, w))
            m[y, x] = True
            for _ in range(int(rng.integers(0, 3))):
                dy, dx = rng.integers(-1, 2, 2)
                m[min(max(y + dy, 0), h - 1), min(max(x + dx, 0), w - 1)] = True
        elif kind == "line":  # 1-px-wide walks, walked on both sides by a tracer
            y, x = int(rng.integers(0, h)), int(rng.integers(0, w))
            for _ in range(int(rng.integers(1, 40))):
                m[y, x] = True
                dy, dx = rng.integers(-1, 2, 2)
                y, x = min(max(y + dy, 0), h - 1), min(max(x + dx, 0), w - 1)
        elif kind == "ring":  # boxes with holes, notches and 1-px walls
            y0, x0 = int(rng.integers(0, h - 4)), int(rng.integers(0, w - 4))
            y1, x1 = int(rng.integers(y0 + 3, h + 1)), int(rng.integers(x0 + 3, w + 1))
            t = int(rng.integers(1, 3))
            m[y0:y1, x0:x1] = True
            m[y0 + t : y1 - t, x0 + t : x1 - t] = False
            m[y0:y1, x0:x1] &= rng.random((y1 - y0, x1 - x0)) < rng.uniform(0.8, 1.0)
        elif kind == "edge":  # dense blobs cut by the frame edge
            m = rng.random(shape) < rng.uniform(0.5, 0.8)
            m[int(rng.integers(2, h)) :, :] = False
            m[:, : int(rng.integers(0, w - 2))] = False
        else:  # random blobs
            m = rng.random(shape) < rng.uniform(0.2, 0.7)
        m = person_component(m)[1]  # its largest component, None when empty
        if m is not None:
            yield m


@pytest.mark.parametrize("kind", ["speck", "line", "ring", "edge", "blob"])
def test_label_silhouette_matches_contour_reference(kind):
    rng = np.random.default_rng(["speck", "line", "ring", "edge", "blob"].index(kind))
    n = 0
    for sil in _random_silhouettes(kind, rng):
        assert labels_of(sil) == _reference_label_silhouette(sil)
        n += 1
    assert n >= 200


def _reference_part_model(partition, frame, min_part_area):
    blobs, pixels = _reference_build_part_model(partition, frame, min_part_area)
    return bp.BodyPartModel(blobs=blobs, part_pixels=pixels)


def test_track_and_baseline_match_full_frame_reference(tmp_path, monkeypatch, scenario_dir):
    indir, _ = scenario_dir("starfish", frames=60, seed=13)

    def run(tag):
        cfg = PipelineConfig(input=str(indir), output=str(tmp_path / tag), baseline_mode=True)
        cli.run_pipeline(cfg)
        return [
            (tmp_path / tag / name).read_bytes()
            for name in ("blobs.jsonl", "events.json", "baseline.jsonl")
        ]

    got = run("crop")
    monkeypatch.setattr(bp, "partition_regions", _reference_partition_regions)
    monkeypatch.setattr(bp, "build_part_model", _reference_part_model)
    monkeypatch.setattr(bl, "label_silhouette", lambda sil, comp: _reference_label_silhouette(sil))
    want = run("full")
    assert got == want
    records = read_jsonl(tmp_path / "crop" / "blobs.jsonl")
    assert sum(len(r["parts"]) == 6 for r in records) == 30


# ---------------------------------------------------------------------------
# depth rasters of the wrong size, and the number of labelling passes

def _box_config(tmp_path, truth):
    box = truth["box"]
    cfg = tmp_path / "box.cfg"
    cfg.write_text(f"box.rect = {box['rect']}\nbox.ref_frame = {box['ref_frame']}\n")
    return cfg


def test_track_rejects_depth_rasters_of_the_wrong_size(tmp_path, capsys, scenario_dir):
    src, truth = scenario_dir("carry_box", frames=40, seed=3)
    indir = tmp_path / "in"
    shutil.copytree(src, indir)
    for path in indir.glob("depth_*.pgm"):
        z = iio.load_depth_raster(path)
        iio.write_pgm16(path, z[::2, ::2])
    assert _track(indir, tmp_path / "out", "--config", str(_box_config(tmp_path, truth))) == 1
    err = capsys.readouterr().err
    want = f"error: dimension mismatch in {indir / 'depth_000000.pgm'}: 160x120 vs 320x240\n"
    assert err == want
    assert not (tmp_path / "out" / "blobs.jsonl").exists()


def test_track_labels_at_most_three_times_per_frame(tmp_path, monkeypatch, scenario_dir):
    indir, truth = scenario_dir("carry_box", frames=40, seed=3)
    counts = [0]  # labelling passes before the first frame, then one count per frame
    label, detect = mo.ndimage.label, sm.detect_foreground

    def counted(*args, **kwargs):
        counts[-1] += 1
        return label(*args, **kwargs)

    def frame_start(*args, **kwargs):  # the first layer call of every frame
        counts.append(0)
        return detect(*args, **kwargs)

    monkeypatch.setattr(mo.ndimage, "label", counted)
    monkeypatch.setattr(sm, "detect_foreground", frame_start)
    assert _track(indir, tmp_path / "out", "--config", str(_box_config(tmp_path, truth))) == 0
    records = read_jsonl(tmp_path / "out" / "blobs.jsonl")
    assert sum(r["tracked"] for r in records) >= 5  # the part model ran
    assert len(counts) == len(records) + 1 and counts[0] == 0
    # refinement labels twice (components, holes), the part model once
    assert max(counts) == 3, counts
