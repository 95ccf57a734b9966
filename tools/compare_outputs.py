"""Byte-compare the inputs and outputs of two checkouts of hbpt.

Usage: python3 tools/compare_outputs.py PARENT CHANGE WORKDIR

For every synthetic scenario at seeds 1, 3 and 7, each checkout renders the
scenario with its own ``hbpt synth`` and tracks it with its own
``hbpt track --overlays``, with ``baseline_mode = true`` and, where the
scenario has one, the box from its truth.json. That is the PPM pass. In the
PNG pass each side's rendered frames are re-encoded as RGB PNG, row r with
filter type r % 5 (none, sub, up, average, Paeth), so every unfilter of the
PNG decoder runs, and tracked again with ``pattern = "frame_*.png"`` and the
same depth rasters. The two checkouts run side by side, one process each,
from their ``src`` directories and without writing bytecode. After each pass
every file of its input and output trees is compared, apart from
metrics.json, which holds timings. One line is printed per scenario and seed;
the exit status is 1 when any file differs or any run fails.

Runs are written under WORKDIR/parent and WORKDIR/change, one directory per
scenario and seed, emptied before the run starts, next to its track configs:
``in`` and ``out`` for the PPM pass, ``png_in`` and ``png_out`` for the PNG
pass.
"""

import filecmp
import json
import os
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np

SEEDS = (1, 3, 7)
SIDES = ("parent", "change")
PASSES = {"ppm": ("in", "out"), "png": ("png_in", "png_out")}


def _env(checkout):
    return {
        **os.environ,
        "PYTHONPATH": str(Path(checkout).resolve() / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
    }


def _scenario_names(checkout, workdir):
    out = subprocess.run(
        [sys.executable, "-c", "from hbpt.synthgen import SCENARIO_NAMES; print(*SCENARIO_NAMES)"],
        env=_env(checkout), cwd=workdir, capture_output=True, text=True, check=True,
    )
    return out.stdout.split()


def _hbpt(checkout, run, *args):
    # run from the run directory: ``-m`` puts the working directory first on
    # sys.path, and a package found there would shadow the checkout's
    return subprocess.Popen(
        [sys.executable, "-m", "hbpt.cli", *args],
        env=_env(checkout), cwd=run, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True,
    )


def _wait_all(procs):
    """Wait for one process per side; the failed sides, each with its last
    stderr line."""
    failed = []
    for side, proc in procs.items():
        _, err = proc.communicate()
        if proc.returncode != 0:
            lines = err.strip().splitlines()
            failed.append(f"{side} exit {proc.returncode}: {lines[-1] if lines else ''}")
    return failed


def _config(run, kind):
    lines = ["baseline_mode = true"]
    box = json.loads((run / "in" / "truth.json").read_text()).get("box")
    if box:
        lines += [f"box.rect = {box['rect']}", f"box.ref_frame = {box['ref_frame']}"]
    if kind == "png":
        lines.append('pattern = "frame_*.png"')
    path = run.parent / f"{run.name}_{kind}.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def _png_chunk(kind, body):
    return struct.pack(">I", len(body)) + kind + body + struct.pack(">I", zlib.crc32(kind + body))


def _encode_png(rgb):
    """RGB PNG bytes of an (h, w, 3) uint8 raster, row r filtered with type
    r % 5, each filter computed from the unfiltered bytes as the PNG
    specification defines it."""
    h, w, _ = rgb.shape
    x = rgb.reshape(h, w * 3).astype(np.int16)
    a = np.zeros_like(x)
    a[:, 3:] = x[:, :-3]
    b = np.zeros_like(x)
    b[1:] = x[:-1]
    c = np.zeros_like(x)
    c[1:, 3:] = x[:-1, :-3]
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    types = np.arange(h) % 5
    pred = np.stack([np.zeros_like(x), a, b, (a + b) >> 1, paeth])[types, np.arange(h)]
    rows = ((x - pred) & 0xFF).astype(np.uint8)
    raw = np.concatenate([types[:, None].astype(np.uint8), rows], axis=1).tobytes()
    return (
        b"\x89PNG\r\n\x1a\n"
        + _png_chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
        + _png_chunk(b"IDAT", zlib.compress(raw))
        + _png_chunk(b"IEND", b"")
    )


def _png_input(run):
    """Re-encode the run's rendered PPM frames as PNG into run/png_in, next
    to copies of its depth rasters."""
    src, dst = run / "in", run / "png_in"
    dst.mkdir()
    for path in src.glob("frame_*.ppm"):
        magic, size, maxval, payload = path.read_bytes().split(b"\n", 3)
        w, h = map(int, size.split())
        if (magic, maxval) != (b"P6", b"255"):
            raise ValueError(f"{path}: not a P6 frame as hbpt synth writes them")
        rgb = np.frombuffer(payload, np.uint8, count=w * h * 3).reshape(h, w, 3)
        (dst / f"{path.stem}.png").write_bytes(_encode_png(rgb))
    for path in src.glob("depth_*.pgm"):
        shutil.copyfile(path, dst / path.name)


def _files(run, kind):
    indir, outdir = PASSES[kind]
    files = set()
    for sub in (indir, outdir):
        files |= {p.relative_to(run) for p in (run / sub).rglob("*") if p.is_file()}
    return files - {Path(outdir) / "metrics.json"}


def _compare(runs, kind):
    """(files compared, paths that differ or exist on one side only)."""
    trees = {side: _files(run, kind) for side, run in runs.items()}
    both = trees["parent"] & trees["change"]
    diff = sorted(trees["parent"] ^ trees["change"])
    diff += sorted(
        p for p in both if not filecmp.cmp(runs["parent"] / p, runs["change"] / p, shallow=False)
    )
    return len(both), diff


def _compare_run(checkouts, workdir, scenario, seed):
    runs = {side: workdir / side / f"{scenario}_s{seed}" for side in SIDES}
    for run in runs.values():
        shutil.rmtree(run, ignore_errors=True)
        run.mkdir(parents=True)
    failed = _wait_all({
        side: _hbpt(checkouts[side], run, "synth", "--scenario", scenario, "--seed", str(seed),
                    "--output", str(run / "in"))
        for side, run in runs.items()
    })
    if failed:
        return False, "synth FAILED " + "; ".join(failed)
    ok, msgs = True, []
    for kind, (indir, outdir) in PASSES.items():
        if kind == "png":
            for run in runs.values():
                _png_input(run)
        failed = _wait_all({
            side: _hbpt(checkouts[side], run, "track", "--overlays",
                        "--config", str(_config(run, kind)),
                        "--input", str(run / indir), "--output", str(run / outdir))
            for side, run in runs.items()
        })
        if failed:
            return False, "; ".join(msgs + [f"{kind} FAILED " + "; ".join(failed)])
        n, diff = _compare(runs, kind)
        if diff:
            ok = False
            shown = ", ".join(str(p) for p in diff[:5])
            msgs.append(f"{kind} DIFFER in {len(diff)} of {n} files: {shown}")
        else:
            msgs.append(f"{kind} identical ({n} files)")
    return ok, "; ".join(msgs)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent, change, workdir = argv
    checkouts = {"parent": parent, "change": change}
    workdir = Path(workdir).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    ok_all = True
    for scenario in _scenario_names(change, workdir):
        for seed in SEEDS:
            ok, msg = _compare_run(checkouts, workdir, scenario, seed)
            ok_all &= ok
            print(f"{scenario} seed {seed}: {msg}", flush=True)
    print("all identical" if ok_all else "outputs differ or runs failed")
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
